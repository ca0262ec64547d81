import hashlib
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import wellcast
from wellcast import checkpoint, data
from wellcast.cli import main
from wellcast.evaluation import MetricsReport


def run(*argv):
    return main(list(argv))


def file_hash(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def small_field(tmp_path_factory):
    """A small synthetic field CSV shared by the command tests."""
    out = tmp_path_factory.mktemp("field")
    cfg = data.SyntheticFieldConfig(n_sites=2, wells_per_site=3, n_steps=260,
                                    seed=7, breakthrough_delay_range=(5, 40),
                                    well_start_frac=0.1)
    text = data.config_to_text(cfg)
    cfg_path = out / "field.cfg"
    cfg_path.write_text(text)
    assert run("generate", "--synthetic-config", str(cfg_path),
               "--out", str(out)) == 0
    return out / "data.csv", cfg_path, out


COMMON = ["--horizon", "6", "--samples", "8", "--epochs", "2",
          "--windows-per-epoch", "2", "--seed", "3", "--lr", "1e-3"]
SIZES = ["--context-length", "24"]  # timegrad context
ENC = ["--enc-length", "24", "--token-length", "8"]


class TestGenerate:
    def test_regenerate_from_sidecar_is_byte_identical(self, small_field, tmp_path):
        csv_path, cfg_path, out = small_field
        again = tmp_path / "again"
        assert run("generate", "--synthetic-config", str(out / "data.sidecar"),
                   "--out", str(again)) == 0
        assert file_hash(again / "data.csv") == file_hash(csv_path)

    def test_invalid_well_count_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("wells_per_site=0\n")
        assert run("generate", "--synthetic-config", str(bad),
                   "--out", str(tmp_path / "x")) == 2


class TestTrain:
    def test_zero_epochs_writes_initial_checkpoint(self, small_field, tmp_path):
        csv_path, _, _ = small_field
        out = tmp_path / "run"
        code = run("train", "--model", "informer", "--data", str(csv_path),
                   "--out", str(out), "--horizon", "6", "--seed", "3",
                   "--epochs", "0", *ENC)
        assert code == 0
        ckpt = out / "informer_all.gck"
        assert ckpt.exists()
        rec = checkpoint.load(ckpt)
        assert rec["meta/epochs_done"][0] == 0.0

    def test_resume_continues_history(self, small_field, tmp_path):
        csv_path, _, _ = small_field
        out = tmp_path / "run"
        args = ["train", "--model", "vanilla", "--data", str(csv_path),
                "--out", str(out), *COMMON, *ENC]
        assert run(*args) == 0
        loss_csv = out / "vanilla_all_loss.csv"
        first = loss_csv.read_text().splitlines()
        assert first[0] == "epoch,train_loss,val_loss"
        assert len(first) == 3
        assert run(*args) == 0  # resumes from the existing checkpoint
        second = loss_csv.read_text().splitlines()
        assert len(second) == 5
        epochs = [int(line.split(",")[0]) for line in second[1:]]
        assert epochs == [0, 1, 2, 3]
        rec = checkpoint.load(out / "vanilla_all.gck")
        assert rec["meta/epochs_done"][0] == 4.0

    @pytest.mark.parametrize("changed", [
        ["--horizon", "9", "--enc-length", "40", "--lr", "5e-2"],
        ["--lr", "5e-2"]])
    def test_resume_refuses_conflicting_flags(self, small_field, tmp_path,
                                              capsys, changed):
        csv_path, _, _ = small_field
        out = tmp_path / "run"
        args = ["train", "--model", "vanilla", "--data", str(csv_path),
                "--out", str(out), *COMMON, *ENC]
        assert run(*args) == 0
        ckpt, loss_csv = out / "vanilla_all.gck", out / "vanilla_all_loss.csv"
        before = ckpt.read_bytes(), loss_csv.read_bytes()
        capsys.readouterr()
        assert run(*args, *changed) == 2
        detail = capsys.readouterr().out
        assert str(ckpt) in detail and "lr 0.001 vs 0.05" in detail
        assert ("vanilla/config" in detail) == ("--horizon" in changed)
        assert (ckpt.read_bytes(), loss_csv.read_bytes()) == before

    def test_seed_reproducibility(self, small_field, tmp_path):
        csv_path, _, _ = small_field
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run("train", "--model", "timegrad", "--data", str(csv_path),
                       "--out", str(out), *COMMON, *SIZES) == 0
            outs.append(file_hash(out / "timegrad_all.gck"))
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("model,sizes", [("vanilla", ENC),
                                             ("timegrad", SIZES)])
    def test_resumed_run_gives_straight_run_bytes(self, small_field, tmp_path,
                                                  model, sizes):
        csv_path, _, _ = small_field
        args = ["train", "--model", model, "--data", str(csv_path), *COMMON,
                *sizes]
        straight, resumed = tmp_path / "straight", tmp_path / "resumed"
        assert run(*args, "--out", str(straight), "--epochs", "2") == 0
        for _ in range(2):
            assert run(*args, "--out", str(resumed), "--epochs", "1") == 0
        for name in (f"{model}_all.gck", f"{model}_all_loss.csv"):
            assert (resumed / name).read_bytes() == (straight / name).read_bytes()

    @pytest.mark.parametrize("windows", ["0", "-3"])
    def test_nonpositive_windows_per_epoch_exits_2(self, small_field, tmp_path,
                                                   capsys, windows):
        csv_path, _, _ = small_field
        out = tmp_path / "run"
        assert run("train", "--model", "vanilla", "--data", str(csv_path),
                   "--out", str(out), *COMMON, *ENC,
                   "--windows-per-epoch", windows) == 2
        assert "windows_per_epoch must be >= 1" in capsys.readouterr().out
        assert not (out / "vanilla_all.gck").exists()


class TestNegativeSeed:
    """A negative seed exits 2 instead of ending in numpy's ValueError; the
    sidecar line ``seed=-1`` is a case of TestMalformedInputs."""

    def test_generate_flag(self, tmp_path, capsys):
        assert run("generate", "--seed", "-1", "--out", str(tmp_path / "x")) == 2
        assert "seed must be >= 0" in capsys.readouterr().out
        assert not (tmp_path / "x" / "data.csv").exists()

    def test_train_flag(self, small_field, tmp_path, capsys):
        csv_path, _, _ = small_field
        out = tmp_path / "run"
        assert run("train", "--model", "timegrad", "--data", str(csv_path),
                   "--out", str(out), *COMMON, *SIZES, "--seed", "-1") == 2
        assert "seed must be >= 0" in capsys.readouterr().out
        assert not (out / "timegrad_all.gck").exists()


@pytest.fixture(scope="module")
def trained(small_field, tmp_path_factory):
    csv_path, _, _ = small_field
    out = tmp_path_factory.mktemp("trained")
    assert run("train", "--model", "informer", "--data", str(csv_path),
               "--out", str(out), *COMMON, *ENC) == 0
    return csv_path, out


class TestForecastEvaluate:
    def test_forecast_outputs(self, trained):
        csv_path, out = trained
        assert run("forecast", "--model", "informer", "--data", str(csv_path),
                   "--out", str(out), *COMMON, *ENC) == 0
        rec = checkpoint.load(out / "informer_all_ensemble.gck")
        assert rec["ensemble/samples"].shape == (8, 6, 2)
        svg = (out / "informer_all_SITE00_oil.svg").read_text()
        assert svg.startswith("<svg")
        plot = (out / "informer_all_SITE00_oil_plot.csv").read_text()
        assert plot.splitlines()[0] == "timestamp,truth,prediction,q_low,q_high"

    def test_forecast_determinism(self, trained):
        csv_path, out = trained
        args = ("forecast", "--model", "informer", "--data", str(csv_path),
                "--out", str(out), *COMMON, *ENC)
        assert run(*args) == 0
        h1 = file_hash(out / "informer_all_ensemble.gck")
        assert run(*args) == 0
        assert file_hash(out / "informer_all_ensemble.gck") == h1

    def test_evaluate_report(self, trained):
        csv_path, out = trained
        assert run("forecast", "--model", "informer", "--data", str(csv_path),
                   "--out", str(out), *COMMON, *ENC) == 0
        assert run("evaluate", "--model", "informer", "--data", str(csv_path),
                   "--out", str(out), *COMMON, *ENC) == 0
        report = MetricsReport.from_csv_text(
            (out / "informer_report.csv").read_text())
        assert report.model == "informer"
        # one chosen-quantile row plus one oracle-best row per column
        assert len(report.rows) == 4
        starred = [r for r in report.rows if r.site.endswith("*")]
        plain = [r for r in report.rows if not r.site.endswith("*")]
        for s, p in zip(starred, plain):
            assert s.mase <= p.mase + 1e-12
        txt = (out / "informer_report.txt").read_text()
        assert "MASE" in txt and "informer" in txt

    def test_missing_checkpoint_is_validation_error(self, small_field, tmp_path):
        csv_path, _, _ = small_field
        assert run("forecast", "--model", "timegrad", "--data", str(csv_path),
                   "--out", str(tmp_path / "none"), *COMMON, *SIZES) == 2

    def test_poisoned_checkpoint_exits_numeric_without_ensemble(self, small_field,
                                                                tmp_path):
        csv_path, _, _ = small_field
        out = tmp_path / "nan"
        args = ("--model", "timegrad", "--data", str(csv_path), "--out", str(out),
                *COMMON, *SIZES)
        assert run("train", *args) == 0
        ckpt = out / "timegrad_all.gck"
        rec = checkpoint.load(ckpt)
        rec["timegrad/eps/w3"] = np.full_like(rec["timegrad/eps/w3"], np.nan)
        checkpoint.save(ckpt, rec)
        assert run("forecast", *args) == 3
        assert not (out / "timegrad_all_ensemble.gck").exists()

    def test_one_shot_horizon_mismatch_exits_2(self, trained, tmp_path, capsys):
        # trained at horizon 6, the one-shot decoder cannot emit 5 steps
        csv_path, out = trained
        fresh = tmp_path / "h5"
        code = run("forecast", "--model", "informer", "--data", str(csv_path),
                   "--out", str(fresh), "--checkpoint",
                   str(out / "informer_all.gck"), *COMMON, *ENC,
                   "--horizon", "5")
        assert code == 2
        assert "emits 6 steps, not 5" in capsys.readouterr().out
        assert not (fresh / "informer_all_ensemble.gck").exists()

    def test_horizon_exceeding_test_span(self, trained):
        csv_path, out = trained
        code = run("forecast", "--model", "informer", "--data", str(csv_path),
                   "--out", str(out), "--horizon", "500", "--samples", "4",
                   "--seed", "3", *ENC)
        assert code == 2


class TestPerfectForecastFixture:
    def test_perfect_ensemble_scores_zero(self, small_field, tmp_path):
        csv_path, _, _ = small_field
        panel = data.load_csv(csv_path)
        out = tmp_path / "fix"
        out.mkdir()
        groups = panel.select([(s, data.OIL) for s in panel.site_names])
        k = groups.split_index
        horizon = 6
        truth = groups.values[k:k + horizon]
        samples = np.repeat(truth[None], 8, axis=0)
        checkpoint.save(out / "informer_all_ensemble.gck", {
            "ensemble/samples": samples,
            "ensemble/timestamps": groups.timestamps[k:k + horizon].astype(float),
            "ensemble/denormalized": np.array([1.0]),
        })
        assert run("evaluate", "--model", "informer", "--data", str(csv_path),
                   "--out", str(out), "--horizon", "6", "--seed", "0") == 0
        report = MetricsReport.from_csv_text(
            (out / "informer_report.csv").read_text())
        for row in report.rows:
            assert row.mse == 0.0
            assert row.mase == 0.0


class TestConfigFile:
    def test_flags_override_file(self, small_field, tmp_path):
        csv_path, _, _ = small_field
        conf = tmp_path / "run.cfg"
        conf.write_text("model=vanilla\nseed=9\nhorizon=6\nsamples=4\n"
                        "epochs=1\nwindows_per_epoch=2\nenc_length=24\n"
                        "token_length=8\nlr=0.001\n")
        out = tmp_path / "o"
        assert run("train", "--config", str(conf), "--data", str(csv_path),
                   "--out", str(out), "--model", "informer") == 0
        assert (out / "informer_all.gck").exists()  # flag beat the file

    def test_unknown_key_rejected(self, tmp_path):
        conf = tmp_path / "bad.cfg"
        conf.write_text("bogus=1\n")
        assert run("train", "--config", str(conf)) == 2

    @pytest.mark.parametrize("line", ["horizon=abc", "lr=fast"])
    def test_non_numeric_value_exits_2(self, tmp_path, capsys, line):
        conf = tmp_path / "bad.cfg"
        conf.write_text(f"seed=1\n{line}\n")
        assert run("train", "--config", str(conf)) == 2
        out = capsys.readouterr()
        key = line.partition("=")[0]
        assert "error=validation" in out.out
        assert f"config line 2: {key}" in out.out
        assert "Traceback" not in out.out + out.err

    def test_nan_learning_rate_exits_2(self, small_field, tmp_path):
        csv_path, _, _ = small_field
        conf = tmp_path / "nan.cfg"
        conf.write_text("lr=nan\n")
        out = tmp_path / "o"
        assert run("train", "--config", str(conf), "--data", str(csv_path),
                   "--out", str(out), "--model", "timegrad", *SIZES) == 2
        assert not list(out.glob("*.gck"))


class TestMalformedInputs:
    """A malformed sidecar, checkpoint or ensemble exits 2 naming the line
    or the record, never with a traceback."""

    @pytest.mark.parametrize("line", ["n_sites=abc", "seed=1.5",
                                      "q_init_range=1,x", "wells_per_site="])
    def test_bad_sidecar_line_exits_2(self, tmp_path, capsys, line):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"# field\n{line}\n")
        assert run("generate", "--synthetic-config", str(bad),
                   "--out", str(tmp_path / "x")) == 2
        out = capsys.readouterr()
        assert f"config line 2: {line.partition('=')[0]} expects" in out.out
        assert "Traceback" not in out.out + out.err

    @pytest.mark.parametrize("line", ["shutin_rate=2.0",
                                      "breakthrough_delay_range=5,5",
                                      "shutin_duration_range=4,2",
                                      "well_start_frac=nan", "seed=-1"])
    def test_out_of_range_sidecar_value_exits_2(self, tmp_path, capsys, line):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"{line}\n")
        assert run("generate", "--synthetic-config", str(bad),
                   "--out", str(tmp_path / "x")) == 2
        out = capsys.readouterr()
        assert "error=validation" in out.out
        assert line.partition("=")[0] in out.out
        assert "Traceback" not in out.out + out.err
        assert not (tmp_path / "x" / "data.csv").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("line", ["surge_decay_steps=0", "noise_scale=1000",
                                      "q_init_range=1e300,1e308"])
    def test_non_finite_field_exits_2_writing_nothing(self, tmp_path, capsys,
                                                      line):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"n_steps=300\nn_sites=2\nwells_per_site=2\n{line}\n")
        assert run("generate", "--synthetic-config", str(bad),
                   "--out", str(tmp_path / "x")) == 2
        assert "production values must be finite" in capsys.readouterr().out
        assert not (tmp_path / "x").exists()

    @pytest.fixture(scope="class")
    def initial(self, small_field, tmp_path_factory):
        """Untrained timegrad and informer checkpoints, with optimizer state."""
        csv_path, _, _ = small_field
        out = tmp_path_factory.mktemp("initial")
        for model, sizes in (("timegrad", SIZES), ("informer", ENC)):
            assert run("train", "--model", model, "--data", str(csv_path),
                       "--out", str(out), *COMMON, *sizes, "--epochs", "0") == 0
        return csv_path, out

    @pytest.mark.parametrize("damage", ["missing", "shape", "short_config"])
    @pytest.mark.parametrize("model,param,sizes", [
        ("timegrad", "timegrad/gru/0/u_h", SIZES),
        ("informer", "informer/p/3", ENC)])
    def test_damaged_model_checkpoint_forecast_exits_2(
            self, initial, tmp_path, capsys, model, param, sizes, damage):
        csv_path, out = initial
        rec = checkpoint.load(out / f"{model}_all.gck")
        name = f"{model}/config" if damage == "short_config" else param
        if damage == "missing":
            del rec[name]
        else:
            rec[name] = rec[name][..., :-1]
        checkpoint.save(tmp_path / f"{model}_all.gck", rec)
        capsys.readouterr()
        assert run("forecast", "--model", model, "--data", str(csv_path),
                   "--out", str(tmp_path), *COMMON, *sizes) == 2
        printed = capsys.readouterr()
        assert repr(name) in printed.out
        assert "Traceback" not in printed.out + printed.err
        assert not (tmp_path / f"{model}_all_ensemble.gck").exists()

    @pytest.mark.parametrize("model,name,index,value,sizes", [
        ("timegrad", "timegrad/config", 0, np.nan, SIZES),
        ("timegrad", "timegrad/sched", 0, np.inf, SIZES),
        ("informer", "informer/config", 1, 8.5, ENC)])
    def test_non_integral_config_entry_forecast_exits_2(
            self, initial, tmp_path, capsys, model, name, index, value, sizes):
        csv_path, out = initial
        rec = checkpoint.load(out / f"{model}_all.gck")
        rec[name][index] = value
        checkpoint.save(tmp_path / f"{model}_all.gck", rec)
        capsys.readouterr()
        assert run("forecast", "--model", model, "--data", str(csv_path),
                   "--out", str(tmp_path), *COMMON, *sizes) == 2
        printed = capsys.readouterr()
        assert f"record {name!r} entry {index}" in printed.out
        assert "Traceback" not in printed.out + printed.err

    @pytest.mark.parametrize("name,value", [("opt/step", -np.inf),
                                            ("meta/epochs_done", np.nan),
                                            ("meta/epochs_done", 1.5)])
    def test_non_integral_counter_resume_exits_2(self, initial, tmp_path,
                                                 capsys, name, value):
        csv_path, out = initial
        rec = checkpoint.load(out / "informer_all.gck")
        rec[name][0] = value
        ckpt = tmp_path / "informer_all.gck"
        checkpoint.save(ckpt, rec)
        before = ckpt.read_bytes()
        capsys.readouterr()
        assert run("train", "--model", "informer", "--data", str(csv_path),
                   "--out", str(tmp_path), *COMMON, *ENC, "--epochs", "0") == 2
        printed = capsys.readouterr()
        assert f"record {name!r} entry 0" in printed.out
        assert "Traceback" not in printed.out + printed.err
        assert ckpt.read_bytes() == before

    @pytest.mark.parametrize("name", ["opt/hyper", "meta/epochs_done"])
    def test_resume_without_state_record_exits_2(self, initial, tmp_path,
                                                 capsys, name):
        csv_path, out = initial
        rec = checkpoint.load(out / "informer_all.gck")
        del rec[name]
        ckpt = tmp_path / "informer_all.gck"
        checkpoint.save(ckpt, rec)
        before = ckpt.read_bytes()
        capsys.readouterr()
        assert run("train", "--model", "informer", "--data", str(csv_path),
                   "--out", str(tmp_path), *COMMON, *ENC, "--epochs", "0") == 2
        assert repr(name) in capsys.readouterr().out
        assert ckpt.read_bytes() == before

    def test_ensemble_without_samples_exits_2(self, small_field, tmp_path,
                                              capsys):
        csv_path, _, _ = small_field
        checkpoint.save(tmp_path / "informer_all_ensemble.gck", {
            "ensemble/timestamps": np.arange(6.0),
            "ensemble/denormalized": np.array([1.0]),
        })
        assert run("evaluate", "--model", "informer", "--data", str(csv_path),
                   "--out", str(tmp_path), "--horizon", "6") == 2
        assert "'ensemble/samples'" in capsys.readouterr().out
        assert not (tmp_path / "informer_report.csv").exists()


class TestArtifactWrites:
    """Every artifact reaches disk by tmp-and-rename, and --out is made by the
    first write."""

    @pytest.mark.parametrize("argv", [
        ["generate", "--seed", "-1"],
        ["train", "--model", "timegrad", "--context-length", "0"],
        ["forecast"],
        ["evaluate"]], ids=lambda argv: argv[0])
    def test_failure_before_first_write_leaves_no_out(self, small_field,
                                                      tmp_path, argv):
        source = [] if argv[0] == "generate" else ["--data", str(small_field[0])]
        assert run(*argv, *source, "--out", str(tmp_path / "out")) == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.fixture(scope="class")
    def written(self, tmp_path_factory):
        """An --out holding every artifact kind, and a second field sidecar."""
        root = tmp_path_factory.mktemp("written")
        cfg = data.SyntheticFieldConfig(n_sites=2, wells_per_site=2,
                                        n_steps=220, seed=5)
        conf, other = root / "field.cfg", root / "other.cfg"
        conf.write_text(data.config_to_text(cfg))
        other.write_text(data.config_to_text(replace(cfg, seed=6)))
        out = root / "out"
        assert run("generate", "--synthetic-config", str(conf),
                   "--out", str(out)) == 0
        for command in ("train", "forecast", "evaluate"):
            assert run(command, "--model", "vanilla", "--data",
                       str(out / "data.csv"), "--out", str(out), *COMMON,
                       *ENC) == 0
        return out, other

    # each rerun changes what it writes; the rename of the first file whose
    # name ends with the target fails, and so does the command
    @pytest.mark.parametrize("command,target", [
        ("generate", "data.csv"), ("generate", "data.sidecar"),
        ("train", "_all.gck"), ("train", "_loss.csv"),
        ("forecast", "_ensemble.gck"), ("forecast", "_plot.csv"),
        ("forecast", ".svg"),
        ("evaluate", "_report.csv"), ("evaluate", "_report.txt")])
    def test_failed_rename_keeps_previous_bytes(self, written, tmp_path,
                                                monkeypatch, command, target):
        out = tmp_path / "out"
        shutil.copytree(written[0], out)
        before = {f.name: f.read_bytes() for f in out.iterdir()}
        field = ["--model", "vanilla", "--data", str(out / "data.csv"),
                 "--out", str(out), *COMMON, *ENC]
        argv = {"generate": ["--synthetic-config", str(written[1]),
                             "--out", str(out)],
                "train": field,  # resumes from the checkpoint
                "forecast": [*field, "--seed", "4"],
                "evaluate": [*field, "--quantile", "0.3"]}[command]
        real_replace, replaced, refused = os.replace, [], []

        def replace_unless_target(src, dst):
            if Path(dst).name.endswith(target):
                refused.append(Path(src).read_bytes() != Path(dst).read_bytes())
                raise OSError(f"rename onto {dst} refused")
            real_replace(src, dst)
            replaced.append(Path(dst).name)

        monkeypatch.setattr(os, "replace", replace_unless_target)
        assert run(command, *argv) == 4
        assert refused == [True]  # the refused write would have changed bytes
        assert sorted(f.name for f in out.iterdir()) == sorted(before)
        for name, blob in before.items():
            if name not in replaced:
                assert (out / name).read_bytes() == blob, name


class TestGroupings:
    def test_per_site_and_pairs(self, small_field, tmp_path):
        csv_path, _, _ = small_field
        out = tmp_path / "g"
        assert run("train", "--model", "timegrad", "--data", str(csv_path),
                   "--grouping", "oil_water_per_site", "--out", str(out),
                   *COMMON, *SIZES) == 0
        assert (out / "timegrad_SITE00.gck").exists()
        assert (out / "timegrad_SITE01.gck").exists()
        assert run("train", "--model", "timegrad", "--data", str(csv_path),
                   "--grouping", "oil_only_pairs", "--out", str(out),
                   *COMMON, *SIZES) == 0
        assert (out / "timegrad_SITE00+SITE01.gck").exists()


class TestPipeline:
    def test_end_to_end_and_determinism(self, tmp_path):
        cfg = data.SyntheticFieldConfig(n_sites=2, wells_per_site=2,
                                        n_steps=220, seed=5)
        conf = tmp_path / "field.cfg"
        conf.write_text(data.config_to_text(cfg))
        hashes = []
        for name in ("p1", "p2"):
            out = tmp_path / name
            assert run("pipeline", "--synthetic-config", str(conf),
                       "--out", str(out), "--horizon", "5", "--samples", "6",
                       "--epochs", "1", "--windows-per-epoch", "2",
                       "--seed", "11", "--lr", "1e-3",
                       "--context-length", "20", "--enc-length", "20",
                       "--token-length", "6") == 0
            digest = {}
            for f in sorted(out.iterdir()):
                digest[f.name] = file_hash(f)
            hashes.append(digest)
            for model in ("timegrad", "informer", "vanilla"):
                assert (out / f"{model}_all.gck").exists()
                assert (out / f"{model}_all_ensemble.gck").exists()
                assert (out / f"{model}_report.csv").exists()
        assert hashes[0] == hashes[1]

    def test_artifacts_independent_of_blas_threads(self, tmp_path):
        # OPENBLAS_NUM_THREADS is set on the child processes only
        cfg = data.SyntheticFieldConfig(n_sites=2, wells_per_site=2,
                                        n_steps=220, seed=5)
        conf = tmp_path / "field.cfg"
        conf.write_text(data.config_to_text(cfg))
        src = str(Path(wellcast.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        digests = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
            proc = subprocess.run(
                [sys.executable, "-m", "wellcast", "pipeline",
                 "--synthetic-config", str(conf), "--out", str(out),
                 "--horizon", "5", "--samples", "100", "--epochs", "1",
                 "--windows-per-epoch", "2", "--seed", "11", "--lr", "1e-3",
                 "--context-length", "20", "--enc-length", "20",
                 "--token-length", "6"],
                env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stdout + proc.stderr
            digests.append({f.name: file_hash(f) for f in sorted(out.iterdir())})
        assert len(digests[0]) > 0
        assert digests[0] == digests[1]

import hashlib
import os
import shutil
import struct
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

import wellcast
from wellcast import checkpoint, data
from wellcast.cli import DEFAULT_EPOCHS, RunConfig, main
from wellcast.errors import FormatError, ParameterError
from wellcast.evaluation import MetricsReport
from wellcast.seqmodels import InformerModel


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

    def test_epoch_lines_carry_timing(self, small_field, tmp_path, capsys):
        csv_path, _, _ = small_field
        capsys.readouterr()
        assert run("train", "--model", "informer", "--data", str(csv_path),
                   "--out", str(tmp_path / "run"), *COMMON, *ENC) == 0
        lines = [dict(field.split("=", 1) for field in line.split())
                 for line in capsys.readouterr().out.splitlines()
                 if " epoch=" in line]
        assert [line["epoch"] for line in lines] == ["0", "1"]
        for line in lines:
            assert float(line["elapsed_s"]) > 0
            assert float(line["windows_per_s"]) > 0

    def test_same_seed_runs_write_the_same_bytes(self, small_field, tmp_path):
        # the epoch timing goes to the logs, never to the files
        csv_path, _, _ = small_field
        runs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run("train", "--model", "informer", "--data", str(csv_path),
                       "--out", str(out), *COMMON, *ENC) == 0
            runs.append([(out / f).read_bytes() for f in
                         ("informer_all.gck", "informer_all_loss.csv")])
        assert runs[0] == runs[1]

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

    @pytest.mark.parametrize("command", ["train", "pipeline"])
    def test_epochs_below_minus_one_exits_2(self, small_field, tmp_path,
                                            capsys, command):
        # -1 means the per-model default; -3 once trained that default too
        csv_path, _, _ = small_field
        out = tmp_path / "run"
        assert run(command, "--model", "vanilla", "--data", str(csv_path),
                   "--out", str(out), *COMMON, *ENC, "--epochs", "-3") == 2
        printed = capsys.readouterr().out
        assert "error=validation" in printed
        assert "epochs must be >= 0, or -1" in printed
        assert not out.exists()

    @pytest.mark.parametrize("model", ["timegrad", "informer", "vanilla"])
    def test_epochs_minus_one_is_the_model_default(self, model):
        cfg = RunConfig(model=model, epochs=-1)
        cfg.validate()
        assert cfg.effective_epochs == DEFAULT_EPOCHS[model]
        with pytest.raises(ParameterError, match="epochs"):
            replace(cfg, epochs=-2).validate()


class TestRunawayTraining:
    """A run that cannot give finite parameters exits nonzero and writes
    neither the loss CSV nor the checkpoint."""

    def test_infinite_learning_rate_exits_2(self, small_field, tmp_path,
                                            capsys):
        csv_path, _, _ = small_field
        out = tmp_path / "run"
        assert run("train", "--model", "vanilla", "--data", str(csv_path),
                   "--out", str(out), *COMMON, *ENC, "--epochs", "1",
                   "--windows-per-epoch", "1", "--lr", "inf") == 2
        assert "learning rate must be finite" in capsys.readouterr().out
        assert not out.exists()

    @pytest.mark.parametrize("model", ["timegrad", "vanilla"])
    def test_diverged_run_exits_3(self, small_field, tmp_path, capsys, model):
        # windows of 12 + 4 rows fit in the last tenth of the 208 training
        # rows, so every epoch has validation windows
        csv_path, _, _ = small_field
        out = tmp_path / "run"
        assert run("train", "--model", model, "--data", str(csv_path),
                   "--out", str(out), *COMMON, "--horizon", "4",
                   "--context-length", "12", "--enc-length", "12",
                   "--token-length", "4", "--epochs", "1",
                   "--windows-per-epoch", "1", "--lr", "1e300") == 3
        assert ("non-finite validation loss at epoch=0"
                in capsys.readouterr().out)
        assert not out.exists()


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

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_ensemble_exits_2_without_report(self, trained,
                                                        tmp_path, capsys, value):
        csv_path, out = trained
        assert run("forecast", "--model", "informer", "--data", str(csv_path),
                   "--out", str(out), *COMMON, *ENC) == 0
        rec = checkpoint.load(out / "informer_all_ensemble.gck")
        rec["ensemble/samples"][3, 2, 1] = value
        checkpoint.save(tmp_path / "informer_all_ensemble.gck", rec)
        capsys.readouterr()
        assert run("evaluate", "--model", "informer", "--data", str(csv_path),
                   "--out", str(tmp_path), *COMMON, *ENC) == 2
        printed = capsys.readouterr().out
        assert "error=validation" in printed and "'ensemble/samples'" in printed
        assert [p.name for p in tmp_path.iterdir()] == ["informer_all_ensemble.gck"]

    def test_column_count_mismatch_exits_2_without_report(self, tmp_path,
                                                          capsys):
        """Same timestamps, one more site in --data than in the ensemble."""
        fields_ = {}
        for name, sites in (("a", 2), ("b", 3)):
            conf = tmp_path / f"{name}.cfg"
            conf.write_text(data.config_to_text(data.SyntheticFieldConfig(
                n_sites=sites, wells_per_site=2, n_steps=220, seed=5)))
            fields_[name] = tmp_path / name
            assert run("generate", "--synthetic-config", str(conf),
                       "--out", str(fields_[name])) == 0
        out = fields_["a"]
        args = ["--model", "vanilla", "--out", str(out), *COMMON, *ENC]
        for command in ("train", "forecast"):
            assert run(command, "--data", str(out / "data.csv"), *args) == 0
        capsys.readouterr()
        assert run("evaluate", "--data", str(fields_["b"] / "data.csv"),
                   *args) == 2
        assert "has 2 columns but the data group has 3" in \
            capsys.readouterr().out
        assert not list(out.glob("vanilla_report.*"))

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

    @pytest.mark.parametrize("line", ["surge_decay_steps=0",
                                      "water_ramp_steps=0", "noise_scale=1000",
                                      "q_init_range=1e300,1e308"])
    def test_unusable_field_names_its_key_without_warnings(self, tmp_path,
                                                           capsys, line):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"n_steps=300\nn_sites=2\nwells_per_site=2\n{line}\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("generate", "--synthetic-config", str(bad),
                       "--out", str(tmp_path / "x")) == 2
        out = capsys.readouterr()
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert "RuntimeWarning" not in out.err
        assert line.partition("=")[0] in out.out
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("line", ["n_steps=1000000000000",
                                      "wells_per_site=1000000000"])
    def test_huge_field_exits_2_before_allocating(self, tmp_path, capsys,
                                                  line):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"{line}\n")
        assert run("generate", "--synthetic-config", str(bad),
                   "--out", str(tmp_path / "x")) == 2
        out = capsys.readouterr()
        assert "error=validation" in out.out
        assert "lower n_sites, wells_per_site or n_steps" in out.out
        assert "Traceback" not in out.out + out.err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("source", ["data", "config", "synthetic_config",
                                        "loss_csv"])
    def test_invalid_utf8_input_exits_2(self, small_field, tmp_path, capsys,
                                        source):
        csv_path, cfg_path, _ = small_field
        out = tmp_path / "out"
        train = ["train", "--model", "vanilla", "--data", str(csv_path),
                 "--out", str(out), *COMMON, *ENC, "--epochs", "1"]
        if source == "loss_csv":  # read back when the run resumes
            assert run(*train) == 0
            bad = out / "vanilla_all_loss.csv"
        else:
            bad = tmp_path / "input"
        text = {"data": csv_path, "config": None, "synthetic_config": cfg_path,
                "loss_csv": bad}[source]
        text = text.read_bytes() if text else b"seed=1\n"
        offset = len(text) // 2
        bad.write_bytes(text[:offset] + b"\xff" + text[offset:])
        before = sorted((p.name, p.read_bytes()) for p in tmp_path.rglob("*")
                        if p.is_file())
        argv = {"data": ["evaluate", "--data", str(bad), "--out", str(out)],
                "config": ["train", "--config", str(bad)],
                "synthetic_config": ["generate", "--synthetic-config",
                                     str(bad), "--out", str(out)],
                "loss_csv": train}[source]
        capsys.readouterr()
        assert run(*argv) == 2
        printed = capsys.readouterr()
        assert "error=validation" in printed.out
        assert (f"{bad} is not UTF-8 text: invalid byte 0xff at offset "
                f"{offset}") in printed.out
        assert "Traceback" not in printed.out + printed.err
        assert sorted((p.name, p.read_bytes()) for p in tmp_path.rglob("*")
                      if p.is_file()) == before

    @pytest.mark.parametrize("command", ["train", "forecast"])
    def test_checkpoint_that_is_a_directory_exits_4(self, small_field,
                                                    tmp_path, capsys, command):
        csv_path, _, _ = small_field
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        assert run(command, "--model", "timegrad", "--data", str(csv_path),
                   "--out", str(tmp_path / "out"), "--checkpoint", str(ckpt),
                   *COMMON, *SIZES, "--epochs", "0") == 4
        out = capsys.readouterr()
        assert "error=io" in out.out and "Is a directory" in out.out
        assert "Traceback" not in out.out + out.err
        assert list(ckpt.iterdir()) == []

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

    @pytest.mark.parametrize("model,index,value,detail", [
        ("informer", 5, np.nan, "sampling constant c"),
        ("informer", 5, np.inf, "sampling constant c"),
        ("informer", 11, np.inf, "time stride"),
        ("informer", 11, 0.0, "time stride"),
        ("informer", 11, np.nan, "time stride"),
        ("timegrad", 5, 3.0, "entry 5"),  # loss norm: 1 (L1) or 2 (L2)
        # entries 6 and 7 held two retired flags; only 0 still loads
        ("timegrad", 6, np.nan, "entry 6"),
        ("timegrad", 6, 1.0, "entry 6"),
        ("timegrad", 7, 0.5, "entry 7"),
        ("timegrad", 7, 1.0, "entry 7")])
    def test_unusable_float_or_flag_config_entry_forecast_exits_2(
            self, initial, tmp_path, capsys, model, index, value, detail):
        csv_path, out = initial
        rec = checkpoint.load(out / f"{model}_all.gck")
        rec[f"{model}/config"][index] = value
        checkpoint.save(tmp_path / f"{model}_all.gck", rec)
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("forecast", "--model", model, "--data", str(csv_path),
                       "--out", str(tmp_path), *COMMON,
                       *(SIZES if model == "timegrad" else ENC)) == 2
        printed = capsys.readouterr()
        assert detail in printed.out
        assert "Traceback" not in printed.out + printed.err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert sorted(p.name for p in tmp_path.iterdir()) == [f"{model}_all.gck"]

    @pytest.mark.parametrize("model,name,index,value,sizes", [
        ("informer", "informer/config", 3, 2.0 ** 40, ENC),  # ff_width
        ("informer", "informer/config", 2, 0.0, ENC),  # n_heads
        ("informer", "informer/config", 0, -4.0, ENC),  # data_dim
        ("timegrad", "timegrad/config", 1, 2.0 ** 40, SIZES),  # hidden_dim
        ("timegrad", "timegrad/sched", 0, 2.0 ** 40, SIZES)])  # step count
    def test_out_of_range_size_forecast_exits_2(
            self, initial, tmp_path, capsys, model, name, index, value, sizes):
        """A size outside 1 .. the stored value count is refused before
        anything is allocated for it."""
        csv_path, out = initial
        rec = checkpoint.load(out / f"{model}_all.gck")
        rec[name][index] = value
        checkpoint.save(tmp_path / f"{model}_all.gck", rec)
        capsys.readouterr()
        assert run("forecast", "--model", model, "--data", str(csv_path),
                   "--out", str(tmp_path), *COMMON, *sizes) == 2
        printed = capsys.readouterr()
        assert f"record {name!r} entry {index}" in printed.out
        assert "expected a size" in printed.out
        assert "Traceback" not in printed.out + printed.err
        assert not list(tmp_path.glob("*.tmp"))

    def test_sizes_that_overflow_the_checkpoint_together_exit_2(
            self, initial, tmp_path, capsys):
        """d_model within the bound on its own still squares past what the
        checkpoint holds; the load stops before that allocation."""
        csv_path, out = initial
        rec = checkpoint.load(out / "informer_all.gck")
        stored = sum(arr.size for arr in rec.values())
        rec["informer/config"][1] = stored - stored % 4  # d_model, 4 heads
        checkpoint.save(tmp_path / "informer_all.gck", rec)
        capsys.readouterr()
        assert run("forecast", "--model", "informer", "--data", str(csv_path),
                   "--out", str(tmp_path), *COMMON, *ENC) == 2
        printed = capsys.readouterr()
        assert "more parameter values than the checkpoint holds" in printed.out
        assert "Traceback" not in printed.out + printed.err
        assert not list(tmp_path.glob("*.tmp"))

    @staticmethod
    def _damaged_optimizer_records(rec: dict, damage: str) -> tuple:
        """The file bytes of ``rec`` damaged only in its ``opt/`` or
        ``meta/`` records, which forecast does not read, and the message a
        full load gives."""
        blob = checkpoint.pack_records(rec)
        if damage == "duplicate":
            count = (len(rec) + 1).to_bytes(4, "little")
            again = checkpoint.pack_records({"opt/m/0": rec["opt/m/0"]})[8:]
            return (blob[:4] + count + blob[8:] + again,
                    "duplicate record name 'opt/m/0'")
        if damage == "dims":
            parts = [checkpoint.pack_records({n: a})[8:] for n, a in rec.items()]
            arr = rec["opt/v/3"]
            dims = (arr.shape[0] + 1,) + arr.shape[1:]
            i = list(rec).index("opt/v/3")
            parts[i] = (struct.pack("<I", 7) + b"opt/v/3"
                        + struct.pack(f"<I{arr.ndim}I", arr.ndim, *dims)
                        + struct.pack("<Q", arr.nbytes) + arr.tobytes())
            return (blob[:8] + b"".join(parts),
                    f"record 'opt/v/3': payload of {arr.nbytes} bytes does "
                    f"not hold float64 dims {dims}")
        assert list(rec)[-1] == "meta/seed"
        if damage == "cut":  # inside meta/seed's 8-byte payload
            return blob[:-4], "truncated checkpoint payload"
        return blob + bytes(8), "trailing bytes after final record"

    @pytest.mark.parametrize("damage", ["duplicate", "dims", "cut", "trailing"])
    @pytest.mark.parametrize("model,sizes", [("timegrad", SIZES),
                                             ("informer", ENC)])
    def test_damage_in_records_forecast_skips_exits_2(
            self, initial, tmp_path, capsys, model, sizes, damage):
        """forecast reads only the model's payloads, yet refuses a file that
        is damaged elsewhere with the message a full load gives."""
        csv_path, out = initial
        rec = checkpoint.load(out / f"{model}_all.gck")
        blob, message = self._damaged_optimizer_records(rec, damage)
        path = tmp_path / f"{model}_all.gck"
        path.write_bytes(blob)
        with pytest.raises(FormatError) as full:
            checkpoint.load(path)
        assert str(full.value) == message
        capsys.readouterr()
        assert run("forecast", "--model", model, "--data", str(csv_path),
                   "--out", str(tmp_path), *COMMON, *sizes) == 2
        printed = capsys.readouterr()
        assert f"error=validation detail={message}\n" in printed.out
        assert "Traceback" not in printed.out + printed.err
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]

    def test_per_head_attention_checkpoint_exits_2(self, initial, tmp_path,
                                                   capsys):
        """A checkpoint from before the attention weights were fused (13
        arrays per attention layer) fails the first shape check."""
        csv_path, out = initial
        rec = checkpoint.load(out / "informer_all.gck")
        model = InformerModel.from_records(rec)
        layers = [block.attn for blocks in model.stacks for block, _ in blocks]
        layers += [attn for layer in model.decoder
                   for attn in (layer.self_attn, layer.cross_attn)]
        heads = model.cfg.n_heads
        pieces = {}
        for attn in layers:
            pieces[id(attn.w_q)] = np.split(attn.w_q.data, heads, axis=1)
            pieces[id(attn.w_kv)] = np.split(attn.w_kv.data, 2 * heads, axis=1)
        arrays = [a for p in model.params() for a in pieces.get(id(p), [p.data])]
        assert len(arrays) == 144
        old = {"informer/config": rec["informer/config"]}
        old.update({f"informer/p/{i}": a for i, a in enumerate(arrays)})
        checkpoint.save(tmp_path / "informer_all.gck", old)
        capsys.readouterr()
        assert run("forecast", "--model", "informer", "--data", str(csv_path),
                   "--out", str(tmp_path), *COMMON, *ENC) == 2
        printed = capsys.readouterr()
        assert "record 'informer/p/0' has shape (64, 16)" in printed.out
        assert "Traceback" not in printed.out + printed.err
        assert not (tmp_path / "informer_all_ensemble.gck").exists()

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

    @pytest.mark.parametrize("model,sizes", [("timegrad", SIZES),
                                             ("informer", ENC)])
    def test_samples_past_draw_bound_exit_2(self, initial, tmp_path, capsys,
                                            monkeypatch, model, sizes):
        csv_path, out = initial
        samples = 2 ** 40
        if model == "timegrad":
            # one path more than the bound allows at 6 steps x 100 diffusion
            # steps x 2 dims; drawing its noise would fail the test
            samples = 2 ** 27 // (6 * 100 * 2) + 1

            def no_draws(*args):
                raise AssertionError("path noise drawn before the bound check")

            monkeypatch.setattr(wellcast.rng, "stream", no_draws)
        capsys.readouterr()
        assert run("forecast", "--model", model, "--data", str(csv_path),
                   "--out", str(tmp_path / "o"), "--checkpoint",
                   str(out / f"{model}_all.gck"), *COMMON, *sizes,
                   "--samples", str(samples)) == 2
        assert f"--samples {samples}" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize("target", ["_plot.csv", ".svg"])
    def test_failed_plot_rename_keeps_previous_ensemble(
            self, written, tmp_path, monkeypatch, target):
        """forecast writes the ensemble after every plot, so a present
        ensemble marks a complete set for its group."""
        out = tmp_path / "out"
        shutil.copytree(written[0], out)
        ensemble = out / "vanilla_all_ensemble.gck"
        before = ensemble.read_bytes()
        argv = ["forecast", "--model", "vanilla", "--data",
                str(out / "data.csv"), "--out", str(out), *COMMON, *ENC,
                "--seed", "4"]
        real_replace = os.replace

        def replace_unless_target(src, dst):
            if Path(dst).name.endswith(target):
                raise OSError(f"rename onto {dst} refused")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace_unless_target)
        assert run(*argv) == 4
        assert ensemble.read_bytes() == before
        monkeypatch.undo()
        assert run(*argv) == 0
        assert ensemble.read_bytes() != before  # the failed run had a new one


    @pytest.mark.parametrize("target", ["_all.gck", "_loss.csv"])
    def test_rerun_after_failed_train_rename_gives_resume_bytes(
            self, written, tmp_path, monkeypatch, target):
        """Whichever of train's two renames fails, rerunning the same train
        leaves the bytes of a resume that never failed."""
        outs = {name: tmp_path / name for name in ("straight", "rerun")}
        for out in outs.values():
            shutil.copytree(written[0], out)

        def train(out):
            return run("train", "--model", "vanilla", "--data",
                       str(out / "data.csv"), "--out", str(out), *COMMON, *ENC)

        assert train(outs["straight"]) == 0
        real_replace = os.replace

        def replace_unless_target(src, dst):
            if Path(dst).name.endswith(target):
                raise OSError(f"rename onto {dst} refused")
            real_replace(src, dst)

        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", replace_unless_target)
            assert train(outs["rerun"]) == 4
        assert train(outs["rerun"]) == 0
        straight, rerun = ({f.name: f.read_bytes() for f in out.iterdir()}
                           for out in outs.values())
        assert rerun == straight

    @pytest.mark.parametrize("unbuffered", ["1", ""])
    def test_closed_stdout_exits_io_without_traceback(self, small_field,
                                                      tmp_path, unbuffered):
        # the reader has closed the pipe before the first log line, the
        # earliest `wellcast train ... | head -1` can; every write to stdout
        # then fails with EPIPE, at the first log line when stdout is
        # unbuffered and at the first flush when it is block-buffered
        src = str(Path(wellcast.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env.update(PYTHONPATH=path, PYTHONUNBUFFERED=unbuffered)
        out = tmp_path / "run"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "wellcast", "train", "--model", "vanilla",
                 "--data", str(small_field[0]), "--out", str(out), *COMMON,
                 *ENC],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
                timeout=120)
        finally:
            os.close(write_end)
        assert proc.returncode == 4, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "BrokenPipeError" not in proc.stderr
        assert list(out.glob("*.tmp")) == []


class TestRetiredRecords:
    """``timegrad/eps/dims`` and ``ensemble/denormalized`` are no longer
    written or read.  Files that still carry them, as older versions wrote
    them, load as before: forecast and evaluate write the same bytes with or
    without those records."""

    def test_older_layout_gives_same_outputs(self, small_field, tmp_path):
        csv_path, _, _ = small_field
        new, old = tmp_path / "new", tmp_path / "old"
        args = ["--model", "timegrad", "--data", str(csv_path), *COMMON, *SIZES]
        assert run("train", "--out", str(new), *args) == 0
        rec = checkpoint.load(new / "timegrad_all.gck")
        assert "timegrad/eps/dims" not in rec
        cfg = rec["timegrad/config"]
        older = {}
        for name, arr in rec.items():
            if name == "timegrad/eps/w1":  # where older versions wrote it
                older["timegrad/eps/dims"] = np.array(
                    [cfg[0], cfg[1], rec["timegrad/sched"][0], 128.0, 64.0])
            older[name] = arr
        checkpoint.save(old / "timegrad_all.gck", older)
        shutil.copy(new / "timegrad_all_loss.csv", old)
        for out in (new, old):
            assert run("forecast", "--out", str(out), *args) == 0
        ens = checkpoint.load(old / "timegrad_all_ensemble.gck")
        assert list(ens) == ["ensemble/samples", "ensemble/timestamps"]
        assert file_hash(old / "timegrad_all_ensemble.gck") == \
            file_hash(new / "timegrad_all_ensemble.gck")
        ens["ensemble/denormalized"] = np.array([1.0])
        checkpoint.save(old / "timegrad_all_ensemble.gck", ens)
        for out in (new, old):
            assert run("evaluate", "--out", str(out), *args) == 0

        def outputs(out):
            return {f.name: f.read_bytes() for f in sorted(out.iterdir())
                    if f.suffix != ".gck"}

        assert sorted(outputs(new)) == sorted(outputs(old))
        assert {".csv", ".svg", ".txt"} == {Path(n).suffix for n in outputs(new)}
        assert outputs(new) == outputs(old)


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


class TestSiteNames:
    """Site and channel names become file names under --out.  A name that
    would leave --out or that no path can hold exits 2 before anything is
    written; any other name keeps every artifact well-formed."""

    @pytest.fixture(scope="class")
    def trained(self, small_field, tmp_path_factory):
        """One site of the shared field, and a vanilla checkpoint trained on
        it under a plain site name."""
        csv_path, _, _ = small_field
        site = data.load_csv(csv_path).select([("SITE00", data.OIL),
                                               ("SITE00", data.WATER)])
        out = tmp_path_factory.mktemp("named") / "out"
        data.save_csv(site, out / "data.csv")
        assert run("train", "--model", "vanilla", "--data",
                   str(out / "data.csv"), "--out", str(out),
                   *COMMON, *ENC, "--epochs", "1") == 0
        return site, out / "vanilla_all.gck"

    @staticmethod
    def renamed(site, name, path):
        data.save_csv(data.SeriesPanel(
            columns=[(name, channel) for _, channel in site.columns],
            timestamps=site.timestamps, values=site.values), path)

    @staticmethod
    def tree(root):
        return sorted(str(p.relative_to(root)) for p in root.rglob("*"))

    @pytest.mark.parametrize("name", ["x/../../../esc", "a\0b"])
    @pytest.mark.parametrize("command,grouping", [
        ("train", "oil_water_per_site"), ("forecast", "all_sites_oil")])
    def test_name_that_is_no_file_name_exits_2(self, trained, tmp_path, capsys,
                                               name, command, grouping):
        site, ckpt = trained
        csv_path, out = tmp_path / "data.csv", tmp_path / "a" / "b" / "out"
        self.renamed(site, name, csv_path)
        shutil.copy(ckpt, tmp_path / "vanilla_all.gck")
        before = self.tree(tmp_path)
        capsys.readouterr()
        assert run(command, "--model", "vanilla", "--data", str(csv_path),
                   "--grouping", grouping, "--out", str(out),
                   "--checkpoint", str(tmp_path / "vanilla_{group}.gck"),
                   *COMMON, *ENC) == 2
        printed = capsys.readouterr()
        lines = printed.out.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error=validation")
        assert repr(name) in lines[0]
        assert "Traceback" not in printed.out + printed.err
        assert self.tree(tmp_path) == before

    def test_markup_in_a_site_name_keeps_the_svg_well_formed(
            self, trained, tmp_path):
        site, ckpt = trained
        csv_path = tmp_path / "data.csv"
        self.renamed(site, "R&D<1>", csv_path)
        shutil.copy(ckpt, tmp_path)
        assert run("forecast", "--model", "vanilla", "--data", str(csv_path),
                   "--out", str(tmp_path), *COMMON, *ENC) == 0
        svg = tmp_path / "vanilla_all_R&D<1>_oil.svg"
        root = ElementTree.parse(svg).getroot()
        title = next(root.iter("{http://www.w3.org/2000/svg}text")).text
        assert title.startswith("vanilla R&D<1> oil ")


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

    def test_malformed_sidecar_exits_2_writing_nothing(self, tmp_path,
                                                      capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("n_sites=abc\n")
        out = tmp_path / "run"
        assert run("pipeline", "--synthetic-config", str(bad),
                   "--out", str(out)) == 2
        printed = capsys.readouterr()
        assert "error=validation" in printed.out
        assert "n_sites expects" in printed.out
        assert "Traceback" not in printed.out + printed.err
        assert not out.exists()

    def test_two_data_sources_exit_2(self, small_field, tmp_path, capsys):
        csv_path, cfg_path, _ = small_field
        out = tmp_path / "run"
        assert run("pipeline", "--data", str(csv_path),
                   "--synthetic-config", str(cfg_path), "--out", str(out)) == 2
        printed = capsys.readouterr().out
        assert "error=validation" in printed
        assert "exactly one data source" in printed
        assert not out.exists()

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

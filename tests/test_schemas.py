"""Each configuration and checkpoint schema is stated once; these tests pin
what the readers and writers derived from it accept and produce."""

from collections import Counter
from dataclasses import fields

import numpy as np
import pytest

from wellcast import checkpoint, cli
from wellcast.data import (SyntheticFieldConfig, config_from_text,
                           config_to_text, parse_config)
from wellcast.diffusion import build_schedule
from wellcast.errors import FormatError
from wellcast.seqmodels import InformerModel, VanillaTransformer
from wellcast.timegrad import TimeGradModel

RUN_FIELDS = [f for f in fields(cli.RunConfig) if f.name != "command"]
SAMPLE = {int: "7", float: "0.25", str: "x"}  # differs from every default


class TestRunConfig:
    def test_flags_are_exactly_the_fields(self):
        parsed = vars(cli.build_parser().parse_args(["train"]))
        assert set(parsed) == {f.name for f in fields(cli.RunConfig)} | {"config"}

    def test_unset_flags_parse_as_none(self):
        parsed = vars(cli.build_parser().parse_args(["train", "--seed", "3"]))
        assert parsed.pop("command") == "train" and parsed.pop("seed") == 3
        assert set(parsed.values()) == {None}

    @pytest.mark.parametrize("argv", [[], ["--seed", "3"], ["fit"]],
                             ids=["none", "flag-only", "unknown"])
    def test_missing_or_unknown_command_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "command" in capsys.readouterr().err

    @pytest.mark.parametrize("field", RUN_FIELDS, ids=lambda f: f.name)
    def test_field_is_a_flag_and_a_config_key_of_one_type(self, field,
                                                          tmp_path):
        value = cli.CHOICES.get(field.name, [SAMPLE[type(field.default)]])[-1]
        conf = tmp_path / "run.cfg"
        conf.write_text(f"{field.name.replace('_', '-')}={value}\n")
        parser = cli.build_parser()
        flag = "--" + field.name.replace("_", "-")
        by_flag = cli.config_from_args(parser.parse_args(["train", flag, value]))
        by_file = cli.config_from_args(
            parser.parse_args(["train", "--config", str(conf)]))
        got, want = getattr(by_flag, field.name), getattr(by_file, field.name)
        assert got == want != field.default
        assert type(got) is type(want) is type(field.default)


class TestSidecar:
    def test_round_trip_with_every_field_changed(self):
        def changed(value):
            if isinstance(value, tuple):
                return tuple(changed(v) for v in value)
            return value + 1 if isinstance(value, int) else value * 0.5 + 0.125

        cfg = SyntheticFieldConfig(**{f.name: changed(f.default)
                                      for f in fields(SyntheticFieldConfig)})
        for f in fields(SyntheticFieldConfig):
            assert getattr(cfg, f.name) != f.default
        assert config_from_text(config_to_text(cfg)) == cfg

    def test_comments_dashes_and_spaced_ranges(self):
        text = "# field\n\nn-sites = 3\nb-range=0.1, 0.5\n"
        assert config_from_text(text) == SyntheticFieldConfig(
            n_sites=3, b_range=(0.1, 0.5))

    @pytest.mark.parametrize("line,message", [
        ("n_sites=abc", "config line 1: n_sites expects int, got 'abc'"),
        ("b_range=0.1", "config line 1: b_range expects float,float, got '0.1'"),
        ("n_sites", "unknown config key at line 1: 'n_sites'"),
        ("sites=3", "unknown config key at line 1: 'sites=3'")])
    def test_bad_line_names_itself(self, line, message):
        with pytest.raises(FormatError) as err:
            parse_config(line, SyntheticFieldConfig)
        assert str(err.value) == message


def shapes(records):
    return [(name, arr.shape) for name, arr in records.items()]


class TestCheckpointRecords:
    def test_timegrad_records(self):
        model = TimeGradModel(2, hidden_dim=8, n_layers=2, context_length=6,
                              prediction_length=3,
                              sched=build_schedule(8, 1e-4, 0.2))
        expected = [("timegrad/config", (8,)), ("timegrad/sched", (3,))]
        for layer, width in enumerate((2, 8)):
            for gate in "zrh":
                expected += [(f"timegrad/gru/{layer}/w_{gate}", (width, 8)),
                             (f"timegrad/gru/{layer}/u_{gate}", (8, 8)),
                             (f"timegrad/gru/{layer}/b_{gate}", (8,))]
        expected += [("timegrad/eps/w1", (2 + 8 + 64, 128)),
                     ("timegrad/eps/b1", (128,)),
                     ("timegrad/eps/w2", (128, 128)),
                     ("timegrad/eps/b2", (128,)),
                     ("timegrad/eps/w3", (128, 2)),
                     ("timegrad/eps/b3", (2,))]
        rec = model.state_records()
        assert shapes(rec) == expected
        # entries 6 and 7 are retired and always written as 0
        assert rec["timegrad/config"].tolist() == [2, 8, 2, 6, 3, 1, 0, 0]
        assert len(model.params()) == 24

    @staticmethod
    def transformer_shapes(enc_blocks, distilling, dec_layers):
        """Parameter shapes in checkpoint order at d_model 8, 2 heads, ff
        width 12 and 3 data columns: encoder blocks (each followed by its
        distill kernel when distilling), both embeddings, decoder layers,
        then the Gaussian head."""
        attn = [(8, 8), (8, 16), (8, 8)]  # w_q, w_kv, w_out
        norm = [(8,), (8,)]
        feed = [(8, 12), (12,), (12, 8), (8,)]
        block = attn + norm + feed + norm + ([(8, 8, 3)] if distilling else [])
        layer = attn + norm + attn + norm + feed + norm
        return (block * enc_blocks + [(3, 8)] * 2 + layer * dec_layers
                + [(8, 3), (3,), (8, 3), (3,)])

    @pytest.mark.parametrize("cls,extra,config,n_params,counts", [
        (InformerModel, dict(c=3.0, n_stacks=1, main_blocks=2),
         [3, 8, 2, 12, 0.25, 3.0, 10, 4, 5, 1, 2, 7.0], 62,
         {(8, 8): 12, (8, 16): 6, (8,): 24, (8, 12): 4, (12,): 4, (12, 8): 4,
          (8, 8, 3): 2, (3, 8): 2, (8, 3): 2, (3,): 2}),
        (VanillaTransformer, {},
         [3, 8, 2, 12, 0.25, 10, 4, 5, 7.0], 87,
         {(8, 8): 18, (8, 16): 9, (8,): 36, (8, 12): 6, (12,): 6, (12, 8): 6,
          (3, 8): 2, (8, 3): 2, (3,): 2})])
    def test_transformer_records(self, cls, extra, config, n_params, counts):
        model = cls(3, d_model=8, n_heads=2, ff_width=12, p_drop=0.25, l_x=10,
                    l_token=4, l_y=5, stride=7.0, **extra)
        rec = model.state_records()
        kind = cls.kind
        assert list(rec) == [f"{kind}/config"] + [f"{kind}/p/{i}"
                                                 for i in range(n_params)]
        assert rec[f"{kind}/config"].tolist() == config
        assert len(cls.config_keys) == len(config)
        assert Counter(arr.shape for name, arr in rec.items()
                       if "/p/" in name) == counts
        # (encoder blocks, distilling, decoder layers) of each configuration
        walk = {InformerModel: (2, True, 2), VanillaTransformer: (3, False, 3)}
        assert [rec[f"{kind}/p/{i}"].shape for i in range(n_params)] == \
            self.transformer_shapes(*walk[cls])
        clone = cls.from_records(rec)
        assert checkpoint.pack_records(clone.state_records()) == \
            checkpoint.pack_records(rec)


class TestRead:
    def test_returns_a_copy(self):
        records = {"w": np.zeros((2, 3))}
        got = checkpoint.read(records, "w", (2, 3))
        got[0, 0] = 1.0
        assert records["w"][0, 0] == 0.0
        assert checkpoint.read(records, "w").shape == (2, 3)

    def test_missing_record(self):
        with pytest.raises(FormatError, match="no record 'w'"):
            checkpoint.read({}, "w")

    def test_wrong_shape(self):
        with pytest.raises(FormatError,
                           match=r"'w' has shape \(2, 3\), expected \(3, 2\)"):
            checkpoint.read({"w": np.zeros((2, 3))}, "w", (3, 2))


class TestReadInt:
    @pytest.mark.parametrize("value", [3.0, -2.0, 0.0])
    def test_integral_values(self, value):
        records = {"c": np.array([9.0, value])}
        got = checkpoint.read_int(records, "c", 1)
        assert got == int(value) and isinstance(got, int)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 8.5, -0.25])
    def test_rejects_non_integral(self, value):
        with pytest.raises(FormatError, match="'c' entry 1 is .*integer"):
            checkpoint.read_int({"c": np.array([1.0, value])}, "c", 1)

    def test_missing_entry_and_shape(self):
        with pytest.raises(FormatError, match="'c' has no entry 2"):
            checkpoint.read_int({"c": np.zeros(2)}, "c", 2)
        with pytest.raises(FormatError, match="has shape"):
            checkpoint.read_int({"c": np.zeros(2)}, "c", 0, (1,))

    @pytest.mark.parametrize("name,index", [("timegrad/config", i)
                                            for i in range(5)]
                             + [("timegrad/sched", 0)])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 2.5])
    def test_timegrad_integer_entries(self, name, index, value):
        rec = TimeGradModel(2, hidden_dim=4, context_length=5,
                            prediction_length=2,
                            sched=build_schedule(8, 1e-4, 0.2)).state_records()
        rec[name][index] = value
        with pytest.raises(FormatError, match=f"'{name}' entry {index}"):
            TimeGradModel.from_records(rec)

    @pytest.mark.parametrize("cls", [InformerModel, VanillaTransformer])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 8.5])
    def test_transformer_int_keys(self, cls, value):
        model = cls(3, d_model=8, n_heads=2, ff_width=12, l_x=10, l_token=4,
                    l_y=5)
        for index, key in enumerate(cls.config_keys):
            if isinstance(getattr(model, key), float):
                continue
            rec = model.state_records()
            rec[f"{cls.kind}/config"][index] = value
            with pytest.raises(FormatError, match=f"entry {index} is"):
                cls.from_records(rec)

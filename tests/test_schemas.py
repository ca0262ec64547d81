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
        expected += [("timegrad/eps/dims", (5,)),
                     ("timegrad/eps/w1", (2 + 8 + 64, 128)),
                     ("timegrad/eps/b1", (128,)),
                     ("timegrad/eps/w2", (128, 128)),
                     ("timegrad/eps/b2", (128,)),
                     ("timegrad/eps/w3", (128, 2)),
                     ("timegrad/eps/b3", (2,))]
        rec = model.state_records()
        assert shapes(rec) == expected
        assert rec["timegrad/config"].tolist() == [2, 8, 2, 6, 3, 1, 0, 0]
        assert rec["timegrad/eps/dims"].tolist() == [2, 8, 8, 128, 64]
        assert len(model.params()) == 24

    @pytest.mark.parametrize("cls,extra,config,n_params,counts", [
        (InformerModel, dict(c=3.0, n_stacks=1, main_blocks=2),
         [3, 8, 2, 12, 0.25, 3.0, 10, 4, 5, 1, 2, 7.0], 86,
         {(8, 4): 36, (8, 8): 6, (8,): 24, (8, 12): 4, (12,): 4, (12, 8): 4,
          (8, 8, 3): 2, (3, 8): 2, (8, 3): 2, (3,): 2}),
        (VanillaTransformer, {},
         [3, 8, 2, 12, 0.25, 10, 4, 5, 7.0], 123,
         {(8, 4): 54, (8, 8): 9, (8,): 36, (8, 12): 6, (12,): 6, (12, 8): 6,
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

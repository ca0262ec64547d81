import numpy as np
import pytest

from gradcheck import check_gradients
from toys import as_panel
from wellcast import tensor as T
from wellcast.attention import full_attention, probsparse_attention, QKV, AttentionConfig
from wellcast.errors import ContractError, ParameterError, TrainingError
from wellcast.optim import AdamW
from wellcast.rng import TRAIN, stream
from wellcast.seqmodels import (InformerModel, LOG_TWO_PI,
                                VanillaTransformer, forecast, gaussian_nll,
                                sample_paths, train_model, time_encoding)
from wellcast.tensor import Tensor


@pytest.fixture(autouse=True)
def clean_record():
    T.reset_record()
    yield
    T.reset_record()


def tiny_informer(data_dim=2, seed=0, **kw):
    defaults = dict(d_model=8, n_heads=2, ff_width=16, p_drop=0.1, c=2.0,
                    l_x=12, l_token=6, l_y=5, n_stacks=2, main_blocks=2,
                    stride=2.0, seed=seed)
    defaults.update(kw)
    return InformerModel(data_dim, **defaults)


def tiny_vanilla(data_dim=2, seed=0, **kw):
    defaults = dict(d_model=8, n_heads=2, ff_width=16, p_drop=0.2,
                    l_x=12, l_token=6, l_y=5, stride=2.0, seed=seed)
    defaults.update(kw)
    return VanillaTransformer(data_dim, **defaults)


def forward_window(model, seed=1, training=False, drop_rng=None):
    rng = stream(seed, TRAIN)
    x_enc = rng.normal(size=(model.l_x, model.data_dim))
    enc_ts = np.arange(model.l_x) * model.stride
    tgt_ts = (model.l_x + np.arange(model.l_y)) * model.stride
    token = x_enc[-model.l_token:]
    return model.forward(x_enc, token, enc_ts, tgt_ts, training=training,
                         drop_rng=drop_rng), x_enc, enc_ts, tgt_ts


class TestForwardShapes:
    def test_output_shapes(self):
        model = tiny_informer()
        (mean, log_var), *_ = forward_window(model)
        assert mean.shape == (5, 2)
        assert log_var.shape == (5, 2)

    def test_paper_scale_shapes(self):
        # 45 forecast steps and 4 dims: mean and log-var are 45 x 4
        model = tiny_informer(data_dim=4, l_x=24, l_token=12, l_y=45)
        (mean, log_var), *_ = forward_window(model)
        assert mean.shape == (45, 4)
        assert log_var.shape == (45, 4)

    def test_zero_weight_head(self):
        model = tiny_informer()
        model.head.w_mu.data[...] = 0.0
        model.head.b_mu.data[...] = 0.0
        model.head.w_lv.data[...] = 0.0
        model.head.b_lv.data[...] = 0.0
        (mean, log_var), *_ = forward_window(model)
        assert np.array_equal(mean.data, np.zeros((5, 2)))
        assert np.array_equal(log_var.data, np.zeros((5, 2)))

    def test_token_longer_than_context_rejected(self):
        with pytest.raises(ParameterError):
            tiny_informer(l_token=13)

    def test_variance_positive_and_clamped(self):
        model = tiny_informer()
        model.head.b_lv.data[...] = 500.0  # force the clamp
        (_, log_var), *_ = forward_window(model)
        assert np.all(log_var.data <= 20.0)
        assert np.all(np.exp(log_var.data) > 0.0)

    def test_encoder_stack_lengths(self):
        # stack s consumes ceil(L_x / 2^s) rows; with distills the memory is
        # the concatenation of every stack output
        model = tiny_informer(l_x=16, main_blocks=2, n_stacks=2)
        e = model.embed_enc.forward(np.zeros((16, 2)), np.arange(16) * 2.0,
                                    2.0, 0.0)
        memory = model._encode(e, False, None)
        # main: 16 -> 8 -> 4; replica: tail 8 -> 4. concat: 8 rows
        assert memory.shape == (8, model.d_model)


class TestOneShotDecoding:
    def test_single_decoder_pass_per_forecast(self):
        model = tiny_informer(data_dim=1, l_x=12, l_token=6, l_y=45)
        ctx = stream(3, TRAIN).normal(size=(12, 1))
        before = model.decoder_forward_count
        forecast(model, ctx, np.arange(12) * 2.0, (12 + np.arange(45)) * 2.0,
                 n_samples=7, seed=0)
        assert model.decoder_forward_count - before == 1


class TestCausality:
    @pytest.mark.parametrize("factory", [tiny_informer, tiny_vanilla])
    def test_placeholder_positions_do_not_leak_backward(self, factory):
        # perturbing a target timestamp beyond position i must leave the
        # decoder outputs at positions < p bit-identical (cross-attention
        # reads the encoder memory, which is untouched)
        model = factory(seed=4)
        (mean_a, lv_a), x_enc, enc_ts, tgt_ts = forward_window(model, seed=5)
        p = 3
        tgt_b = tgt_ts.copy()
        tgt_b[p:] += 1000.0
        token = x_enc[-model.l_token:]
        mean_b, lv_b = model.forward(x_enc, token, enc_ts, tgt_b)
        assert np.array_equal(mean_a.data[:p], mean_b.data[:p])
        assert np.array_equal(lv_a.data[:p], lv_b.data[:p])
        assert not np.array_equal(mean_a.data[p:], mean_b.data[p:])


class TestGaussianNLL:
    def test_exact_value_at_mean(self):
        mean = Tensor(np.zeros((3, 2)))
        log_var = Tensor(np.zeros((3, 2)))
        nll = gaussian_nll(mean, log_var, np.zeros((3, 2)))
        assert np.isclose(nll.item(), 0.5 * LOG_TWO_PI * 6, atol=1e-12)
        assert np.isclose(0.5 * LOG_TWO_PI, 0.9189385332046727)

    def test_monotone_in_squared_error(self):
        log_var = Tensor(np.zeros((1, 1)))
        target = np.zeros((1, 1))
        vals = [gaussian_nll(Tensor([[m]]), log_var, target).item()
                for m in (0.0, 0.5, 1.0, 2.0)]
        assert vals == sorted(vals)

    def test_gradient_zero_at_target(self):
        mean = Tensor(np.full((2, 2), 3.0), requires_grad=True)
        log_var = Tensor(np.zeros((2, 2)))
        nll = gaussian_nll(mean, log_var, np.full((2, 2), 3.0))
        T.backward(nll)
        assert np.abs(mean.grad).max() < 1e-15

    def test_shape_mismatch(self):
        with pytest.raises(ContractError):
            gaussian_nll(Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 2))),
                         np.zeros((3, 2)))

    def test_gradient_matches_finite_differences(self):
        rng = stream(6, TRAIN)
        mean = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        log_var = Tensor(rng.normal(size=(3, 2)) * 0.5, requires_grad=True)
        target = rng.normal(size=(3, 2))

        def make_loss():
            return gaussian_nll(mean, log_var, target)

        check_gradients(make_loss, [mean, log_var])

    def test_full_model_loss_gradcheck(self):
        model = tiny_informer(data_dim=1, l_x=6, l_token=3, l_y=2,
                              main_blocks=1, n_stacks=1, d_model=4,
                              n_heads=1, ff_width=4, p_drop=0.0, seed=7)
        rng = stream(8, TRAIN)
        x = rng.normal(size=(6, 1))
        target = rng.normal(size=(2, 1))
        enc_ts = np.arange(6) * 2.0
        tgt_ts = (6 + np.arange(2)) * 2.0

        def make_loss():
            mean, log_var = model.forward(x, x[-3:], enc_ts, tgt_ts)
            return gaussian_nll(mean, log_var, target)

        # the fused attention weights whole: every head's Q block, and the K
        # and V blocks side by side
        subset = [model.embed_enc.w, model.head.w_mu, model.head.w_lv,
                  model.decoder[0].self_attn.w_q,
                  model.stacks[0][0][0].attn.w_kv,
                  model.stacks[0][0][1].kernels]
        check_gradients(make_loss, subset)


class TestSamplePaths:
    def test_degenerate_variance_collapses_to_mean(self):
        # at the clamp the std is exp(-10) ~ 4.5e-5, so every draw of a small
        # fixed ensemble sits within 1e-4 of the mean
        mean = np.ones((2, 1)) * 3.0
        log_var = np.full((2, 1), -20.0)
        ens = sample_paths(mean, log_var, 5, stream(9, TRAIN))
        assert np.abs(ens.samples - 3.0).max() < 1e-4

    def test_monte_carlo_mean(self):
        mean = np.array([[1.0, -2.0]])
        log_var = np.log(np.array([[0.25, 4.0]]))
        n = 100_000
        ens = sample_paths(mean, log_var, n, stream(10, TRAIN))
        se = np.sqrt(np.exp(log_var)) / np.sqrt(n)
        assert np.all(np.abs(ens.samples.mean(axis=0) - mean) < 3 * se)

    def test_seed_reproducibility(self):
        mean = np.zeros((3, 1))
        log_var = np.zeros((3, 1))
        a = sample_paths(mean, log_var, 5, stream(11, TRAIN))
        b = sample_paths(mean, log_var, 5, stream(11, TRAIN))
        assert np.array_equal(a.samples, b.samples)


def trend_panel(t_steps, dims, seed=12):
    rng = stream(seed, TRAIN)
    t = np.arange(t_steps, dtype=np.float64)[:, None]
    base = 10.0 + 0.02 * t + np.sin(t / 7.0)
    return base + rng.normal(scale=0.3, size=(t_steps, dims))


class TestTraining:
    def test_zero_epochs_no_change(self):
        model = tiny_informer(seed=13)
        before = [p.data.copy() for p in model.params()]
        history, _ = train_model(model, as_panel(trend_panel(60, 2)), epochs=0,
                                 seed=14)
        assert history.train_loss == []
        for p, b in zip(model.params(), before):
            assert np.array_equal(p.data, b)

    def test_loss_decreases_on_learnable_panel(self):
        model = tiny_informer(data_dim=1, seed=15)
        history, _ = train_model(model, as_panel(trend_panel(90, 1)), epochs=3,
                                 seed=16, lr=3e-3, windows_per_epoch=12)
        assert history.train_loss[2] < history.train_loss[0]

    def test_deterministic_under_fixed_seed(self):
        def run():
            model = tiny_vanilla(data_dim=1, seed=17)
            history, _ = train_model(model, as_panel(trend_panel(60, 1)),
                                     epochs=2, seed=18, lr=1e-3,
                                     windows_per_epoch=4)
            return (np.array(history.train_loss).tobytes(),
                    model.params()[0].data.tobytes())

        assert run() == run()

    def test_gap_metric_emitted(self):
        model = tiny_vanilla(data_dim=1, seed=19)
        history, _ = train_model(model, as_panel(trend_panel(200, 1)),
                                 epochs=2, seed=20, lr=1e-3,
                                 windows_per_epoch=4)
        assert len(history.gap) == 2
        assert np.isfinite(history.val_loss).all()

    def test_span_too_short(self):
        model = tiny_informer(seed=21)
        with pytest.raises(ParameterError):
            train_model(model, as_panel(trend_panel(10, 2)), epochs=1, seed=22)

    def test_nan_loss_aborts_with_diagnostic(self):
        model = tiny_informer(data_dim=1, seed=23)
        model.head.w_mu.data[...] = np.nan
        with pytest.raises(TrainingError, match="epoch=0 window=0"):
            train_model(model, as_panel(trend_panel(60, 1)), epochs=1,
                        seed=24, windows_per_epoch=2)

    def test_validation_never_touches_test_span(self):
        # the panel's test span is NaN-poisoned; training plus validation on
        # the train view must stay finite throughout
        values = trend_panel(200, 1)
        poisoned = np.concatenate([values, np.full((20, 1), np.nan)])

        class PanelStub:
            split_index = 200
            timestamps = np.arange(220) * 2.0

        PanelStub.values = poisoned
        model = tiny_informer(data_dim=1, seed=25)
        history, _ = train_model(model, PanelStub(), epochs=1, seed=26,
                                 windows_per_epoch=4)
        assert np.isfinite(history.train_loss).all()
        assert np.isfinite(history.val_loss).all()


class TestVanillaWiring:
    def test_full_attention_equals_probsparse_with_saturated_u(self):
        rng = stream(27, TRAIN)
        d = 4
        qkv = QKV(Tensor(rng.normal(size=(6, d))),
                  Tensor(rng.normal(size=(6, d))),
                  Tensor(rng.normal(size=(6, d))))
        cfg = AttentionConfig(d_model=d, n_heads=1, c=1000.0)
        dense = full_attention(qkv)
        sparse = probsparse_attention(qkv, cfg, causal=False)
        assert np.abs(dense.data - sparse.data).max() < 1e-10

    def test_layer_counts(self):
        model = tiny_vanilla()
        assert [[dw for _, dw in blocks] for blocks in model.stacks] == \
            [[None] * 3]
        assert len(model.decoder) == 3
        assert len(tiny_informer().decoder) == 2


class TestTapeBudget:
    """Each multi-head attention call, residual dropout-layer-norm,
    feed-forward block and distill is one tape node, so a training window at
    the benchmark's shapes stays small whatever the data (50 and 51 nodes);
    un-fusing any of them (106 and 105 with only attention fused) fails
    here.  Each attention layer holds three fused weights, so AdamW walks 74
    and 87 arrays (144 and 177 with per-head weights)."""

    NODES_AND_ARRAYS = {InformerModel: (50, 74), VanillaTransformer: (51, 87)}

    @pytest.mark.parametrize("cls", [InformerModel, VanillaTransformer])
    def test_training_window_node_count(self, cls):
        model = cls(4, l_x=96, l_token=48, l_y=45, seed=0)
        nodes, arrays = self.NODES_AND_ARRAYS[cls]
        lengths = []
        for seed in (0, 1):
            values = 50.0 + 10.0 * stream(seed, TRAIN).normal(size=(141, 4))
            T.reset_record()
            model.window_loss(values, np.arange(141) * 2.0, 0, None,
                              stream(seed, TRAIN, 1))
            lengths.append(len(T.current_record()))
        # the causal prefix top-u once made the informer's count depend on
        # the data
        assert lengths == [nodes, nodes]
        assert len(AdamW(model.params()).params) == arrays


class TestForecastInterface:
    def test_ensemble_shape_and_determinism(self):
        model = tiny_informer(data_dim=2, seed=28)
        ctx = trend_panel(12, 2)
        ts = np.arange(12) * 2.0
        tts = (12 + np.arange(5)) * 2.0
        a = forecast(model, ctx, ts, tts, n_samples=9, seed=1)
        b = forecast(model, ctx, ts, tts, n_samples=9, seed=1)
        assert a.samples.shape == (9, 5, 2)
        assert np.array_equal(a.samples, b.samples)

    def test_non_finite_samples_raise_training_error(self):
        model = tiny_informer(data_dim=2, seed=28)
        for p in model.head.params():
            p.data[...] = np.nan
        ctx = trend_panel(12, 2)
        with pytest.raises(TrainingError, match="horizon step t=0"):
            forecast(model, ctx, np.arange(12) * 2.0, (12 + np.arange(5)) * 2.0,
                     n_samples=3, seed=1)

    def test_wrong_context_length(self):
        model = tiny_informer(seed=29)
        with pytest.raises(ParameterError):
            forecast(model, np.zeros((5, 2)), np.arange(5), np.arange(5),
                     n_samples=1, seed=0)


class TestCheckpointRoundTrip:
    @pytest.mark.parametrize("factory,cls", [
        (tiny_informer, InformerModel), (tiny_vanilla, VanillaTransformer)])
    def test_records_round_trip(self, factory, cls):
        model = factory(seed=30)
        rec = model.state_records()
        clone = cls.from_records(rec)
        (mean_a, lv_a), *_ = forward_window(model, seed=31)
        (mean_b, lv_b), *_ = forward_window(clone, seed=31)
        assert np.array_equal(mean_a.data, mean_b.data)
        assert np.array_equal(lv_a.data, lv_b.data)


class TestTimeEncoding:
    def test_shape_and_position_anchor(self):
        enc = time_encoding(np.arange(10) * 2.0, 8, 2.0, 0.0)
        assert enc.shape == (10, 8)
        # anchoring is relative: shifting timestamps and anchor together only
        # changes the day-of-year seasonal channels
        shifted = time_encoding(np.arange(10) * 2.0 + 100.0, 8, 2.0, 100.0)
        assert np.allclose(enc[:, 2:], shifted[:, 2:], atol=1e-12)

    def test_day_of_year_period(self):
        # two timestamps a whole number of years apart share the seasonal
        # phase; compare against an anchor-matched positional baseline
        ts_a = np.array([10.0])
        ts_b = np.array([10.0 + 4 * 365.25])
        enc_a = time_encoding(ts_a, 8, 2.0, anchor=10.0)
        enc_b = time_encoding(ts_b, 8, 2.0, anchor=float(ts_b[0]))
        assert np.allclose(enc_a, enc_b, atol=1e-9)

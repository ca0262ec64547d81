import itertools
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import wellcast
from toys import as_panel
from wellcast import tensor as T
from wellcast import timegrad, workers
from wellcast.diffusion import ddpm_loss, reverse_step
from wellcast.errors import ContractError, ParameterError, TrainingError
from wellcast.optim import AdamW
from wellcast.rng import PATH, TRAIN, stream
from wellcast.timegrad import (GRUCell, TimeGradModel, fit, forecast,
                               normalize_window, window_loss)


@pytest.fixture(autouse=True)
def clean_record():
    T.reset_record()
    yield
    T.reset_record()


def zeroed_cell(input_dim, hidden_dim):
    cell = GRUCell(input_dim, hidden_dim, stream(0, TRAIN))
    for p in cell.params():
        p.data[...] = 0.0
    return cell


class TestGRUCell:
    def test_zero_weights_halve_state(self):
        # all-zero weights: z = r = 0.5, cand = 0 -> h' = 0.5 h
        cell = zeroed_cell(3, 4)
        h = np.array([[1.0, -2.0, 0.5, 4.0]])
        out = cell.step(T.constant(np.ones((1, 3))), T.constant(h))
        assert np.allclose(out.data, 0.5 * h, atol=1e-15)

    def test_zero_state_fixed_point(self):
        cell = zeroed_cell(3, 4)
        out = cell.step(T.constant(np.ones((1, 3))),
                        T.constant(np.zeros((1, 4))))
        assert np.array_equal(out.data, np.zeros((1, 4)))

    @pytest.mark.parametrize("seed", range(5))
    def test_state_bounded_by_convex_combination(self, seed):
        rng = stream(seed, TRAIN)
        cell = GRUCell(2, 6, rng)
        h = rng.normal(scale=3.0, size=(1, 6))
        out = cell.step(T.constant(rng.normal(size=(1, 2))), T.constant(h))
        bound = np.maximum(np.abs(h), 1.0)
        assert np.all(np.abs(out.data) <= bound + 1e-12)

    def test_gradients_flow_through_unroll(self):
        rng = stream(7, TRAIN)
        cell = GRUCell(2, 3, rng)
        h = T.constant(np.zeros((1, 3)))
        for t in range(4):
            h = cell.step(T.constant(rng.normal(size=(1, 2))), h)
        T.backward(T.tsum(h))
        assert all(p.grad is not None for p in cell.params())


def rel_err(got, ref):
    return np.abs(got - ref).max() / max(np.abs(ref).max(), 1e-300)


def weighted_grads(layers, make_out, leaves, weights):
    """Gradients of sum(weights * make_out()) w.r.t. every cell parameter
    and each extra leaf, on a clean record."""
    params = [p for cell in layers for p in cell.params()] + leaves
    for p in params:
        p.grad = None
    out = make_out()
    T.backward(T.tsum(T.mul(out, T.constant(weights))))
    return out.data, [p.grad.copy() for p in params]


def reference_sequence(cell, xs, h0):
    """``GRUCell.sequence`` as it was before its loops wrote into preallocated
    rows with fewer numpy calls, kept as its bitwise oracle."""
    n_h, steps = cell.hidden_dim, xs.shape[0]
    w = np.concatenate([cell.w_z.data, cell.w_r.data, cell.w_h.data], axis=1)
    b = np.concatenate([cell.b_z.data, cell.b_r.data, cell.b_h.data])
    u_zr = np.concatenate([cell.u_z.data, cell.u_r.data], axis=1)
    u_h = cell.u_h.data
    ax = xs.data @ w + b
    ax_zr, ax_h = ax[:, :2 * n_h], ax[:, 2 * n_h:]
    zr_all = np.empty((steps, 2 * n_h))
    cand_all, rh_all, out = (np.empty((steps, n_h)) for _ in range(3))
    h = h0.data[0]
    for t in range(steps):
        zr = zr_all[t] = T.sigmoid_array(ax_zr[t] + h @ u_zr)
        z, r = zr[:n_h], zr[n_h:]
        rh = rh_all[t] = r * h
        cand = cand_all[t] = np.tanh(ax_h[t] + rh @ u_h)
        h = out[t] = (1.0 - z) * h + z * cand

    def bwd(g):
        z, r = zr_all[:, :n_h], zr_all[:, n_h:]
        h_prev = np.concatenate([h0.data, out[:-1]])
        keep = 1.0 - z
        dz_pre = (cand_all - h_prev) * z * keep
        dr_pre = h_prev * r * (1.0 - r)
        dcand_pre = z * (1.0 - cand_all * cand_all)
        u_zr_t, u_h_t = u_zr.T, u_h.T
        d_a = np.empty((steps, 3 * n_h))
        dh = np.zeros(n_h)
        for t in range(steps - 1, -1, -1):
            dh = dh + g[t]
            d_cand = d_a[t, 2 * n_h:] = dh * dcand_pre[t]
            d_rh = d_cand @ u_h_t
            d_a[t, :n_h] = dh * dz_pre[t]
            d_a[t, n_h:2 * n_h] = d_rh * dr_pre[t]
            dh = dh * keep[t] + d_rh * r[t] + d_a[t, :2 * n_h] @ u_zr_t
        d_xs = d_a @ w.T if xs.requires_grad else None
        d_w = np.split(xs.data.T @ d_a, 3, axis=1)
        d_b = np.split(d_a.sum(axis=0), 3)
        d_u_z, d_u_r = np.split(h_prev.T @ d_a[:, :2 * n_h], 2, axis=1)
        d_u_h = rh_all.T @ d_a[:, 2 * n_h:]
        return (d_xs, dh[None, :], d_w[0], d_u_z, d_b[0], d_w[1], d_u_r,
                d_b[1], d_w[2], d_u_h, d_b[2])

    return T._record((xs, h0, *cell.params()), out, bwd)


class TestGRUSequence:
    """GRUCell.sequence (one fused node) against a loop of GRUCell.step."""

    # weight scales from 0.1 to 3000 put gate pre-activations far past the
    # +-500 clamp and the +-710 limit of a finite exp
    @settings(max_examples=60, deadline=None)
    @given(steps=st.integers(1, 140), dim=st.integers(1, 4),
           n_h=st.integers(1, 64),
           scale=st.sampled_from([0.1, 1.0, 30.0, 300.0, 3000.0]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_bitwise_equal_to_reference(self, steps, dim, n_h, scale, seed):
        rng = np.random.default_rng(seed)
        cell = GRUCell(dim, n_h, stream(seed, TRAIN))
        for p in cell.params():
            p.data[...] = rng.normal(scale=scale, size=p.shape)
        xs = T.Tensor(rng.normal(size=(steps, dim)), requires_grad=True)
        h0 = T.Tensor(rng.uniform(-1.0, 1.0, size=(1, n_h)),
                      requires_grad=True)
        weights = rng.normal(size=(steps, n_h))
        runs = []
        for seq in (reference_sequence, GRUCell.sequence):
            T.reset_record()
            # large scales overflow the backward in both versions alike
            with np.errstate(all="ignore"):
                runs.append(weighted_grads([cell], lambda: seq(cell, xs, h0),
                                           [xs, h0], weights))
        (ref, ref_g), (got, got_g) = runs
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
        assert len(got_g) == 11
        for g, r in zip(got_g, ref_g):
            assert np.array_equal(g.view(np.uint64), r.view(np.uint64))

    def test_fit_at_benchmark_shapes_matches_reference(self, monkeypatch):
        # tg_train's shapes: 4 dims, 90 + 45 rows, H = 64; 1500 rows leave
        # room for 4 validation windows
        values = stream(60, TRAIN).normal(size=(1500, 4)).cumsum(axis=0)

        def run():
            model = TimeGradModel(4, hidden_dim=64, context_length=90,
                                  prediction_length=45, seed=61)
            history, opt = fit(model, as_panel(values), epochs=1, seed=62,
                               windows_per_epoch=4)
            arrays = [p.data for p in model.params()] + opt.m + opt.v
            return repr(history), [a.tobytes() for a in arrays]

        got = run()
        monkeypatch.setattr(GRUCell, "sequence", reference_sequence)
        assert run() == got

    @pytest.mark.parametrize("steps", [1, 7])
    def test_matches_step_loop(self, steps):
        rng = stream(40 + steps, TRAIN)
        cell = GRUCell(3, 5, rng)
        for p in cell.params():  # nonzero biases exercise the bias gradients
            p.data[...] = rng.normal(scale=0.7, size=p.shape)
        xs = T.Tensor(rng.normal(size=(steps, 3)), requires_grad=True)
        h0 = T.Tensor(rng.normal(size=(1, 5)), requires_grad=True)
        weights = rng.normal(size=(steps, 5))

        def loop():
            h, rows = h0, []
            for t in range(steps):
                h = cell.step(T.slice_rows(xs, t, t + 1), h)
                rows.append(h)
            return T.concat(rows, axis=0)

        ref, ref_g = weighted_grads([cell], loop, [xs, h0], weights)
        got, got_g = weighted_grads([cell], lambda: cell.sequence(xs, h0),
                                    [xs, h0], weights)
        assert rel_err(got, ref) <= 1e-12
        assert len(got_g) == 11
        for g, r in zip(got_g, ref_g):
            assert rel_err(g, r) <= 1e-10

    def test_stacked_layers_match_time_major_stepping(self):
        model = tiny_model(n_layers=2, seed=41)
        rng = stream(42, TRAIN)
        for p in model.params():
            p.data[...] = rng.normal(scale=0.5, size=p.shape)
        values = rng.normal(size=(9, 2))
        weights = rng.normal(size=(9, 8))

        def stepped():
            states, rows = model.initial_state(), []
            for t in range(values.shape[0]):
                states = model.step_state(values[t:t + 1], states)
                rows.append(states[-1])
            return T.concat(rows, axis=0)

        ref, ref_g = weighted_grads(model.layers, stepped, [], weights)
        got, got_g = weighted_grads(model.layers,
                                    lambda: model.sequences(values)[-1], [],
                                    weights)
        assert rel_err(got, ref) <= 1e-12
        for g, r in zip(got_g, ref_g):
            assert rel_err(g, r) <= 1e-10

    def test_one_node_per_layer(self):
        model = tiny_model(n_layers=2, seed=43)
        model.sequences(np.ones((12, 2)))
        assert len(T.current_record()) == 2

    def test_shape_contract(self):
        cell = GRUCell(3, 4, stream(0, TRAIN))
        with pytest.raises(ContractError):
            cell.sequence(T.constant(np.ones((5, 2))), T.constant(np.zeros((1, 4))))
        with pytest.raises(ContractError):
            cell.sequence(T.constant(np.ones((5, 3))), T.constant(np.zeros((1, 3))))
        with pytest.raises(ContractError):
            cell.sequence(T.constant(np.ones(3)), T.constant(np.zeros((1, 4))))


class TestNormalizeWindow:
    def test_constant_window_zeros(self):
        norm, stats = normalize_window(np.full((5, 2), 3.25))
        assert np.array_equal(norm, np.zeros((5, 2)))
        assert np.allclose(stats.mean, [3.25, 3.25])

    def test_hand_example(self):
        # window [1, 3]: mean 2, population std 1
        norm, stats = normalize_window(np.array([[1.0], [3.0]]))
        assert stats.mean[0] == 2.0
        assert np.isclose(stats.scale[0], 1.0 + 1e-6)
        assert np.allclose(norm[:, 0], [-1.0, 1.0], atol=1e-5)

    def test_round_trip(self):
        rng = stream(1, TRAIN)
        w = rng.normal(size=(20, 3)) * 40.0 + 7.0
        norm, stats = normalize_window(w)
        assert np.abs(stats.denormalize(norm) - w).max() < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(arrays(np.float64, (8, 2), elements=st.floats(-1e4, 1e4)))
    def test_round_trip_property(self, w):
        norm, stats = normalize_window(w)
        assert np.abs(stats.denormalize(norm) - w).max() < 1e-6


def tiny_model(data_dim=2, seed=3, **kw):
    defaults = dict(hidden_dim=8, context_length=6, prediction_length=3,
                    seed=seed)
    defaults.update(kw)
    from wellcast.diffusion import build_schedule
    if "sched" not in defaults:
        defaults["sched"] = build_schedule(8, 1e-4, 0.2)
    return TimeGradModel(data_dim, **defaults)


class TestTraining:
    def test_empty_epoch_changes_nothing(self):
        model = tiny_model()
        before = [p.data.copy() for p in model.params()]
        opt = AdamW(model.params(), lr=1e-2)
        values = stream(4, TRAIN).normal(size=(30, 2))
        history, _ = fit(model, as_panel(values), epochs=1, seed=5, opt=opt,
                         windows_per_epoch=0)
        assert history.train_loss == [0.0]
        for p, b in zip(model.params(), before):
            assert np.array_equal(p.data, b)

    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_window_loss_gradients_match_step_path(self, n_layers):
        # reference: the time-major step loop over the same inputs and noise
        model = tiny_model(n_layers=n_layers, seed=44, loss_norm="l2")
        values = stream(45, TRAIN).normal(size=(9, 2)) * 3.0 + 1.0
        ctx, target = values[:6], values[6:]

        def stepped():
            ctx_n, stats = normalize_window(ctx)
            target_n = stats.normalize(target)
            states, rows = model.initial_state(), []
            for x in np.concatenate([ctx_n, target_n[:-1]]):
                states = model.step_state(x[None, :], states)
                rows.append(states[-1])
            h_batch = T.concat(rows[ctx_n.shape[0] - 1:], axis=0)
            return ddpm_loss(target_n, h_batch, model.eps_net, model.sched,
                             stream(46, TRAIN), norm=model.loss_norm)

        grads = []
        for make_loss in (stepped,
                          lambda: window_loss(model, ctx, target, stream(46, TRAIN))):
            for p in model.params():
                p.grad = None
            loss = make_loss()
            T.backward(loss)
            grads.append((loss.item(), [p.grad.copy() for p in model.params()]))
        (ref_loss, ref_g), (got_loss, got_g) = grads
        assert abs(got_loss - ref_loss) <= 1e-12 * abs(ref_loss)
        for g, r in zip(got_g, ref_g):
            assert rel_err(g, r) <= 1e-10

    def test_window_tape_length_independent_of_context(self):
        # the recurrence is one node per layer, whatever the window length
        lengths = []
        for context in (5, 50):
            model = tiny_model(seed=47, context_length=context)
            values = stream(48, TRAIN).normal(size=(context + 3, 2))
            window_loss(model, values[:context], values[context:],
                        stream(49, TRAIN))
            lengths.append(len(T.current_record()))
            T.reset_record()
        assert lengths[0] == lengths[1]

    def test_window_too_long_raises(self):
        model = tiny_model()
        with pytest.raises(ParameterError):
            fit(model, as_panel(np.zeros((5, 2))), epochs=1, seed=5,
                opt=AdamW(model.params()))

    def test_deterministic_under_fixed_seed(self):
        def run():
            model = tiny_model(seed=11)
            opt = AdamW(model.params(), lr=1e-3)
            values = stream(6, TRAIN).normal(size=(40, 2))
            losses = fit(model, as_panel(values), epochs=3, seed=7, opt=opt,
                         windows_per_epoch=4)[0].train_loss
            return np.array(losses).tobytes(), model.params()[0].data.tobytes()

        assert run() == run()

    def test_loss_decreases_on_constant_panel(self):
        # constant panel normalizes to zeros; the predictor only has to learn
        # eps from (x_n, n), so the loss must fall quickly
        model = tiny_model(data_dim=1, seed=12)
        values = np.full((60, 1), 5.0)
        opt = AdamW(model.params(), lr=5e-3)
        losses = fit(model, as_panel(values), epochs=5, seed=8, opt=opt,
                     windows_per_epoch=16)[0].train_loss
        assert losses[-1] < losses[0]

    def test_never_reads_test_span(self):
        # poison the test span with NaN: training on the panel view must
        # never touch it, so every loss stays finite
        clean = stream(9, TRAIN).normal(size=(50, 2))
        poisoned = np.concatenate([clean[:40], np.full((10, 2), np.nan)])

        class PanelStub:
            split_index = 40
            values = poisoned
            timestamps = np.arange(50) * 2.0

        model = tiny_model(seed=13)
        opt = AdamW(model.params(), lr=1e-3)
        history, _ = fit(model, PanelStub(), epochs=1, seed=10, opt=opt,
                         windows_per_epoch=8)
        assert np.isfinite(history.train_loss).all()

    def test_nan_loss_aborts_with_diagnostic(self):
        from wellcast.errors import TrainingError
        model = tiny_model(seed=16)
        model.eps_net.w3.data[...] = np.nan
        opt = AdamW(model.params(), lr=1e-3)
        values = stream(17, TRAIN).normal(size=(40, 2))
        with pytest.raises(TrainingError, match="window=0 start="):
            fit(model, as_panel(values), epochs=1, seed=18, opt=opt,
                windows_per_epoch=2)

    def test_diverged_validation_aborts_naming_epoch(self):
        # lr 1e300 sends every parameter to about +-1e300 at the first step;
        # 200 rows leave room for validation windows of 6 + 3 rows
        model = tiny_model(seed=19)
        values = stream(20, TRAIN).normal(size=(200, 2))
        with np.errstate(all="ignore"), pytest.raises(
                TrainingError, match="non-finite validation loss at epoch=0"):
            fit(model, as_panel(values), epochs=2, seed=21, lr=1e300,
                windows_per_epoch=1)

    def test_no_validation_windows_is_nan_not_divergence(self):
        model = tiny_model(seed=19)
        values = stream(20, TRAIN).normal(size=(40, 2))
        with np.errstate(all="ignore"):
            history, _ = fit(model, as_panel(values), epochs=1, seed=21,
                             lr=1e300, windows_per_epoch=1)
        assert np.isnan(history.val_loss).all()

    def test_fit_needs_only_the_protocol(self):
        # a one-weight model with just context_rows, horizon, params and
        # window_loss; it learns the level of the target rows
        class Toy:
            context_rows, horizon = 3, 2

            def __init__(self):
                self.w = T.Tensor(np.zeros((1, 1)), requires_grad=True)
                self.calls = []

            def params(self):
                return [self.w]

            def window_loss(self, values, timestamps, start, rng, drop_rng):
                target = values[start + 3:start + 5]
                d = T.sub(T.constant(target), self.w)
                loss = T.tsum(T.mul(d, d))
                # the loss is recorded only while gradients are enabled
                self.calls.append((start, drop_rng is None, loss.requires_grad,
                                   timestamps[start]))
                return loss

        toy = Toy()
        values = np.full((100, 1), 3.0)
        history, _ = fit(toy, as_panel(values), epochs=2, seed=4, lr=0.1,
                         windows_per_epoch=6)
        assert len(history.train_loss) == 2
        assert history.val_loss[1] < history.val_loss[0]
        # validation is the 10-row tail; training windows end before it
        train = [c for c in toy.calls if not c[1]]
        val = [c for c in toy.calls if c[1]]
        assert len(train) == 12 and all(c[2] for c in train)
        assert all(c[0] + 5 <= 90 for c in train)
        assert [c[0] for c in val] == [90, 92, 94] * 2
        assert not any(c[2] for c in val)  # under no_grad
        assert all(c[3] == 2.0 * c[0] for c in toy.calls)

    def test_fit_reports_train_and_val(self):
        model = tiny_model(seed=14)
        values = stream(11, TRAIN).normal(size=(120, 2))
        history, opt = fit(model, as_panel(values), epochs=2, seed=15,
                           lr=1e-3, windows_per_epoch=4)
        assert len(history.train_loss) == 2
        assert len(history.val_loss) == 2
        assert np.isfinite(history.val_loss).all()
        assert len(history.gap) == 2
        assert opt.step_count == 8


class TestForecast:
    def test_shape_and_determinism(self):
        model = tiny_model(seed=20)
        ctx = stream(21, TRAIN).normal(size=(6, 2))
        a = forecast(model, ctx, horizon=4, n_samples=3, seed=99)
        b = forecast(model, ctx, horizon=4, n_samples=3, seed=99)
        assert a.samples.shape == (3, 4, 2)
        assert np.array_equal(a.samples, b.samples)

    def test_single_path_single_step(self):
        model = tiny_model(seed=22)
        ctx = stream(23, TRAIN).normal(size=(6, 2))
        out = forecast(model, ctx, horizon=1, n_samples=1, seed=5)
        assert out.samples.shape == (1, 1, 2)

    def test_parameter_validation(self):
        model = tiny_model(seed=24)
        ctx = np.zeros((6, 2))
        with pytest.raises(ParameterError):
            forecast(model, ctx, horizon=0, n_samples=1, seed=0)
        with pytest.raises(ParameterError):
            forecast(model, np.zeros((4, 2)), horizon=1, n_samples=1, seed=0)

    def test_paths_exchangeable_under_key_permutation(self):
        model = tiny_model(seed=25)
        ctx = stream(26, TRAIN).normal(size=(6, 2))
        keys = [0, 1, 2, 3]
        perm = [2, 0, 3, 1]
        a = forecast(model, ctx, horizon=3, n_samples=4, seed=7, path_keys=keys)
        b = forecast(model, ctx, horizon=3, n_samples=4, seed=7, path_keys=perm)
        # permuting the per-path streams permutes the paths themselves
        assert np.array_equal(a.samples[perm], b.samples)
        # and leaves every sorted per-step sample set identical
        assert np.array_equal(np.sort(a.samples, axis=0), np.sort(b.samples, axis=0))

    def test_matches_reverse_step_rollout(self):
        # reference: the per-step tape-path rollout over the same per-path
        # noise, z = noise[p, t, N - n + 1] at step n and x_N = noise[p, t, 0]
        model = tiny_model(seed=33)
        ctx = stream(34, TRAIN).normal(size=(6, 2))
        horizon, paths, seed = 3, 5, 12
        got = forecast(model, ctx, horizon=horizon, n_samples=paths, seed=seed)
        ctx_n, stats = normalize_window(ctx)
        big_n = model.sched.n_steps
        noise = np.stack([stream(seed, PATH, key).standard_normal(
            (horizon, big_n, 2)) for key in range(paths)])
        ref = np.empty((paths, horizon, 2))
        with T.no_grad():
            states = model.unroll(ctx_n)
            states = [T.constant(np.repeat(h.data, paths, axis=0)) for h in states]
            for t in range(horizon):
                x = noise[:, t, 0]
                for n in range(big_n, 0, -1):
                    z = np.zeros_like(x) if n == 1 else noise[:, t, big_n - n + 1]
                    x = reverse_step(x, states[-1].data, n, model.eps_net,
                                     model.sched, z)
                ref[:, t] = x
                states = model.step_state(x, states)
        ref = stats.denormalize(ref)
        assert np.abs(got.samples - ref).max() <= 1e-9 * np.abs(ref).max()

    def test_noise_drawn_in_place_equals_stacked_streams(self, monkeypatch):
        # forecast fills one buffer path by path; each path's values must be
        # its stream's, in its stream's order, as np.stack of the draws gives
        model = tiny_model(seed=37)
        ctx = stream(38, TRAIN).normal(size=(6, 2))
        horizon, seed, keys = 3, 13, [5, 0, 9, 2]
        seen = []
        real = timegrad.sample

        def spy(x_init, *args, **kw):
            seen.append((x_init.copy(), kw["noise"].copy()))
            return real(x_init, *args, **kw)

        monkeypatch.setattr(timegrad, "sample", spy)
        forecast(model, ctx, horizon=horizon, n_samples=len(keys), seed=seed,
                 path_keys=keys)
        stacked = np.stack([stream(seed, PATH, key).standard_normal(
            (horizon, model.sched.n_steps, 2)) for key in keys])
        assert len(seen) == horizon
        for t, (x_init, z) in enumerate(seen):
            assert np.array_equal(x_init.view(np.uint64),
                                  stacked[:, t, 0].view(np.uint64))
            assert np.array_equal(
                z.view(np.uint64),
                stacked[:, t, 1:].swapaxes(0, 1).copy().view(np.uint64))

    def test_noise_is_drawn_per_horizon_step(self, monkeypatch):
        # one [paths, N, D] block a step, never the [paths, horizon, N, D]
        # array that drawing every step's noise up front would take; one
        # worker, so tracemalloc sees the whole ensemble's allocations
        from wellcast.diffusion import build_schedule
        monkeypatch.setattr(workers, "count", lambda: 1)
        model = tiny_model(seed=39, sched=build_schedule(40, 1e-4, 0.2))
        ctx = stream(40, TRAIN).normal(size=(6, 2))
        paths, horizon = 50, 100
        up_front = paths * horizon * model.sched.n_steps * model.data_dim * 8
        tracemalloc.start()
        try:
            forecast(model, ctx, horizon=horizon, n_samples=paths, seed=14)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < up_front / 4

    def test_ensemble_independent_of_blas_threads(self):
        # 100 paths through the 128-wide epsilon net are large enough for
        # OpenBLAS to split the gemms; OPENBLAS_NUM_THREADS is read when
        # numpy loads, so each count runs in a child process
        script = (
            "import hashlib\n"
            "import numpy as np\n"
            "from wellcast.diffusion import build_schedule\n"
            "from wellcast.timegrad import TimeGradModel, forecast\n"
            "model = TimeGradModel(3, hidden_dim=16, context_length=12,\n"
            "                      sched=build_schedule(10, 1e-4, 0.2), seed=41)\n"
            "ctx = np.random.default_rng(42).normal(size=(12, 3))\n"
            "ens = forecast(model, ctx, 4, 100, 43)\n"
            "print(hashlib.sha256(ens.samples.tobytes()).hexdigest())\n")
        src = str(Path(wellcast.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout.strip())
        assert len(digests[0]) == 64  # a sha256 hex digest
        assert digests[0] == digests[1]

    def test_non_finite_draws_raise_training_error(self):
        model = tiny_model(seed=35)
        model.eps_net.w3.data[...] = np.nan
        ctx = stream(36, TRAIN).normal(size=(6, 2))
        with pytest.raises(TrainingError, match="horizon step t=0"):
            forecast(model, ctx, horizon=2, n_samples=3, seed=1)

    def test_affine_equivariance_of_normalization(self):
        # dyadic-friendly inputs keep the normalized context bit-identical,
        # so a constant shift of the context shifts the forecast by exactly
        # that constant up to final-affine rounding
        model = tiny_model(data_dim=1, seed=27, context_length=8)
        rng = stream(28, TRAIN)
        ctx = np.round(rng.normal(size=(8, 1)) * 8.0) / 4.0
        c = 256.0
        norm_a, _ = normalize_window(ctx)
        norm_b, _ = normalize_window(ctx + c)
        assert np.array_equal(norm_a, norm_b)
        a = forecast(model, ctx, horizon=3, n_samples=2, seed=8)
        b = forecast(model, ctx + c, horizon=3, n_samples=2, seed=8)
        assert np.abs(b.samples - (a.samples + c)).max() < 1e-9


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def use_workers(monkeypatch, count):
    monkeypatch.setattr(workers, "count", lambda: count)


def outside_block_0(patch):
    """A _rollout that runs ``patch`` for every block but the first (the
    one the calling process rolls out) and the real one for the first."""
    real = timegrad._rollout

    def rollout(model, states, keys, seed, out):
        if keys[0] == 0:
            return real(model, states, keys, seed, out)
        return patch(model, states, keys, seed, out)
    return rollout


class TestForecastWorkers:
    """Blocks of paths roll out in forked workers, with the same bytes."""

    SCRIPT = (
        "import hashlib, sys\n"
        "import numpy as np\n"
        "from wellcast import timegrad, workers\n"
        "from wellcast.diffusion import build_schedule\n"
        "model = timegrad.TimeGradModel(3, hidden_dim=16, context_length=12,\n"
        "    sched=build_schedule(10, 1e-4, 0.2), seed=51)\n"
        "ctx = np.random.default_rng(52).normal(size=(12, 3))\n"
        "for paths in (48, 100):\n"
        "    digests = set()\n"
        "    for count in (1, 2, 3):\n"
        "        workers.count = lambda: count\n"
        "        ens = timegrad.forecast(model, ctx, 3, paths, 53)\n"
        "        digests.add(hashlib.sha256(ens.samples.tobytes()).digest())\n"
        "    print(paths, len(digests))\n")

    @staticmethod
    def model_and_context():
        # the epsilon net is 128 wide at any hidden size, as at full size
        from wellcast.diffusion import build_schedule
        model = TimeGradModel(3, hidden_dim=16, context_length=12,
                              sched=build_schedule(10, 1e-4, 0.2), seed=51)
        return model, stream(52, TRAIN).normal(size=(12, 3))

    def test_block_cuts(self):
        assert timegrad._block_cuts(100, 2) == [0, 48, 100]
        for paths, count in itertools.product(range(1, 260), range(1, 9)):
            cuts = timegrad._block_cuts(paths, count)
            sizes = np.diff(cuts)
            assert cuts[0] == 0 and cuts[-1] == paths
            assert all(c % timegrad.BLOCK == 0 for c in cuts[1:-1])
            assert len(sizes) == max(1, min(count, paths // timegrad.BLOCK))
            if len(sizes) > 1:
                assert sizes.min() >= timegrad.BLOCK
                assert sizes[0] == sizes.min()

    @pytest.mark.parametrize("paths", [48, 100])
    def test_same_bytes_for_any_worker_count(self, monkeypatch, paths):
        model, ctx = self.model_and_context()
        got = []
        for count in (1, 2, 3):
            use_workers(monkeypatch, count)
            got.append(forecast(model, ctx, horizon=3, n_samples=paths,
                                seed=53).samples)
            assert no_child_left()
        assert got[0].view(np.uint64).tolist() == got[1].view(np.uint64).tolist()
        assert got[0].view(np.uint64).tolist() == got[2].view(np.uint64).tolist()

    @pytest.mark.parametrize("env", [
        {"OPENBLAS_NUM_THREADS": "1"},
        {"OPENBLAS_NUM_THREADS": "2"},
        {"OPENBLAS_NUM_THREADS": "1", "OPENBLAS_CORETYPE": "Haswell"}])
    def test_same_bytes_under_other_blas_settings(self, env):
        # OpenBLAS reads these when numpy loads, so each runs in a child;
        # Haswell's kernels tile rows unlike the AVX-512 ones picked here
        src = str(Path(wellcast.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT],
                              env=dict(os.environ, PYTHONPATH=path, **env),
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n")[:2] == ["48 1", "100 1"]

    def test_worker_count(self, monkeypatch):
        for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                    "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                            raising=False)
        assert workers.count() == 1  # OpenBLAS: a thread per core
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        assert workers.count() == 2
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert workers.count() == 4
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "8")
        assert workers.count() == 1
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delattr(os, "fork")
        assert workers.count() == 1

    @pytest.mark.parametrize("parent_step,worker_step,first", [
        (None, 1, 1), (2, None, 2), (2, 0, 0)])
    def test_first_non_finite_step_over_all_blocks(
            self, monkeypatch, parent_step, worker_step, first):
        model, ctx = self.model_and_context()
        real = timegrad._rollout

        def rollout(model, states, keys, seed, out):
            step = parent_step if keys[0] == 0 else worker_step
            done = real(model, states, keys, seed, out)
            return done if step is None else step

        use_workers(monkeypatch, 3)
        monkeypatch.setattr(timegrad, "_rollout", rollout)
        with pytest.raises(TrainingError,
                           match=f"non-finite forecast draws at horizon step t={first}$"):
            forecast(model, ctx, horizon=3, n_samples=48, seed=1)
        assert no_child_left()

    def test_non_finite_draws_in_every_block(self, monkeypatch):
        model, ctx = self.model_and_context()
        model.eps_net.w3.data[...] = np.nan
        use_workers(monkeypatch, 2)
        with pytest.raises(TrainingError, match="horizon step t=0"):
            forecast(model, ctx, horizon=2, n_samples=100, seed=1)
        assert no_child_left()

    @pytest.mark.parametrize("how,status", [
        ("raise", "exited with status 1"),
        ("exit", "exited with status 1"),
        ("kill", "was killed by signal 9")])
    def test_dead_worker_is_an_os_error(self, monkeypatch, how, status):
        model, ctx = self.model_and_context()

        def die(*args):
            if how == "raise":
                raise RuntimeError("worker fault")
            if how == "exit":
                os._exit(1)
            os.kill(os.getpid(), signal.SIGKILL)

        use_workers(monkeypatch, 3)
        monkeypatch.setattr(timegrad, "_rollout", outside_block_0(die))
        with pytest.raises(OSError,
                           match=f"forecast worker for paths 16 to 31 {status}"):
            forecast(model, ctx, horizon=3, n_samples=48, seed=1)
        assert no_child_left()

    def test_interrupt_while_waiting_kills_workers(self, monkeypatch,
                                                  interrupt_after):
        model, ctx = self.model_and_context()
        use_workers(monkeypatch, 2)
        monkeypatch.setattr(timegrad, "_rollout",
                            outside_block_0(lambda *args: time.sleep(60)))
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt), interrupt_after(0.5):
            forecast(model, ctx, horizon=3, n_samples=48, seed=1)
        assert time.monotonic() - start < 30
        assert no_child_left()


class TestTrainedToy:
    def test_constant_series_forecast_recovers_level(self):
        # trained on a constant series, the ensemble mean must sit within
        # 5% of the constant at every horizon step
        from wellcast.diffusion import build_schedule
        c = 20.0
        model = TimeGradModel(1, hidden_dim=8, context_length=8,
                              prediction_length=4,
                              sched=build_schedule(30, 1e-4, 0.15),
                              loss_norm="l2", seed=30)
        values = np.full((80, 1), c)
        opt = AdamW(model.params(), lr=5e-3)
        fit(model, as_panel(values), epochs=12, seed=31, opt=opt,
            windows_per_epoch=16)
        ens = forecast(model, values[:8], horizon=4, n_samples=64, seed=32)
        means = ens.samples.mean(axis=0)[:, 0]
        assert np.all(np.abs(means - c) < 0.05 * c)

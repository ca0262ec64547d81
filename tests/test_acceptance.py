"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The end-to-end benchmark
(criterion 10) trains all three forecasters at their full budgets on the
default synthetic field and takes a few minutes; everything else is fast.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from gradcheck import check_gradients
from toys import train_toy_net
from wellcast import data, evaluation, seqmodels, timegrad
from wellcast import tensor as T
from wellcast.attention import (AttentionConfig, QKV, causal_mask,
                                full_attention, probsparse_attention)
from wellcast.data import SyntheticFieldConfig
from wellcast.diffusion import build_schedule, sample
from wellcast.errors import NoBreakthroughError
from wellcast.evaluation import (QUANTILE_GRID, best_quantile, mase, mse,
                                 nearest_rank_index, quantile_path)
from wellcast.rng import EVAL, TRAIN, stream
from wellcast.tensor import Tensor


@contextmanager
def criterion(num, description):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num:02d} FAIL - {description}")
        raise
    print(f"ACCEPTANCE {num:02d} PASS - {description}")


@pytest.fixture(autouse=True)
def clean_record():
    T.reset_record()
    yield
    T.reset_record()


# -------------------------------------------------------------------------
# criterion 1: autodiff correctness, 100 seeds, < 60 s
# -------------------------------------------------------------------------

def _sampled_fd_check(make_loss, tensors, rng, coords=3, step=1e-5, rtol=1e-4):
    """Finite-difference oracle on a random subset of coordinates."""
    for t in tensors:
        t.grad = None
    loss = make_loss()
    T.backward(loss)
    grads = [t.grad.copy() for t in tensors]
    scale = max(max(np.abs(g).max() for g in grads), 1e-8)
    for t, g in zip(tensors, grads):
        flat = t.data.reshape(-1)
        ga = g.reshape(-1)
        idx = rng.choice(flat.size, size=min(coords, flat.size), replace=False)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + step
            f_plus = make_loss().item()
            T.reset_record()
            flat[i] = orig - step
            f_minus = make_loss().item()
            T.reset_record()
            flat[i] = orig
            fd = (f_plus - f_minus) / (2.0 * step)
            rel = abs(ga[i] - fd) / max(scale, abs(fd))
            assert rel < rtol, f"rel error {rel:.2e} at coordinate {i}"


def _check_all_ops(seed):
    rng = stream(seed, TRAIN)
    w = T.constant(rng.normal(size=(3, 4)))

    def weighted(out, wt=None):
        wt = w if wt is None else T.constant(stream(seed + 1, TRAIN).normal(size=out.shape))
        return T.tsum(T.mul(out, wt))

    a = Tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True)
    b = Tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True)
    for op in (T.add, T.sub, T.mul):
        check_gradients(lambda op=op: weighted(op(a, b)), [a, b])
    for op in (T.tanh, T.sigmoid, T.exp, T.elu,
               lambda x: T.scale(x, -0.7),
               lambda x: T.softmax(x, axis=1),
               lambda x: T.clip(x, -1.5, 1.5)):
        check_gradients(lambda op=op: weighted(op(a)), [a])
    safe = Tensor(np.where(np.abs(a.data) < 1e-3, 0.5, a.data),
                  requires_grad=True)
    check_gradients(lambda: weighted(T.absolute(safe)), [safe])
    m1 = Tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True)
    m2 = Tensor(rng.uniform(-2, 2, (4, 2)), requires_grad=True)
    check_gradients(
        lambda: weighted(T.matmul(m1, m2),
                         T.constant(stream(seed + 2, TRAIN).normal(size=(3, 2)))),
        [m1, m2])
    gain = Tensor(rng.uniform(0.5, 1.5, 4), requires_grad=True)
    bias = Tensor(rng.uniform(-0.5, 0.5, 4), requires_grad=True)
    check_gradients(lambda: weighted(T.layer_norm(a, gain, bias)),
                    [a, gain, bias])
    cx = Tensor(rng.uniform(-2, 2, (2, 9)), requires_grad=True)
    ck = Tensor(rng.uniform(-2, 2, (3, 2, 3)), requires_grad=True)
    check_gradients(
        lambda: weighted(T.conv1d(cx, ck),
                         T.constant(stream(seed + 3, TRAIN).normal(size=(3, 9)))),
        [cx, ck])
    pool_in = rng.uniform(-2, 2, (2, 9)) + np.arange(18).reshape(2, 9) * 0.01
    px = Tensor(pool_in, requires_grad=True)
    check_gradients(
        lambda: weighted(T.max_pool1d(px, 3, 2, pad=1),
                         T.constant(stream(seed + 4, TRAIN).normal(size=(2, 5)))),
        [px])
    check_gradients(
        lambda: weighted(T.dropout(a, 0.3, stream(seed + 5, TRAIN))),
        [a])


def test_criterion_1_autodiff():
    t0 = time.monotonic()
    with criterion(1, "autodiff matches finite differences on 100 seeds"):
        for seed in range(100):
            _check_all_ops(1000 + seed)

        # full-model losses: rotate a random subset of parameters per seed
        tg = timegrad.TimeGradModel(
            1, hidden_dim=4, n_layers=1, context_length=5,
            prediction_length=2, sched=build_schedule(4, 1e-3, 0.2),
            loss_norm="l2", seed=9)
        ctx = stream(5, TRAIN).normal(size=(5, 1))
        target = stream(6, TRAIN).normal(size=(2, 1))
        tg_params = tg.params()
        for seed in range(100):
            rng = stream(2000 + seed, TRAIN)
            subset = [tg_params[i] for i in
                      rng.choice(len(tg_params), size=3, replace=False)]
            _sampled_fd_check(
                lambda: timegrad.window_loss(tg, ctx, target, stream(77, TRAIN)),
                subset, rng)

        for model in (
            seqmodels.InformerModel(1, d_model=4, n_heads=1, ff_width=4,
                                    p_drop=0.0, c=2.0, l_x=6, l_token=3,
                                    l_y=2, n_stacks=1, main_blocks=1, seed=10),
            seqmodels.VanillaTransformer(1, d_model=4, n_heads=1, ff_width=4,
                                         p_drop=0.0, l_x=6, l_token=3, l_y=2,
                                         seed=11),
        ):
            x = stream(7, TRAIN).normal(size=(6, 1))
            tgt = stream(8, TRAIN).normal(size=(2, 1))
            enc_ts = np.arange(6) * 2.0
            tgt_ts = (6 + np.arange(2)) * 2.0
            params = model.params()

            def make_loss(m=model):
                mean, lv = m.forward(x, enc_ts, tgt_ts)
                return seqmodels.gaussian_nll(mean, lv, tgt)

            for seed in range(100):
                rng = stream(3000 + seed, TRAIN)
                subset = [params[i] for i in
                          rng.choice(len(params), size=3, replace=False)]
                _sampled_fd_check(make_loss, subset, rng)

        elapsed = time.monotonic() - t0
        assert elapsed < 60.0, f"gradient checks took {elapsed:.1f}s"


# -------------------------------------------------------------------------
# criterion 2: schedule algebra over 20 random schedules
# -------------------------------------------------------------------------

def test_criterion_2_schedule_algebra():
    with criterion(2, "schedule identities exact over 20 random schedules"):
        for seed in range(20):
            rng = stream(seed, EVAL)
            n = int(rng.integers(1, 60))
            lo = float(rng.uniform(1e-5, 0.02))
            hi = float(rng.uniform(0.03, 0.95))
            sched = build_schedule(n, lo, hi)
            assert np.array_equal(sched.alpha_bar,
                                  sched.alpha_bar_prev * (1.0 - sched.beta))
            assert sched.beta_tilde[0] == 0.0
            assert np.all(sched.beta_tilde <= sched.beta)


# -------------------------------------------------------------------------
# criterion 3: generative sanity of the trained sampler, < 3 min
# -------------------------------------------------------------------------

def test_criterion_3_generative_sanity():
    t0 = time.monotonic()
    with criterion(3, "trained sampler recovers two-point mass and constants"):
        sched = build_schedule(50, 1e-4, 0.15)
        net = train_toy_net(np.array([-1.0, 1.0]).repeat(32), sched,
                            steps=1200, seed=21)
        rng = stream(22, TRAIN)
        draws = 2000
        out = sample(rng.standard_normal((draws, 1)), np.zeros((draws, 0)),
                     net, sched,
                     rng.standard_normal((sched.n_steps - 1, draws, 1)))
        frac_neg = float(np.mean(out < 0.0))
        assert abs(frac_neg - 0.5) < 0.1

        c = 1.5
        net_c = train_toy_net(np.full(64, c), sched, steps=800, seed=23)
        rng = stream(24, TRAIN)
        out_c = sample(rng.standard_normal((10_000, 1)),
                       np.zeros((10_000, 0)), net_c, sched,
                       rng.standard_normal((sched.n_steps - 1, 10_000, 1)))
        assert abs(out_c.mean() - c) < 0.05 * abs(c)

        elapsed = time.monotonic() - t0
        assert elapsed < 180.0, f"generative sanity took {elapsed:.1f}s"


# -------------------------------------------------------------------------
# criterion 4: sparse attention reduces to full attention when u >= L_Q
# -------------------------------------------------------------------------

def test_criterion_4_probsparse_reduction():
    with criterion(4, "saturated top-u equals full attention on 50 instances"):
        for seed in range(50):
            rng = stream(400 + seed, EVAL)
            causal = seed % 2 == 0
            l_q = int(rng.integers(2, 14))
            l_k = l_q if causal else int(rng.integers(2, 14))
            d = int(rng.integers(1, 6))
            qkv = QKV(Tensor(rng.normal(size=(l_q, d))),
                      Tensor(rng.normal(size=(l_k, d))),
                      Tensor(rng.normal(size=(l_k, d))))
            cfg = AttentionConfig(d_model=d, n_heads=1, c=1e6)
            sparse = probsparse_attention(qkv, cfg, causal=causal)
            dense = full_attention(
                qkv, causal_mask(l_q, l_k) if causal else None)
            assert np.abs(sparse.data - dense.data).max() < 1e-10


# -------------------------------------------------------------------------
# criterion 5: bit-exact causality of masked self-attention, both modes
# -------------------------------------------------------------------------

def test_criterion_5_causality():
    with criterion(5, "future perturbations leave past outputs bit-identical"):
        for seed in range(10):
            rng = stream(500 + seed, EVAL)
            length, d = 9, 3
            base = rng.normal(size=(length, d))
            t0 = int(rng.integers(2, length - 2))
            pert = base.copy()
            pert[t0 + 1:] += rng.normal(size=(length - t0 - 1, d)) * 7.0
            mask = causal_mask(length, length)
            dense_a = full_attention(
                QKV(Tensor(base), Tensor(base), Tensor(base)), mask)
            dense_b = full_attention(
                QKV(Tensor(pert), Tensor(pert), Tensor(pert)), mask)
            assert np.array_equal(dense_a.data[:t0 + 1], dense_b.data[:t0 + 1])
            cfg = AttentionConfig(d_model=d, n_heads=1, c=1.0)
            sparse_a = probsparse_attention(
                QKV(Tensor(base), Tensor(base), Tensor(base)), cfg, causal=True)
            sparse_b = probsparse_attention(
                QKV(Tensor(pert), Tensor(pert), Tensor(pert)), cfg, causal=True)
            assert np.array_equal(sparse_a.data[:t0 + 1], sparse_b.data[:t0 + 1])


# -------------------------------------------------------------------------
# criterion 6: distilling halves the sequence for every length
# -------------------------------------------------------------------------

def test_criterion_6_distill_lengths():
    with criterion(6, "distill output length is ceil(L/2) for L in [2, 64]"):
        from wellcast.attention import DistillWeights, distill
        weights = DistillWeights(4, stream(600, EVAL))
        for length in range(2, 65):
            x = Tensor(stream(601, EVAL).normal(size=(length, 4)))
            out = distill(x, weights)
            assert out.shape == (math.ceil(length / 2), 4), length


# -------------------------------------------------------------------------
# criterion 7: one-shot decoding
# -------------------------------------------------------------------------

def test_criterion_7_one_shot_decoding():
    with criterion(7, "45 forecast steps from exactly one decoder pass"):
        model = seqmodels.InformerModel(2, d_model=8, n_heads=2, ff_width=16,
                                        l_x=24, l_token=12, l_y=45, seed=70)
        ctx = stream(700, EVAL).normal(size=(24, 2))
        before = model.decoder_forward_count
        ens = seqmodels.forecast(model, ctx, np.arange(24) * 2.0,
                                 (24 + np.arange(45)) * 2.0,
                                 n_samples=100, seed=0)
        assert ens.samples.shape == (100, 45, 2)
        assert model.decoder_forward_count - before == 1


# -------------------------------------------------------------------------
# criterion 8: metric oracles
# -------------------------------------------------------------------------

def test_criterion_8_metric_oracles():
    with criterion(8, "MSE/MASE match brute force on 1000 instances; "
                      "persistence MASE near 1"):
        rng = stream(800, EVAL)
        for _ in range(1000):
            n = int(rng.integers(2, 12))
            ln = int(rng.integers(2, 16))
            pred = rng.normal(size=n)
            truth = rng.normal(size=n)
            train = rng.normal(size=ln)
            bf_mse = sum((p - t) ** 2 for p, t in zip(pred, truth)) / n
            assert abs(mse(pred, truth) - bf_mse) < 1e-12
            naive = sum(abs(train[i] - train[i - 1])
                        for i in range(1, ln)) / (ln - 1)
            bf_mae = sum(abs(p - t) for p, t in zip(pred, truth)) / n
            assert abs(mase(pred, truth, train) - bf_mae / naive) < 1e-12
        vals = []
        for seed in range(10):
            wrng = stream(810 + seed, EVAL)
            walk = np.cumsum(wrng.standard_normal(600))
            train, test = walk[:480], walk[480:]
            pred = np.concatenate([[train[-1]], test[:-1]])
            vals.append(mase(pred, test, train))
        assert 0.8 <= float(np.mean(vals)) <= 1.25


# -------------------------------------------------------------------------
# criterion 9: quantile protocol
# -------------------------------------------------------------------------

def test_criterion_9_quantile_protocol():
    with criterion(9, "nearest-rank indices match a brute-force sorter; "
                      "monotone in q"):
        rng = stream(900, EVAL)
        ens = evaluation.ForecastEnsemble(rng.normal(size=(100, 8, 2)))
        for q in list(QUANTILE_GRID) + [0.0, 1.0, 0.33]:
            path = quantile_path(ens, q)
            k = max(0, math.ceil(q * 100 - 1e-9) - 1)
            for t in range(8):
                for j in range(2):
                    ordered = sorted(ens.samples[:, t, j].tolist())
                    assert path[t, j] == ordered[k]
        prev = quantile_path(ens, QUANTILE_GRID[0])
        for q in QUANTILE_GRID[1:]:
            cur = quantile_path(ens, q)
            assert np.all(cur >= prev)
            prev = cur
        assert nearest_rank_index(0.5, 100) == 49


# -------------------------------------------------------------------------
# criterion 10: end-to-end synthetic benchmark, < 15 min
# -------------------------------------------------------------------------

def test_criterion_10_end_to_end_benchmark():
    t0 = time.monotonic()
    desc = ("end-to-end benchmark: best-quantile MASE bounds and "
            "moment calibration at full training budgets")
    with criterion(10, desc):
        panel = data.generate_synthetic(SyntheticFieldConfig())
        oil = panel.select([(s, data.OIL) for s in panel.site_names])
        k = oil.split_index
        horizon = 45
        ctx_ts = oil.timestamps[k - 96:k].astype(np.float64)
        tgt_ts = oil.timestamps[k:k + horizon].astype(np.float64)

        def best_mases(ens):
            out = []
            for j in range(len(oil.site_names)):
                truth = oil.values[k:k + horizon, j]
                train_series = oil.values[:k, j]
                _, m = best_quantile(
                    ens, truth, lambda p, t: mase(p, t, train_series), dim=j)
                out.append(m)
            return out

        # TimeGrad: 40 epochs, AdamW lr 1e-4 (epoch size is the free knob)
        tg = timegrad.TimeGradModel(4, context_length=90,
                                    prediction_length=45, seed=42)
        timegrad.fit(tg, oil, epochs=40, seed=42, lr=1e-4,
                     windows_per_epoch=64)
        tg_ens = timegrad.forecast(tg, oil.values[k - 90:k], horizon, 100, 42,
                                   timestamps=tgt_ts)
        tg_mases = best_mases(tg_ens)
        print(f"  timegrad best-quantile MASE per site: "
              f"{[round(m, 3) for m in tg_mases]}")
        assert all(m < 1.3 for m in tg_mases), tg_mases

        # Informer: 9 epochs, AdamW lr 1e-4
        inf = seqmodels.InformerModel(4, l_x=96, l_token=48, l_y=45,
                                      stride=2.0, seed=42)
        seqmodels.train_model(inf, oil, epochs=9, seed=42, lr=1e-4,
                              windows_per_epoch=192)
        inf_ens = seqmodels.forecast(inf, oil.values[k - 96:k], ctx_ts,
                                     tgt_ts, n_samples=100, seed=42)
        inf_mases = best_mases(inf_ens)
        print(f"  informer best-quantile MASE per site: "
              f"{[round(m, 3) for m in inf_mases]}")
        assert all(m < 1.0 for m in inf_mases), inf_mases

        # moment calibration in train-span-normalized units
        for j, site in enumerate(oil.site_names):
            train_series = oil.values[:k, j]
            mu, sd = train_series.mean(), train_series.std()
            truth_n = (oil.values[k:k + horizon, j] - mu) / sd
            ens_n = (inf_ens.samples[:, :, j] - mu) / sd
            d_mean = abs(ens_n.mean() - truth_n.mean())
            d_std = abs(ens_n.std() - truth_n.std())
            print(f"  informer {site}: |mean diff|={d_mean:.3f} "
                  f"|std diff|={d_std:.3f} (bound 0.20)")
            assert d_mean < 0.20, (site, d_mean)
            assert d_std < 0.20, (site, d_std)

        # vanilla baseline trains at its stated budget (no metric bound)
        van = seqmodels.VanillaTransformer(4, l_x=96, l_token=48, l_y=45,
                                           stride=2.0, seed=42)
        hist, _ = seqmodels.train_model(van, oil, epochs=40, seed=42,
                                        lr=1e-4, windows_per_epoch=24)
        assert np.isfinite(hist.train_loss).all()
        assert len(hist.gap) == 40  # overfitting indicator is emitted

        elapsed = time.monotonic() - t0
        print(f"  end-to-end benchmark wall time: {elapsed:.0f}s")
        assert elapsed < 900.0, f"benchmark took {elapsed:.1f}s"


# -------------------------------------------------------------------------
# criterion 11: breakthrough truncation property
# -------------------------------------------------------------------------

def test_criterion_11_breakthrough_truncation():
    with criterion(11, "first water value after truncation is positive"):
        rng = stream(1100, EVAL)
        for _ in range(100):
            n = int(rng.integers(2, 60))
            water = np.maximum(rng.normal(size=n), 0.0)
            lead = int(rng.integers(0, n))
            water[:lead] = 0.0
            oil = rng.uniform(1.0, 2.0, size=n)
            panel = data.SeriesPanel(
                columns=[("A", "oil"), ("A", "water")],
                timestamps=np.arange(n) * 2,
                values=np.stack([oil, water], axis=1))
            if np.all(water == 0.0):
                with pytest.raises(NoBreakthroughError):
                    data.truncate_at_breakthrough(panel)
            else:
                out = data.truncate_at_breakthrough(panel)
                assert out.values[0, 1] > 0.0


# -------------------------------------------------------------------------
# criterion 12: pipeline determinism
# -------------------------------------------------------------------------

def test_criterion_12_pipeline_determinism(tmp_path):
    with criterion(12, "identical configs yield byte-identical artifacts"):
        import hashlib

        from wellcast.cli import main

        cfg = SyntheticFieldConfig(n_sites=2, wells_per_site=2, n_steps=220,
                                   seed=5)
        conf = tmp_path / "field.cfg"
        conf.write_text(data.config_to_text(cfg))
        digests = []
        for name in ("run_a", "run_b"):
            out = tmp_path / name
            code = main(["pipeline", "--synthetic-config", str(conf),
                         "--out", str(out), "--horizon", "5", "--samples", "6",
                         "--epochs", "1", "--windows-per-epoch", "2",
                         "--seed", "11", "--lr", "1e-3",
                         "--context-length", "20", "--enc-length", "20",
                         "--token-length", "6"])
            assert code == 0
            digests.append({
                f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                for f in sorted(out.iterdir())})
        assert digests[0] == digests[1]
        names = set(digests[0])
        for model in ("timegrad", "informer", "vanilla"):
            assert f"{model}_all.gck" in names
            assert f"{model}_all_ensemble.gck" in names
            assert f"{model}_report.csv" in names

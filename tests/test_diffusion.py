import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from gradcheck import check_gradients
from oracles import elu_sum
from toys import train_toy_net
from wellcast import tensor as T
from wellcast.diffusion import (EpsilonNet, build_schedule, ddpm_loss,
                                forward_sample, reverse_step, sample,
                                schedule_from_betas)
from wellcast.errors import ContractError, ParameterError
from wellcast.rng import TRAIN, stream


@pytest.fixture(autouse=True)
def clean_record():
    T.reset_record()
    yield
    T.reset_record()


class TestSchedule:
    def test_single_step(self):
        sched = build_schedule(1, 0.05, 0.2)
        assert np.array_equal(sched.beta, [0.05])
        assert np.isclose(sched.alpha_bar[0], 0.95)
        assert sched.beta_tilde[0] == 0.0

    def test_cumulative_product(self):
        # beta [0.1, 0.2] -> abar [0.9, 0.9*0.8]
        sched = schedule_from_betas([0.1, 0.2])
        assert np.allclose(sched.alpha_bar, [0.9, 0.72], atol=1e-15)

    def test_non_increasing_rejected(self):
        with pytest.raises(ParameterError):
            schedule_from_betas([0.5, 0.5])
        with pytest.raises(ParameterError):
            build_schedule(10, 0.2, 0.2)

    def test_bounds_enforced(self):
        with pytest.raises(ParameterError):
            build_schedule(10, 0.0, 0.5)
        with pytest.raises(ParameterError):
            build_schedule(10, 0.1, 1.0)
        with pytest.raises(ParameterError):
            build_schedule(0, 0.1, 0.2)

    @pytest.mark.parametrize("seed", range(20))
    def test_schedule_algebra_random(self, seed):
        rng = stream(seed, TRAIN)
        n = int(rng.integers(1, 40))
        lo = rng.uniform(1e-5, 0.01)
        hi = rng.uniform(0.02, 0.9)
        sched = build_schedule(n, lo, hi)
        # abar_n == abar_{n-1} * (1 - beta_n), exactly (cumprod recurrence)
        assert np.array_equal(sched.alpha_bar,
                              sched.alpha_bar_prev * (1.0 - sched.beta))
        assert sched.beta_tilde[0] == 0.0
        assert np.all(sched.beta_tilde <= sched.beta + 1e-15)
        assert np.all(np.diff(sched.alpha_bar) < 0) or n == 1
        assert sched.alpha_bar_prev[0] == 1.0


class TestForwardSample:
    def test_zero_data_scales_noise(self):
        sched = schedule_from_betas([0.1, 0.2])
        eps = np.array([[1.0, -2.0]])
        out = forward_sample(np.zeros((1, 2)), 2, eps, sched)
        assert np.allclose(out, np.sqrt(1 - 0.72) * eps)

    def test_pure_signal_when_eps_zero(self):
        # abar = 0.25 -> coefficient on x0 is 0.5
        sched = schedule_from_betas([0.75])
        x0 = np.array([[2.0, -4.0]])
        out = forward_sample(x0, 1, np.zeros((1, 2)), sched)
        assert np.allclose(out, 0.5 * x0)

    def test_step_out_of_range(self):
        sched = build_schedule(5)
        with pytest.raises(ParameterError):
            forward_sample(np.zeros((1, 1)), 6, np.zeros((1, 1)), sched)
        with pytest.raises(ParameterError):
            forward_sample(np.zeros((1, 1)), 0, np.zeros((1, 1)), sched)
        # a per-row step is checked as a scalar one, naming the first outlier
        with pytest.raises(ParameterError, match=r"step 7 outside 1\.\.5"):
            forward_sample(np.zeros((3, 1)), np.array([2, 7, 0]),
                           np.zeros((3, 1)), sched)

    def test_marginal_moments_monte_carlo(self):
        # Var(x_n - sqrt(abar) x0) -> (1 - abar) within 3% over 1e5 draws
        sched = build_schedule(10, 1e-3, 0.3)
        rng = stream(42, TRAIN)
        x0 = np.full((100_000, 1), 1.7)
        for n in (3, 10):
            eps = rng.standard_normal(x0.shape)
            xn = forward_sample(x0, n, eps, sched)
            resid = xn - np.sqrt(sched.alpha_bar[n - 1]) * x0
            target = 1.0 - sched.alpha_bar[n - 1]
            assert abs(resid.var() - target) < 0.03 * target
            assert abs(resid.mean()) < 3.0 * np.sqrt(target / len(x0))


def branched_forward_sample(x0, n, eps, sched):
    """forward_sample with a branch of its own for a scalar step: the
    reference whose bits the one-path form keeps."""
    n_arr = np.asarray(n)
    if n_arr.ndim == 0:
        abar = sched.alpha_bar[int(n_arr) - 1]
    else:
        abar = sched.alpha_bar[n_arr - 1][:, None]
    return np.sqrt(abar) * x0 + np.sqrt(1.0 - abar) * eps


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("per_row", [False, True], ids=["scalar", "per_row"])
def test_forward_sample_keeps_the_branched_bits(seed, per_row):
    rng = stream(70 + seed, TRAIN)
    sched = build_schedule(int(rng.integers(1, 120)), 1e-4, 0.3)
    rows, dim = int(rng.integers(1, 40)), int(rng.integers(1, 5))
    x0 = rng.normal(scale=3.0, size=(rows, dim))
    eps = rng.standard_normal((rows, dim))
    n = rng.integers(1, sched.n_steps + 1, size=rows if per_row else None)
    got = forward_sample(x0, n, eps, sched)
    want = branched_forward_sample(x0, n, eps, sched)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class _OracleNet:
    """Test double that returns a pre-agreed noise array."""

    def __init__(self, eps, sched, cond_dim=0):
        self._eps = np.atleast_2d(eps)
        self.data_dim = self._eps.shape[1]
        self.cond_dim = cond_dim
        self.sched = sched

    def forward(self, x_n, h, n):
        return T.constant(self._eps)


class _ZeroNet:
    def __init__(self, data_dim, sched, cond_dim=0):
        self.data_dim = data_dim
        self.cond_dim = cond_dim
        self.sched = sched

    def forward(self, x_n, h, n):
        return T.constant(np.zeros_like(np.atleast_2d(x_n)))

    def conditioned(self, h):
        return lambda x_n, n: np.zeros_like(x_n)


class _FixedDraws:
    """Generator stand-in whose draws are the given steps and noise."""

    def __init__(self, n, eps):
        self.n, self.eps = np.asarray(n), np.asarray(eps)

    def integers(self, low, high, size):
        return self.n

    def standard_normal(self, size):
        return self.eps


class TestPosterior:
    """The reverse update is the posterior q(x_{n-1} | x_n, x_0) in its
    eps-form: fed the noise that took x_0 to x_n, with z = 0, it gives the
    posterior mean, and its noise term has variance beta_tilde_n."""

    def test_variance_zero_at_first_step(self):
        sched = build_schedule(7)
        net = _ZeroNet(2, sched)
        xn = np.ones((1, 2))
        quiet = reverse_step(xn, np.zeros((1, 0)), 1, net, np.zeros((1, 2)))
        loud = reverse_step(xn, np.zeros((1, 0)), 1, net, np.full((1, 2), 1e6))
        assert np.array_equal(quiet, loud)

    def test_two_step_hand_example(self):
        # beta = [0.5, 0.6]: btilde_2 = (1 - 0.5)/(1 - 0.2) * 0.6 = 0.375
        sched = schedule_from_betas([0.5, 0.6])
        out = reverse_step(np.zeros((1, 1)), np.zeros((1, 0)), 2,
                           _ZeroNet(1, sched), np.ones((1, 1)))
        assert np.isclose(out[0, 0] ** 2, 0.375, atol=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_mean_stays_within_convex_hull(self, seed):
        rng = stream(seed, TRAIN)
        sched = build_schedule(int(rng.integers(2, 30)), 1e-4, 0.4)
        v = rng.uniform(-3, 3)
        x0 = np.array([[v]])
        for n in range(1, sched.n_steps + 1):
            i = n - 1
            # x_n = x_0 = v: the noise that took x_0 there, and the x0-form
            # mean c1 x_n + c2 x_0 with nonnegative c1 + c2 close to 1
            denom = 1.0 - sched.alpha_bar[i]
            eps = (1.0 - np.sqrt(sched.alpha_bar[i])) * x0 / np.sqrt(denom)
            c1 = np.sqrt(sched.alpha[i]) * (1.0 - sched.alpha_bar_prev[i]) / denom
            c2 = np.sqrt(sched.alpha_bar_prev[i]) * sched.beta[i] / denom
            mean = reverse_step(x0, np.zeros((1, 0)), n,
                                _OracleNet(eps, sched), np.zeros((1, 1)))
            assert np.isfinite(mean).all()
            assert abs(mean[0, 0] - (c1 + c2) * v) <= 1e-10 * max(abs(v), 1.0)
            lo, hi = min(v, 0.0) - 1e-9, max(v, 0.0) + 1e-9
            if v >= 0:
                assert lo <= mean[0, 0] <= hi + abs(v) * 0.1
            assert 0.0 <= sched.beta_tilde[i] <= sched.beta[i] + 1e-15


class TestDdpmLoss:
    def test_perfect_predictor_gives_exact_zero(self):
        # a twin of the loss's stream: the step, then the noise it draws
        sched = build_schedule(10)
        twin = stream(0, TRAIN)
        twin.integers(1, sched.n_steps + 1, size=1)
        net = _OracleNet(twin.standard_normal((1, 3)), sched)
        for norm in ("l1", "l2"):
            loss = ddpm_loss(np.ones((1, 3)), np.zeros((1, 0)), net,
                             stream(0, TRAIN), norm=norm)
            assert loss.item() == 0.0

    def test_zero_net_expected_l2_is_dimension(self):
        # E ||eps||^2 = D; Monte Carlo over 1e4 draws within 5%
        dim = 3
        net = _ZeroNet(dim, build_schedule(20))
        rng = stream(1, TRAIN)
        total = 0.0
        draws = 10_000
        for _ in range(draws):
            total += ddpm_loss(np.zeros((1, dim)), np.zeros((1, 0)), net,
                               rng, norm="l2").item()
        assert abs(total / draws - dim) < 0.05 * dim

    def test_loss_nonnegative(self):
        rng = stream(2, TRAIN)
        net = EpsilonNet(2, 0, build_schedule(5), hidden=16, rng=rng)
        for norm in ("l1", "l2"):
            loss = ddpm_loss(rng.normal(size=(4, 2)), np.zeros((4, 0)), net,
                             rng, norm=norm)
            assert loss.item() >= 0.0

    def test_dimension_mismatch(self):
        net = _ZeroNet(3, build_schedule(5))
        with pytest.raises(ContractError):
            ddpm_loss(np.zeros((1, 2)), np.zeros((1, 0)), net, stream(3, TRAIN))

    def test_bad_norm(self):
        with pytest.raises(ParameterError):
            ddpm_loss(np.zeros((1, 1)), np.zeros((1, 0)),
                      _ZeroNet(1, build_schedule(5)), stream(3, TRAIN),
                      norm="linf")

    def test_loss_gradient_matches_finite_differences(self):
        rng = stream(4, TRAIN)
        net = EpsilonNet(2, 3, build_schedule(8), hidden=8, embed_dim=8, rng=rng)
        x0 = rng.normal(size=(3, 2))
        h = rng.normal(size=(3, 3))
        n_fix = np.array([2, 5, 8])
        eps_fix = rng.normal(size=(3, 2))

        def make_loss():
            return ddpm_loss(x0, h, net, _FixedDraws(n_fix, eps_fix), norm="l2")

        check_gradients(make_loss, net.params(), rtol=1e-4)


class TestReverseStep:
    def test_zero_predictor_reduction(self):
        sched = build_schedule(6)
        net = _ZeroNet(2, sched)
        xn = np.array([[1.0, -2.0]])
        out = reverse_step(xn, np.zeros((1, 0)), 4, net, np.zeros((1, 2)))
        assert np.allclose(out, xn / np.sqrt(sched.alpha[3]))

    def test_step_below_one_rejected(self):
        with pytest.raises(ParameterError):
            reverse_step(np.zeros((1, 1)), np.zeros((1, 0)), 0,
                         _ZeroNet(1, build_schedule(6)), np.zeros((1, 1)))

    def test_single_step_recovers_data(self):
        # N = 1: one forward step with known eps, one reverse step with the
        # true eps and z = 0 recovers x0 to 1e-9
        sched = build_schedule(1, 0.02, 0.5)
        rng = stream(6, TRAIN)
        x0 = rng.normal(size=(1, 4))
        eps = rng.normal(size=(1, 4))
        x1 = forward_sample(x0, 1, eps, sched)
        net = _OracleNet(eps, sched)
        back = reverse_step(x1, np.zeros((1, 0)), 1, net, np.zeros((1, 4)))
        assert np.abs(back - x0).max() < 1e-9


class TestConditionedPredictor:
    # h_rows = 1 with batch 100 is one conditioning row shared by the batch,
    # which forward takes repeated row by row
    @pytest.mark.parametrize("batch,h_rows", [(1, 1), (100, 100), (100, 1)])
    @pytest.mark.parametrize("cond_dim", [0, 3])
    def test_matches_tape_forward(self, batch, h_rows, cond_dim):
        sched = build_schedule(12)
        rng = stream(40 + batch + cond_dim, TRAIN)
        net = EpsilonNet(2, cond_dim, sched, hidden=16, embed_dim=8, rng=rng)
        for p in net.params()[1::2]:
            p.data[...] = rng.normal(scale=0.1, size=p.shape)  # nonzero biases
        x = rng.normal(size=(batch, 2))
        h = rng.normal(size=(h_rows, cond_dim))
        predict = net.conditioned(h)
        for n in (1, sched.n_steps):
            with T.no_grad():
                ref = net.forward(x, np.repeat(h, batch // h_rows, axis=0),
                                  n).data
            got = predict(x, n)
            assert got.shape == ref.shape
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        assert T.current_record() == []

    def test_rejects_bad_width_and_step(self):
        net = EpsilonNet(2, 3, build_schedule(5), hidden=8, embed_dim=8,
                         rng=stream(45, TRAIN))
        with pytest.raises(ContractError):
            net.conditioned(np.zeros((1, 2)))
        predict = net.conditioned(np.zeros((1, 3)))
        for n in (0, 6):
            with pytest.raises(ParameterError):
                predict(np.zeros((1, 2)), n)


class TestNetOwnsItsSchedule:
    """One EpsilonNet, one schedule: the loss and the sampler take the
    schedule from the net, and forward takes one h row per batch row."""

    @pytest.mark.parametrize("h_rows", [1, 2])
    def test_forward_needs_a_conditioning_row_per_batch_row(self, h_rows):
        net = EpsilonNet(2, 4, build_schedule(5), hidden=8, embed_dim=8,
                         rng=stream(80, TRAIN))
        with pytest.raises(ContractError,
                           match=rf"shape \({h_rows}, 4\).*shape \(3, 2\)"):
            net.forward(np.zeros((3, 2)), np.zeros((h_rows, 4)), 2)

    @pytest.mark.parametrize("steps,bad", [
        (0, 0), (6, 6), ([1, 0, 2], 0), ([5, 6, 5], 6)],
        ids=["scalar-0", "scalar-N+1", "row-0", "row-N+1"])
    def test_forward_refuses_a_step_outside_the_schedule(self, steps, bad):
        net = EpsilonNet(2, 4, build_schedule(5), hidden=8, embed_dim=8,
                         rng=stream(83, TRAIN))
        with pytest.raises(ParameterError,
                           match=rf"^diffusion step {bad} outside 1\.\.5$"):
            net.forward(np.zeros((3, 2)), np.zeros((3, 4)), steps)

    @pytest.mark.parametrize("steps", [1, 5, [1, 3, 5]])
    def test_forward_reads_the_embedding_row_of_its_step(self, steps):
        net = EpsilonNet(2, 4, build_schedule(5), hidden=8, embed_dim=8,
                         rng=stream(84, TRAIN))
        rng = stream(85, TRAIN)
        x, h = rng.normal(size=(3, 2)), rng.normal(size=(3, 4))
        emb = net.embed_table[np.broadcast_to(steps, (3,)) - 1]
        inp = T.constant(np.hstack([x, h, emb]))
        z1 = T.elu(T.add(T.matmul(inp, net.w1), net.b1))
        z2 = T.elu(T.add(T.matmul(z1, net.w2), net.b2))
        want = T.add(T.matmul(z2, net.w3), net.b3).data
        assert net.forward(x, h, steps).data.tobytes() == want.tobytes()

    def test_steps_come_from_the_nets_schedule(self):
        net = EpsilonNet(1, 0, build_schedule(50), hidden=8, embed_dim=8,
                         rng=stream(81, TRAIN))
        steps, calls = [], []
        forward, conditioned = net.forward, net.conditioned

        def spy_forward(x_n, h, n):
            steps.extend(np.atleast_1d(n))
            return forward(x_n, h, n)

        def spy_conditioned(h):
            predict = conditioned(h)

            def spy(x_n, n):
                calls.append(n)
                return predict(x_n, n)

            return spy

        net.forward, net.conditioned = spy_forward, spy_conditioned
        rng = stream(82, TRAIN)
        for _ in range(20):
            ddpm_loss(rng.normal(size=(64, 1)), np.zeros((64, 0)), net, rng)
        assert min(steps) == 1 and max(steps) == 50
        with pytest.raises(ParameterError, match="noise must hold 49 draws"):
            sample(np.zeros((4, 1)), np.zeros((1, 0)), net, np.zeros((48, 4, 1)))
        sample(np.zeros((4, 1)), np.zeros((1, 0)), net, np.zeros((49, 4, 1)))
        assert calls == list(range(50, 0, -1))


def reference_sample(x_init, h, net, noise):
    """The sampler before it ran on preallocated buffers: a predictor that
    allocates every activation and takes the four-ufunc ELU, and an update
    that works out its schedule scalars at every step.  ``sample`` must give
    these bits exactly."""
    sched = net.sched
    h = np.atleast_2d(np.asarray(h, dtype=np.float64))
    d, c = net.data_dim, net.cond_dim
    w1 = net.w1.data
    w1x = w1[:d]
    base = h @ w1[d:d + c]
    table = net.embed_table @ w1[d + c:] + net.b1.data

    def predict(x_n, n):
        z1 = elu_sum(x_n @ w1x + base + table[n - 1])
        z2 = elu_sum(z1 @ net.w2.data + net.b2.data)
        return z2 @ net.w3.data + net.b3.data

    x = np.asarray(x_init, dtype=np.float64)
    for i, n in enumerate(range(sched.n_steps, 0, -1)):
        if n == 1:
            z = np.zeros_like(x)
        else:
            z = np.asarray(noise[i], dtype=np.float64).reshape(x.shape)
        eps_hat = predict(np.atleast_2d(x), n).reshape(x.shape)
        j = n - 1
        pref = 1.0 / np.sqrt(sched.alpha[j])
        mean = pref * (x - sched.beta[j] / np.sqrt(1.0 - sched.alpha_bar[j])
                       * eps_hat)
        x = mean + np.sqrt(sched.beta_tilde[j]) * z
    return x


class TestSamplerBitwise:
    """``sample`` on buffers against ``reference_sample``, bit for bit."""

    @staticmethod
    def net_with_biases(seed, cond_dim):
        rng = stream(seed, TRAIN)
        net = EpsilonNet(3, cond_dim, build_schedule(30, 1e-4, 0.2), hidden=32,
                         embed_dim=8, rng=rng)
        for p in net.params()[1::2]:
            p.data[...] = rng.normal(scale=0.5, size=p.shape)
        return net

    @pytest.mark.parametrize("batch,h_rows", [(1, 1), (100, 100), (100, 1)])
    @pytest.mark.parametrize("spare_draw", [False, True])
    def test_sample_equals_reference(self, batch, h_rows, spare_draw):
        # N - 1 = 29 draws, or one more than the rollout reads
        net = self.net_with_biases(60 + batch + h_rows, cond_dim=4)
        rng = stream(61, TRAIN)
        x = rng.standard_normal((batch, 3))
        h = rng.standard_normal((h_rows, 4))
        noise = rng.standard_normal((29 + spare_draw, batch, 3))
        got = sample(x, h, net, noise)
        ref = reference_sample(x, h, net, noise)
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))

    def test_predict_returns_arrays_it_does_not_reuse(self):
        net = self.net_with_biases(63, cond_dim=4)
        rng = stream(64, TRAIN)
        predict = net.conditioned(rng.standard_normal((1, 4)))
        first = predict(rng.standard_normal((5, 3)), 7)
        kept = first.copy()
        predict(rng.standard_normal((5, 3)), 8)
        predict(rng.standard_normal((2, 3)), 9)  # a new batch size
        assert np.array_equal(first, kept)


class TestSampler:
    def test_single_step_schedule_uses_zero_noise(self):
        sched = build_schedule(1, 0.02, 0.5)
        net = _ZeroNet(2, sched)
        x = np.array([[3.0, -1.0]])
        out = sample(x, np.zeros((1, 0)), net, np.empty((0, 1, 2)))
        assert np.allclose(out, x / np.sqrt(sched.alpha[0]))

    def test_fixed_seed_reproducible(self):
        # a stream's draws taken in one call or one reverse step at a time
        # are the same values in the same order, so the same rollout
        rng = stream(7, TRAIN)
        net = EpsilonNet(2, 0, build_schedule(12), hidden=8, embed_dim=8, rng=rng)
        x = stream(8, TRAIN).standard_normal((1, 2))
        step = stream(9, TRAIN)
        per_step = np.stack([step.standard_normal((1, 2)) for _ in range(11)])
        a = sample(x, np.zeros((1, 0)), net,
                   stream(9, TRAIN).standard_normal((11, 1, 2)))
        b = sample(x, np.zeros((1, 0)), net, per_step)
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))

    @pytest.mark.parametrize("shape", [(2, 1, 2), (3, 2, 2), (3, 2), ()])
    def test_noise_short_of_draws_rejected(self, shape):
        # N - 1 = 3 draws of shape (1, 2) are needed
        with pytest.raises(ParameterError, match="noise must hold 3 draws"):
            sample(np.zeros((1, 2)), np.zeros((1, 0)),
                   _ZeroNet(2, build_schedule(4)), np.zeros(shape))

    def test_zero_noise_gives_the_contraction_chain(self):
        sched = build_schedule(4)
        net = _ZeroNet(1, sched)
        x = np.array([[1.0]])
        noise = np.zeros((4, 1, 1))
        a = sample(x, np.zeros((1, 0)), net, noise=noise)
        # all-zero injected noise: pure deterministic contraction chain
        expected = x.copy()
        for n in range(4, 0, -1):
            expected = expected / np.sqrt(sched.alpha[n - 1])
        assert np.allclose(a, expected)


@pytest.fixture(scope="module")
def two_point_net():
    sched = build_schedule(50, 1e-4, 0.15)
    pool = np.array([-1.0, 1.0]).repeat(32)
    return sched, train_toy_net(pool, sched, steps=1200, seed=21)


class TestGenerativeSanity:
    def test_two_point_distribution_mass(self, two_point_net):
        sched, net = two_point_net
        rng = stream(22, TRAIN)
        draws = 2000
        x = rng.standard_normal((draws, 1))
        out = sample(x, np.zeros((draws, 0)), net,
                     rng.standard_normal((sched.n_steps - 1, draws, 1)))
        frac_neg = float(np.mean(out < 0.0))
        assert abs(frac_neg - 0.5) < 0.1
        # samples concentrate near the two modes
        assert np.mean(np.minimum(np.abs(out - 1), np.abs(out + 1)) < 0.5) > 0.8

    def test_constant_target_mean(self):
        sched = build_schedule(50, 1e-4, 0.15)
        c = 1.5
        net = train_toy_net(np.full(64, c), sched, steps=800, seed=23)
        rng = stream(24, TRAIN)
        draws = 10_000
        out = sample(rng.standard_normal((draws, 1)), np.zeros((draws, 0)),
                     net, rng.standard_normal((sched.n_steps - 1, draws, 1)))
        assert abs(out.mean() - c) < 0.05 * abs(c)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=200),
       st.integers(min_value=1, max_value=64).map(lambda k: 2 * k))
def test_step_table_matches_its_own_form_bitwise(n_steps, dim):
    net = EpsilonNet(1, 2, build_schedule(n_steps), hidden=4, embed_dim=dim,
                     rng=stream(0, TRAIN))
    want = oracles.sinusoidal_embedding(n_steps, dim)
    assert net.embed_table.tobytes() == want.tobytes()


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=30),
       st.floats(min_value=1e-5, max_value=0.01),
       st.floats(min_value=0.05, max_value=0.9))
def test_schedule_invariants_property(n, lo, hi):
    sched = build_schedule(n, lo, hi)
    assert np.array_equal(sched.alpha_bar, sched.alpha_bar_prev * sched.alpha)
    assert sched.beta_tilde[0] == 0.0
    assert np.all(sched.beta_tilde <= sched.beta)

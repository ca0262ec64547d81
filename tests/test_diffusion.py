import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcheck import check_gradients
from toys import train_toy_net
from wellcast import tensor as T
from wellcast.diffusion import (EpsilonNet, build_schedule, ddpm_loss,
                                forward_sample, posterior_params, reverse_step,
                                sample, schedule_from_betas)
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
        sched = schedule_from_betas([0.75], strict=False)
        x0 = np.array([[2.0, -4.0]])
        out = forward_sample(x0, 1, np.zeros((1, 2)), sched)
        assert np.allclose(out, 0.5 * x0)

    def test_step_out_of_range(self):
        sched = build_schedule(5)
        with pytest.raises(ParameterError):
            forward_sample(np.zeros((1, 1)), 6, np.zeros((1, 1)), sched)
        with pytest.raises(ParameterError):
            forward_sample(np.zeros((1, 1)), 0, np.zeros((1, 1)), sched)

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


class TestPosterior:
    def test_variance_zero_at_first_step(self):
        sched = build_schedule(7)
        _, var = posterior_params(np.ones(2), np.ones(2), 1, sched)
        assert var == 0.0

    def test_hypothetical_constant_betas(self):
        # beta = [0.5, 0.5]: btilde_2 = (1 - 0.5)/(1 - 0.25) * 0.5 = 1/3
        sched = schedule_from_betas([0.5, 0.5], strict=False)
        _, var = posterior_params(np.zeros(1), np.zeros(1), 2, sched)
        assert np.isclose(var, 1.0 / 3.0, atol=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_mean_stays_within_convex_hull(self, seed):
        rng = stream(seed, TRAIN)
        sched = build_schedule(int(rng.integers(2, 30)), 1e-4, 0.4)
        v = rng.uniform(-3, 3)
        for n in range(1, sched.n_steps + 1):
            mean, var = posterior_params(np.array([v]), np.array([v]), n, sched)
            assert np.isfinite(mean).all()
            # coefficients are nonnegative; with x_n = x_0 = v the mean is
            # (c1 + c2) v and c1 + c2 is close to but not above ~1
            lo, hi = min(v, 0.0) - 1e-9, max(v, 0.0) + 1e-9
            if v >= 0:
                assert lo <= mean[0] <= hi + abs(v) * 0.1
            assert 0.0 <= var <= sched.beta[n - 1] + 1e-15


class _OracleNet:
    """Test double that returns a pre-agreed noise array."""

    def __init__(self, eps, cond_dim=0):
        self._eps = np.atleast_2d(eps)
        self.data_dim = self._eps.shape[1]
        self.cond_dim = cond_dim

    def forward(self, x_n, h, n):
        return T.constant(self._eps)


class _ZeroNet:
    def __init__(self, data_dim, cond_dim=0):
        self.data_dim = data_dim
        self.cond_dim = cond_dim

    def forward(self, x_n, h, n):
        return T.constant(np.zeros_like(np.atleast_2d(x_n)))

    def conditioned(self, h):
        return lambda x_n, n: np.zeros_like(x_n)


class TestDdpmLoss:
    def test_perfect_predictor_gives_exact_zero(self):
        sched = build_schedule(10)
        rng = stream(0, TRAIN)
        eps = rng.standard_normal((1, 3))
        net = _OracleNet(eps)
        for norm in ("l1", "l2"):
            loss = ddpm_loss(np.ones((1, 3)), np.zeros((1, 0)), net, sched,
                             rng, norm=norm, eps_override=eps, n_override=[4])
            assert loss.item() == 0.0

    def test_zero_net_expected_l2_is_dimension(self):
        # E ||eps||^2 = D; Monte Carlo over 1e4 draws within 5%
        dim = 3
        sched = build_schedule(20)
        net = _ZeroNet(dim)
        rng = stream(1, TRAIN)
        total = 0.0
        draws = 10_000
        for _ in range(draws):
            total += ddpm_loss(np.zeros((1, dim)), np.zeros((1, 0)), net,
                               sched, rng, norm="l2").item()
        assert abs(total / draws - dim) < 0.05 * dim

    def test_loss_nonnegative(self):
        sched = build_schedule(5)
        rng = stream(2, TRAIN)
        net = EpsilonNet(2, 0, sched.n_steps, hidden=16, rng=rng)
        for norm in ("l1", "l2"):
            loss = ddpm_loss(rng.normal(size=(4, 2)), np.zeros((4, 0)), net,
                             sched, rng, norm=norm)
            assert loss.item() >= 0.0

    def test_dimension_mismatch(self):
        sched = build_schedule(5)
        net = _ZeroNet(3)
        with pytest.raises(ContractError):
            ddpm_loss(np.zeros((1, 2)), np.zeros((1, 0)), net, sched,
                      stream(3, TRAIN))

    def test_bad_norm(self):
        sched = build_schedule(5)
        with pytest.raises(ParameterError):
            ddpm_loss(np.zeros((1, 1)), np.zeros((1, 0)), _ZeroNet(1), sched,
                      stream(3, TRAIN), norm="linf")

    def test_loss_gradient_matches_finite_differences(self):
        sched = build_schedule(8)
        rng = stream(4, TRAIN)
        net = EpsilonNet(2, 3, sched.n_steps, hidden=8, embed_dim=8, rng=rng)
        x0 = rng.normal(size=(3, 2))
        h = rng.normal(size=(3, 3))
        n_fix = np.array([2, 5, 8])
        eps_fix = rng.normal(size=(3, 2))

        def make_loss():
            return ddpm_loss(x0, h, net, sched, stream(5, TRAIN), norm="l2",
                             n_override=n_fix, eps_override=eps_fix)

        check_gradients(make_loss, net.params(), rtol=1e-4)


class TestReverseStep:
    def test_zero_predictor_reduction(self):
        sched = build_schedule(6)
        net = _ZeroNet(2)
        xn = np.array([[1.0, -2.0]])
        out = reverse_step(xn, np.zeros((1, 0)), 4, net, sched, np.zeros((1, 2)))
        assert np.allclose(out, xn / np.sqrt(sched.alpha[3]))

    def test_paper_literal_prefactor(self):
        sched = build_schedule(6)
        net = _ZeroNet(2)
        xn = np.array([[1.0, -2.0]])
        out = reverse_step(xn, np.zeros((1, 0)), 4, net, sched,
                           np.zeros((1, 2)), paper_literal=True)
        assert np.allclose(out, xn / np.sqrt(sched.alpha_bar[3]))

    def test_step_below_one_rejected(self):
        sched = build_schedule(6)
        with pytest.raises(ParameterError):
            reverse_step(np.zeros((1, 1)), np.zeros((1, 0)), 0, _ZeroNet(1),
                         sched, np.zeros((1, 1)))

    def test_single_step_recovers_data(self):
        # N = 1: one forward step with known eps, one reverse step with the
        # true eps and z = 0 recovers x0 to 1e-9
        sched = build_schedule(1, 0.02, 0.5)
        rng = stream(6, TRAIN)
        x0 = rng.normal(size=(1, 4))
        eps = rng.normal(size=(1, 4))
        x1 = forward_sample(x0, 1, eps, sched)
        net = _OracleNet(eps)
        back = reverse_step(x1, np.zeros((1, 0)), 1, net, sched, np.zeros((1, 4)))
        assert np.abs(back - x0).max() < 1e-9


class TestConditionedPredictor:
    # h_rows = 1 with batch 100 is one conditioning row shared by the batch
    @pytest.mark.parametrize("batch,h_rows", [(1, 1), (100, 100), (100, 1)])
    @pytest.mark.parametrize("cond_dim", [0, 3])
    def test_matches_tape_forward(self, batch, h_rows, cond_dim):
        sched = build_schedule(12)
        rng = stream(40 + batch + cond_dim, TRAIN)
        net = EpsilonNet(2, cond_dim, sched.n_steps, hidden=16, embed_dim=8,
                         rng=rng)
        for p in net.params()[1::2]:
            p.data[...] = rng.normal(scale=0.1, size=p.shape)  # nonzero biases
        x = rng.normal(size=(batch, 2))
        h = rng.normal(size=(h_rows, cond_dim))
        predict = net.conditioned(h)
        for n in (1, sched.n_steps):
            with T.no_grad():
                ref = net.forward(x, h, n).data
            got = predict(x, n)
            assert got.shape == ref.shape
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        assert T.current_record() == []

    def test_rejects_bad_width_and_step(self):
        net = EpsilonNet(2, 3, 5, hidden=8, embed_dim=8, rng=stream(45, TRAIN))
        with pytest.raises(ContractError):
            net.conditioned(np.zeros((1, 2)))
        predict = net.conditioned(np.zeros((1, 3)))
        for n in (0, 6):
            with pytest.raises(ParameterError):
                predict(np.zeros((1, 2)), n)


class TestSampler:
    def test_single_step_schedule_uses_zero_noise(self):
        sched = build_schedule(1, 0.02, 0.5)
        net = _ZeroNet(2)
        x = np.array([[3.0, -1.0]])
        out = sample(x, np.zeros((1, 0)), net, sched)  # no rng needed at N=1
        assert np.allclose(out, x / np.sqrt(sched.alpha[0]))

    def test_fixed_seed_reproducible(self):
        sched = build_schedule(12)
        rng = stream(7, TRAIN)
        net = EpsilonNet(2, 0, sched.n_steps, hidden=8, embed_dim=8, rng=rng)
        x = stream(8, TRAIN).standard_normal((1, 2))
        a = sample(x, np.zeros((1, 0)), net, sched, rng=stream(9, TRAIN))
        b = sample(x, np.zeros((1, 0)), net, sched, rng=stream(9, TRAIN))
        assert np.array_equal(a, b)

    def test_noise_injection_overrides_rng(self):
        sched = build_schedule(4)
        net = _ZeroNet(1)
        x = np.array([[1.0]])
        noise = np.zeros((4, 1, 1))
        a = sample(x, np.zeros((1, 0)), net, sched, noise=noise)
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
        out = sample(x, np.zeros((draws, 0)), net, sched, rng=rng)
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
                     net, sched, rng=rng)
        assert abs(out.mean() - c) < 0.05 * abs(c)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=30),
       st.floats(min_value=1e-5, max_value=0.01),
       st.floats(min_value=0.05, max_value=0.9))
def test_schedule_invariants_property(n, lo, hi):
    sched = build_schedule(n, lo, hi)
    assert np.array_equal(sched.alpha_bar, sched.alpha_bar_prev * sched.alpha)
    assert sched.beta_tilde[0] == 0.0
    assert np.all(sched.beta_tilde <= sched.beta)

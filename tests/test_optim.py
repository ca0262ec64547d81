"""The blocked AdamW update against a one-array-at-a-time reference."""

import numpy as np
import pytest

from wellcast.errors import FormatError, ParameterError, TrainingError
from wellcast.optim import BLOCK_ELEMENTS, AdamW
from wellcast.rng import TRAIN, stream
from wellcast.tensor import Tensor

# three blocks of parameters: [0, 4), [4, 8) and [8, 10)
SHAPES = [(64, 64, 3), (64,), (50, 40), (3,), (64, 16), (7, 7), (64, 128),
          (1,), (80, 80), (13, 11)]


def reference_step(params, m, v, t, lr, beta1, beta2, eps, weight_decay):
    """The update one parameter array at a time, temporaries and all."""
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for i, p in enumerate(params):
        g = p.grad
        if g is None:
            continue
        if weight_decay:
            p.data *= 1.0 - lr * weight_decay
        m[i] = beta1 * m[i] + (1.0 - beta1) * g
        v[i] = beta2 * v[i] + (1.0 - beta2) * (g * g)
        m_hat = m[i] / bc1
        v_hat = v[i] / bc2
        p.data -= lr * m_hat / (np.sqrt(v_hat) + eps)


def make_params(seed=0):
    rng = stream(seed, TRAIN)
    return [Tensor(rng.normal(size=s), requires_grad=True) for s in SHAPES]


def block_bounds(opt):
    """[first, stop) parameter indices of each block."""
    return [(first, first + len(offsets) - 1)
            for first, offsets, _, _ in opt._blocks]


class TestBlocks:
    def test_blocks_cover_the_parameters_in_order(self):
        opt = AdamW(make_params())
        bounds = block_bounds(opt)
        assert bounds == [(0, 4), (4, 8), (8, 10)]
        for first, offsets, m, v in opt._blocks:
            assert offsets[-1] <= BLOCK_ELEMENTS or len(offsets) == 2
            assert m.size == v.size == offsets[-1]

    def test_moments_are_views_shaped_like_the_parameters(self):
        params = make_params()
        opt = AdamW(params)
        for p, m, v in zip(params, opt.m, opt.v):
            assert m.shape == v.shape == p.shape
            assert not m.any() and not v.any()

    def test_oversized_parameter_gets_its_own_block(self):
        params = [Tensor(np.ones(n), requires_grad=True)
                  for n in (3, BLOCK_ELEMENTS + 5, 3)]
        opt = AdamW(params)
        assert block_bounds(opt) == [(0, 1), (1, 2), (2, 3)]
        params[1].grad = np.full(params[1].shape, 0.5)
        opt.step()
        assert np.all(opt.m[1] == (1.0 - 0.9) * 0.5)


class TestMatchesReference:
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_five_steps_bitwise(self, weight_decay):
        params, ref_params = make_params(), make_params()
        opt = AdamW(params, lr=1e-2, weight_decay=weight_decay)
        bounds = block_bounds(opt)
        # no gradient at a block's first, a middle and its last parameter
        # on alternate steps
        middle = (bounds[0][0] + bounds[0][1]) // 2
        skipped = {bounds[0][0], middle, bounds[1][1] - 1, bounds[-1][1] - 1}
        assert len(skipped) == 4
        m = [np.zeros(s) for s in SHAPES]
        v = [np.zeros(s) for s in SHAPES]
        rng = stream(1, TRAIN)
        for step in range(1, 6):
            for i, (p, q) in enumerate(zip(params, ref_params)):
                if i in skipped and step % 2:
                    p.grad = q.grad = None
                else:
                    p.grad = rng.normal(size=p.shape)
                    q.grad = p.grad.copy()
            opt.step()
            reference_step(ref_params, m, v, step, 1e-2, 0.9, 0.999, 1e-8,
                           weight_decay)
            for i, (p, q) in enumerate(zip(params, ref_params)):
                assert np.array_equal(p.data, q.data), (step, i)
                assert np.array_equal(opt.m[i], m[i]), (step, i)
                assert np.array_equal(opt.v[i], v[i]), (step, i)

    def test_parameter_without_gradient_and_its_moments_stay(self):
        params = make_params()
        opt = AdamW(params, lr=1e-2, weight_decay=0.1)
        for p in params:
            p.grad = np.ones(p.shape)
        opt.step()
        before = [(p.data.copy(), m.copy(), v.copy())
                  for p, m, v in zip(params, opt.m, opt.v)]
        params[1].grad = None
        opt.step()
        data, m, v = before[1]
        assert np.array_equal(params[1].data, data)
        assert np.array_equal(opt.m[1], m) and np.array_equal(opt.v[1], v)
        assert not np.array_equal(params[0].data, before[0][0])

    def test_update_writes_into_the_parameter_arrays(self):
        params = make_params()
        arrays = [p.data for p in params]
        opt = AdamW(params, lr=1e-2, weight_decay=0.1)
        for p in params:
            p.grad = np.ones(p.shape)
        opt.step()
        assert all(p.data is a for p, a in zip(params, arrays))


class TestNonFiniteGradient:
    @pytest.mark.parametrize("bad", [[0], [2, 4], [5, 8], [8]])
    def test_names_first_bad_parameter(self, bad):
        params = make_params()
        opt = AdamW(params, lr=1e-3)
        for i, p in enumerate(params):
            p.grad = np.ones(p.shape)
            if i in bad:
                p.grad.reshape(-1)[-1] = np.nan if i % 2 else np.inf
        with pytest.raises(TrainingError,
                           match=f"non-finite gradient at parameter {bad[0]} "
                                 f"on step 1$"):
            opt.step()


class TestHyperparameters:
    """lr and weight_decay must be finite and >= 0: an infinite one makes
    every parameter non-finite at the first step."""

    def test_constructor_refuses_infinite_lr(self):
        with pytest.raises(ParameterError, match="learning rate"):
            AdamW(make_params(), lr=np.inf)

    def test_constructor_refuses_infinite_weight_decay(self):
        with pytest.raises(ParameterError, match="weight_decay"):
            AdamW(make_params(), weight_decay=np.inf)

    @pytest.mark.parametrize("entry", [0, 4])
    def test_resume_refuses_infinite_record(self, entry):
        rec = AdamW(make_params(), lr=1e-3).state_records()
        rec["opt/hyper"][entry] = np.inf
        with pytest.raises(FormatError, match="record 'opt/hyper'"):
            AdamW(make_params(), lr=1e-3).load_state_records(rec)

"""The transformer sublayers recorded as one tape node each: the residual
dropout-layer-norm, the feed-forward block and distill.

Each is checked against finite differences on every input, and bit for bit
(output and every gradient) against the op-by-op composition of tensor ops
it replaces, which stays in ``tensor`` as its reference (``transpose``,
which only the references take, is in ``oracles``).
"""

import numpy as np
import pytest

from gradcheck import check_gradients
from oracles import transpose
from wellcast import tensor as T
from wellcast.attention import DistillWeights, distill
from wellcast.errors import ParameterError
from wellcast.rng import DROPOUT, TRAIN, stream
from wellcast.seqmodels import FeedForward, ResidualNorm
from wellcast.tensor import Tensor

# (drawn, p_drop): a dropout stream (train mode), none (eval mode), and a
# stream at p = 0
MODES = [(True, 0.3), (False, 0.3), (True, 0.0)]


@pytest.fixture(autouse=True)
def clean_record():
    T.reset_record()
    yield
    T.reset_record()


def leaf(rng, shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


def weighted(out, seed=3):
    """A scalar whose gradient reaches every output entry differently."""
    w = stream(seed, TRAIN).normal(size=out.shape)
    return T.tsum(T.mul(out, Tensor(w)))


def run_both(fused, reference, inputs):
    """Output and input gradients of each composition, from fresh grads."""
    results = []
    for make in (fused, reference):
        for t in inputs:
            t.grad = None
        T.reset_record()
        out = make()
        T.backward(weighted(out))
        results.append([out.data.copy()] + [t.grad.copy() for t in inputs])
    return results


def assert_bitwise(results):
    for a, b in zip(*results):
        assert a.shape == b.shape
        assert np.array_equal(a, b), np.abs(a - b).max()


def residual_norm_case(seed=0, shape=(7, 6)):
    rng = stream(seed, TRAIN)
    norm = ResidualNorm(shape[1])
    norm.gain.data = rng.uniform(0.5, 1.5, shape[1])
    norm.bias.data = rng.normal(size=shape[1])
    return norm, leaf(rng, shape), leaf(rng, shape)


class TestResidualNorm:
    @pytest.mark.parametrize("drawn,p_drop", MODES)
    def test_gradients(self, drawn, p_drop):
        norm, x, sub = residual_norm_case()

        def loss():
            return weighted(norm.forward(x, sub, p_drop,
                                         stream(4, DROPOUT) if drawn else None))

        check_gradients(loss, [x, sub, norm.gain, norm.bias])

    @pytest.mark.parametrize("drawn,p_drop", MODES)
    @pytest.mark.parametrize("shape", [(96, 64), (45, 64), (1, 8)])
    def test_matches_op_by_op_reference(self, drawn, p_drop, shape):
        norm, x, sub = residual_norm_case(1, shape)
        rngs = [stream(4, DROPOUT), stream(4, DROPOUT)]

        def fused():
            return norm.forward(x, sub, p_drop, rngs[0] if drawn else None)

        def reference():
            dropped = T.dropout(sub, p_drop, rngs[1] if drawn else None)
            return T.layer_norm(T.add(x, dropped), norm.gain, norm.bias)

        assert_bitwise(run_both(fused, reference,
                                [x, sub, norm.gain, norm.bias]))
        # the mask is drawn at the same point of the dropout stream
        assert rngs[0].random() == rngs[1].random()

    def test_one_node_and_none_without_grad(self):
        norm, x, sub = residual_norm_case()
        norm.forward(x, sub, 0.3, stream(4, DROPOUT))
        assert len(T.current_record()) == 1
        T.reset_record()
        with T.no_grad():
            norm.forward(x, sub, 0.3, stream(4, DROPOUT))
        assert len(T.current_record()) == 0

    def test_rejects_bad_rate(self):
        norm, x, sub = residual_norm_case()
        with pytest.raises(ParameterError, match="dropout rate"):
            norm.forward(x, sub, 1.0, stream(4, DROPOUT))


def feed_forward_case(seed=0, rows=7, d_model=6, width=10):
    rng = stream(seed, TRAIN)
    ff = FeedForward(d_model, width, rng)
    for p in (ff.b1, ff.b2):
        p.data = rng.normal(size=p.shape)
    return ff, leaf(rng, (rows, d_model))


class TestFeedForward:
    def test_gradients(self):
        ff, x = feed_forward_case()
        check_gradients(lambda: weighted(ff.forward(x)), [x, *ff.params()])

    @pytest.mark.parametrize("rows,d_model,width", [(96, 64, 128), (3, 8, 16)])
    def test_matches_op_by_op_reference(self, rows, d_model, width):
        ff, x = feed_forward_case(2, rows, d_model, width)

        def reference():
            pre = T.add(T.matmul(x, ff.w1), ff.b1)
            return T.add(T.matmul(T.elu(pre), ff.w2), ff.b2)

        assert_bitwise(run_both(lambda: ff.forward(x), reference,
                                [x, *ff.params()]))

    def test_one_node(self):
        ff, x = feed_forward_case()
        ff.forward(x)
        assert len(T.current_record()) == 1


def distill_case(length, d_model, seed=0):
    rng = stream(seed, TRAIN)
    weights = DistillWeights(d_model, rng)
    gain = Tensor(rng.uniform(0.5, 1.5, d_model), requires_grad=True)
    bias = leaf(rng, (d_model,))
    return weights, leaf(rng, (length, d_model)), gain, bias


def reference_distill(x, weights):
    convolved = T.conv1d(transpose(x), weights.kernels)
    pooled = T.max_pool1d(T.elu(convolved), window=3, stride=2, pad=1)
    return transpose(pooled)


class TestFusedDistill:
    @pytest.mark.parametrize("length", [96, 48, 25, 2])
    def test_gradients(self, length):
        weights, x, _, _ = distill_case(length, 3)
        check_gradients(lambda: weighted(distill(x, weights)),
                        [x, weights.kernels])

    @pytest.mark.parametrize("length", [96, 48, 25, 2])
    def test_matches_op_by_op_reference(self, length):
        # a layer norm feeds distill, as in the encoder: it sums distill's
        # input gradient over rows, so a gradient laid out otherwise in
        # memory would change the bits there
        weights, x, gain, bias = distill_case(length, 64, seed=length)

        def compose(op):
            return lambda: op(T.layer_norm(x, gain, bias), weights)

        results = run_both(compose(distill), compose(reference_distill),
                           [x, gain, bias, weights.kernels])
        assert results[0][0].shape == ((length + 1) // 2, 64)
        assert_bitwise(results)

    def test_pooling_ties_route_like_the_reference(self):
        # zero kernels make every convolved value 0, so every pooling
        # window is a three-way tie resolved to its earliest row
        weights, x, _, _ = distill_case(9, 4)
        weights.kernels.data[...] = 0.0
        assert_bitwise(run_both(lambda: distill(x, weights),
                                lambda: reference_distill(x, weights),
                                [x, weights.kernels]))

    def test_one_node(self):
        weights, x, _, _ = distill_case(8, 4)
        distill(x, weights)
        assert len(T.current_record()) == 1

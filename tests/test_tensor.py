import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from gradcheck import check_gradients
from oracles import elu_sum, transpose
from wellcast import checkpoint
from wellcast import tensor as T
from wellcast.errors import (ContractError, DimensionError, FormatError,
                             ParameterError, TrainingError)
from wellcast.optim import AdamW
from wellcast.rng import TRAIN, stream
from wellcast.tensor import Tensor


# signed zeros, NaNs, infinities, subnormals, the smallest normal, the
# 2**-52 neighbourhood where expm1(x) rounds to x, and expm1's -1 plateau
ELU_EDGES = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
             -1e-310, 2.2250738585072014e-308, -2.2250738585072014e-308,
             -2.0 ** -52, -2.0 ** -53, -3e-16, -1.0, -37.0, -745.2, -1e308]


def quiet_nans(x):
    """x with every NaN made quiet, its sign and payload kept."""
    bits = x.view(np.uint64).copy()
    bits[np.isnan(x)] |= np.uint64(1 << 51)
    return bits.view(np.float64)


@pytest.fixture(autouse=True)
def clean_record():
    T.reset_record()
    yield
    T.reset_record()


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        eye = Tensor(np.eye(2))
        assert np.array_equal(T.matmul(eye, a).data, a.data)

    def test_zero_left(self):
        z = Tensor(np.zeros((2, 3)))
        b = Tensor(np.arange(12.0).reshape(3, 4))
        assert np.array_equal(T.matmul(z, b).data, np.zeros((2, 4)))

    def test_hand_product(self):
        # [[1,2],[3,4]] @ [[5],[6]] worked by hand: [[17],[39]]
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0], [6.0]])
        assert np.array_equal(T.matmul(a, b).data, [[17.0], [39.0]])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


class TestSoftmax:
    def test_symmetry(self):
        out = T.softmax(Tensor([0.0, 0.0]), axis=0)
        assert np.allclose(out.data, [0.5, 0.5], atol=1e-15)

    def test_shift_invariance(self):
        rng = stream(0, TRAIN)
        x = rng.normal(size=7)
        a = T.softmax(Tensor(x), axis=0).data
        b = T.softmax(Tensor(x + 13.7), axis=0).data
        assert np.allclose(a, b, atol=1e-12)

    def test_direct_evaluation(self):
        # softmax([0, ln 3]) = [1/(1+3), 3/(1+3)]
        out = T.softmax(Tensor([0.0, math.log(3.0)]), axis=0)
        assert np.allclose(out.data, [0.25, 0.75], atol=1e-14)

    def test_rows_sum_to_one(self):
        rng = stream(1, TRAIN)
        x = Tensor(rng.normal(scale=50.0, size=(6, 9)))
        out = T.softmax(x, axis=1)
        assert np.all(out.data >= 0)
        assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-12)

    def test_masked_entries_are_exact_zero(self):
        x = Tensor(np.array([[0.3, -np.inf, 1.1]]))
        out = T.softmax(x, axis=1)
        assert out.data[0, 1] == 0.0
        assert np.isclose(out.data.sum(), 1.0)


class TestElementwise:
    def test_elu_endpoints(self):
        assert T.elu(Tensor([0.0])).data[0] == 0.0
        assert np.isclose(T.elu(Tensor([-40.0])).data[0], -1.0, atol=1e-12)
        assert T.elu(Tensor([2.5])).data[0] == 2.5

    @settings(max_examples=200, deadline=None)
    @given(arrays(np.float64, array_shapes(max_dims=2, max_side=16),
                  elements=st.floats(allow_nan=True, allow_infinity=True)))
    def test_elu_array_matches_where_formula(self, x):
        # the np.where formulation elu_array replaced; -0.0 vs +0.0 compare equal
        reference = np.where(x < 0, np.expm1(np.minimum(x, 0.0)), x)
        assert np.array_equal(T.elu_array(x), reference, equal_nan=True)
        assert np.array_equal(T.elu(Tensor(x)).data, reference, equal_nan=True)
        # the in-place form gives elu_array's bits, signed zeros included
        inplace = x.copy()
        T.elu_inplace(inplace, np.empty_like(x))
        assert np.array_equal(inplace.view(np.uint64),
                              T.elu_array(x).view(np.uint64))

    @settings(max_examples=300, deadline=None)
    @given(arrays(np.float64, array_shapes(max_dims=2, max_side=40),
                  elements=st.floats(allow_nan=True, allow_infinity=True,
                                     allow_subnormal=True)
                  | st.sampled_from(ELU_EDGES)))
    def test_elu_equals_four_ufunc_oracle_bitwise(self, x):
        # shapes up to 40 wide put every value in vector lanes and in tails
        x = quiet_nans(x)
        want = elu_sum(x).view(np.uint64)
        assert np.array_equal(T.elu_array(x).view(np.uint64), want)
        inplace = x.copy()
        T.elu_inplace(inplace, np.empty_like(x))
        assert np.array_equal(inplace.view(np.uint64), want)

    def test_elu_equals_four_ufunc_oracle_on_every_negative_exponent(self):
        # negative floats over all exponents, and the values near zero where
        # a rounded expm1(x) meets x itself
        rng = stream(90, TRAIN)
        size = 200_000
        bits = (np.uint64(1) << np.uint64(63)
                | rng.integers(0, 2047, size).astype(np.uint64) << np.uint64(52)
                | rng.integers(0, 2 ** 52, size, dtype=np.uint64))
        x = np.concatenate([bits.view(np.float64),
                            -rng.uniform(0.0, 2.0 ** -40, size)])
        want = elu_sum(x).view(np.uint64)
        assert np.array_equal(T.elu_array(x).view(np.uint64), want)
        T.elu_inplace(x, np.empty_like(x))
        assert np.array_equal(x.view(np.uint64), want)

    def test_elu_passes_a_signaling_nan_through(self):
        # no arithmetic makes one; the four-ufunc sum quieted it, the max
        # returns it as it came
        snan = np.array([0x7FF0000000000001, 0xFFF0000000000001],
                        dtype=np.uint64).view(np.float64)
        with np.errstate(invalid="ignore"):
            assert np.isnan(T.elu_array(snan)).all()

    @settings(max_examples=200, deadline=None)
    @given(arrays(np.float64, array_shapes(max_dims=2, max_side=16),
                  elements=st.floats(allow_nan=True, allow_infinity=True)))
    def test_sigmoid_array_matches_clip_formula(self, x):
        # the np.clip formulation sigmoid_array replaced
        reference = 1.0 / (1.0 + np.exp(-np.clip(x, -500.0, 500.0)))
        assert np.array_equal(T.sigmoid_array(x), reference, equal_nan=True)
        assert np.array_equal(T.sigmoid(Tensor(x)).data, reference, equal_nan=True)

    def test_layer_norm_constant_row(self):
        x = Tensor(np.full((3, 5), 7.0))
        out = T.layer_norm(x, Tensor(np.ones(5)), Tensor(np.zeros(5)))
        assert np.allclose(out.data, 0.0, atol=1e-12)

    def test_layer_norm_standardizes(self):
        rng = stream(2, TRAIN)
        x = Tensor(rng.normal(size=(4, 16)))
        out = T.layer_norm(x, Tensor(np.ones(16)), Tensor(np.zeros(16)))
        assert np.allclose(out.data.mean(axis=-1), 0.0, atol=1e-12)
        assert np.allclose(out.data.std(axis=-1), 1.0, atol=1e-2)

    def test_dropout_identity_when_p_zero(self):
        x = Tensor(np.arange(6.0))
        out = T.dropout(x, 0.0, True, stream(3, TRAIN))
        assert np.array_equal(out.data, x.data)

    def test_dropout_eval_mode_identity(self):
        x = Tensor(np.arange(6.0))
        out = T.dropout(x, 0.5, False, stream(3, TRAIN))
        assert np.array_equal(out.data, x.data)

    def test_dropout_rejects_p_one(self):
        with pytest.raises(ParameterError):
            T.dropout(Tensor([1.0]), 1.0, True, stream(3, TRAIN))

    def test_dropout_scales_survivors(self):
        x = Tensor(np.ones(10000))
        out = T.dropout(x, 0.25, True, stream(4, TRAIN))
        kept = out.data[out.data > 0]
        assert np.allclose(kept, 1.0 / 0.75)
        assert abs(out.data.mean() - 1.0) < 0.05


class TestConvPool:
    def test_identity_kernel(self):
        x = Tensor(np.arange(12.0).reshape(2, 6))
        k = np.zeros((2, 2, 1))
        k[0, 0, 0] = 1.0
        k[1, 1, 0] = 1.0
        out = T.conv1d(x, Tensor(k))
        assert np.array_equal(out.data, x.data)

    def test_same_padding_length(self):
        x = Tensor(np.ones((3, 11)))
        k = Tensor(np.ones((5, 3, 3)))
        assert T.conv1d(x, k).shape == (5, 11)

    def test_pool_windowed_max(self):
        # brute-force windowed max on [1,3,2,5], window 2, stride 2: [3,5]
        x = Tensor(np.array([[1.0, 3.0, 2.0, 5.0]]))
        out = T.max_pool1d(x, window=2, stride=2)
        assert np.array_equal(out.data, [[3.0, 5.0]])

    def test_pool_output_lengths(self):
        # (L + 2*pad - window)//stride + 1 == ceil(L/2) for (3, 2, 1)
        for length in range(2, 65):
            x = Tensor(np.ones((1, length)))
            out = T.max_pool1d(x, window=3, stride=2, pad=1)
            assert out.shape[1] == (length + 1) // 2, length

    def test_pool_l7_is_4(self):
        x = Tensor(np.arange(7.0)[None, :])
        assert T.max_pool1d(x, window=3, stride=2, pad=1).shape == (1, 4)

    def test_pool_window_too_wide(self):
        with pytest.raises(DimensionError):
            T.max_pool1d(Tensor(np.ones((1, 2))), window=8, stride=1, pad=1)


def _rand_tensor(rng, shape):
    return Tensor(rng.uniform(-2.0, 2.0, shape), requires_grad=True)


class TestBackward:
    def test_square_derivative(self):
        x = Tensor([3.0], requires_grad=True)
        loss = T.tsum(T.mul(x, x))
        T.backward(loss)
        assert np.allclose(x.grad, [6.0])

    def test_softmax_sum_has_zero_gradient(self):
        rng = stream(5, TRAIN)
        x = _rand_tensor(rng, (6,))
        loss = T.tsum(T.softmax(x, axis=0))
        T.backward(loss)
        assert np.abs(x.grad).max() < 1e-12

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = T.scale(x, 2.0)
        with pytest.raises(ContractError):
            T.backward(y)

    def test_disconnected_loss_rejected(self):
        with pytest.raises(ContractError):
            T.backward(Tensor([1.0]))

    def test_accumulation_across_uses(self):
        x = Tensor([2.0], requires_grad=True)
        y = T.add(T.mul(x, x), T.scale(x, 3.0))  # x^2 + 3x -> 2x + 3 = 7
        T.backward(T.tsum(y))
        assert np.allclose(x.grad, [7.0])

    def test_record_is_topologically_ordered(self):
        rng = stream(6, TRAIN)
        a = _rand_tensor(rng, (3, 3))
        b = _rand_tensor(rng, (3, 3))
        c = T.matmul(T.tanh(a), T.add(b, a))
        T.tsum(c)  # extend the record
        seen = set()
        for node in T.current_record():
            for inp in node.inputs:
                if inp._recorded:
                    assert id(inp) in seen, "input recorded after its consumer"
            seen.add(id(node.output))

    def test_backward_deterministic(self):
        def run():
            rng = stream(7, TRAIN)
            x = _rand_tensor(rng, (4, 4))
            w = _rand_tensor(rng, (4, 4))
            loss = T.tsum(T.tanh(T.matmul(x, w)))
            T.backward(loss)
            return x.grad.tobytes(), w.grad.tobytes()

        assert run() == run()

    def test_random_composite_matches_finite_differences(self):
        # five-op chain: matmul -> tanh -> add -> softmax -> weighted sum
        rng = stream(8, TRAIN)
        a = _rand_tensor(rng, (3, 4))
        b = _rand_tensor(rng, (4, 3))
        c = _rand_tensor(rng, (3, 3))
        w = T.constant(rng.normal(size=(3, 3)))

        def make_loss():
            z = T.softmax(T.add(T.tanh(T.matmul(a, b)), c), axis=1)
            return T.tsum(T.mul(z, w))

        check_gradients(make_loss, [a, b, c], step=1e-5, rtol=1e-4)


class TestPerOpGradients:
    """Each differentiable op against the central-difference oracle."""

    def _weighted(self, out, rng):
        return T.tsum(T.mul(out, T.constant(rng.normal(size=out.shape))))

    @pytest.mark.parametrize("seed", range(5))
    def test_binary_ops(self, seed):
        rng = stream(100 + seed, TRAIN)
        a = _rand_tensor(rng, (3, 4))
        b = _rand_tensor(rng, (3, 4))
        row = _rand_tensor(rng, (4,))
        for op in (T.add, T.sub, T.mul):
            check_gradients(lambda op=op: self._weighted(op(a, b), stream(9, TRAIN)), [a, b])
            # broadcasting row against matrix
            check_gradients(lambda op=op: self._weighted(op(a, row), stream(9, TRAIN)), [a, row])

    @pytest.mark.parametrize("seed", range(5))
    def test_unary_ops(self, seed):
        rng = stream(200 + seed, TRAIN)
        x = _rand_tensor(rng, (4, 5))
        for op in (T.tanh, T.sigmoid, T.exp, lambda t: T.scale(t, -1.7),
                   lambda t: T.softmax(t, axis=1), T.elu,
                   lambda t: T.clip(t, -1.5, 1.5)):
            check_gradients(lambda op=op: self._weighted(op(x), stream(9, TRAIN)), [x])

    @pytest.mark.parametrize("seed", range(5))
    def test_abs_away_from_kink(self, seed):
        rng = stream(300 + seed, TRAIN)
        data = rng.uniform(-2.0, 2.0, (4, 5))
        data[np.abs(data) < 1e-3] = 0.5  # keep FD away from the kink
        x = Tensor(data, requires_grad=True)
        check_gradients(lambda: self._weighted(T.absolute(x), stream(9, TRAIN)), [x])

    @pytest.mark.parametrize("seed", range(5))
    def test_matmul_grad(self, seed):
        rng = stream(400 + seed, TRAIN)
        a = _rand_tensor(rng, (3, 4))
        b = _rand_tensor(rng, (4, 2))
        check_gradients(lambda: self._weighted(T.matmul(a, b), stream(9, TRAIN)), [a, b])

    @pytest.mark.parametrize("seed", range(5))
    def test_layer_norm_grad(self, seed):
        rng = stream(500 + seed, TRAIN)
        x = _rand_tensor(rng, (3, 6))
        gain = _rand_tensor(rng, (6,))
        bias = _rand_tensor(rng, (6,))
        check_gradients(
            lambda: self._weighted(T.layer_norm(x, gain, bias), stream(9, TRAIN)),
            [x, gain, bias])

    @pytest.mark.parametrize("seed", range(5))
    def test_conv1d_grad(self, seed):
        rng = stream(600 + seed, TRAIN)
        x = _rand_tensor(rng, (2, 9))
        k = _rand_tensor(rng, (3, 2, 3))
        check_gradients(lambda: self._weighted(T.conv1d(x, k), stream(9, TRAIN)), [x, k])

    @pytest.mark.parametrize("seed", range(5))
    def test_max_pool_grad(self, seed):
        rng = stream(700 + seed, TRAIN)
        data = rng.uniform(-2.0, 2.0, (2, 9))
        # separate near-ties so the finite-difference step cannot flip argmax
        data += np.arange(18.0).reshape(2, 9) * 0.01
        x = Tensor(data, requires_grad=True)
        check_gradients(
            lambda: self._weighted(T.max_pool1d(x, 3, 2, pad=1), stream(9, TRAIN)), [x])

    @pytest.mark.parametrize("seed", range(5))
    def test_dropout_grad_fixed_mask(self, seed):
        rng = stream(800 + seed, TRAIN)
        x = _rand_tensor(rng, (4, 5))
        check_gradients(
            lambda: self._weighted(T.dropout(x, 0.3, True, stream(42, TRAIN)),
                                   stream(9, TRAIN)),
            [x])

    @pytest.mark.parametrize("seed", range(5))
    def test_shape_ops_grad(self, seed):
        rng = stream(900 + seed, TRAIN)
        a = _rand_tensor(rng, (3, 4))
        b = _rand_tensor(rng, (2, 4))
        check_gradients(
            lambda: self._weighted(T.concat([a, b], axis=0), stream(9, TRAIN)), [a, b])
        check_gradients(
            lambda: self._weighted(transpose(a), stream(10, TRAIN)), [a])
        check_gradients(
            lambda: self._weighted(T.slice_rows(a, 1, 3), stream(11, TRAIN)), [a])
        check_gradients(
            lambda: self._weighted(T.take_rows(a, np.array([2, 0, 2])), stream(12, TRAIN)),
            [a])
        check_gradients(
            lambda: self._weighted(T.tsum(a, axis=0), stream(13, TRAIN)), [a])


class TestNoGrad:
    def test_no_record_inside_block(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with T.no_grad():
            y = T.tanh(T.matmul(x, x))
        assert T.current_record() == []
        assert not y.requires_grad


class TestAdamW:
    def _param(self, value=None):
        data = np.array([1.0, -2.0, 0.5]) if value is None else np.asarray(value)
        return Tensor(data.copy(), requires_grad=True)

    def test_zero_grad_zero_decay_fixed_point(self):
        p = self._param()
        before = p.data.copy()
        opt = AdamW([p], lr=0.01, weight_decay=0.0)
        p.grad = np.zeros(3)
        opt.step()
        assert np.array_equal(p.data, before)

    def test_decay_only(self):
        p = self._param()
        before = p.data.copy()
        opt = AdamW([p], lr=0.01, weight_decay=0.1)
        p.grad = np.zeros(3)
        opt.step()
        assert np.allclose(p.data, before * (1.0 - 0.01 * 0.1), atol=1e-15)

    def test_first_step_magnitude_is_lr_signed(self):
        # bias correction makes m_hat/sqrt(v_hat) == sign(g) on step one
        p = self._param()
        before = p.data.copy()
        g = np.array([0.3, -0.7, 2.0])
        opt = AdamW([p], lr=1e-3)
        p.grad = g.copy()
        opt.step()
        expected = before - 1e-3 * np.sign(g) / (1.0 + 1e-8 / np.abs(
            g * np.sqrt(1 - 0.999) / np.sqrt(0.001 * g * g)))
        # closed form: update = lr * g / (|g| + eps') ~= lr * sign(g)
        assert np.allclose(p.data, before - 1e-3 * np.sign(g), atol=1e-6)
        del expected

    def test_zero_lr_never_moves(self):
        rng = stream(20, TRAIN)
        p = self._param(rng.normal(size=3))
        before = p.data.copy()
        opt = AdamW([p], lr=0.0, weight_decay=0.5)
        for _ in range(10):
            p.grad = rng.normal(size=3)
            opt.step()
        assert np.array_equal(p.data, before)

    def test_nan_grad_raises(self):
        p = self._param()
        opt = AdamW([p], lr=1e-3)
        p.grad = np.array([1.0, np.nan, 0.0])
        with pytest.raises(TrainingError):
            opt.step()

    def test_step_count_increments(self):
        p = self._param()
        opt = AdamW([p], lr=1e-3)
        for expected in range(1, 5):
            p.grad = np.ones(3)
            opt.step()
            assert opt.step_count == expected

    def test_state_round_trip(self):
        p = self._param()
        opt = AdamW([p], lr=1e-3, weight_decay=0.01)
        p.grad = np.array([0.1, 0.2, 0.3])
        opt.step()
        rec = opt.state_records()
        opt2 = AdamW([self._param()], lr=1.0)
        opt2.load_state_records(rec)
        assert opt2.step_count == 1
        assert np.array_equal(opt2.m[0], opt.m[0])
        assert np.array_equal(opt2.v[0], opt.v[0])
        assert opt2.lr == 1e-3


def unpack(blob: bytes, prefix: str = "") -> dict:
    """The records of an in-memory checkpoint, read as ``checkpoint.load``
    reads a file."""
    return checkpoint._read_records(io.BytesIO(blob), len(blob), prefix)


def small_blob() -> bytes:
    return checkpoint.pack_records({
        "gru/0/w": np.arange(6.0).reshape(2, 3),
        "b": np.array([0.5, -1.0]),
        "s": np.array(2.0),
        "": np.ones((0, 4)),
    })


class TestCheckpoint:
    def test_bit_exact_round_trip(self, tmp_path):
        rng = stream(30, TRAIN)
        records = {
            "w/0": rng.normal(size=(4, 7)),
            "b/0": rng.normal(size=7),
            "scalar": np.array([3.14159]),
            "empty_dim": rng.normal(size=(1,)),
        }
        path = tmp_path / "model.gck"
        checkpoint.save(path, records)
        loaded = checkpoint.load(path)
        assert list(loaded) == list(records)
        for name in records:
            assert loaded[name].tobytes() == np.ascontiguousarray(
                records[name], dtype="<f8").tobytes()
        # save -> load -> save reproduces bytes
        again = tmp_path / "again.gck"
        checkpoint.save(again, loaded)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("failing", ["replace", "write"])
    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch,
                                             failing):
        path = tmp_path / "model.gck"
        checkpoint.save(path, {"w": np.ones(3)})
        before = path.read_bytes()

        def boom(*args):
            raise OSError("disk full")

        def torn_write(self, blob):
            with open(self, "wb") as fh:
                fh.write(blob[:5])
            boom()

        if failing == "replace":
            monkeypatch.setattr(checkpoint.os, "replace", boom)
        else:
            monkeypatch.setattr(type(path), "write_bytes", torn_write)
        with pytest.raises(OSError, match="disk full"):
            checkpoint.save(path, {"w": np.zeros(3)})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.gck"]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.gck"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(FormatError):
            checkpoint.load(path)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "model.gck"
        checkpoint.save(path, {"w": np.ones((2, 2))})
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(FormatError):
            checkpoint.load(path)

    def test_bad_name_bytes_are_format_error(self):
        blob = bytearray(checkpoint.pack_records({"w": np.ones(2)}))
        blob[12] = 0xFF  # the single name byte: never valid utf-8
        with pytest.raises(FormatError, match="utf-8"):
            unpack(bytes(blob))

    def test_dims_disagreeing_with_payload_are_format_error(self):
        blob = bytearray(checkpoint.pack_records({"w": np.ones((2, 3))}))
        blob[17] = 5  # dims (2, 3) -> (5, 3); the payload still holds 6 values
        with pytest.raises(FormatError, match="does not hold"):
            unpack(bytes(blob))

    def test_truncated_payload_and_trailing_bytes_are_format_errors(self):
        blob = checkpoint.pack_records({"w": np.ones((2, 3)), "b": np.ones(2)})
        with pytest.raises(FormatError, match="^truncated checkpoint payload$"):
            unpack(blob[:-1])
        with pytest.raises(FormatError,
                           match="^trailing bytes after final record$"):
            unpack(blob + b"\x00")

    def test_loaded_arrays_own_their_data(self, tmp_path):
        path = tmp_path / "model.gck"
        checkpoint.save(path, {"w": np.arange(6.0).reshape(2, 3),
                               "s": np.array(2.0), "e": np.ones((0, 4))})
        first = checkpoint.load(path)
        for arr in first.values():
            assert arr.flags.owndata and arr.flags.writeable
            arr[...] = -7.0
        second = checkpoint.load(path)
        assert np.array_equal(second["w"], np.arange(6.0).reshape(2, 3))
        assert second["s"] == 2.0 and second["e"].shape == (0, 4)

    def test_payload_not_whole_float64s_is_format_error(self):
        blob = checkpoint.pack_records({"w": np.ones(0)})
        # an empty record claiming 3 payload bytes, which are present
        blob = blob[:-8] + (3).to_bytes(8, "little") + b"abc"
        with pytest.raises(FormatError, match="does not hold"):
            unpack(blob)

    def test_duplicate_record_name_is_format_error(self):
        one = checkpoint.pack_records({"w": np.ones(1)})
        blob = one[:4] + (2).to_bytes(4, "little") + one[8:] * 2
        with pytest.raises(FormatError, match="duplicate"):
            unpack(blob)

    @pytest.mark.parametrize("prefix", ["", "gru/", "b", "none"])
    def test_file_cut_short_after_its_size_was_read_is_format_error(
            self, prefix):
        """A read that comes back short, in a header or in a payload that is
        loaded or seeked past, raises FormatError, never struct.error."""
        blob = small_blob()
        for cut in range(4, len(blob)):
            with pytest.raises(FormatError, match="^truncated checkpoint"):
                checkpoint._read_records(io.BytesIO(blob[:cut]), len(blob),
                                         prefix)

    def test_prefix_load_reads_only_matching_payloads(self, tmp_path):
        path = tmp_path / "model.gck"
        path.write_bytes(small_blob())
        full = checkpoint.load(path)
        part = checkpoint.load(path, "gru/")
        assert list(part) == ["gru/0/w"]
        assert np.array_equal(part["gru/0/w"], full["gru/0/w"])
        # the size bounds count every value the file stores
        # the size bound counts every value the file stores, 9, not the 6
        # loaded
        assert part.stored_values == full.stored_values == 9
        part["gru/0/w"][0, :2] = 9.0, 10.0
        assert checkpoint.read_int(part, "gru/0/w", 0, size=True) == 9
        with pytest.raises(FormatError, match="a size from 1 to 9$"):
            checkpoint.read_int(part, "gru/0/w", 1, size=True)

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.sampled_from(["gru/", "b", "s", "none"]))
    def test_prefix_load_checks_what_a_full_load_checks(self, draw, prefix):
        """A load that skips payloads refuses exactly the blobs a full load
        refuses, with the same message, and otherwise gives the full load's
        matching records."""
        blob = small_blob()
        pos = draw.draw(st.integers(0, len(blob) - 1), label="pos")
        if draw.draw(st.booleans(), label="truncate"):
            damaged = blob[:pos]
        else:
            byte = draw.draw(st.integers(0, 255), label="byte")
            damaged = blob[:pos] + bytes([byte]) + blob[pos + 1:]
        try:
            full = unpack(damaged)
        except FormatError as exc:
            with pytest.raises(FormatError) as caught:
                unpack(damaged, prefix)
            assert str(caught.value) == str(exc)
            return
        part = unpack(damaged, prefix)
        assert list(part) == [n for n in full if n.startswith(prefix)]
        assert all(part[n].tobytes() == full[n].tobytes() for n in part)
        assert part.stored_values == full.stored_values

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_damaged_blob_raises_format_error_or_round_trips(self, draw):
        blob = checkpoint.pack_records({
            "gru/0/w": np.arange(6.0).reshape(2, 3),
            "b": np.array([0.5, -1.0]),
            "s": np.array(2.0),
            "": np.ones((0, 4)),
        })
        if draw.draw(st.booleans(), label="truncate"):
            cut = draw.draw(st.integers(0, len(blob) - 1), label="cut")
            damaged = blob[:cut]
        else:
            pos = draw.draw(st.integers(0, len(blob) - 1), label="pos")
            byte = draw.draw(st.integers(0, 255).filter(lambda b: b != blob[pos]),
                             label="byte")
            damaged = blob[:pos] + bytes([byte]) + blob[pos + 1:]
        try:
            records = unpack(damaged)
        except FormatError:
            return
        assert checkpoint.pack_records(records) == damaged

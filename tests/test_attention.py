import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from gradcheck import check_gradients
from oracles import transpose
from wellcast import tensor as T
from wellcast.attention import (COUNTER, AttentionConfig, DistillWeights,
                                MultiHeadWeights, QKV, _attend,
                                _causal_constants, _earlier, _mean_term,
                                _scaled_scores, _softmax_rows, _top_u_rows,
                                _uniform_weights, causal_mask, distill,
                                full_attention, multi_head,
                                probsparse_attention, top_u_count)
from wellcast.errors import DimensionError, ParameterError
from wellcast.rng import TRAIN, stream
from wellcast.tensor import Tensor


@pytest.fixture(autouse=True)
def clean_record():
    T.reset_record()
    COUNTER.reset()
    yield
    T.reset_record()


def make_qkv(rng, l_q, l_k, d, requires_grad=False):
    return QKV(
        Tensor(rng.normal(size=(l_q, d)), requires_grad=requires_grad),
        Tensor(rng.normal(size=(l_k, d)), requires_grad=requires_grad),
        Tensor(rng.normal(size=(l_k, d)), requires_grad=requires_grad),
    )


class TestFullAttention:
    def test_single_key_collapse(self):
        rng = stream(0, TRAIN)
        qkv = make_qkv(rng, 5, 1, 3)
        out = full_attention(qkv)
        for i in range(5):
            assert np.allclose(out.data[i], qkv.v.data[0])

    def test_identical_keys_average_values(self):
        rng = stream(1, TRAIN)
        k_row = rng.normal(size=3)
        qkv = QKV(Tensor(rng.normal(size=(4, 3))),
                  Tensor(np.tile(k_row, (6, 1))),
                  Tensor(rng.normal(size=(6, 3))))
        out = full_attention(qkv)
        mean_v = qkv.v.data.mean(axis=0)
        assert np.allclose(out.data, np.tile(mean_v, (4, 1)), atol=1e-12)

    def test_hand_instance(self):
        # d=1, Q=[0;1], K=[0;1], V=[1;2]:
        # row 0: softmax([0,0]) . V = 1.5
        # row 1: softmax([0,1]) . V = (1 + 2e)/(1+e)
        qkv = QKV(Tensor([[0.0], [1.0]]), Tensor([[0.0], [1.0]]),
                  Tensor([[1.0], [2.0]]))
        out = full_attention(qkv)
        assert np.isclose(out.data[0, 0], 1.5, atol=1e-12)
        expected = (1.0 + 2.0 * math.e) / (1.0 + math.e)
        assert np.isclose(out.data[1, 0], expected, atol=1e-12)
        assert np.isclose(expected, 1.7310585786300049)

    def test_rows_are_convex_combinations(self):
        rng = stream(2, TRAIN)
        qkv = make_qkv(rng, 8, 12, 4)
        out = full_attention(qkv)
        lo = qkv.v.data.min(axis=0) - 1e-12
        hi = qkv.v.data.max(axis=0) + 1e-12
        assert np.all(out.data >= lo) and np.all(out.data <= hi)

    def test_empty_keys_rejected(self):
        qkv = QKV(Tensor(np.zeros((2, 3))), Tensor(np.zeros((0, 3))),
                  Tensor(np.zeros((0, 3))))
        with pytest.raises(DimensionError):
            full_attention(qkv)

    def test_gradients(self):
        rng = stream(3, TRAIN)
        qkv = make_qkv(rng, 3, 4, 2, requires_grad=True)
        w = T.constant(stream(4, TRAIN).normal(size=(3, 2)))

        def make_loss():
            return T.tsum(T.mul(full_attention(qkv), w))

        check_gradients(make_loss, [qkv.q, qkv.k, qkv.v])

    def test_masked_gradients(self):
        rng = stream(5, TRAIN)
        qkv = make_qkv(rng, 4, 4, 2, requires_grad=True)
        w = T.constant(stream(6, TRAIN).normal(size=(4, 2)))
        mask = causal_mask(4, 4)

        def make_loss():
            return T.tsum(T.mul(full_attention(qkv, mask), w))

        check_gradients(make_loss, [qkv.q, qkv.k, qkv.v])


def measures(q, keys):
    """The sparsity measure of each query row of q, through the functions
    that ``_attend`` ranks queries with: the log-sum-exp of the scaled
    scores minus their mean."""
    scores = _scaled_scores(np.atleast_2d(q), keys)
    mean = _mean_term(scores, None)
    return _softmax_rows(scores, None)[1] - mean


def measure(q_i, keys):
    return float(measures(q_i, keys)[0])


def top_queries(q, keys, cfg):
    """Ascending indices of the u queries that unmasked sparse attention
    grants exact rows."""
    u = top_u_count(cfg.c, len(q))
    return np.flatnonzero(_top_u_rows(measures(q, keys), u, False))


class TestSparsityMeasure:
    def test_uniform_scores_lse_minus_mean(self):
        # all scores zero over 4 keys: M = log 4 - 0
        q = np.zeros(3)
        keys = np.zeros((4, 3))
        m = measure(q, keys)
        assert np.isclose(m, math.log(4.0), atol=1e-12)

    def test_uniform_is_minimal_for_fixed_mean(self):
        # Jensen: among score vectors with the same mean, equal scores give
        # the smallest log-sum-exp, hence the smallest measure
        rng = stream(7, TRAIN)
        d = 4
        keys = rng.normal(size=(6, d))
        q = rng.normal(size=d)
        scores = keys @ q / np.sqrt(d)
        m_actual = measure(q, keys)
        m_uniform = math.log(len(scores))  # measure of a constant score row
        del scores
        assert m_actual >= m_uniform - 1e-12

    def test_measure_depends_only_on_scores(self):
        # shifting K along a direction orthogonal to q leaves scores, and
        # hence M, unchanged
        q = np.array([1.0, 0.0])
        keys = stream(8, TRAIN).normal(size=(5, 2))
        shift = np.array([0.0, 2.5])  # q . shift = 0
        a = measure(q, keys)
        b = measure(q, keys + shift)
        assert np.isclose(a, b, atol=1e-12)

    def test_stability_under_large_scores(self):
        q = np.array([60.0])
        keys = np.array([[10.0], [-10.0], [5.0]])
        m = measure(q, keys)
        assert np.isfinite(m)


class TestSelectTopQueries:
    def test_saturation_returns_all_in_order(self):
        rng = stream(9, TRAIN)
        cfg = AttentionConfig(d_model=4, n_heads=1, c=50.0)
        q = rng.normal(size=(5, 4))
        k = rng.normal(size=(6, 4))
        sel = top_queries(q, k, cfg)
        assert np.array_equal(sel, np.arange(5))

    def test_dominant_query_selected_first(self):
        # one query aligned with a key direction produces a one-hot-ish score
        # row; uniform rows give minimal M, so the spiky query must win
        cfg = AttentionConfig(d_model=4, n_heads=1, c=0.1)
        keys = np.eye(4)
        q = np.vstack([np.ones(4) * 0.2,
                       np.ones(4) * 0.2,
                       np.array([8.0, 0.0, 0.0, 0.0]),
                       np.ones(4) * 0.2])
        sel = top_queries(q, keys, cfg)
        assert top_u_count(0.1, 4) == 1
        assert np.array_equal(sel, [2])
        # brute-force M ranking oracle
        ms = [measure(q[i], keys) for i in range(4)]
        assert np.argmax(ms) == 2

    def test_tie_break_lower_indices(self):
        cfg = AttentionConfig(d_model=4, n_heads=1, c=1.0)
        q = np.tile(np.ones(4), (6, 1))
        k = stream(10, TRAIN).normal(size=(5, 4))
        u = top_u_count(1.0, 6)
        sel = top_queries(q, k, cfg)
        assert np.array_equal(sel, np.arange(u))

    def test_u_formula(self):
        assert top_u_count(5.0, 1) == 1
        assert top_u_count(5.0, 96) == min(96, math.ceil(5 * math.log(96)))
        assert top_u_count(0.01, 50) == 1
        assert top_u_count(100.0, 7) == 7


def prefix_rank_loop(excess, u):
    """Row i is active iff fewer than u earlier rows measure at least as
    much as it (the causal selection rule, one row at a time)."""
    return np.array([np.sum(excess[:i] >= excess[i]) < u
                     for i in range(len(excess))], dtype=bool)


class TestSelectionRule:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=40),
           st.sampled_from(["one", "l-1", "l", "l+3"]))
    def test_prefix_rank_matches_loop_with_ties(self, values, which):
        # integer-valued excess makes ties common
        excess = np.array(values, dtype=np.float64)
        n = len(excess)
        u = {"one": 1, "l-1": max(1, n - 1), "l": n, "l+3": n + 3}[which]
        got = _top_u_rows(excess, u, prefix=True)
        assert np.array_equal(got, prefix_rank_loop(excess, u))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.integers(-3, 3), min_size=6, max_size=6),
                    min_size=1, max_size=4),
           st.integers(1, 8))
    def test_heads_select_independently(self, rows, u):
        measures = np.array(rows, dtype=np.float64)
        for prefix in (False, True):
            got = _top_u_rows(measures, u, prefix)
            for h, m in enumerate(measures):
                assert np.array_equal(got[h], _top_u_rows(m, u, prefix))
        # the global rule: exactly min(u, L) rows, ties to the lower index
        top = _top_u_rows(measures, u, False)
        assert (top.sum(axis=1) == min(u, 6)).all()
        for h, m in enumerate(measures):
            order = sorted(range(6), key=lambda i: (-m[i], i))[:u]
            assert np.array_equal(np.flatnonzero(top[h]), sorted(order))


class TestProbSparse:
    @pytest.mark.parametrize("seed", range(10))
    def test_reduction_to_full_attention(self, seed):
        rng = stream(40 + seed, TRAIN)
        l_q = int(rng.integers(2, 12))
        l_k = l_q if seed % 2 == 0 else int(rng.integers(2, 12))
        d = int(rng.integers(1, 5))
        causal = bool(seed % 2 == 0)  # causal needs L_k == L_q alignment here
        qkv = make_qkv(rng, l_q, l_k, d)
        cfg = AttentionConfig(d_model=d, n_heads=1, c=1000.0)
        sparse = probsparse_attention(qkv, cfg, causal=causal)
        dense = full_attention(qkv, causal_mask(l_q, l_k) if causal else None)
        assert np.abs(sparse.data - dense.data).max() < 1e-10

    def test_lazy_rows_get_mean_of_values(self):
        rng = stream(11, TRAIN)
        cfg = AttentionConfig(d_model=3, n_heads=1, c=0.1)  # u = 1
        qkv = make_qkv(rng, 4, 4, 3)
        out = probsparse_attention(qkv, cfg, causal=False)
        sel = top_queries(qkv.q.data, qkv.k.data, cfg)
        dense = full_attention(qkv)
        mean_v = qkv.v.data.mean(axis=0)
        for i in range(4):
            if i in sel:
                assert np.allclose(out.data[i], dense.data[i], atol=1e-12)
            else:
                assert np.allclose(out.data[i], mean_v, atol=1e-12)

    def test_causal_lazy_rows_get_running_mean(self):
        # force the active set: zero queries have exactly-uniform score rows
        # (zero excess measure), the aligned query at row 2 exceeds them
        rng = stream(12, TRAIN)
        cfg = AttentionConfig(d_model=3, n_heads=1, c=0.1)  # u = 1
        keys = rng.normal(size=(5, 3))
        q = np.zeros((5, 3))
        q[2] = keys[1] * 4.0
        v = rng.normal(size=(5, 3))
        qkv = QKV(Tensor(q), Tensor(keys), Tensor(v))
        out = probsparse_attention(qkv, cfg, causal=True)
        running = np.cumsum(v, axis=0) / np.arange(1, 6)[:, None]
        dense = full_attention(qkv, causal_mask(5, 5))
        for i in (1, 3, 4):  # lazy rows: running mean of visible values
            assert np.allclose(out.data[i], running[i], atol=1e-12)
        for i in (0, 2):  # active rows: exact masked attention
            assert np.allclose(out.data[i], dense.data[i], atol=1e-12)

    def test_causal_bit_exact(self):
        rng = stream(13, TRAIN)
        cfg = AttentionConfig(d_model=4, n_heads=1, c=1.0)
        base = rng.normal(size=(8, 4))
        keys = base.copy()
        t0 = 4
        for mode_causal in (True,):
            qkv_a = QKV(Tensor(base.copy()), Tensor(keys.copy()), Tensor(keys.copy()))
            out_a = probsparse_attention(qkv_a, cfg, causal=mode_causal)
            perturbed = base.copy()
            perturbed[t0 + 1:] += rng.normal(size=(8 - t0 - 1, 4)) * 5.0
            qkv_b = QKV(Tensor(perturbed), Tensor(perturbed), Tensor(perturbed))
            out_b = probsparse_attention(qkv_b, cfg, causal=mode_causal)
            assert np.array_equal(out_a.data[:t0 + 1], out_b.data[:t0 + 1])

    def test_full_attention_causal_bit_exact(self):
        rng = stream(14, TRAIN)
        base = rng.normal(size=(7, 3))
        t0 = 3
        mask = causal_mask(7, 7)
        out_a = full_attention(QKV(Tensor(base), Tensor(base), Tensor(base)), mask)
        pert = base.copy()
        pert[t0 + 1:] *= -3.0
        out_b = full_attention(QKV(Tensor(pert), Tensor(pert), Tensor(pert)), mask)
        assert np.array_equal(out_a.data[:t0 + 1], out_b.data[:t0 + 1])

    def test_convex_combination_in_sparse_mode(self):
        rng = stream(15, TRAIN)
        cfg = AttentionConfig(d_model=4, n_heads=1, c=0.5)
        qkv = make_qkv(rng, 9, 9, 4)
        out = probsparse_attention(qkv, cfg, causal=False)
        lo = qkv.v.data.min(axis=0) - 1e-12
        hi = qkv.v.data.max(axis=0) + 1e-12
        assert np.all(out.data >= lo) and np.all(out.data <= hi)

    def test_dot_product_counter(self):
        rng = stream(16, TRAIN)
        l_q, l_k, d = 10, 12, 4
        cfg = AttentionConfig(d_model=d, n_heads=1, c=1.0)
        qkv = make_qkv(rng, l_q, l_k, d)
        COUNTER.reset()
        probsparse_attention(qkv, cfg, causal=False)
        u = top_u_count(1.0, l_q)
        assert COUNTER.measure_dot_products == l_q * l_k
        assert COUNTER.attention_dot_products == u * l_k

    def test_gradients_through_sparse_path(self):
        rng = stream(17, TRAIN)
        cfg = AttentionConfig(d_model=2, n_heads=1, c=0.5)
        qkv = make_qkv(rng, 5, 5, 2, requires_grad=True)
        w = T.constant(stream(18, TRAIN).normal(size=(5, 2)))

        def make_loss():
            return T.tsum(T.mul(probsparse_attention(qkv, cfg, causal=True), w))

        check_gradients(make_loss, [qkv.q, qkv.k, qkv.v])


class TestMultiHead:
    def test_single_head_identity_projections_match_full(self):
        rng = stream(19, TRAIN)
        d_model = 4
        cfg = AttentionConfig(d_model=d_model, n_heads=1, c=5.0)
        weights = MultiHeadWeights(d_model, 1, rng)
        assert [w.shape for w in weights.params()] == [(4, 4), (4, 8), (4, 4)]
        weights.w_q.data = weights.w_out.data = np.eye(d_model)
        weights.w_kv.data = np.hstack([np.eye(d_model)] * 2)
        x = Tensor(rng.normal(size=(6, d_model)))
        out = multi_head(x, x, weights, cfg, mode="full")
        direct = full_attention(QKV(x, x, x))
        assert np.allclose(out.data, direct.data, atol=1e-12)

    def test_head_permutation_permutes_concat_blocks(self):
        rng = stream(20, TRAIN)
        d_model, n_heads = 8, 2
        cfg = AttentionConfig(d_model=d_model, n_heads=n_heads, c=5.0)
        weights = MultiHeadWeights(d_model, n_heads, rng)
        weights.w_out.data = np.eye(d_model)  # expose the concatenation
        x = Tensor(rng.normal(size=(5, d_model)))
        out = multi_head(x, x, weights, cfg, mode="full").data
        # swap the two heads' column blocks of Q, of K and of V
        d = d_model // n_heads
        swap = np.r_[d:2 * d, 0:d]
        weights.w_q.data = weights.w_q.data[:, swap]
        weights.w_kv.data = weights.w_kv.data[:, np.r_[swap, swap + d_model]]
        swapped = multi_head(x, x, weights, cfg, mode="full").data
        assert np.allclose(out[:, :d], swapped[:, d:], atol=1e-12)
        assert np.allclose(out[:, d:], swapped[:, :d], atol=1e-12)

    def test_multi_head_gradcheck(self):
        rng = stream(21, TRAIN)
        cfg = AttentionConfig(d_model=4, n_heads=2, c=5.0)
        weights = MultiHeadWeights(4, 2, rng)
        x = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        w = T.constant(stream(22, TRAIN).normal(size=(4, 4)))

        def make_loss():
            return T.tsum(T.mul(multi_head(x, x, weights, cfg, mode="full",
                                           causal=True), w))

        check_gradients(make_loss, [x, weights.w_q])


def reference_multi_head(x_q, x_kv, weights, cfg, mode, causal):
    """multi_head from one-head tape ops on column blocks of the fused
    weights, with the query selection written out here; returns the output
    and the expected COUNTER deltas."""
    l_q, l_k = x_q.shape[0], x_kv.shape[0]
    mask = causal_mask(l_q, l_k) if causal else np.ones((l_q, l_k), bool)
    counts = mask.sum(axis=1)
    heads, measure_dots, attention_dots = [], 0, 0
    d, width = cfg.d_model // cfg.n_heads, cfg.d_model

    def columns(w, lo):  # w[:, lo:lo + d], on the tape
        return transpose(T.slice_rows(transpose(w), lo, lo + d))

    for lo in range(0, width, d):
        q = T.matmul(x_q, columns(weights.w_q, lo))
        k = T.matmul(x_kv, columns(weights.w_kv, lo))
        v = T.matmul(x_kv, columns(weights.w_kv, width + lo))
        scores = T.scale(T.matmul(q, transpose(k)), 1.0 / np.sqrt(d))
        probs = T.softmax(T.add(scores, T.constant(np.where(mask, 0.0, -np.inf))),
                          axis=1)
        active = np.ones(l_q, dtype=bool)
        if mode == "prob":
            measure_dots += l_q * l_k
            s = scores.data
            lse = np.array([np.log(np.exp(s[i][mask[i]]).sum())
                            for i in range(l_q)])
            measure = lse - np.where(mask, s, 0.0).sum(axis=1) / counts
            u = top_u_count(cfg.c, l_q)
            if causal:
                active = prefix_rank_loop(measure - np.log(counts), u)
            else:
                order = sorted(range(l_q), key=lambda i: (-measure[i], i))
                active = np.isin(np.arange(l_q), order[:u])
        attention_dots += int(active.sum()) * l_k
        keep = T.constant(active[:, None] * 1.0)
        lazy = T.constant((~active)[:, None] * mask / counts[:, None])
        heads.append(T.add(T.mul(keep, T.matmul(probs, v)), T.matmul(lazy, v)))
    out = T.matmul(T.concat(heads, axis=1), weights.w_out)
    return out, (measure_dots, attention_dots)


FUSED_CASES = [(mode, causal, c, cross)
               for mode in ("full", "prob") for causal in (False, True)
               for c in (0.5, 100.0) for cross in (False, True)]


def fused_inputs(seed, cross, d_model=4, n_heads=2, l_q=5):
    rng = stream(60 + seed, TRAIN)
    weights = MultiHeadWeights(d_model, n_heads, rng)
    x_q = Tensor(rng.normal(size=(l_q, d_model)), requires_grad=True)
    x_kv = (Tensor(rng.normal(size=(l_q + 2, d_model)), requires_grad=True)
            if cross else x_q)
    probe = T.constant(rng.normal(size=(l_q, d_model)))
    return weights, x_q, x_kv, probe


class TestFusedMultiHead:
    """multi_head is one tape node; its hand-written backward is checked
    against finite differences and against a one-head tape reference."""

    @pytest.mark.parametrize("mode,causal,c,cross", FUSED_CASES)
    def test_gradcheck_every_input(self, mode, causal, c, cross):
        weights, x_q, x_kv, probe = fused_inputs(0, cross)
        cfg = AttentionConfig(d_model=4, n_heads=2, c=c)
        assert (top_u_count(c, 5) < 5) == (c == 0.5)

        def make_loss():
            return T.tsum(T.mul(multi_head(x_q, x_kv, weights, cfg, mode=mode,
                                           causal=causal), probe))

        inputs = [x_q] + ([x_kv] if cross else [])
        check_gradients(make_loss, inputs + weights.params())

    @pytest.mark.parametrize("mode,causal,c,cross", FUSED_CASES)
    def test_matches_one_head_tape_reference(self, mode, causal, c, cross):
        weights, x_q, x_kv, probe = fused_inputs(1, cross, d_model=8, l_q=9)
        cfg = AttentionConfig(d_model=8, n_heads=2, c=c)
        inputs = [x_q] + ([x_kv] if cross else []) + weights.params()
        results = []
        for build in (multi_head, reference_multi_head):
            for t in inputs:
                t.grad = None
            COUNTER.reset()
            out = build(x_q, x_kv, weights, cfg, mode, causal)
            if build is multi_head:
                counted = (COUNTER.measure_dot_products,
                           COUNTER.attention_dot_products)
            else:
                out, counted = out
            T.backward(T.tsum(T.mul(out, probe)))
            results.append((out.data, [t.grad.copy() for t in inputs], counted))
        (fused, fused_grads, fused_dots), (ref, ref_grads, ref_dots) = results
        assert fused_dots == ref_dots
        scale = np.abs(ref).max()
        assert np.abs(fused - ref).max() <= 1e-12 * scale
        for got, want in zip(fused_grads, ref_grads):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("mode", ["full", "prob"])
    @pytest.mark.parametrize("causal", [False, True])
    def test_one_tape_node_per_call(self, mode, causal):
        weights, x_q, _, _ = fused_inputs(2, False, d_model=8, l_q=12)
        cfg = AttentionConfig(d_model=8, n_heads=2, c=1.0)
        multi_head(x_q, x_q, weights, cfg, mode=mode, causal=causal)
        assert len(T.current_record()) == 1

    def test_no_grad_records_nothing(self):
        weights, x_q, _, _ = fused_inputs(3, False)
        cfg = AttentionConfig(d_model=4, n_heads=2, c=1.0)
        with T.no_grad():
            out = multi_head(x_q, x_q, weights, cfg, mode="prob", causal=True)
        assert T.current_record() == [] and not out.requires_grad


class TestDistill:
    @pytest.mark.parametrize("length", list(range(2, 65)))
    def test_output_length_halves(self, length):
        rng = stream(23, TRAIN)
        d_model = 4
        weights = DistillWeights(d_model, rng)
        x = Tensor(rng.normal(size=(length, d_model)))
        out = distill(x, weights)
        assert out.shape == ((length + 1) // 2, d_model)

    def test_identity_kernel_positive_inputs_strided_max(self):
        # center-tap identity kernels + positive inputs: ELU is identity and
        # the distill reduces to a strided running max of the raw inputs
        d_model = 3
        weights = DistillWeights(d_model, stream(24, TRAIN))
        k = np.zeros((d_model, d_model, 3))
        for c in range(d_model):
            k[c, c, 1] = 1.0
        weights.kernels.data = k
        rng = stream(25, TRAIN)
        x = rng.uniform(0.5, 2.0, size=(9, d_model))
        out = distill(Tensor(x), weights)
        padded = np.pad(x, ((1, 1), (0, 0)), constant_values=-np.inf)
        expect = np.stack([padded[s:s + 3].max(axis=0)
                           for s in range(0, 9, 2)])
        assert np.allclose(out.data, expect, atol=1e-12)

    @pytest.mark.parametrize("length,nan_row,routed", [
        # act rows 3, 4 and 5 are NaN: windows 1, 2 and 3 hold one, and
        # each sends its gradient to its right row, 2i + 1
        (8, 4, {1: 3, 2: 5, 3: 7}),
        # act rows 5 and 6 are NaN: window 2's right row takes its
        # gradient, and the last window of an odd length has no right row
        (7, 6, {2: 5, 3: None}),
    ])
    def test_nan_window_sends_gradient_to_its_right_row(self, length, nan_row,
                                                        routed):
        # center-tap identity kernels: conv row r is x row r, and NaN
        # reaches rows r - 1 and r + 1 through the zero taps (0 * NaN); the
        # backward then gives d_x = d_act, so d_x shows where each
        # window's gradient went
        d_model = 2
        weights = DistillWeights(d_model, stream(27, TRAIN))
        weights.kernels.data = np.zeros((d_model, d_model, 3))
        weights.kernels.data[:, :, 1] = np.eye(d_model)
        x = stream(28, TRAIN).uniform(0.5, 2.0, size=(length, d_model))
        x[nan_row] = np.nan
        out = distill(Tensor(x, requires_grad=True), weights)
        g = np.zeros(out.shape)
        want = np.zeros(x.shape)
        for window, row in routed.items():
            assert np.isnan(out.data[window]).all()
            g[window] = window + 1.0
            if row is not None:
                want[row] = window + 1.0
        d_x, _ = T._RECORD[-1].backward_fn(g)
        assert np.array_equal(d_x, want)

    def test_too_short_rejected(self):
        weights = DistillWeights(2, stream(26, TRAIN))
        with pytest.raises(DimensionError):
            distill(Tensor(np.zeros((1, 2))), weights)


# -- bitwise oracles: the numpy calls that distill and the masked attention
# path were first written with, kept here as references ---------------------

def reference_distill(x, kernels):
    """distill through np.pad, a strided argmax and np.add.at; returns the
    output and its backward."""
    length = x.shape[0]
    c_out, c_in, w = kernels.shape
    pad_l = (w - 1) // 2
    xp = np.pad(x, ((pad_l, w // 2), (0, 0)))
    cols = sliding_window_view(xp, w, axis=0).reshape(length, c_in * w)
    kmat = kernels.reshape(c_out, c_in * w)
    conv = cols @ kmat.T
    act = T.elu_array(conv)
    pooled_in = np.pad(act, ((1, 1), (0, 0)), constant_values=-np.inf)
    windows = sliding_window_view(pooled_in, 3, axis=0)[::2]
    rows = windows.argmax(axis=-1) + 2 * np.arange(len(windows))[:, None]

    def bwd(g):
        d_in = np.zeros(pooled_in.shape)
        np.add.at(d_in, (rows, np.arange(c_out)), g)
        d_conv = d_in[1:1 + length] * np.where(conv < 0, act + 1.0, 1.0)
        d_cols = (d_conv @ kmat).reshape(length, c_in, w)
        d_xp = np.zeros(xp.shape, order="F")
        for j in range(w):
            d_xp[j:j + length] += d_cols[:, :, j]
        return (d_xp[pad_l:pad_l + length],
                (d_conv.T @ cols).reshape(c_out, c_in, w))

    return windows.max(axis=-1), bwd


def reference_mean_term(scores, mask):
    return np.where(mask, scores, 0.0).sum(axis=-1) / mask.sum(axis=-1)


def reference_softmax_rows(scores, mask):
    scores += np.where(mask, 0.0, -np.inf)
    row_max = scores.max(axis=-1, keepdims=True)
    scores -= row_max
    np.exp(scores, out=scores)
    total = scores.sum(axis=-1, keepdims=True)
    scores /= total
    return scores, (row_max + np.log(total))[..., 0]


def reference_attend(q, k, v, mask, u, prefix):
    """_attend under an allow-mask, with -inf scores and the mask
    constants built on every call; returns the output and its backward."""
    l_q, l_k = mask.shape
    inv_sqrt_d = 1.0 / np.sqrt(q.shape[2])
    scores = q @ np.swapaxes(k, -1, -2)
    scores *= inv_sqrt_d
    if u is None:
        probs = reference_softmax_rows(scores, mask)[0]
        out, lazy = probs @ v, None
    else:
        mean = reference_mean_term(scores, mask)
        probs, lse = reference_softmax_rows(scores, mask)
        measures = lse - mean
        if prefix:
            measures -= np.log(mask.sum(axis=-1))
        active = _top_u_rows(measures, u, prefix)[..., None]
        lazy_rows = ~active
        lazy = mask / mask.sum(axis=1, keepdims=True)
        np.multiply(probs, active, out=probs)
        out = probs @ v + lazy_rows * (lazy @ v)

    def bwd(g):
        d_scores = g @ np.swapaxes(v, 1, 2)
        d_scores -= (g * out).sum(axis=-1, keepdims=True)
        d_scores *= probs
        d_v = np.swapaxes(probs, 1, 2) @ g
        if lazy is not None:
            d_v += lazy.T @ (lazy_rows * g)
        return ((d_scores @ k) * inv_sqrt_d,
                (np.swapaxes(d_scores, 1, 2) @ q) * inv_sqrt_d, d_v)

    return out, bwd


def assert_same_bits(got, want):
    assert (got.dtype, got.shape, got.strides) == (want.dtype, want.shape,
                                                    want.strides)
    assert got.tobytes() == want.tobytes()


class TestDistillBitwise:
    """distill gives the reference's bits, forward and backward, ties and
    signed zeros included."""

    @pytest.mark.parametrize("ties", ["none", "repeated_rows", "zero_taps"])
    @pytest.mark.parametrize("length", list(range(2, 101)))
    def test_matches_reference(self, length, ties):
        rng = stream(900 + length, TRAIN)
        d_model = 4
        weights = DistillWeights(d_model, rng)
        x = rng.normal(size=(length, d_model))
        if ties == "repeated_rows":  # rows 2i and 2i + 1 equal
            x[1::2] = x[0::2][:length // 2]
        elif ties == "zero_taps":  # whole windows of exact zeros
            weights.kernels.data[:, :, [0, 2]] = 0.0
            weights.kernels.data[::2] = 0.0
        want_out, want_bwd = reference_distill(x, weights.kernels.data)
        out = distill(Tensor(x, requires_grad=True), weights)
        assert_same_bits(out.data, want_out)
        g = rng.normal(size=out.shape)
        g[::3, ::2] = -0.0
        for got, want in zip(T._RECORD[-1].backward_fn(g), want_bwd(g)):
            assert_same_bits(got, want)


def causal_shapes():
    return [(l_q, l_k) for l_q in (1, 2, 5, 9, 24) for l_k in (l_q, l_q + 3)]


class TestMaskedAttentionBitwise:
    """The causal path, with its constants cached per shape and exp kept
    away from -inf, gives the reference's bits."""

    @pytest.mark.parametrize("mode", ["full", "prob"])
    @pytest.mark.parametrize("l_q,l_k", causal_shapes())
    def test_attend_matches_reference(self, mode, l_q, l_k):
        rng = stream(950 + l_q + 31 * l_k, TRAIN)
        n_heads, d = 3, 4
        q, k, v = (rng.normal(size=(n_heads, n, d)) for n in (l_q, l_k, l_k))
        k[:, -1] = k[:, 0]  # tied scores
        q[:, 0] *= 40.0  # rows whose masked scores would underflow exp
        u = top_u_count(1.0, l_q) if mode == "prob" else None
        got_out, got_bwd = _attend(q, k, v, _causal_constants(l_q, l_k), u,
                                   u is not None)
        want_out, want_bwd = reference_attend(q, k, v, causal_mask(l_q, l_k),
                                              u, u is not None)
        assert_same_bits(got_out, want_out)
        g = rng.normal(size=got_out.shape)
        for got, want in zip(got_bwd(g), want_bwd(g)):
            assert_same_bits(got, want)

    @pytest.mark.parametrize("l_q,l_k", causal_shapes())
    def test_softmax_and_measure_match_reference(self, l_q, l_k):
        rng = stream(990 + l_q + 31 * l_k, TRAIN)
        scores = rng.normal(size=(2, l_q, l_k)) * 30.0
        scores[1] = -0.0  # all-zero rows, and signed zeros in the sums
        scores[0, :, ::2] = -0.0
        mask = _causal_constants(l_q, l_k)
        got_probs, got_lse = _softmax_rows(scores.copy(), mask)
        want_probs, want_lse = reference_softmax_rows(scores.copy(), mask.allow)
        assert_same_bits(got_probs, want_probs)
        assert_same_bits(got_lse, want_lse)
        # a masked score times 0.0 keeps its sign, where the reference
        # has 0.0; numpy's sum of zeros is 0.0 either way
        assert_same_bits(_mean_term(scores, mask),
                         reference_mean_term(scores, mask.allow))

    def test_constants_are_shared_and_read_only(self):
        mask = _causal_constants(7, 9)
        assert _causal_constants(7, 9) is mask
        allow = causal_mask(7, 9)
        count = allow.sum(axis=1)
        for got, want in zip(mask, (allow, allow * 1.0, count, np.log(count),
                                    allow / count[:, None])):
            assert_same_bits(got, want)
        constants = [*mask, _uniform_weights(7, 9), _earlier(7)]
        assert _uniform_weights(7, 9) is constants[-2]
        assert _earlier(7) is constants[-1]
        for a in constants:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[...] = 0

    def test_bad_masks_still_rejected(self):
        qkv = make_qkv(stream(27, TRAIN), 3, 4, 2)
        with pytest.raises(DimensionError):
            full_attention(qkv, np.ones((3, 3), dtype=bool))
        no_key = np.ones((3, 4), dtype=bool)
        no_key[1] = False
        with pytest.raises(ParameterError):
            full_attention(qkv, no_key)
        cfg = AttentionConfig(d_model=2, n_heads=1, c=1.0)
        with pytest.raises(ParameterError):  # causal with L_k < L_q
            probsparse_attention(make_qkv(stream(28, TRAIN), 4, 2, 2), cfg,
                                 causal=True)

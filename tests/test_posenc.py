import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from longattn import posenc as P
from longattn import tensor as T
from longattn.tensor import Tensor


class TestSinusoidal:
    def test_position_zero(self):
        pe = P.sinusoidal(1, 6)
        assert np.array_equal(pe[0], [0, 1, 0, 1, 0, 1])

    def test_position_one_d4(self):
        pe = P.sinusoidal(2, 4, factor=10000.0)
        ref = [math.sin(1), math.cos(1), math.sin(1e-2), math.cos(1e-2)]
        assert np.abs(pe[1] - ref).max() < 1e-15

    def test_rotation_relation(self):
        # rows p and p+delta are related by a rotation per frequency pair
        pe = P.sinusoidal(64, 8, factor=10000.0)
        d, delta = 8, 13
        freq = 10000.0 ** (-np.arange(0, d, 2) / d)
        for p in (0, 5, 31):
            for i, th in enumerate(freq):
                s, c = pe[p, 2 * i], pe[p, 2 * i + 1]
                a = delta * th
                rs = s * math.cos(a) + c * math.sin(a)
                rc = c * math.cos(a) - s * math.sin(a)
                assert abs(rs - pe[p + delta, 2 * i]) < 1e-10
                assert abs(rc - pe[p + delta, 2 * i + 1]) < 1e-10

    def test_start_offsets_rows(self):
        assert np.array_equal(P.sinusoidal(3, 8, start=5), P.sinusoidal(8, 8)[5:])

    def test_cached_rows_equal_the_closed_form_as_the_table_grows(self):
        d, factor = 10, 777.0                # a table no other test builds
        freq = factor ** (-np.arange(0, d, 2, dtype=np.float64) / d)
        lengths = []
        for L, start in [(3, 0), (2, 5), (10, 20), (1, 29), (0, 40), (64, 1), (1, 200)]:
            pe = P.sinusoidal(L, d, factor, start)
            ang = np.arange(start, start + L, dtype=np.float64)[:, None] * freq
            ref = np.zeros((L, d))
            ref[:, 0::2], ref[:, 1::2] = np.sin(ang), np.cos(ang)
            assert np.array_equal(pe, ref), (L, start)
            assert not pe.flags.writeable
            with pytest.raises(ValueError):
                pe[...] = 0.0
            lengths.append(len(P._SINUSOIDAL[(d, factor)]))
        assert lengths == [3, 7, 30, 30, 60, 120, 240]

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            P.sinusoidal(2, 4, start=-1)

    def test_odd_width_rejected(self):
        with pytest.raises(ValueError):
            P.sinusoidal(4, 5)

    def test_long_extrapolation_finite_monotone_freq(self):
        pe = P.sinusoidal(16384, 64)
        assert np.isfinite(pe).all()
        freq = 10000.0 ** (-np.arange(0, 64, 2) / 64)
        assert (np.diff(freq) < 0).all()


class TestLearnedAbsolute:
    def test_replicate_doubling(self):
        rng = np.random.default_rng(0)
        tab = rng.standard_normal((512, 8))
        rep = P.replicate(tab, 1024)
        assert np.array_equal(rep[:512], tab)
        assert np.array_equal(rep[512:], tab)

    def test_replicate_truncated_copy(self):
        rng = np.random.default_rng(1)
        tab = rng.standard_normal((512, 4))
        rep = P.replicate(tab, 700)
        assert np.array_equal(rep[512:700], tab[:188])

    def test_replicate_shrink_rejected(self):
        with pytest.raises(ValueError):
            P.replicate(np.zeros((16, 4)), 8)

    def test_lookup_beyond_table_rejected(self):
        with pytest.raises(ValueError):
            P.learned_absolute(Tensor(np.zeros((16, 4))), 17)

    def test_lookup_from_start(self):
        tab = Tensor(np.arange(32.0).reshape(8, 4))
        assert np.array_equal(P.learned_absolute(tab, 2, start=5).data, tab.data[5:7])
        with pytest.raises(ValueError):
            P.learned_absolute(tab, 2, start=7)
        with pytest.raises(T.ShapeError):   # was an empty (0, 4) slice
            P.learned_absolute(tab, 2, start=-1)

    def test_lookup_prefix(self):
        tab = Tensor(np.arange(12.0).reshape(6, 2))
        out = P.learned_absolute(tab, 3)
        assert np.array_equal(out.data, tab.data[:3])


class TestRope:
    def test_position_zero_identity(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.standard_normal((2, 1, 8)))
        out = P.rope_apply(x, [0])
        assert np.array_equal(out.data, x.data)

    def test_norm_preserved(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((2, 6, 8)))
        out = P.rope_apply(x, np.arange(6))
        assert np.abs(np.linalg.norm(out.data, axis=-1)
                      - np.linalg.norm(x.data, axis=-1)).max() < 1e-10

    @settings(max_examples=20, deadline=None)
    @given(shift=st.integers(0, 4096), p1=st.integers(0, 64), p2=st.integers(0, 64),
           seed=st.integers(0, 2 ** 16))
    def test_inner_product_depends_on_relative_offset(self, shift, p1, p2, seed):
        rng = np.random.default_rng(seed)
        q = Tensor(rng.standard_normal((1, 1, 8)))
        k = Tensor(rng.standard_normal((1, 1, 8)))
        def dot(pq, pk):
            rq = P.rope_apply(q, [pq]).data[0, 0]
            rk = P.rope_apply(k, [pk]).data[0, 0]
            return rq @ rk
        assert abs(dot(p1, p2) - dot(p1 + shift, p2 + shift)) < 1e-8

    def test_matches_pairwise_rotation_bit_for_bit(self):
        rng = np.random.default_rng(5)
        x, pos = rng.standard_normal((2, 5, 8)), np.arange(3.0, 8.0)
        ang = pos[:, None] * 10000.0 ** (-np.arange(0, 8, 2) / 8)
        x0, x1 = x[..., 0::2], x[..., 1::2]
        want = np.empty_like(x)
        want[..., 0::2] = x0 * np.cos(ang) - x1 * np.sin(ang)
        want[..., 1::2] = x0 * np.sin(ang) + x1 * np.cos(ang)
        assert np.array_equal(P.rope_apply(Tensor(x), pos).data, want)

    def test_built_from_tensor_ops(self, monkeypatch):
        # posenc defines no backward rule: a taped call records only tensor ops
        ops, record = [], T._record

        def spy(out, parents, backward, op):
            ops.append(op)
            return record(out, parents, backward, op)

        monkeypatch.setattr(T, "_record", spy)
        with T.Tape():
            P.rope_apply(Tensor(np.ones((1, 2, 4)), requires_grad=True), [0, 1])
        assert ops == ["mul", "matmul", "mul", "add"]

    def test_odd_head_dim_rejected(self):
        with pytest.raises(ValueError):
            P.rope_apply(Tensor(np.zeros((1, 2, 5))), [0, 1])

    def test_backward_is_exact_inverse_rotation(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((1, 3, 4)), requires_grad=True)
        def build(t):
            return T.tsum(T.mul(P.rope_apply(t, [0, 7, 21]), P.rope_apply(t, [0, 7, 21])))
        with T.Tape():
            loss = build(x)
            T.backward(loss)
        fd = T.finite_diff_grad(build, x)
        assert T.rel_err(x.grad, fd) < 1e-6


class TestT5Bucket:
    def test_zero_distance_bucket_zero(self):
        assert P.t5_bucket(np.array(0), 32, 128, True) == 0
        assert P.t5_bucket(np.array(0), 32, 128, False) == 0

    def test_exact_region_distinct_buckets(self):
        # bidirectional: |j-i| < num_buckets/4 all map to distinct buckets
        n, md = 32, 128
        rels = [r for r in range(-(n // 4) + 1, n // 4) if True]
        buckets = P.t5_bucket(np.array(rels), n, md, True)
        assert len(set(buckets.tolist())) == len(rels)

    def test_causal_exact_region_distinct(self):
        n, md = 32, 128
        rels = np.array([-r for r in range(n // 2)])
        buckets = P.t5_bucket(rels, n, md, False)
        assert len(set(buckets.tolist())) == n // 2

    def test_causal_future_collapses_to_zero(self):
        buckets = P.t5_bucket(np.array([1, 5, 100]), 32, 128, False)
        assert np.array_equal(buckets, [0, 0, 0])

    def test_bucket_range(self):
        rel = np.arange(-500, 500)
        for bidir in (True, False):
            b = P.t5_bucket(rel, 32, 128, bidir)
            assert b.min() >= 0 and b.max() < 32

    def test_matches_reference_bucketing(self):
        # independent scalar re-derivation of the half-exact / half-log rule
        def ref(rel, num_buckets, max_distance, bidirectional):
            b = 0
            n = num_buckets
            if bidirectional:
                n //= 2
                if rel > 0:
                    b += n
                rel = abs(rel)
            else:
                rel = max(-rel, 0)
            max_exact = n // 2
            if rel < max_exact:
                return b + rel
            val = max_exact + int(
                math.log(rel / max_exact) / math.log(max_distance / max_exact)
                * (n - max_exact))
            return b + min(val, n - 1)
        rels = np.arange(-300, 300)
        for bidir in (True, False):
            got = P.t5_bucket(rels, 32, 128, bidir)
            want = [ref(int(r), 32, 128, bidir) for r in rels]
            assert np.array_equal(got, want)


class TestT5Bias:
    def test_zero_table_zero_bias(self):
        tab = Tensor(np.zeros((2, 32)))
        out = P.t5_relative_bias(4, 4, 32, 128, tab, True)
        assert np.abs(out.data).max() == 0.0

    def test_gather_matches_matrix(self):
        rng = np.random.default_rng(5)
        tab = Tensor(rng.standard_normal((3, 32)))
        out = P.t5_relative_bias(5, 7, 32, 128, tab, True)
        buckets = P.relative_bucket_matrix(5, 7, 32, 128, True)
        for h in range(3):
            assert np.array_equal(out.data[h], tab.data[h][buckets])

    @pytest.mark.parametrize("bidirectional", [False, True])
    def test_query_start_selects_rows(self, bidirectional):
        rng = np.random.default_rng(8)
        tab = Tensor(rng.standard_normal((2, 32)))
        full = P.t5_relative_bias(7, 7, 32, 128, tab, bidirectional)
        tail = P.t5_relative_bias(2, 7, 32, 128, tab, bidirectional, q_start=5)
        assert np.array_equal(tail.data, full.data[:, 5:])

    def test_wrong_table_width_rejected(self):
        with pytest.raises(ValueError):
            P.t5_relative_bias(4, 4, 32, 128, Tensor(np.zeros((2, 16))), True)

    def test_scatter_gradient(self):
        rng = np.random.default_rng(6)
        tab = Tensor(rng.standard_normal((2, 32)), requires_grad=True)
        with T.Tape():
            out = P.t5_relative_bias(6, 6, 32, 128, tab, True)
            T.backward(T.tsum(out))
        buckets = P.relative_bucket_matrix(6, 6, 32, 128, True)
        counts = np.bincount(buckets.ravel(), minlength=32).astype(float)
        assert np.array_equal(tab.grad[0], counts)
        assert np.array_equal(tab.grad[1], counts)

    @pytest.mark.parametrize("bidirectional", [False, True])
    def test_gradient_matches_per_head_loop(self, bidirectional):
        rng = np.random.default_rng(9)
        tab = Tensor(rng.standard_normal((3, 32)), requires_grad=True)
        up = rng.standard_normal((3, 5, 9))      # a different gradient per head
        with T.Tape():
            out = P.t5_relative_bias(5, 9, 32, 128, tab, bidirectional, q_start=4)
            T.backward(T.tsum(T.mul(out, Tensor(up))))
        buckets = P.relative_bucket_matrix(5, 9, 32, 128, bidirectional, q_start=4)
        want = np.zeros((3, 32))
        for h in range(3):
            for i in range(5):
                for j in range(9):
                    want[h, buckets[i, j]] += up[h, i, j]
        assert np.abs(tab.grad - want).max() < 1e-12

    def test_block_bias_is_single_matrix(self):
        rng = np.random.default_rng(7)
        tab = Tensor(rng.standard_normal((2, 32)))
        blk = P.block_relative_bias(4, 32, 128, tab)
        full = P.t5_relative_bias(4, 4, 32, 128, tab, True)
        assert blk.shape == (2, 4, 4)
        assert np.array_equal(blk.data, full.data)


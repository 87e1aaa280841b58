import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from longattn import attention as A
from longattn import tensor as T
from longattn.attention import (AttentionSpec, Variant, attention_cost,
                                make_block_layout)
from longattn.tensor import Tensor
from score_count import softmax_entries


def rand_qkv(rng, h, L, d):
    return tuple(Tensor(rng.standard_normal((h, L, d))) for _ in range(3))


def loop_attention(q, k, v, allow=None, bias=None):
    """Per-row softmax attention oracle written with explicit loops."""
    h, Lq, d = q.shape
    Lk = k.shape[1]
    out = np.zeros((h, Lq, d))
    for hh in range(h):
        for i in range(Lq):
            scores = np.array([q[hh, i] @ k[hh, j] / np.sqrt(d) for j in range(Lk)])
            if bias is not None:
                scores = scores + bias[hh, i]
            if allow is not None:
                scores = np.where(allow[i], scores, -1e9)
            w = np.exp(scores - scores.max())
            w /= w.sum()
            if allow is not None and not allow[i].any():
                w[:] = 0.0
            out[hh, i] = w @ v[hh]
    return out


def offset_bias(rng, h, b, L):
    """A random bias per head and key-minus-query offset: as the [h, b, b]
    block bias that every block shares, and as the dense [h, L, L] bias (the
    offsets beyond a block never meet, so they are clipped)."""
    table = rng.standard_normal((h, 2 * b - 1))
    rel = lambda n: np.clip(np.arange(n)[None, :] - np.arange(n)[:, None], 1 - b, b - 1)
    return table[:, rel(b) + b - 1], table[:, rel(L) + b - 1]


def blocks_of(lay):
    """The real positions of each block, as pair_mask() groups them."""
    return sorted({tuple(np.flatnonzero(row)) for row in lay.pair_mask()})


class TestBlockLayout:
    def test_layer0_staggered(self):
        lay = make_block_layout(8, 4, 0, True)
        assert blocks_of(lay) == [(0, 1, 2, 3), (4, 5, 6, 7)]
        assert lay.pad_left == 0 and lay.pad_right == 0

    def test_layer1_staggered_shifted(self):
        lay = make_block_layout(8, 4, 1, True)
        assert lay.pad_left == 2 and lay.pad_right == 2
        assert blocks_of(lay) == [(0, 1), (2, 3, 4, 5), (6, 7)]

    def test_unstaggered_layer_independent(self):
        for layer in range(4):
            assert make_block_layout(8, 4, layer, False) == make_block_layout(8, 4, 0, False)

    def test_every_position_in_one_block(self):
        lay = make_block_layout(37, 8, 1, True)
        blocks = blocks_of(lay)
        assert sorted(sum(blocks, ())) == list(range(37))
        assert len(blocks) <= lay.num_blocks
        assert all(len(blk) <= 8 for blk in blocks)

    def test_full_attention_is_one_unpadded_block(self):
        lay = A.encoder_layout(AttentionSpec(variant=Variant.FULL), 37, 1)
        assert (lay.block_size, lay.pad_left, lay.pad_right) == (37, 0, 0)
        assert lay.pair_mask().all()

    def test_odd_block_staggered_rejected(self):
        with pytest.raises(ValueError):
            make_block_layout(8, 3, 1, True)

    def test_bad_lengths(self):
        with pytest.raises(ValueError):
            make_block_layout(0, 4, 0, False)
        with pytest.raises(ValueError):
            make_block_layout(8, 0, 0, False)

    def test_stagger_reach_adjacent_positions(self):
        # any adjacent pair shares a block in at least one of two consecutive layers
        for b in (2, 4, 8, 64):
            for L in (7, 64, 256):
                m0 = make_block_layout(L, b, 0, True).pair_mask()
                m1 = make_block_layout(L, b, 1, True).pair_mask()
                for i in range(L - 1):
                    assert m0[i, i + 1] or m1[i, i + 1], (b, L, i)


class TestFullAttention:
    def test_single_position_identity(self):
        q, k, v = rand_qkv(np.random.default_rng(0), 2, 1, 4)
        out = A.full_attention(q, k, v)
        assert np.allclose(out.data, v.data)

    def test_orthogonal_q_gives_mean(self):
        rng = np.random.default_rng(1)
        q = Tensor(np.zeros((1, 3, 4)))
        k, v = (Tensor(rng.standard_normal((1, 5, 4))) for _ in range(2))
        out = A.full_attention(q, k, v)
        assert np.allclose(out.data, v.data.mean(axis=1, keepdims=True))

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        q, k, v = rand_qkv(rng, 3, 6, 5)
        out = A.full_attention(q, k, v)
        assert np.abs(out.data - loop_attention(q.data, k.data, v.data)).max() < 1e-10

    def test_shape_mismatch(self):
        rng = np.random.default_rng(3)
        with pytest.raises(T.ShapeError):
            A.full_attention(Tensor(rng.standard_normal((2, 4, 5))),
                             Tensor(rng.standard_normal((2, 4, 6))),
                             Tensor(rng.standard_normal((2, 4, 6))))


class TestBlockLocal:
    def test_degenerate_block_equals_full(self):
        rng = np.random.default_rng(4)
        q, k, v = rand_qkv(rng, 2, 8, 4)
        lay = make_block_layout(8, 16, 0, False)
        out = A.block_local_attention(q, k, v, lay)
        ref = A.full_attention(q, k, v)
        assert np.abs(out.data - ref.data).max() < 1e-12

    def test_block_size_one_is_self_only(self):
        rng = np.random.default_rng(5)
        q, k, v = rand_qkv(rng, 2, 6, 4)
        out = A.block_local_attention(q, k, v, make_block_layout(6, 1, 0, False))
        assert np.allclose(out.data, v.data)

    @pytest.mark.parametrize("layer,staggered", [(0, False), (0, True), (1, True)])
    def test_matches_masked_full_oracle(self, layer, staggered):
        rng = np.random.default_rng(6)
        q, k, v = rand_qkv(rng, 2, 8, 4)
        lay = make_block_layout(8, 4, layer, staggered)
        out = A.block_local_attention(q, k, v, lay)
        ref = loop_attention(q.data, k.data, v.data, allow=lay.pair_mask())
        assert np.abs(out.data - ref).max() < 1e-10

    @pytest.mark.parametrize("L,layer,staggered", [(8, 0, False), (12, 0, False),
                                                   (16, 1, True), (10, 1, True)])
    def test_block_bias_matches_dense_oracle(self, L, layer, staggered):
        rng = np.random.default_rng(24)
        q, k, v = rand_qkv(rng, 2, L, 4)
        block_bias, dense_bias = offset_bias(rng, 2, 4, L)
        lay = make_block_layout(L, 4, layer, staggered)
        out = A.block_local_attention(q, k, v, lay, bias=block_bias)
        ref = loop_attention(q.data, k.data, v.data, allow=lay.pair_mask(), bias=dense_bias)
        assert np.abs(out.data - ref).max() < 1e-10

    def test_length_mismatch(self):
        rng = np.random.default_rng(7)
        q, k, v = rand_qkv(rng, 2, 8, 4)
        with pytest.raises(T.ShapeError):
            A.block_local_attention(q, k, v, make_block_layout(9, 4, 0, False))

    @settings(max_examples=30, deadline=None)
    @given(L=st.integers(1, 64), seed=st.integers(0, 2 ** 16))
    def test_equivalence_big_block_equals_full(self, L, seed):
        rng = np.random.default_rng(seed)
        q, k, v = rand_qkv(rng, 1, L, 4)
        lay = make_block_layout(L, max(L, 1), 0, False)
        out = A.block_local_attention(q, k, v, lay)
        ref = A.full_attention(q, k, v)
        assert np.abs(out.data - ref.data).max() < 1e-10

    def test_no_pad_leakage(self):
        # huge-magnitude values in would-be pad slots must never influence output:
        # compare against the pure mask oracle, which never sees pads at all
        rng = np.random.default_rng(8)
        q, k, v = rand_qkv(rng, 2, 10, 4)
        lay = make_block_layout(10, 4, 1, True)
        out = A.block_local_attention(q, k, v, lay)
        ref = loop_attention(q.data, k.data, v.data, allow=lay.pair_mask())
        assert np.abs(out.data - ref).max() < 1e-10


class TestGlobalLocal:
    def run(self, rng, h, L, g, d, b, layer=0, staggered=False):
        tq, tk, tv = rand_qkv(rng, h, L, d)
        gq, gk, gv = rand_qkv(rng, h, g, d)
        lay = make_block_layout(L, b, layer, staggered)
        return (tq, tk, tv, gq, gk, gv, lay,
                A.global_local_attention(tq, tk, tv, gq, gk, gv, lay))

    def test_matches_concatenated_key_oracle(self):
        rng = np.random.default_rng(9)
        h, L, g, d = 2, 6, 1, 4
        tq, tk, tv, gq, gk, gv, lay, (tok, glob) = self.run(rng, h, L, g, d, b=8)
        kcat = np.concatenate([tk.data, gk.data], axis=1)
        vcat = np.concatenate([tv.data, gv.data], axis=1)
        ref_tok = loop_attention(tq.data, kcat, vcat)
        ref_glob = loop_attention(gq.data, kcat, vcat)
        assert np.abs(tok.data - ref_tok).max() < 1e-10
        assert np.abs(glob.data - ref_glob).max() < 1e-10

    def test_blockwise_union_oracle(self):
        rng = np.random.default_rng(10)
        h, L, g, d, b = 2, 10, 3, 4, 4
        tq, tk, tv, gq, gk, gv, lay, (tok, glob) = self.run(rng, h, L, g, d, b=b,
                                                            layer=1, staggered=True)
        kcat = np.concatenate([tk.data, gk.data], axis=1)
        vcat = np.concatenate([tv.data, gv.data], axis=1)
        allow = np.concatenate([lay.pair_mask(), np.ones((L, g), dtype=bool)], axis=1)
        ref_tok = loop_attention(tq.data, kcat, vcat, allow=allow)
        ref_glob = loop_attention(gq.data, kcat, vcat)
        assert np.abs(tok.data - ref_tok).max() < 1e-10
        assert np.abs(glob.data - ref_glob).max() < 1e-10

    @pytest.mark.parametrize("L,layer,staggered", [(12, 0, False), (10, 1, True)])
    def test_block_bias_skips_global_keys(self, L, layer, staggered):
        rng = np.random.default_rng(25)
        h, g, d, b = 2, 3, 4, 4
        tq, tk, tv = rand_qkv(rng, h, L, d)
        gq, gk, gv = rand_qkv(rng, h, g, d)
        block_bias, dense_bias = offset_bias(rng, h, b, L)
        lay = make_block_layout(L, b, layer, staggered)
        tok, glob = A.global_local_attention(tq, tk, tv, gq, gk, gv, lay, bias=block_bias)
        kcat = np.concatenate([tk.data, gk.data], axis=1)
        vcat = np.concatenate([tv.data, gv.data], axis=1)
        allow = np.concatenate([lay.pair_mask(), np.ones((L, g), dtype=bool)], axis=1)
        bias = np.concatenate([dense_bias, np.zeros((h, L, g))], axis=2)
        ref_tok = loop_attention(tq.data, kcat, vcat, allow=allow, bias=bias)
        assert np.abs(tok.data - ref_tok).max() < 1e-10
        assert np.abs(glob.data - loop_attention(gq.data, kcat, vcat)).max() < 1e-10

    def test_weights_sum_to_one(self):
        # constant values expose the softmax normalization: output must be exactly 1
        rng = np.random.default_rng(11)
        h, L, g, d, b = 2, 9, 2, 4, 4
        tq = Tensor(rng.standard_normal((h, L, d)))
        gq = Tensor(rng.standard_normal((h, g, d)))
        tk = Tensor(rng.standard_normal((h, L, d)))
        gk = Tensor(rng.standard_normal((h, g, d)))
        ones_t = Tensor(np.ones((h, L, d)))
        ones_g = Tensor(np.ones((h, g, d)))
        lay = make_block_layout(L, b, 0, False)
        tok, glob = A.global_local_attention(tq, tk, ones_t, gq, gk, ones_g, lay)
        assert np.abs(tok.data - 1).max() < 1e-9
        assert np.abs(glob.data - 1).max() < 1e-9

    def test_zero_globals_rejected(self):
        rng = np.random.default_rng(12)
        tq, tk, tv = rand_qkv(rng, 1, 4, 4)
        empty = [Tensor(np.zeros((1, 0, 4))) for _ in range(3)]
        with pytest.raises((ValueError, T.ShapeError)):
            A.global_local_attention(tq, tk, tv, *empty,
                                     make_block_layout(4, 4, 0, False))

    def test_global_permutation_equivariance(self):
        rng = np.random.default_rng(13)
        h, L, g, d, b = 2, 8, 4, 4, 4
        tq, tk, tv = rand_qkv(rng, h, L, d)
        gq, gk, gv = rand_qkv(rng, h, g, d)
        lay = make_block_layout(L, b, 0, False)
        tok, glob = A.global_local_attention(tq, tk, tv, gq, gk, gv, lay)
        perm = np.array([2, 0, 3, 1])
        tokp, globp = A.global_local_attention(
            tq, tk, tv,
            Tensor(gq.data[:, perm]), Tensor(gk.data[:, perm]), Tensor(gv.data[:, perm]),
            lay)
        assert np.abs(tok.data - tokp.data).max() < 1e-12
        assert np.abs(glob.data[:, perm] - globp.data).max() < 1e-12


class TestCausalAndCross:
    def test_position_zero_sees_only_itself(self):
        rng = np.random.default_rng(14)
        q, k, v = rand_qkv(rng, 2, 5, 4)
        out = A.causal_self_attention(q, k, v)
        assert np.allclose(out.data[:, 0], v.data[:, 0])

    def test_matches_triangular_mask_oracle(self):
        rng = np.random.default_rng(15)
        q, k, v = rand_qkv(rng, 2, 6, 4)
        out = A.causal_self_attention(q, k, v)
        allow = np.tril(np.ones((6, 6), dtype=bool))
        ref = loop_attention(q.data, k.data, v.data, allow=allow)
        assert np.abs(out.data - ref).max() < 1e-10

    @pytest.mark.parametrize("Lq", [1, 3, 7])
    def test_cached_queries_match_loop_oracle(self, Lq):
        # the Lq queries are the last Lq of 7 positions
        rng = np.random.default_rng(22)
        q = Tensor(rng.standard_normal((2, Lq, 4)))
        k, v = (Tensor(rng.standard_normal((2, 7, 4))) for _ in range(2))
        bias = rng.standard_normal((2, Lq, 7))
        out = A.causal_self_attention(q, k, v, bias=bias)
        allow = np.tril(np.ones((7, 7), dtype=bool))[7 - Lq:]
        ref = loop_attention(q.data, k.data, v.data, allow=allow, bias=bias)
        assert np.abs(out.data - ref).max() < 1e-10

    def test_square_mask_unchanged(self):
        assert np.array_equal(A.causal_mask(5, 5)[0], np.tril(np.ones((5, 5), dtype=bool)))

    def test_more_queries_than_keys_rejected(self):
        rng = np.random.default_rng(23)
        q = Tensor(rng.standard_normal((1, 4, 4)))
        k, v = (Tensor(rng.standard_normal((1, 3, 4))) for _ in range(2))
        with pytest.raises(T.ShapeError):
            A.causal_self_attention(q, k, v)

    def test_future_perturbation_invariance(self):
        rng = np.random.default_rng(16)
        q, k, v = rand_qkv(rng, 2, 6, 4)
        out = A.causal_self_attention(q, k, v).data
        k2, v2 = k.data.copy(), v.data.copy()
        k2[:, 4:] += 100.0
        v2[:, 4:] -= 100.0
        out2 = A.causal_self_attention(q, Tensor(k2), Tensor(v2)).data
        assert np.abs(out[:, :4] - out2[:, :4]).max() < 1e-12

    def test_cross_single_encoder_position(self):
        rng = np.random.default_rng(17)
        q = Tensor(rng.standard_normal((2, 5, 4)))
        k, v = (Tensor(rng.standard_normal((2, 1, 4))) for _ in range(2))
        out = A.cross_attention(q, k, v)
        assert np.allclose(out.data, np.broadcast_to(v.data, (2, 5, 4)))

    def test_cross_matches_loop_oracle(self):
        rng = np.random.default_rng(18)
        q = Tensor(rng.standard_normal((2, 3, 4)))
        k, v = (Tensor(rng.standard_normal((2, 7, 4))) for _ in range(2))
        out = A.cross_attention(q, k, v)
        assert np.abs(out.data - loop_attention(q.data, k.data, v.data)).max() < 1e-10

    def test_cross_identical_keys_content_symmetry(self):
        rng = np.random.default_rng(19)
        q = Tensor(rng.standard_normal((1, 3, 4)))
        k = Tensor(np.tile(rng.standard_normal((1, 1, 4)), (1, 5, 1)))
        v = Tensor(np.tile(rng.standard_normal((1, 1, 4)), (1, 5, 1)))
        out = A.cross_attention(q, k, v)
        perm = np.random.default_rng(0).permutation(5)
        out_p = A.cross_attention(q, Tensor(k.data[:, perm]), Tensor(v.data[:, perm]))
        assert np.abs(out.data - out_p.data).max() < 1e-12

    def test_global_cross_single_global(self):
        rng = np.random.default_rng(20)
        q = Tensor(rng.standard_normal((2, 5, 4)))
        gk, gv = (Tensor(rng.standard_normal((2, 1, 4))) for _ in range(2))
        out = A.cross_attention(q, gk, gv)
        assert np.allclose(out.data, np.broadcast_to(gv.data, (2, 5, 4)))

    def test_global_cross_matches_oracle(self):
        rng = np.random.default_rng(21)
        q = Tensor(rng.standard_normal((2, 4, 4)))
        gk, gv = (Tensor(rng.standard_normal((2, 3, 4))) for _ in range(2))
        out = A.cross_attention(q, gk, gv)
        assert np.abs(out.data - loop_attention(q.data, gk.data, gv.data)).max() < 1e-10

    def test_global_cross_empty_rejected(self):
        q = Tensor(np.zeros((1, 2, 4)))
        empty = Tensor(np.zeros((1, 0, 4)))
        with pytest.raises((ValueError, T.ShapeError)):
            A.cross_attention(q, empty, empty)


class TestAttentionCost:
    def test_full_quadratic_law(self):
        spec = AttentionSpec(variant=Variant.FULL)
        c1 = attention_cost(spec, 128)
        c2 = attention_cost(spec, 256)
        assert c2["score_mem_elems"] == 4 * c1["score_mem_elems"]
        assert c2["flops"] == 4 * c1["flops"]

    def test_block_local_linear_law(self):
        spec = AttentionSpec(variant=Variant.BLOCK_LOCAL, block_size=64)
        c1 = attention_cost(spec, 256)
        c2 = attention_cost(spec, 512)
        assert c2["score_mem_elems"] == 2 * c1["score_mem_elems"]

    def test_global_local_overhead_closed_form(self):
        # the global terms add a constant-factor overhead over plain
        # block-local: 1 + g/b + g*(L+g)/(L*b) on score-side MACs (≈2 at
        # g = b/2); whole-model overhead is far smaller because projections
        # and FFN dominate at realistic widths, but this counter is
        # deliberately attention-score-only
        L, b, g = 1024, 64, 32
        local = AttentionSpec(variant=Variant.BLOCK_LOCAL, block_size=b,
                              num_heads=2, head_dim=8)
        gl = AttentionSpec(variant=Variant.GLOBAL_LOCAL, block_size=b,
                           num_global=g, num_heads=2, head_dim=8)
        r = attention_cost(gl, L)["flops"] / attention_cost(local, L)["flops"]
        assert r == pytest.approx(1 + g / b + g * (L + g) / (L * b))
        assert 1.0 < r < attention_cost(
            AttentionSpec(variant=Variant.FULL, num_heads=2, head_dim=8),
            L)["flops"] / attention_cost(local, L)["flops"]

    @pytest.mark.parametrize("staggered", [False, True])
    @pytest.mark.parametrize("blocks", [1, 8, 16])
    def test_mac_ordering_local_global_local_full(self, staggered, blocks):
        # local <= global-local < full from L = 8b on; at L = b block-local
        # saves nothing (a tie with full, or the staggered frame's extra block
        # costs more), so the ordering is not asserted there
        b, g = 64, 32
        L = blocks * b
        macs = [attention_cost(AttentionSpec(variant=v, block_size=b, num_global=n,
                                             staggered=s, num_heads=2, head_dim=8), L)["flops"]
                for v, n, s in ((Variant.BLOCK_LOCAL, 0, staggered),
                                (Variant.GLOBAL_LOCAL, g, staggered), (Variant.FULL, 0, False))]
        local, glob, full = macs
        if blocks >= 8:
            assert local <= glob < full
        else:
            assert local == (2 if staggered else 1) * full

    @pytest.mark.parametrize("staggered", [False, True])
    @pytest.mark.parametrize("L", [512, 1024])
    def test_measured_macs_keep_the_ordering(self, staggered, L):
        # the kernels' own score counts, not the closed form: at L = 1024 full
        # attention's scores span two tiles
        b, g, h, d = 64, 32, 1, 4
        rng = np.random.default_rng(L)
        lay = make_block_layout(L, b, 1 if staggered else 0, staggered)
        tq, tk, tv = rand_qkv(rng, h, L, d)
        runs = [lambda: A.block_local_attention(tq, tk, tv, lay),
                lambda: A.global_local_attention(tq, tk, tv, *rand_qkv(rng, h, g, d), lay),
                lambda: A.full_attention(tq, tk, tv)]
        macs = []
        for attend in runs:
            with softmax_entries() as sizes:
                attend()
            macs.append(sum(sizes) * d)
        local, glob, full = macs
        assert local <= glob < full
        specs = [AttentionSpec(variant=Variant.BLOCK_LOCAL, block_size=b, staggered=staggered,
                               num_heads=h, head_dim=d),
                 AttentionSpec(variant=Variant.GLOBAL_LOCAL, block_size=b, num_global=g,
                               staggered=staggered, num_heads=h, head_dim=d),
                 AttentionSpec(variant=Variant.FULL, num_heads=h, head_dim=d)]
        assert macs == [attention_cost(s, L)["flops"] for s in specs]

    def test_counter_instrumentation_reference_config(self):
        spec = AttentionSpec(variant=Variant.GLOBAL_LOCAL, block_size=64,
                             num_global=32, num_heads=4, head_dim=16)
        cost = attention_cost(spec, 256)
        rng = np.random.default_rng(22)
        tq, tk, tv = rand_qkv(rng, 4, 256, 16)
        gq, gk, gv = rand_qkv(rng, 4, 32, 16)
        lay = make_block_layout(256, 64, 0, False)
        with softmax_entries() as sizes:
            A.global_local_attention(tq, tk, tv, gq, gk, gv, lay)
        assert sum(sizes) * 16 == cost["flops"]
        assert sum(sizes) == cost["score_mem_elems"]

    @pytest.mark.parametrize("variant", list(Variant))
    def test_backward_adds_no_score_entries(self, variant):
        # backward reuses or recomputes the probabilities: it never calls T.softmax
        h, d, L, b, g = 2, 4, 20, 8, 3
        staggered = variant != Variant.FULL
        glob = variant == Variant.GLOBAL_LOCAL
        spec = AttentionSpec(variant=variant, block_size=b, num_global=g if glob else 0,
                             staggered=staggered, num_heads=h, head_dim=d)
        lay = make_block_layout(L, b, 1 if staggered else 0, staggered)
        rng = np.random.default_rng(23)
        qkv = lambda n: [Tensor(rng.standard_normal((h, n, d)), requires_grad=True)
                         for _ in range(3)]
        bias = Tensor(rng.standard_normal((h, L, L) if variant == Variant.FULL else (h, b, b)),
                      requires_grad=True)
        with softmax_entries() as sizes:
            with T.Tape():
                if variant == Variant.FULL:
                    out = A.full_attention(*qkv(L), bias=bias)
                elif variant == Variant.BLOCK_LOCAL:
                    out = A.block_local_attention(*qkv(L), lay, bias)
                else:
                    out = T.concat(A.global_local_attention(*qkv(L), *qkv(g), lay, bias), axis=1)
                T.backward(T.tsum(T.mul(out, rng.standard_normal(out.shape))))
        assert bias.grad is not None
        assert sum(sizes) == attention_cost(spec, L)["score_mem_elems"]

    @settings(max_examples=10, deadline=None)
    @given(st.data())
    def test_counter_matches_cost_random_configs(self, data):
        variant = data.draw(st.sampled_from(list(Variant)))
        h = data.draw(st.integers(1, 4))
        d = data.draw(st.sampled_from([2, 4, 8]))
        L = data.draw(st.integers(1, 48))
        b = data.draw(st.sampled_from([2, 4, 8, 16]))
        g = data.draw(st.integers(1, 5))
        staggered = variant != Variant.FULL and data.draw(st.booleans())
        layer = data.draw(st.integers(0, 3))
        spec = AttentionSpec(variant=variant, block_size=b, num_global=g if
                             variant == Variant.GLOBAL_LOCAL else 0,
                             staggered=staggered, num_heads=h, head_dim=d)
        rng = np.random.default_rng(0)
        tq, tk, tv = rand_qkv(rng, h, L, d)
        # cost model uses the odd-layer (padded) frame when staggered
        lay = make_block_layout(L, b, 1 if staggered else layer, staggered)
        with softmax_entries() as sizes:
            if variant == Variant.FULL:
                A.full_attention(tq, tk, tv)
            elif variant == Variant.BLOCK_LOCAL:
                A.block_local_attention(tq, tk, tv, lay)
            else:
                gq, gk, gv = rand_qkv(rng, h, g, d)
                A.global_local_attention(tq, tk, tv, gq, gk, gv, lay)
        cost = attention_cost(spec, L)
        assert sum(sizes) * d == cost["flops"]
        assert sum(sizes) == cost["score_mem_elems"]


class TestSpecValidation:
    def test_global_local_needs_globals(self):
        with pytest.raises(ValueError):
            AttentionSpec(variant=Variant.GLOBAL_LOCAL, num_global=0)

    def test_num_global_without_global_local_rejected(self):
        for variant in (Variant.FULL, Variant.BLOCK_LOCAL):
            with pytest.raises(ValueError, match="num_global"):
                AttentionSpec(variant=variant, num_global=8)

    def test_staggered_full_rejected(self):
        with pytest.raises(ValueError):
            AttentionSpec(variant=Variant.FULL, staggered=True)

    def test_staggered_odd_block_rejected(self):
        with pytest.raises(ValueError):
            AttentionSpec(variant=Variant.BLOCK_LOCAL, block_size=3, staggered=True)

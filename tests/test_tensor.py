import contextlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from longattn import tensor as T
from longattn.tensor import Tensor
from score_count import softmax_entries


def grad_of(build, *xs):
    xs = [Tensor(x, requires_grad=True) for x in xs]
    with T.Tape():
        loss = build(*xs)
        T.backward(loss)
    return [x.grad for x in xs], xs


class TestMatmul:
    def test_identity(self):
        out = T.matmul(Tensor(np.eye(2)), Tensor([[3.0, 4.0], [5.0, 6.0]]))
        assert np.array_equal(out.data, [[3, 4], [5, 6]])

    def test_inner_product(self):
        out = T.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.data[0, 0] == 11.0

    def test_against_triple_loop(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 5))
        b = rng.standard_normal((5, 3))
        ref = np.zeros((4, 3))
        for i in range(4):
            for j in range(3):
                for k in range(5):
                    ref[i, j] += a[i, k] * b[k, j]
        out = T.matmul(Tensor(a), Tensor(b))
        assert np.abs(out.data - ref).max() < 1e-12

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(T.ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_batched_broadcast(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((3, 1, 4, 5))
        b = rng.standard_normal((2, 5, 6))
        out = T.matmul(Tensor(a), Tensor(b))
        assert out.shape == (3, 2, 4, 6)
        assert np.allclose(out.data, a @ b)


class TestSoftmax:
    def test_uniform(self):
        out = T.softmax(np.array([0.0, 0.0, 0.0]))
        assert np.allclose(out, [1 / 3] * 3)

    def test_stability_no_nan(self):
        out = T.softmax(np.array([1000.0, 0.0]))
        assert np.allclose(out, [1.0, 0.0])

    def test_high_precision_oracle(self):
        import mpmath
        mpmath.mp.dps = 50
        xs = [1.0, 2.0, 3.0]
        es = [mpmath.exp(x) for x in xs]
        ref = [float(e / sum(es)) for e in es]
        out = T.softmax(np.array(xs))
        assert np.abs(out - ref).max() < 1e-15

    @given(st.lists(st.floats(min_value=-1e4, max_value=1e4), min_size=1, max_size=20))
    def test_slices_sum_to_one(self, xs):
        out = T.softmax(np.array(xs))
        assert abs(out.sum() - 1.0) < 1e-9


class TestLayerNorm:
    def test_constant_vector_collapses(self):
        out = T.layer_norm(Tensor([5.0, 5.0, 5.0]), Tensor(np.ones(3)), Tensor(np.zeros(3)))
        assert np.abs(out.data).max() < 1e-6

    def test_already_normalized(self):
        out = T.layer_norm(Tensor([1.0, -1.0]), Tensor(np.ones(2)), Tensor(np.zeros(2)))
        assert np.allclose(out.data, [1.0, -1.0], atol=1e-5)

    def test_two_pass_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(16)
        m = sum(x) / 16
        var = sum((v - m) ** 2 for v in x) / 16
        ref = (x - m) / math.sqrt(var + 1e-6)
        out = T.layer_norm(Tensor(x), Tensor(np.ones(16)), Tensor(np.zeros(16)))
        assert np.abs(out.data - ref).max() < 1e-12

    def test_zero_length_axis(self):
        with pytest.raises(T.ShapeError):
            T.layer_norm(Tensor(np.zeros((2, 0))), Tensor(np.zeros(0)), Tensor(np.zeros(0)))


class TestElementwise:
    def test_gelu_zero(self):
        assert T.gelu(Tensor(0.0)).item() == 0.0

    def test_gelu_grid_oracle(self):
        import mpmath
        mpmath.mp.dps = 40
        c = mpmath.sqrt(mpmath.mpf(2) / mpmath.pi)
        xs = np.linspace(-3, 3, 61)
        ref = [float(mpmath.mpf(0.5) * x * (1 + mpmath.tanh(c * (x + mpmath.mpf("0.044715") * x ** 3))))
               for x in xs]
        out = T.gelu(Tensor(xs))
        assert np.abs(out.data - ref).max() < 1e-10

    def test_gelu_matches_formula_over_wide_range(self):
        c = math.sqrt(2.0 / math.pi)
        xs = np.concatenate([np.linspace(-30, 30, 6001), np.logspace(-300, 200, 501),
                             -np.logspace(-300, 200, 501), [0.0, -0.0, 1e200, -1e200]])
        with np.errstate(over="ignore"):
            ref = 0.5 * xs * (1 + np.tanh(c * (xs + 0.044715 * xs ** 3)))
            out = T.gelu(Tensor(xs)).data
            # a 0-d x * x is a NumPy scalar, which cannot be written in place
            zero_d = [T.gelu(Tensor(x)) for x in xs[::50]]
        # relative to |x|, the output's scale: in the negative tail the formula
        # itself loses digits in 1 + tanh, so a one-ulp change in x**3 moves a
        # -0.0026 result by 2e-16
        assert np.all(np.abs(out - ref) <= 1e-15 * np.abs(xs))
        assert all(y.shape == () and y.data.tobytes() == out[::50][i].tobytes()
                   for i, y in enumerate(zero_d))

    def test_gelu_grad_matches_formula(self):
        c = math.sqrt(2.0 / math.pi)

        def ref(x):
            t = np.tanh(c * (x + 0.044715 * x ** 3))
            return 0.5 * (1 + t) + 0.5 * x * (1 - t ** 2) * c * (1 + 3 * 0.044715 * x ** 2)
        # beyond 1e154 x * x overflows and the gradient is NaN, as with x ** 2
        x = np.concatenate([np.linspace(-30, 30, 6001), np.logspace(-300, 150, 451),
                            -np.logspace(-300, 150, 451)])
        with np.errstate(over="ignore"):
            (g,), _ = grad_of(lambda a: T.tsum(T.gelu(a)), x)
            assert np.abs(g - ref(x)).max() <= 1e-15
        (g0,), _ = grad_of(T.gelu, -1.5)
        assert g0.shape == () and abs(float(g0) - ref(-1.5)) <= 1e-15

    def test_dropout_p0_identity(self):
        x = Tensor(np.arange(6.0))
        assert T.dropout(x, 0.0, True, np.random.default_rng(0)) is x

    def test_dropout_eval_identity(self):
        x = Tensor(np.arange(6.0))
        assert T.dropout(x, 0.5, False) is x

    def test_dropout_scales(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones(10000))
        out = T.dropout(x, 0.5, True, rng)
        kept = out.data[out.data != 0]
        assert np.allclose(kept, 2.0)
        assert abs(len(kept) / 10000 - 0.5) < 0.05

    def test_broadcast_error(self):
        with pytest.raises(T.ShapeError):
            T.add(Tensor(np.zeros(3)), Tensor(np.zeros(4)))

    def test_nan_rejected(self):
        with pytest.raises(FloatingPointError):
            T.mul(Tensor([1e308]), 1e308)

    def test_movement_op_leaves_the_check_to_the_next_op_that_computes(self):
        w = np.ones((2, 3))
        w[1, 2] = np.nan
        w = Tensor(w, requires_grad=True)
        with T.Tape():
            wt = T.transpose(w, (1, 0))      # a view of w: not scanned
            with pytest.raises(FloatingPointError, match="'matmul'"):
                T.matmul(Tensor(np.ones((1, 3))), wt)


class TestEmbedding:
    def test_identity_table(self):
        out = T.embedding_lookup(Tensor(np.eye(3)), [2])
        assert np.array_equal(out.data, [[0, 0, 1]])

    def test_duplicate_ids_accumulate(self):
        table = Tensor(np.eye(3), requires_grad=True)
        with T.Tape():
            out = T.embedding_lookup(table, [0, 0])
            T.backward(T.tsum(out))
        assert np.array_equal(table.grad[0], [2, 2, 2])
        assert np.array_equal(table.grad[1], [0, 0, 0])

    def test_gather_vs_loop(self):
        rng = np.random.default_rng(3)
        tab = rng.standard_normal((7, 4))
        ids = [3, 0, 6, 3]
        out = T.embedding_lookup(Tensor(tab), ids)
        for row, i in zip(out.data, ids):
            assert np.array_equal(row, tab[i])

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            T.embedding_lookup(Tensor(np.eye(3)), [3])


class TestCrossEntropy:
    def test_confident_correct(self):
        logits = np.zeros((1, 4))
        logits[0, 2] = 1e6
        assert T.cross_entropy(Tensor(logits), [2]).item() < 1e-9

    def test_uniform_logits(self):
        loss = T.cross_entropy(Tensor(np.zeros((3, 4))), [0, 1, 2])
        assert abs(loss.item() - math.log(4)) < 1e-12

    def test_all_ignored(self):
        x = Tensor(np.random.default_rng(0).standard_normal((3, 4)), requires_grad=True)
        with T.Tape():
            loss = T.cross_entropy(x, [-1, -1, -1], ignore_id=-1)
            T.backward(loss)
        assert loss.item() == 0.0
        assert np.abs(x.grad).max() == 0.0

    def test_logsumexp_oracle(self):
        import mpmath
        mpmath.mp.dps = 40
        rng = np.random.default_rng(4)
        logits = rng.standard_normal((5, 6))
        tgt = [0, 3, 5, 2, 2]
        ref = 0
        for row, t in zip(logits, tgt):
            lse = mpmath.log(sum(mpmath.exp(mpmath.mpf(v)) for v in row))
            ref += float(lse - mpmath.mpf(row[t]))
        loss = T.cross_entropy(Tensor(logits), tgt)
        assert abs(loss.item() - ref / 5) < 1e-12


class TestBackward:
    def test_sum_grad_ones(self):
        x = Tensor(np.random.default_rng(0).standard_normal((3, 4)), requires_grad=True)
        with T.Tape():
            T.backward(T.tsum(x))
        assert np.array_equal(x.grad, np.ones((3, 4)))

    def test_square_grad(self):
        x = Tensor(3.0, requires_grad=True)
        with T.Tape():
            T.backward(T.mul(x, x))
        assert abs(float(x.grad) - 6.0) < 1e-12

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with T.Tape():
            y = T.mul(x, 2.0)
            with pytest.raises(T.ShapeError):
                T.backward(y)

    def test_double_backward_rejected(self):
        x = Tensor(3.0, requires_grad=True)
        with T.Tape():
            loss = T.mul(x, x)
            T.backward(loss)
            with pytest.raises(T.TapeError):
                T.backward(loss)

    def test_no_tape_rejected(self):
        x = Tensor(3.0, requires_grad=True)
        loss = T.mul(x, x)
        with pytest.raises(T.TapeError):
            T.backward(loss)

    def test_fanout_accumulates(self):
        x = Tensor(2.0, requires_grad=True)
        with T.Tape():
            T.backward(T.add(T.mul(x, x), T.mul(x, x)))
        assert abs(float(x.grad) - 8.0) < 1e-12

    def test_shared_gradient_is_not_updated_in_place(self):
        # the inner add hands one gradient array to both a and b; a's second
        # contribution must not leak into b's
        a = Tensor(np.zeros(3), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        with T.Tape():
            T.backward(T.tsum(T.add(T.add(a, b), a)))
        assert np.array_equal(a.grad, [2.0, 2.0, 2.0])
        assert np.array_equal(b.grad, [1.0, 1.0, 1.0])


class TestNarrow:
    def test_slice_and_gradient(self):
        (g,), xs = grad_of(lambda x: T.tsum(T.narrow(x, 0, 2, 3)), np.arange(6.0))
        assert np.array_equal(T.narrow(xs[0], 0, 2, 3).data, [2.0, 3.0, 4.0])
        assert np.array_equal(g, [0, 0, 1, 1, 1, 0])

    @pytest.mark.parametrize("start,length", [(4, 3), (-2, 2), (0, 7), (1, -1)])
    def test_slice_outside_the_axis_rejected(self, start, length):
        # (4, 3) truncated to two entries and (-2, 2) came out empty
        with pytest.raises(T.ShapeError, match="outside axis 0"):
            T.narrow(Tensor(np.arange(6.0)), 0, start, length)


class TestConstantOperands:
    @pytest.mark.parametrize("op,np_op", [(T.add, np.add), (T.mul, np.multiply)])
    @pytest.mark.parametrize("kind", ["ndarray", "float"])
    def test_forward_and_grad_reach_only_the_tensor(self, op, np_op, kind):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 3))
        c = rng.standard_normal(3) if kind == "ndarray" else -1.75
        t = Tensor(x, requires_grad=True)
        up = rng.standard_normal((2, 3))
        with T.Tape():
            out = op(t, c)
            # the graph is freed by backward, so read it first
            assert out._parents[0] is t and not out._parents[1].requires_grad
            assert out._parents[1].grad is None
            T.backward(T.tsum(T.mul(out, up)))
        assert np.array_equal(out.data, np_op(x, c))
        want = up if op is T.add else up * c
        assert np.array_equal(t.grad, want)


class TestAttend:
    # (q, k, v, bias) shapes: full scores with a bias per entry; a [h, 1, b, b]
    # bias broadcast over three blocks; one block, where the bias gradient has
    # the scores' shape
    SHAPES = {
        "full": ((2, 3, 4), (2, 5, 4), (2, 5, 3), (2, 3, 5)),
        "blocks": ((2, 3, 4, 4), (2, 3, 6, 4), (2, 3, 6, 2), (2, 1, 4, 6)),
        "one-block": ((2, 1, 4, 4), (2, 1, 6, 4), (2, 1, 6, 2), (2, 1, 4, 6)),
    }

    @pytest.mark.parametrize("case", list(SHAPES))
    def test_grads_match_finite_differences(self, case):
        rng = np.random.default_rng(12)
        arrays = [rng.standard_normal(s) for s in self.SHAPES[case]]
        allow = rng.random(arrays[3].shape) < 0.7
        allow[..., 1, :] = False             # a row with no allowed key
        up = rng.standard_normal(arrays[0].shape[:-1] + arrays[2].shape[-1:])

        def loss(*ts):
            return T.tsum(T.mul(T.attend(*ts[:3], allow, ts[3]), up))

        grads, _ = grad_of(loss, *arrays)
        for i in range(4):
            def f(t, i=i):
                return loss(*[t if j == i else Tensor(a) for j, a in enumerate(arrays)])
            fd = T.finite_diff_grad(f, Tensor(arrays[i]))
            assert grads[i].shape == arrays[i].shape
            assert np.abs(grads[i] - fd).max() < 1e-8, i

    def test_fully_masked_row_is_zero_and_passes_no_gradient(self):
        rng = np.random.default_rng(13)
        q, k, v = (rng.standard_normal((2, 4, 3)) for _ in range(3))
        allow = np.ones((1, 4, 4), dtype=bool)
        allow[0, 2] = False
        (gq, gk, gv), _ = grad_of(lambda q, k, v: T.tsum(T.attend(q, k, v, allow)), q, k, v)
        out = T.attend(Tensor(q), Tensor(k), Tensor(v), allow).data
        assert not out[:, 2].any() and not gq[:, 2].any()
        keep = [0, 1, 3]                     # the same call without the dead row
        (_, gk2, gv2), _ = grad_of(lambda q, k, v: T.tsum(T.attend(q, k, v, allow[:, keep])),
                                   q[:, keep], k, v)
        assert np.abs(out[:, keep] - T.attend(Tensor(q[:, keep]), Tensor(k), Tensor(v),
                                             allow[:, keep]).data).max() < 1e-15
        assert np.abs(gk - gk2).max() < 1e-14 and np.abs(gv - gv2).max() < 1e-14

    def test_bias_wider_than_the_scores_rejected(self):
        q, k, v = (Tensor(np.ones((1, 3, 4))) for _ in range(3))
        with pytest.raises(T.ShapeError, match=r"bias \(2, 3, 3\)"):
            T.attend(q, k, v, bias=np.zeros((2, 3, 3)))

    @pytest.mark.parametrize("tile", [T.ATTEND_TILE, 16], ids=["default-tile", "tile-16"])
    def test_zero_query_rows_and_zero_keys(self, tile, monkeypatch):
        from longattn import attention as A
        monkeypatch.setattr(T, "ATTEND_TILE", tile)
        rng = np.random.default_rng(20)
        k, v = rng.standard_normal((2, 5, 4)), rng.standard_normal((2, 5, 3))
        allow = np.ones((1, 0, 5), dtype=bool)
        (gq, gk, gv), _ = grad_of(lambda q, k, v: T.tsum(T.attend(q, k, v, allow)),
                                  np.zeros((2, 0, 4)), k, v)
        assert T.attend(Tensor(np.zeros((2, 0, 4))), Tensor(k), Tensor(v)).shape == (2, 0, 3)
        assert gq.shape == (2, 0, 4) and gk.shape == k.shape and gv.shape == v.shape
        assert not gk.any() and not gv.any()
        with pytest.raises(T.ShapeError, match=r"empty key axis in k \(2, 0, 4\)"):
            A.cross_attention(Tensor(rng.standard_normal((2, 3, 4))), Tensor(np.zeros((2, 0, 4))),
                              Tensor(np.zeros((2, 0, 3))))

    @pytest.mark.parametrize("tile", [T.ATTEND_TILE, 16], ids=["default-tile", "tile-16"])
    def test_non_finite_scores_name_attend(self, tile, monkeypatch):
        # softmax scans nothing: its NaNs reach the output, which attend scans once
        monkeypatch.setattr(T, "ATTEND_TILE", tile)
        q, k, v = np.random.default_rng(22).standard_normal((3, 2, 5, 4))
        q[1, 2, 0] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError, match="'attend'"):
            T.attend(Tensor(q), Tensor(k), Tensor(v))

    def test_tape_free_block_call_lets_the_scaled_queries_go(self):
        # scores and probabilities are 3.1 MiB each; q·scale is 0.5 MiB more
        # when held through the softmax instead of dying with the score matmul
        rng = np.random.default_rng(21)
        q = Tensor(rng.standard_normal((2, 33, 64, 16)))
        k, v = (Tensor(rng.standard_normal((2, 33, 96, 16))) for _ in range(2))
        allow = np.ones((1, 33, 1, 96), dtype=bool)
        allow[0, 0, :, :16] = allow[0, -1, :, -16:] = False   # the pads of the end blocks
        tracemalloc.start()
        try:
            T.attend(q, k, v, allow)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7.0 * 2**20, peak / 2**20

    def test_full_attention_records_one_node(self):
        from longattn import attention as A
        rng = np.random.default_rng(14)
        q, k, v = (Tensor(rng.standard_normal((2, 5, 4)), requires_grad=True) for _ in range(3))
        bias = Tensor(rng.standard_normal((2, 5, 5)), requires_grad=True)
        with T.Tape() as tape:
            out = A.full_attention(q, k, v, A.causal_mask(5, 5), bias)
            assert tape.nodes == [out]
            assert out._parents == (q, k, v, bias)

    # a tile constant per case that cuts its scores into several tiles:
    # along the rows, along the blocks, and along the rows of one block
    TILES = {"full": 10, "blocks": 48, "one-block": 12}

    @staticmethod
    def attend_grads(arrays, allow, up):
        """attend's output and the gradients of q, k, v and bias under a loss
        with upstream gradient `up`, and the arrays its tape node closes over."""
        xs = [Tensor(a, requires_grad=True) for a in arrays]
        with T.Tape() as tape:
            out = T.attend(*xs[:3], allow, xs[3])
            node = tape.nodes[0]
            closed = _closed_over_arrays(node)
            T.backward(T.tsum(T.mul(out, up)))
        return [out.data] + [x.grad for x in xs], closed

    def tiled_against_one_tile(self, monkeypatch, arrays, allow, tile):
        up = np.random.default_rng(15).standard_normal(arrays[0].shape[:-1] + arrays[2].shape[-1:])
        one, _ = self.attend_grads(arrays, allow, up)
        monkeypatch.setattr(T, "ATTEND_TILE", tile)
        with softmax_entries() as sizes:
            tiled, closed = self.attend_grads(arrays, allow, up)
        assert len(sizes) > 1 and max(sizes) <= tile
        for a, b in zip(one, tiled):
            assert a.shape == b.shape and np.abs(a - b).max() < 1e-12
        return closed

    @pytest.mark.parametrize("case", list(SHAPES))
    def test_tiles_match_one_tile(self, case, monkeypatch):
        rng = np.random.default_rng(16)
        arrays = [rng.standard_normal(s) for s in self.SHAPES[case]]
        allow = rng.random(arrays[3].shape) < 0.7
        allow[..., 1, :] = False             # a row with no allowed key
        closed = self.tiled_against_one_tile(monkeypatch, arrays, allow, self.TILES[case])
        # no score-sized array survives the forward: besides the inputs, the
        # mask and the output, the node keeps less than one tile's entries
        given = arrays + [allow, closed[0]]
        kept = [a for a in closed if not any(a is b for b in given)]
        assert sum(a.size for a in kept) <= self.TILES[case], [a.shape for a in kept]

    def test_tiles_match_one_tile_dead_rows_on_a_boundary(self, monkeypatch):
        # [2, 6, 5] scores in tiles of two rows: rows 1 and 2 close and open a tile
        rng = np.random.default_rng(17)
        arrays = [rng.standard_normal(s) for s in ((2, 6, 4), (2, 5, 4), (2, 5, 3), (2, 6, 5))]
        allow = rng.random((2, 6, 5)) < 0.7
        allow[:, 1:3] = False
        self.tiled_against_one_tile(monkeypatch, arrays, allow, 20)

    def test_tiles_match_one_tile_bias_broadcast_over_queries(self, monkeypatch):
        rng = np.random.default_rng(18)
        arrays = [rng.standard_normal(s) for s in ((2, 6, 4), (2, 5, 4), (2, 5, 3), (2, 1, 5))]
        self.tiled_against_one_tile(monkeypatch, arrays, None, 20)

    @pytest.mark.parametrize("variant", ["full", "block_local", "global_local"])
    def test_tiled_kernels_match_and_count_every_score_once(self, variant, monkeypatch):
        # each tile's scores pass through softmax once in forward, none in
        # backward; staggered pads mask keys in some tiles and none in others
        from longattn import attention as A
        h, d, L, b, g = 2, 4, 20, 8, 3
        spec = A.AttentionSpec(variant=A.Variant(variant), block_size=b,
                               num_global=g if variant == "global_local" else 0,
                               staggered=variant != "full", num_heads=h, head_dim=d)
        lay = A.encoder_layout(spec, L, 1)

        def run():
            rng = np.random.default_rng(19)
            xs = [Tensor(rng.standard_normal((h, n, d)), requires_grad=True)
                  for n in (L, L, L) + ((g, g, g) if variant == "global_local" else ())]
            xs.append(Tensor(rng.standard_normal((h, lay.block_size, lay.block_size)),
                             requires_grad=True))
            with softmax_entries() as sizes:
                with T.Tape():
                    if variant == "global_local":
                        out = T.concat(A.global_local_attention(*xs[:6], lay, xs[6]), axis=1)
                    else:
                        out = A.block_local_attention(*xs[:3], lay, xs[3])
                    calls = len(sizes)
                    T.backward(T.tsum(T.mul(out, rng.standard_normal(out.shape))))
            assert calls == len(sizes)
            assert sum(sizes) == A.attention_cost(spec, L)["score_mem_elems"]
            return [out.data] + [x.grad for x in xs], calls

        one, one_calls = run()
        monkeypatch.setattr(T, "ATTEND_TILE", 64)
        tiled, calls = run()
        assert calls > one_calls
        for a, b in zip(one, tiled):
            assert np.abs(a - b).max() < 1e-12


def _closed_over_arrays(node):
    """A tape node's output and every array its backward rule closes over."""
    found = [node.data]
    for cell in node._backward.__closure__ or ():
        v = cell.cell_contents
        for item in v if isinstance(v, (tuple, list)) else (v,):
            if isinstance(item, Tensor):
                found.append(item.data)
            elif isinstance(item, np.ndarray):
                found.append(item)
    return found


class _CheckedNodes(list):
    """A tape's node list that copies each node's arrays when the node is
    recorded and makes its backward rule check that it leaves its incoming
    gradient unchanged. Inside `handing()` it also copies every array a
    backward rule passes to accumulate_grad."""

    def __init__(self):
        super().__init__()
        self.kept = []
        self.handed = []

    def append(self, node):
        super().append(node)
        self.kept += [(arr, arr.copy()) for arr in _closed_over_arrays(node)]
        rule = node._backward

        def checked(g):
            before = np.array(g, copy=True)
            rule(g)
            assert np.asarray(g).tobytes() == before.tobytes(), "gradient written in place"
        node._backward = checked

    @contextlib.contextmanager
    def handing(self):
        real = Tensor.accumulate_grad

        def accumulate(t, g):
            self.handed.append((g, np.array(g, copy=True)))
            real(t, g)
        Tensor.accumulate_grad = accumulate
        try:
            yield
        finally:
            Tensor.accumulate_grad = real


class TestSavedForBackward:
    """Under a tape, layer_norm, gelu and a loop-of-one attend keep no array beyond
    their output (and attend's probabilities) that is anywhere near the size
    of an input: backward rebuilds x̂, the tanh and the scaled queries."""

    @staticmethod
    def kept(op, *arrays):
        """Bytes the recorded call still holds once it returns, beyond its output."""
        xs = [Tensor(a, requires_grad=True) for a in arrays]
        tracemalloc.start()
        try:
            with T.Tape():
                before = tracemalloc.get_traced_memory()[0]
                out = op(*xs)
                held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert out.requires_grad
        return held - out.data.nbytes

    def test_layer_norm(self):
        rng = np.random.default_rng(1)
        x, (gain, bias) = rng.standard_normal((64, 256)), rng.standard_normal((2, 256))
        assert self.kept(T.layer_norm, x, gain, bias) < x.nbytes / 4

    def test_gelu(self):
        x = np.random.default_rng(2).standard_normal((64, 256))
        assert self.kept(T.gelu, x) < x.nbytes / 4

    def test_attend_one_tile(self):
        q, k, v = np.random.default_rng(3).standard_normal((3, 2, 128, 64))
        p_bytes = 2 * 128 * 128 * 8          # one tile's probabilities, which attend keeps
        assert self.kept(T.attend, q, k, v) - p_bytes < q.nbytes / 4


class TestInPlaceKernels:
    """The kernels that compute in place write only into buffers they allocated:
    every input, every array saved for backward, every incoming gradient and
    every gradient a rule hands to a parent is bitwise the same after the
    forward pass of all later ops and the backward pass."""

    @staticmethod
    def check(build, *arrays):
        xs = [Tensor(np.array(a, dtype=np.float64), requires_grad=True) for a in arrays]
        inputs = [x.data.copy() for x in xs]
        with T.Tape() as tape:
            tape.nodes = nodes = _CheckedNodes()
            loss = build(*xs)
            with nodes.handing():
                T.backward(loss)
        assert all(x.grad is not None for x in xs)
        for x, before in zip(xs, inputs):
            assert x.data.tobytes() == before.tobytes(), "input written in place"
        for arr, before in nodes.kept:
            assert arr.tobytes() == before.tobytes(), "saved array written in place"
        assert nodes.handed
        for arr, before in nodes.handed:
            assert np.asarray(arr).tobytes() == before.tobytes(), "handed gradient written in place"

    @staticmethod
    def weighted(out, seed=0):
        """A scalar loss with a distinct upstream gradient per entry."""
        return T.tsum(T.mul(out, np.random.default_rng(seed).standard_normal(out.shape)))

    def test_gelu(self):
        rng = np.random.default_rng(1)
        self.check(lambda x: self.weighted(T.gelu(x)), 3 * rng.standard_normal((5, 7)))
        self.check(lambda x: T.gelu(x), 0.7)

    def test_layer_norm(self):
        rng = np.random.default_rng(2)
        self.check(lambda x, g, b: self.weighted(T.layer_norm(x, g, b)),
                   rng.standard_normal((3, 4, 6)), rng.standard_normal(6),
                   rng.standard_normal(6))

    def test_attend_full(self):
        from longattn import attention as A
        rng = np.random.default_rng(4)
        mask = rng.random((1, 6, 6)) < 0.7
        mask[0, 2] = False                   # a row with no allowed key
        self.check(lambda q, k, v, bias: self.weighted(A.full_attention(q, k, v, mask, bias)),
                   *rng.standard_normal((3, 2, 6, 4)), rng.standard_normal((2, 6, 6)))

    def test_attend_block_local(self):
        from longattn import attention as A
        rng = np.random.default_rng(5)
        layout = A.make_block_layout(10, 4, 1, staggered=True)
        self.check(lambda q, k, v, bias: self.weighted(
                       A.block_local_attention(q, k, v, layout, bias)),
                   *rng.standard_normal((3, 2, 10, 4)), rng.standard_normal((2, 4, 4)))

    @pytest.mark.parametrize("nb", [1, 3])
    def test_attend_blocks(self, nb):
        # with one block the bias gradient is the score gradient itself
        rng = np.random.default_rng(7)
        self.check(lambda q, k, v, bias: self.weighted(T.attend(q, k, v, bias=bias)),
                   *rng.standard_normal((3, 2, nb, 4, 4)), rng.standard_normal((2, 1, 4, 4)))

    def test_attend_global_local(self):
        from longattn import attention as A
        rng = np.random.default_rng(6)
        layout = A.make_block_layout(10, 4, 1, staggered=True)

        def build(q, k, v, gq, gk, gv, bias):
            tok, glob = A.global_local_attention(q, k, v, gq, gk, gv, layout, bias)
            return T.add(self.weighted(tok), self.weighted(glob, seed=1))
        self.check(build, *rng.standard_normal((3, 2, 10, 4)),
                   *rng.standard_normal((3, 2, 3, 4)), rng.standard_normal((2, 4, 4)))


class TestInPlaceKernelsTiled(TestInPlaceKernels):
    """The same checks with every attention call's scores walked in tiles."""

    @pytest.fixture(autouse=True)
    def small_tiles(self, monkeypatch):
        monkeypatch.setattr(T, "ATTEND_TILE", 16)


class TestFiniteDiff:
    def test_sum(self):
        x = Tensor(np.random.default_rng(0).standard_normal(5))
        g = T.finite_diff_grad(lambda t: T.tsum(t), x)
        assert np.abs(g - 1).max() < 1e-9

    def test_square(self):
        g = T.finite_diff_grad(lambda t: T.mul(t, t), Tensor(3.0))
        assert abs(float(g) - 6.0) < 1e-7

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_composite_ops_match_fd(self, seed):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((4, 3))
        v = rng.standard_normal((2, 3))
        x = Tensor(rng.standard_normal((2, 4)), requires_grad=True)

        def build(t):
            h = T.gelu(T.matmul(t, Tensor(w)))
            return T.tsum(T.mul(T.attend(h, Tensor(v), Tensor(v)), h))

        with T.Tape():
            loss = build(x)
            T.backward(loss)
        fd = T.finite_diff_grad(build, x)
        assert T.rel_err(x.grad, fd) < 1e-4


def test_determinism_same_seed():
    def run():
        rng = np.random.default_rng(42)
        x = Tensor(rng.standard_normal((4, 4)))
        y = T.attend(x, x, x)
        return T.dropout(y, 0.3, True, np.random.default_rng(7)).data
    assert np.array_equal(run(), run())

import gc
import itertools
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from longattn import attention as A
from longattn import model as M
from longattn import posenc as P
from longattn import tensor as T
from longattn import train as TR
from longattn.attention import AttentionSpec, Variant
from longattn.model import ModelConfig, make_config
from longattn.posenc import Scheme
from longattn.tensor import Tensor

TINY = dict(vocab_size=16, d_model=16, num_heads=2, d_ff=32,
            max_input_len=64, max_output_len=16, dropout_p=0.0)


def tiny_config(variant=Variant.FULL, **kw):
    merged = {**TINY, "enc_layers": 2, "dec_layers": 2, **kw}
    return make_config(variant, **merged)


class TestConfig:
    def test_cross_layers_default_all(self):
        cfg = tiny_config(dec_layers=3)
        assert cfg.cross_layers() == (0, 1, 2)

    def test_cross_layer_out_of_range(self):
        with pytest.raises(ValueError):
            tiny_config(dec_layers=2, cross_attn_layers=(2,))

    def test_decoder_global_needs_global_local(self):
        with pytest.raises(ValueError):
            tiny_config(Variant.BLOCK_LOCAL, block_size=8, decoder_global_attn=True)

    def test_inconsistent_heads_rejected(self):
        spec = AttentionSpec(num_heads=4, head_dim=16)
        with pytest.raises(ValueError):
            ModelConfig(d_model=32, num_heads=2, attention=spec)

    def test_dict_roundtrip(self):
        cfg = tiny_config(Variant.GLOBAL_LOCAL, block_size=8, num_global=2,
                          scheme=Scheme.T5_RELATIVE, cross_attn_layers=(0,),
                          decoder_global_attn=True)
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg

    def test_hash_distinguishes_stagger(self):
        a = tiny_config(Variant.BLOCK_LOCAL, block_size=8, staggered=True)
        b = tiny_config(Variant.BLOCK_LOCAL, block_size=8, staggered=False)
        assert a.hash() != b.hash()


class TestCheckJson:
    """model.check_json, the one type check for config documents."""
    WANT = {"n": 1, "x": 0.5, "s": "", "flag": False, "ids": [0], "sub": {"k": 1}}

    @pytest.mark.parametrize("edit", [{"x": 2}, {"ids": []}])
    def test_accepts(self, edit):
        M.check_json(self.WANT, {**self.WANT, **edit}, "doc")

    @pytest.mark.parametrize("edit, message", [
        ({"n": True}, "doc key 'n' must be int, got true"),       # an int takes no bool
        ({"n": 1.0}, "doc key 'n' must be int, got 1.0"),
        ({"s": None}, "doc key 's' must be str, got null"),     # no template takes null
        ({"flag": 0}, "doc key 'flag' must be bool, got 0"),
        ({"ids": [1, "a"]}, "doc key 'ids' must be int, got \"a\""),
        ({"sub": {"k": 1, "j": 2}}, "doc has unknown key 'sub.j'"),
        ({"sub": {}}, "doc lacks key 'sub.k'"),
        ({"sub": 3}, "doc key 'sub' must be dict, got 3"),
    ])
    def test_rejects_naming_the_dotted_key(self, edit, message):
        with pytest.raises(M.ConfigError) as err:
            M.check_json(self.WANT, {**self.WANT, **edit}, "doc")
        assert str(err.value) == message

    def test_root_must_be_object(self):
        with pytest.raises(M.ConfigError, match="^doc must be dict, got \\[\\]$"):
            M.check_json(self.WANT, [], "doc")


class TestParamInventory:
    def test_global_local_delta_formula(self):
        base = tiny_config(Variant.BLOCK_LOCAL, block_size=8, enc_layers=3)
        glob = tiny_config(Variant.GLOBAL_LOCAL, block_size=8, num_global=4, enc_layers=3)
        d = base.d_model
        assert M.count_params(glob) - M.count_params(base) == 4 * d + 3 * 2 * d

    def test_cross_layer_removal_delta(self):
        full = tiny_config(dec_layers=4)
        partial = tiny_config(dec_layers=4, cross_attn_layers=(0, 2))
        d = full.d_model
        per_layer = 4 * d * d + 2 * d   # q,k,v,o projections + cross LayerNorm
        assert M.count_params(full) - M.count_params(partial) == 2 * per_layer

    def test_hand_counted_toy_config(self):
        cfg = make_config(Variant.FULL, vocab_size=8, d_model=4, num_heads=1,
                          d_ff=6, enc_layers=1, dec_layers=1,
                          scheme=Scheme.NONE, max_input_len=16, max_output_len=8)
        d, dff, V = 4, 6, 8
        enc = 2 * d + 4 * d * d + 2 * d + d * dff + dff * d
        dec = 2 * d + 4 * d * d + 2 * d + 4 * d * d + 2 * d + d * dff + dff * d
        want = V * d + enc + 2 * d + dec + 2 * d   # embeddings + final LNs, tied output
        assert M.count_params(cfg) == want

    def test_no_cross_params_outside_subset(self):
        cfg = tiny_config(dec_layers=3, cross_attn_layers=(1,))
        names = M.param_shapes(cfg)
        assert not any(n.startswith("dec.0.cross") or n.startswith("dec.2.cross")
                       for n in names)
        assert any(n.startswith("dec.1.cross") for n in names)

    # init_params draws in this order, so it fixes every initial value; the
    # two configs between them have every optional parameter group
    INVENTORIES = [
        (dict(variant=Variant.GLOBAL_LOCAL, block_size=4, num_global=2,
              scheme=Scheme.T5_RELATIVE, enc_layers=1, decoder_global_attn=True,
              cross_attn_layers=(1,)),
         ["embed.tok", "embed.global", "posenc.bias_enc", "posenc.bias_dec",
          "enc.0.ln1.gain", "enc.0.ln1.bias", "enc.0.ln1g.gain", "enc.0.ln1g.bias",
          "enc.0.attn.wq", "enc.0.attn.wk", "enc.0.attn.wv", "enc.0.attn.wo",
          "enc.0.ln2.gain", "enc.0.ln2.bias", "enc.0.ffn.w1", "enc.0.ffn.w2",
          "enc.final_ln.gain", "enc.final_ln.bias",
          "dec.0.ln1.gain", "dec.0.ln1.bias",
          "dec.0.self.wq", "dec.0.self.wk", "dec.0.self.wv", "dec.0.self.wo",
          "dec.0.ln2.gain", "dec.0.ln2.bias", "dec.0.ffn.w1", "dec.0.ffn.w2",
          "dec.1.ln1.gain", "dec.1.ln1.bias",
          "dec.1.self.wq", "dec.1.self.wk", "dec.1.self.wv", "dec.1.self.wo",
          "dec.1.gx.ln.gain", "dec.1.gx.ln.bias",
          "dec.1.gx.wq", "dec.1.gx.wk", "dec.1.gx.wv", "dec.1.gx.wo",
          "dec.1.cross.ln.gain", "dec.1.cross.ln.bias",
          "dec.1.cross.wq", "dec.1.cross.wk", "dec.1.cross.wv", "dec.1.cross.wo",
          "dec.1.ln2.gain", "dec.1.ln2.bias", "dec.1.ffn.w1", "dec.1.ffn.w2",
          "dec.final_ln.gain", "dec.final_ln.bias"]),
        (dict(scheme=Scheme.LEARNED_ABSOLUTE, enc_layers=1, dec_layers=1,
              tie_embeddings=False),
         ["embed.tok", "embed.pos_enc", "embed.pos_dec",
          "enc.0.ln1.gain", "enc.0.ln1.bias",
          "enc.0.attn.wq", "enc.0.attn.wk", "enc.0.attn.wv", "enc.0.attn.wo",
          "enc.0.ln2.gain", "enc.0.ln2.bias", "enc.0.ffn.w1", "enc.0.ffn.w2",
          "enc.final_ln.gain", "enc.final_ln.bias",
          "dec.0.ln1.gain", "dec.0.ln1.bias",
          "dec.0.self.wq", "dec.0.self.wk", "dec.0.self.wv", "dec.0.self.wo",
          "dec.0.cross.ln.gain", "dec.0.cross.ln.bias",
          "dec.0.cross.wq", "dec.0.cross.wk", "dec.0.cross.wv", "dec.0.cross.wo",
          "dec.0.ln2.gain", "dec.0.ln2.bias", "dec.0.ffn.w1", "dec.0.ffn.w2",
          "dec.final_ln.gain", "dec.final_ln.bias", "out_proj"]),
    ]

    @pytest.mark.parametrize("kw, names", INVENTORIES)
    def test_names_and_order_pinned(self, kw, names):
        assert list(M.param_shapes(tiny_config(**kw))) == names

    def test_init_layer_norms(self):
        cfg = tiny_config()
        params = M.init_params(cfg, 0)
        assert np.array_equal(params["enc.0.ln1.gain"].data, np.ones(16))
        assert np.array_equal(params["enc.0.ln1.bias"].data, np.zeros(16))

    def test_trunc_normal_bounded(self):
        cfg = tiny_config()
        params = M.init_params(cfg, 0)
        w = params["enc.0.attn.wq"].data
        std = w.shape[0] ** -0.5  # fan-in scaling
        assert np.abs(w).max() <= 2.0 * std + 1e-12
        assert 0.5 * std < w.std() < 1.5 * std


class TestEncoder:
    def test_zeroed_branches_reduce_to_normalized_embeddings(self):
        cfg = tiny_config(enc_layers=1, scheme=Scheme.NONE)
        params = M.init_params(cfg, 0)
        params["enc.0.attn.wo"] = Tensor(np.zeros((16, 16)), requires_grad=True)
        params["enc.0.ffn.w2"] = Tensor(np.zeros((32, 16)), requires_grad=True)
        ids = [5, 9, 2, 14]
        out, _ = M.encoder_forward(cfg, params, ids)
        emb = T.mul(T.embedding_lookup(params["embed.tok"], ids), cfg.d_model ** 0.5)
        ref = T.layer_norm(emb, params["enc.final_ln.gain"], params["enc.final_ln.bias"])
        assert np.abs(out.data - ref.data).max() < 1e-12

    def test_global_local_matches_composed_oracle(self):
        # one layer, b >= L: token stream must equal full attention over
        # tokens + globals, rebuilt here from the same parameters
        cfg = tiny_config(Variant.GLOBAL_LOCAL, block_size=64, num_global=2,
                          enc_layers=1, scheme=Scheme.NONE)
        params = M.init_params(cfg, 1)
        ids = [6, 3, 11, 7, 2]
        out, out_g = M.encoder_forward(cfg, params, ids)

        h = cfg.num_heads
        x = T.mul(T.embedding_lookup(params["embed.tok"], ids), cfg.d_model ** 0.5)
        glob = T.mul(params["embed.global"], cfg.d_model ** 0.5)
        hx = T.layer_norm(x, params["enc.0.ln1.gain"], params["enc.0.ln1.bias"])
        hg = T.layer_norm(glob, params["enc.0.ln1g.gain"], params["enc.0.ln1g.bias"])
        both = T.concat([hx, hg], axis=0)

        def heads(t, w):
            L, d = t.shape
            return T.transpose(T.reshape(T.matmul(t, w), (L, h, d // h)), (1, 0, 2))
        q = heads(both, params["enc.0.attn.wq"])
        k = heads(both, params["enc.0.attn.wk"])
        v = heads(both, params["enc.0.attn.wv"])
        attn = A.full_attention(q, k, v)
        merged = T.reshape(T.transpose(attn, (1, 0, 2)), (7, 16))
        proj = T.matmul(merged, params["enc.0.attn.wo"])
        xs = T.add(T.concat([x, glob], axis=0), proj)
        h2 = T.layer_norm(xs, params["enc.0.ln2.gain"], params["enc.0.ln2.bias"])
        ffn = T.matmul(T.gelu(T.matmul(h2, params["enc.0.ffn.w1"])), params["enc.0.ffn.w2"])
        xs = T.add(xs, ffn)
        ref = T.layer_norm(xs, params["enc.final_ln.gain"], params["enc.final_ln.bias"])
        assert np.abs(out.data - ref.data[:5]).max() < 1e-10
        assert np.abs(out_g.data - ref.data[5:]).max() < 1e-10

    def test_deterministic_same_dropout_seed(self):
        cfg = tiny_config(dropout_p=0.2)
        params = M.init_params(cfg, 0)
        a, _ = M.encoder_forward(cfg, params, [4, 5, 6], training=True,
                                 rng=np.random.default_rng(3))
        b, _ = M.encoder_forward(cfg, params, [4, 5, 6], training=True,
                                 rng=np.random.default_rng(3))
        assert np.array_equal(a.data, b.data)

    def test_overlong_input_rejected(self):
        cfg = tiny_config()
        params = M.init_params(cfg, 0)
        with pytest.raises(ValueError):
            M.encoder_forward(cfg, params, [1] * (cfg.max_input_len + 1))

    def test_full_vs_blocklocal_big_block_end_to_end(self):
        full = tiny_config(Variant.FULL)
        local = tiny_config(Variant.BLOCK_LOCAL, block_size=64)
        params = M.init_params(full, 0)     # identical inventories
        ids = list(range(6, 16))
        tgt = [7, 8, M.EOS_ID]
        ef, _ = M.encoder_forward(full, params, ids)
        el, _ = M.encoder_forward(local, params, ids)
        assert np.abs(ef.data - el.data).max() < 1e-8
        lf = M.decoder_forward(full, params, tgt, ef)
        ll = M.decoder_forward(local, params, tgt, el)
        assert np.abs(lf.data - ll.data).max() < 1e-8


class TestDecoder:
    def test_causality_future_perturbation(self):
        cfg = tiny_config()
        params = M.init_params(cfg, 0)
        enc, _ = M.encoder_forward(cfg, params, [6, 7, 8])
        a = M.decoder_forward(cfg, params, [3, 9, 10, 11], enc).data
        b = M.decoder_forward(cfg, params, [3, 9, 12, 13], enc).data
        assert np.array_equal(a[:2], b[:2])
        assert not np.array_equal(a[2:], b[2:])

    def test_partial_cross_params_absent_and_forward_runs(self):
        cfg = tiny_config(dec_layers=3, cross_attn_layers=(0,))
        params = M.init_params(cfg, 0)
        assert "dec.1.cross.wq" not in params and "dec.2.cross.wq" not in params
        enc, _ = M.encoder_forward(cfg, params, [6, 7, 8])
        logits = M.decoder_forward(cfg, params, [3, 9], enc)
        assert logits.shape == (2, cfg.vocab_size)

    def test_tied_embeddings_projection(self):
        cfg = tiny_config(enc_layers=1, dec_layers=1)
        params = M.init_params(cfg, 0)
        enc, _ = M.encoder_forward(cfg, params, [6])
        logits = M.decoder_forward(cfg, params, [3], enc)
        assert logits.shape == (1, cfg.vocab_size)
        assert "out_proj" not in params

    def test_untied_projection_used(self):
        cfg = tiny_config(tie_embeddings=False)
        params = M.init_params(cfg, 0)
        assert "out_proj" in params

    def test_decoder_global_requires_states(self):
        cfg = tiny_config(Variant.GLOBAL_LOCAL, block_size=64, num_global=2,
                          decoder_global_attn=True)
        params = M.init_params(cfg, 0)
        enc, glob = M.encoder_forward(cfg, params, [6, 7])
        M.decoder_forward(cfg, params, [3], enc, glob)   # ok
        with pytest.raises(ValueError):
            M.decoder_forward(cfg, params, [3], enc, None)

    def test_decoder_global_flag_off_is_identity_to_unflagged_build(self):
        base = tiny_config(Variant.GLOBAL_LOCAL, block_size=64, num_global=2)
        flagged = tiny_config(Variant.GLOBAL_LOCAL, block_size=64, num_global=2,
                              decoder_global_attn=True)
        pb = M.init_params(base, 0)
        pf = M.init_params(flagged, 0)
        # the flagged model has extra gx.* params; shared names drawn from the
        # same seed stream can differ in order, so copy the base values over
        for name in pb:
            pf[name] = pb[name]
        enc, glob = M.encoder_forward(base, pb, [6, 7, 8])
        a = M.decoder_forward(base, pb, [3, 9], enc, glob)
        # zero the gx output projection: flagged model must reduce to base
        for i in range(flagged.dec_layers):
            name = f"dec.{i}.gx.wo"
            if name in pf:
                pf[name] = Tensor(np.zeros_like(pf[name].data), requires_grad=True)
        b = M.decoder_forward(flagged, pf, [3, 9], enc, glob)
        assert np.abs(a.data - b.data).max() < 1e-12


class TestLoss:
    def test_all_pad_target_zero_loss(self):
        cfg = tiny_config()
        params = M.init_params(cfg, 0)
        loss = M.seq2seq_loss(cfg, params, [6, 7], [M.PAD_ID, M.PAD_ID])
        assert loss.item() == 0.0

    def test_initial_loss_order_log_vocab(self):
        # Fan-in init gives O(1) logits at step 0, so the loss is within a
        # small factor of the uniform-prediction value log(V), averaged over
        # seeds, rather than exactly equal to it.
        cfg = tiny_config(vocab_size=4)
        losses = [M.seq2seq_loss(cfg, M.init_params(cfg, s), [3, 2], [2, 2]).item()
                  for s in range(8)]
        mean = sum(losses) / len(losses)
        assert 0.3 * math.log(4) < mean < 3.0 * math.log(4)

    def test_copy_task_loss_decreases(self):
        cfg = make_config(Variant.FULL, vocab_size=16, d_model=16, num_heads=2,
                          d_ff=32, enc_layers=1, dec_layers=1, dropout_p=0.0,
                          max_input_len=16, max_output_len=16)
        params = M.init_params(cfg, 0)
        from longattn import data as D
        docs = D.gen_corpus("copy", 200, (6, 6), 16, seed=0)
        pairs = TR.docs_to_pairs(docs)
        losses = []
        TR.train(cfg, params, pairs, steps=500, batch_size=2, seed=0,
                 lr=3e-3, warmup=50, loss_log=losses)
        vals = [l for _, l in losses]
        win = [float(np.mean(vals[i:i + 20])) for i in range(0, 500, 20)]
        assert all(b <= a + 0.05 for a, b in zip(win, win[1:]))
        assert win[-1] < win[0] - 0.5

    def test_non_finite_gradient_raises_before_adam(self):
        # GELU's backward rule gives NaN beyond |x| = 1.3e154
        cfg = tiny_config()
        params = M.init_params(cfg, 0)
        w1 = params["enc.0.ffn.w1"].data
        w1[:] = 1e155 * np.sign(np.random.default_rng(0).standard_normal(w1.shape))
        before = {k: p.data.copy() for k, p in params.items()}
        opt = TR.Adam(params)
        with np.errstate(all="ignore"), \
                pytest.raises(FloatingPointError, match="gradient of parameter 'embed.tok'"):
            TR.train_step(cfg, params, [([5, 6, 7, 8, 9], [10, 11, 2])], opt,
                          np.random.default_rng(0), lr=1e-3)
        assert opt.t == 0
        assert all(np.array_equal(p.data, before[k]) for k, p in params.items())

    def test_empty_batch_rejected_before_adam(self):
        cfg = tiny_config()
        params = M.init_params(cfg, 0)
        opt = TR.Adam(params)
        with pytest.raises(ValueError, match="non-empty batch"):
            TR.train_step(cfg, params, [], opt, np.random.default_rng(0), lr=1e-3)
        assert opt.t == 0


class TestStepMemory:
    """A step's memory is its own: backward frees the graph it consumed, so
    with the cyclic collector off, steps do not pile up their activations."""

    CFG = dict(block_size=4, num_global=2, staggered=True, enc_layers=2, dec_layers=1)
    BATCH = [(list(range(4, 16)) * 2, [5, 9, 11, M.EOS_ID])] * 2

    def test_backward_frees_the_graph(self):
        cfg = tiny_config(Variant.GLOBAL_LOCAL, **self.CFG)
        params = M.init_params(cfg, 0)
        with T.Tape() as tape:
            loss = M.seq2seq_loss(cfg, params, *self.BATCH[0])
            assert len(tape.nodes) > 100 and loss._parents
            nodes = list(tape.nodes)
            T.backward(loss)
            assert tape.nodes == [] and loss._parents == () and loss._backward is None
            with pytest.raises(T.TapeError, match="consumed"):
                T.backward(loss)
        # every node was released as its rule ran; only the leaves keep a gradient
        assert loss.grad is not None
        assert all(n.grad is None and n._backward is None for n in nodes if n is not loss)
        assert all(p.grad is not None for p in params.values())

    def test_full_attention_step_peak(self):
        # one encoder layer's [2, 600, 600] scores span two attention tiles, and
        # backward frees each node once its rule has run; the parent commit, which
        # kept every layer's probabilities and freed the graph only when the pass
        # ended, peaked at 22.5 MiB here, and this one at 11.0 MiB
        L = 600
        cfg = tiny_config(Variant.FULL, max_input_len=L + 1, enc_layers=2, dec_layers=1)
        params = M.init_params(cfg, 0)
        opt = TR.Adam(params)
        batch = [(list(np.random.default_rng(0).integers(4, 16, L)), [5, 9, 11, M.EOS_ID])]
        TR.train_step(cfg, params, batch, opt, np.random.default_rng(0), lr=1e-3)
        tracemalloc.start()
        try:
            TR.train_step(cfg, params, batch, opt, np.random.default_rng(0), lr=1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20, peak
        assert cfg.attention.num_heads * L * L > T.ATTEND_TILE

    def test_steps_do_not_accumulate(self):
        cfg = tiny_config(Variant.GLOBAL_LOCAL, **self.CFG)
        params = M.init_params(cfg, 0)
        opt = TR.Adam(params)
        rng = np.random.default_rng(0)
        sizes = []
        was_enabled = gc.isenabled()
        gc.disable()
        tracemalloc.start()
        try:
            for _ in range(5):
                TR.train_step(cfg, params, self.BATCH, opt, rng, lr=1e-3)
                sizes.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
            if was_enabled:
                gc.enable()
        assert sizes[4] - sizes[0] < 64 * 1024, sizes


UNPADDED = {"full": dict(variant=Variant.FULL),
            "block_local": dict(variant=Variant.BLOCK_LOCAL, block_size=4)}


class TestUnpaddedLayout:
    """Full attention is one block of L, and blocks of 4 tile L = 8: neither
    layout has padding, so the encoder records no pad or narrow node, and the
    loss equals the one through dense full_attention (full) or through
    contiguous copies of q, k and v (block-local)."""

    @pytest.mark.parametrize("name", list(UNPADDED))
    def test_no_pad_or_narrow_node_and_same_loss(self, name, monkeypatch):
        cfg = tiny_config(**UNPADDED[name])
        params = M.init_params(cfg, 0)
        ids, target = list(range(3, 11)), [4, 5, 6, 2]
        ops, record = [], T._record

        def spy(out, parents, backward, op):
            ops.append(op)
            return record(out, parents, backward, op)

        with monkeypatch.context() as m:
            m.setattr(T, "_record", spy)
            with T.Tape():
                loss = M.seq2seq_loss(cfg, params, ids, target).item()
        assert "matmul" in ops and not {"pad", "narrow"} & set(ops)

        if name == "full":
            kernel = lambda q, k, v, layout, bias=None: A.full_attention(q, k, v, bias=bias)
        else:
            copy = lambda x: T.mul(x, 1.0)
            kernel = lambda q, k, v, layout, bias=None: A.block_local_attention(
                copy(q), copy(k), copy(v), layout, bias)
        monkeypatch.setattr(M, "A", SimpleNamespace(**{**vars(A), "block_local_attention": kernel}))
        assert M.seq2seq_loss(cfg, params, ids, target).item() == loss


def dense_encoder_attention(cfg, params):
    """Reference for every encoder attention variant, to stand in for the
    `attention` module inside `model`: full_attention over the concatenated
    [L + g] token and global stream. Token pairs are allowed where
    BlockLayout.pair_mask() says so (everywhere for full attention); globals
    see and are seen by every position. The bias is the dense T5 bias on token
    pairs and zero wherever a global takes part."""
    full = A.full_attention

    def attend(tq, tk, tv, layout, gq=None, gk=None, gv=None):
        L = tq.shape[1]
        g = 0 if gq is None else gq.shape[1]
        allow = np.ones((1, L + g, L + g), dtype=bool)
        allow[0, :L, :L] = layout.pair_mask()
        bias = None
        if cfg.posenc == Scheme.T5_RELATIVE:
            bias = P.t5_relative_bias(L, L, P.T5_BUCKETS, P.T5_MAX_DISTANCE,
                                      params["posenc.bias_enc"], bidirectional=True)
            bias = T.pad_axis(T.pad_axis(bias, 1, 0, g), 2, 0, g)
        if g == 0:
            return full(tq, tk, tv, mask=allow, bias=bias)
        q, k, v = (T.concat([t, gt], axis=1) for t, gt in ((tq, gq), (tk, gk), (tv, gv)))
        out = full(q, k, v, mask=allow, bias=bias)
        return T.narrow(out, 1, 0, L), T.narrow(out, 1, L, g)

    return SimpleNamespace(**{
        **vars(A),
        "block_local_attention":
            lambda q, k, v, layout, bias=None: attend(q, k, v, layout),
        "global_local_attention":
            lambda tq, tk, tv, gq, gk, gv, layout, bias=None:
                attend(tq, tk, tv, layout, gq, gk, gv),
    })


ENCODER_VARIANTS = {
    "full": dict(variant=Variant.FULL),
    "block_local": dict(variant=Variant.BLOCK_LOCAL, block_size=4),
    "staggered": dict(variant=Variant.BLOCK_LOCAL, block_size=4, staggered=True),
    "global_local": dict(variant=Variant.GLOBAL_LOCAL, block_size=4, num_global=2),
    "staggered_global_local": dict(variant=Variant.GLOBAL_LOCAL, block_size=4,
                                   num_global=3, staggered=True),
}


class TestDenseEncoderOracle:
    """Every encoder variant equals the dense reference, forward and in every
    parameter gradient, under every position scheme."""

    @staticmethod
    def setup(vkw, scheme, L):
        vkw = dict(vkw)
        cfg = make_config(vkw.pop("variant"), scheme=scheme, vocab_size=16, d_model=8,
                          num_heads=2, d_ff=16, enc_layers=2, dec_layers=1,
                          max_input_len=16, max_output_len=8, dropout_p=0.0, **vkw)
        params = M.init_params(cfg, 0)
        rng = np.random.default_rng(L)
        for name in ("posenc.bias_enc", "posenc.bias_dec"):   # zero at init
            if name in params:
                params[name].data[:] = rng.standard_normal(params[name].shape)
        inp = rng.integers(4, 16, size=L).tolist()
        tgt = rng.integers(4, 16, size=3).tolist() + [M.EOS_ID]
        return cfg, params, inp, tgt

    @staticmethod
    def run(cfg, params, inp, tgt):
        for p in params.values():
            p.grad = None
        with T.Tape():
            loss = M.seq2seq_loss(cfg, params, inp, tgt)
            T.backward(loss)
        tok, glob = M.encoder_forward(cfg, params, inp)
        states = tok.data if glob is None else np.concatenate([tok.data, glob.data])
        return loss.item(), states, {n: p.grad for n, p in params.items()}

    @pytest.mark.parametrize("L", [8, 12, 16])
    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("variant", list(ENCODER_VARIANTS))
    def test_matches_dense_reference(self, variant, scheme, L, monkeypatch):
        cfg, params, inp, tgt = self.setup(ENCODER_VARIANTS[variant], scheme, L)
        loss, states, grads = self.run(cfg, params, inp, tgt)
        monkeypatch.setattr(M, "A", dense_encoder_attention(cfg, params))
        ref_loss, ref_states, ref_grads = self.run(cfg, params, inp, tgt)
        assert abs(loss - ref_loss) < 1e-12
        assert np.abs(states - ref_states).max() < 1e-12
        for name, g in grads.items():
            assert np.abs(g - ref_grads[name]).max() < 1e-12, name

    @pytest.mark.parametrize("variant", ["block_local", "global_local"])
    def test_t5_local_encoder_loss(self, variant, monkeypatch):
        # L=12, b=4: three blocks against two heads. The per-block bias was
        # once added without a block axis, which raised a ShapeError here.
        cfg, params, inp, tgt = self.setup(ENCODER_VARIANTS[variant],
                                           Scheme.T5_RELATIVE, 12)
        assert cfg.num_heads == 2
        loss = M.seq2seq_loss(cfg, params, inp, tgt).item()
        monkeypatch.setattr(M, "A", dense_encoder_attention(cfg, params))
        assert abs(loss - M.seq2seq_loss(cfg, params, inp, tgt).item()) < 1e-12


def non_repeating(cfg, params):
    """Damped decoder branches and an output projection that sends each
    token's embedding to the id 5 on: untrained, greedy would repeat one token."""
    for k in params:
        if k.startswith("dec.") and k.endswith(("wo", "w2")):
            params[k] = Tensor(0.6 * params[k].data)
    params["out_proj"] = Tensor(np.roll(params["embed.tok"].data.T, 5, axis=1))
    return params


class TestDecoding:
    def test_greedy_max_len_one(self):
        cfg = tiny_config()
        params = M.init_params(cfg, 0)
        out = M.greedy_decode(cfg, params, [6, 7], max_len=1)
        assert len(out) == 1

    def test_greedy_stops_at_eos(self):
        cfg = tiny_config()
        params = M.init_params(cfg, 0)
        first = M.greedy_decode(cfg, params, [6, 7], max_len=1)[0]
        out = M.greedy_decode(cfg, params, [6, 7], max_len=8, eos_id=first)
        assert out == [first]

    def test_beam_one_equals_greedy(self):
        cfg = tiny_config()
        params = M.init_params(cfg, 7)
        for seed in range(3):
            ids = list(np.random.default_rng(seed).integers(4, 16, size=6))
            g = M.greedy_decode(cfg, params, ids, max_len=6)
            b = M.beam_decode(cfg, params, ids, beam_size=1, alpha=0.0, max_len=6)
            assert g == b
        # a length penalty and an emitted eos: still one candidate per step
        cfg = tiny_config(tie_embeddings=False)
        params = non_repeating(cfg, M.init_params(cfg, 0))
        ids = np.random.default_rng(0).integers(4, 16, size=12).tolist()
        full = M.greedy_decode(cfg, params, ids, max_len=8, eos_id=-1)
        eos = max(full, key=full.index)
        g = M.greedy_decode(cfg, params, ids, max_len=8, eos_id=eos)
        b = M.beam_decode(cfg, params, ids, beam_size=1, alpha=0.6, max_len=8, eos_id=eos)
        assert g == b and g[-1] == eos and len(g) >= 4

    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("encoder", [
        dict(),
        dict(variant=Variant.GLOBAL_LOCAL, block_size=4, num_global=2, staggered=True),
        dict(variant=Variant.GLOBAL_LOCAL, block_size=4, num_global=2, staggered=True,
             decoder_global_attn=True, cross_attn_layers=(1,)),
    ])
    def test_greedy_is_teacher_forced_argmax(self, scheme, encoder):
        cfg = tiny_config(scheme=scheme, tie_embeddings=False, **encoder)
        params = non_repeating(cfg, M.init_params(cfg, 0))
        if scheme == Scheme.T5_RELATIVE:     # nonzero bias rows
            rng = np.random.default_rng(2)
            for k in ("posenc.bias_enc", "posenc.bias_dec"):
                params[k] = Tensor(rng.standard_normal(params[k].shape))
        ids = np.random.default_rng(0).integers(4, 16, size=12).tolist()
        full = M.greedy_decode(cfg, params, ids, max_len=8, eos_id=-1)
        eos = max(full, key=full.index)      # the emitted id that first shows up last
        out = M.greedy_decode(cfg, params, ids, max_len=8, eos_id=eos)
        assert out == full[:full.index(eos) + 1] and len(out) >= 4
        enc_tok, enc_glob = M.encoder_forward(cfg, params, ids)
        logits = M.decoder_forward(cfg, params, [M.BOS_ID] + out[:-1], enc_tok, enc_glob).data
        picked = logits[np.arange(len(out)), out]
        assert np.all(picked >= logits.max(axis=-1) - 1e-9)

    def test_beam_size_zero_rejected(self):
        cfg = tiny_config()
        params = M.init_params(cfg, 0)
        with pytest.raises(ValueError):
            M.beam_decode(cfg, params, [6], beam_size=0)

    def test_no_post_eos_extension(self):
        cfg = tiny_config()
        params = M.init_params(cfg, 3)
        out = M.beam_decode(cfg, params, [6, 8, 10], beam_size=4, max_len=8)
        assert M.EOS_ID not in out[:-1]

    def test_wide_beam_matches_exhaustive_search(self):
        # smallest vocab admitting the BOS/EOS conventions; 3 free output ids
        cfg = make_config(Variant.FULL, vocab_size=4, d_model=8, num_heads=1,
                          d_ff=16, enc_layers=1, dec_layers=1, dropout_p=0.0,
                          max_input_len=8, max_output_len=8, scheme=Scheme.NONE)
        params = M.init_params(cfg, 11)
        ids = [0, 1, 2]
        max_len, eos = 3, M.EOS_ID
        enc, _ = M.encoder_forward(cfg, params, ids)

        def seq_logprob(seq):
            logits = M.decoder_forward(cfg, params, [M.BOS_ID] + seq[:-1], enc).data
            lp = 0.0
            for t, row in zip(seq, logits):
                z = row - row.max()
                lp += float(z[t] - np.log(np.exp(z).sum()))
            return lp

        candidates = []
        for n in range(1, max_len + 1):
            for seq in itertools.product(range(4), repeat=n):
                seq = list(seq)
                interior_eos = eos in seq[:-1]
                if interior_eos:
                    continue
                if seq[-1] != eos and n < max_len:
                    continue            # only full-length or EOS-terminated
                candidates.append(seq)
        best = max(candidates, key=seq_logprob)
        got = M.beam_decode(cfg, params, ids, beam_size=27, alpha=0.0, max_len=max_len)
        assert abs(seq_logprob(got) - seq_logprob(best)) < 1e-12

    def test_overlong_max_len_rejected_before_encoding(self):
        # the input is too long as well: the decode length must be the error
        cfg = tiny_config()
        params = M.init_params(cfg, 0)
        ids = [6] * (cfg.max_input_len + 1)
        with pytest.raises(ValueError, match="max_len"):
            M.greedy_decode(cfg, params, ids, max_len=cfg.max_output_len + 1)
        with pytest.raises(ValueError, match="max_len"):
            M.beam_decode(cfg, params, ids, beam_size=2, max_len=cfg.max_output_len + 1)

    def test_full_length_decode_allowed(self):
        cfg = tiny_config()
        params = M.init_params(cfg, 0)
        n = cfg.max_output_len
        assert len(M.greedy_decode(cfg, params, [6, 7], max_len=n, eos_id=-1)) == n
        assert len(M.beam_decode(cfg, params, [6, 7], 3, max_len=n, eos_id=-1)) == n


class TestIncrementalDecoding:
    """decoder_forward with a DecodeState against the teacher-forced pass."""

    @staticmethod
    def build(scheme, dga, cross_attn_layers):
        cfg = tiny_config(Variant.GLOBAL_LOCAL, block_size=4, num_global=3,
                          scheme=scheme, dec_layers=3, decoder_global_attn=dga,
                          cross_attn_layers=cross_attn_layers)
        params = M.init_params(cfg, 4)
        rng = np.random.default_rng(5)
        if scheme == Scheme.T5_RELATIVE:     # nonzero bias rows
            params["posenc.bias_dec"] = Tensor(rng.standard_normal((2, 32)))
        # decoder-side states only matter as inputs here
        enc_tok = Tensor(rng.standard_normal((9, cfg.d_model)))
        enc_glob = Tensor(rng.standard_normal((3, cfg.d_model)))
        return cfg, params, enc_tok, enc_glob

    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("dga", [False, True])
    @pytest.mark.parametrize("cross_attn_layers", [(), (1,)])
    @pytest.mark.parametrize("batch", [1, 3])
    def test_steps_match_teacher_forced(self, scheme, dga, cross_attn_layers, batch):
        cfg, params, enc_tok, enc_glob = self.build(scheme, dga, cross_attn_layers)
        n = cfg.max_output_len
        rng = np.random.default_rng(batch)
        seqs = [[M.BOS_ID] + rng.integers(4, 16, size=n - 1).tolist() for _ in range(batch)]
        ref = [M.decoder_forward(cfg, params, s, enc_tok, enc_glob).data for s in seqs]
        state = M.DecodeState()
        for t in range(n):
            step = M.decoder_forward(cfg, params, [s[t] for s in seqs], enc_tok, enc_glob,
                                     state=state).data
            assert step.shape == (batch, cfg.vocab_size)
            for b in range(batch):
                assert np.abs(step[b] - ref[b][t]).max() < 1e-12, (t, b)
        assert state.t == n
        with pytest.raises(ValueError, match="max_output_len"):
            M.decoder_forward(cfg, params, [s[0] for s in seqs], enc_tok, enc_glob,
                              state=state)

    def test_reorder_follows_parents(self):
        cfg, params, enc_tok, enc_glob = self.build(Scheme.ROPE, True, ())
        a, b = [M.BOS_ID, 7, 9, 4], [M.BOS_ID, 12, 5, 6]
        state = M.DecodeState()
        for t in range(2):
            M.decoder_forward(cfg, params, [a[t], b[t]], enc_tok, enc_glob, state=state)
        state.reorder([1, 1, 0])             # b twice, then a
        step = M.decoder_forward(cfg, params, [b[2], 8, a[2]], enc_tok, enc_glob,
                                 state=state).data
        for row, seq in zip(step, ([*b[:3]], [*b[:2], 8], [*a[:3]])):
            ref = M.decoder_forward(cfg, params, seq, enc_tok, enc_glob).data[-1]
            assert np.abs(row - ref).max() < 1e-12

    def test_beam_to_max_output_len_matches_teacher_forced(self):
        """Every step reorders the hypotheses, repeating and dropping some,
        and the beam shrinks and grows, up to the cache's full capacity."""
        cfg, params, enc_tok, enc_glob = self.build(Scheme.SINUSOIDAL, True, ())
        rng = np.random.default_rng(7)
        seqs, state = [[M.BOS_ID]] * 3, M.DecodeState()
        for t in range(cfg.max_output_len):
            step = M.decoder_forward(cfg, params, [s[-1] for s in seqs], enc_tok, enc_glob,
                                     state=state).data
            for row, seq in zip(step, seqs):
                ref = M.decoder_forward(cfg, params, seq, enc_tok, enc_glob).data[-1]
                assert np.abs(row - ref).max() < 1e-12, t
            parents = rng.integers(0, len(seqs), size=(2, 4, 3)[t % 3]).tolist()
            seqs = [seqs[b] + [int(rng.integers(4, 16))] for b in parents]
            state.reorder(parents)
        assert state.t == cfg.max_output_len

    def test_first_step_under_a_tape_matches_finite_differences(self):
        """The first step of two hypotheses differentiates through its own
        K/V and through each cross sublayer's recorded K^T layout."""
        cfg, params, enc_tok, enc_glob = self.build(Scheme.SINUSOIDAL, True, ())
        w = np.random.default_rng(8).standard_normal((2, cfg.vocab_size))
        for name in ("dec.0.self.wv", "dec.0.cross.wk", "dec.1.gx.wk"):
            def loss_at(x, name=name):
                saved, params[name] = params[name], x
                try:
                    logits = M.decoder_forward(cfg, params, [M.BOS_ID, 7], enc_tok, enc_glob,
                                               state=M.DecodeState())
                    return T.tsum(T.mul(logits, w))
                finally:
                    params[name] = saved
            p = params[name]
            p.grad = None
            with T.Tape():
                T.backward(loss_at(p))
            fd = T.finite_diff_grad(loss_at, p, h=1e-5)
            assert np.abs(p.grad).max() > 0 and T.rel_err(p.grad, fd) < 1e-6, name

    def test_step_after_the_first_under_a_tape_raises(self):
        cfg, params, enc_tok, enc_glob = self.build(Scheme.SINUSOIDAL, False, ())
        state = M.DecodeState()
        M.decoder_forward(cfg, params, [M.BOS_ID], enc_tok, enc_glob, state=state)
        with T.Tape(), pytest.raises(T.TapeError, match="under a tape"):
            M.decoder_forward(cfg, params, [7], enc_tok, enc_glob, state=state)
        assert state.t == 1

    def test_batch_size_mismatch_rejected(self):
        cfg, params, enc_tok, enc_glob = self.build(Scheme.SINUSOIDAL, False, ())
        state = M.DecodeState()
        M.decoder_forward(cfg, params, [M.BOS_ID] * 2, enc_tok, enc_glob, state=state)
        with pytest.raises(ValueError, match="hypotheses"):
            M.decoder_forward(cfg, params, [6], enc_tok, enc_glob, state=state)


def reference_beam(cfg, params, input_ids, beam_size, alpha, max_len, eos_id):
    """Beam search with one teacher-forced decoder pass per hypothesis and step.

    Returns (best tokens, finished hypotheses)."""
    enc_tok, enc_glob = M.encoder_forward(cfg, params, input_ids)
    live, done = [(0.0, [])], []
    for _ in range(max_len):
        cand = []
        for lp, seq in live:
            row = M.decoder_forward(cfg, params, [M.BOS_ID] + seq, enc_tok, enc_glob).data[-1]
            z = row - row.max()
            logp = z - np.log(np.exp(z).sum())
            for tid in np.argsort(-logp, kind="stable")[:beam_size]:
                cand.append((lp + float(logp[tid]), seq + [int(tid)]))
        cand.sort(key=lambda c: (-c[0] / M._length_penalty(len(c[1]), alpha), c[1]))
        live = []
        for lp, seq in cand:
            (done if seq[-1] == eos_id else live).append((lp, seq))
            if len(live) >= beam_size:
                break
        if not live:
            break
    finished = list(done)
    done.extend(live)
    best = max(done, key=lambda c: (c[0] / M._length_penalty(len(c[1]), alpha),
                                    [-t for t in c[1]]))
    return best[1], finished


class TestBatchedBeam:
    def test_matches_per_hypothesis_reference(self):
        cfg = tiny_config(Variant.GLOBAL_LOCAL, block_size=4, num_global=2,
                          decoder_global_attn=True, cross_attn_layers=(1,))
        params = M.init_params(cfg, 9)
        max_len = 8
        finish_steps = set()
        for seed in range(3):
            ids = np.random.default_rng(seed).integers(4, 16, size=10).tolist()
            # an eos id the decoder actually emits: the second greedy token
            eos = M.greedy_decode(cfg, params, ids, max_len, eos_id=-1)[1]
            for beam_size in range(1, 6):
                for alpha in (0.0, 0.6):
                    want, finished = reference_beam(cfg, params, ids, beam_size, alpha,
                                                    max_len, eos)
                    got = M.beam_decode(cfg, params, ids, beam_size, alpha, max_len, eos)
                    assert got == want, (seed, beam_size, alpha)
                    finish_steps |= {len(seq) for _, seq in finished}
        assert len(finish_steps) > 2          # beams finished at different steps


class TestGradientSweep:
    def test_global_channel_every_entry_matches_central_difference(self):
        # every entry of the global embeddings, the global-stream LayerNorms
        # and the attention projections the two streams share
        cfg = make_config(Variant.GLOBAL_LOCAL, block_size=4, num_global=2,
                          scheme=Scheme.NONE, vocab_size=16, d_model=8, num_heads=2,
                          d_ff=16, enc_layers=2, dec_layers=1, max_input_len=16,
                          max_output_len=8, dropout_p=0.0)
        params = M.init_params(cfg, 0)
        rng = np.random.default_rng(1)
        inp = rng.integers(4, 16, size=8).tolist()
        tgt = rng.integers(4, 16, size=1).tolist() + [M.EOS_ID]
        with T.Tape():
            T.backward(M.seq2seq_loss(cfg, params, inp, tgt))
        names = [n for n in params
                 if n == "embed.global" or ".ln1g." in n or ".attn.w" in n]
        assert len(names) == 1 + 2 * (2 + 4)
        for name in names:
            p = params[name]

            def loss_at(x, name=name):
                saved = params[name]
                params[name] = x
                try:
                    return M.seq2seq_loss(cfg, params, inp, tgt)
                finally:
                    params[name] = saved

            fd = T.finite_diff_grad(loss_at, p, h=1e-5)
            err = np.abs(fd - p.grad) / np.maximum(np.maximum(np.abs(fd), np.abs(p.grad)), 1e-3)
            assert err.max() < 1e-6, (name, err.max())

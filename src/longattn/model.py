"""Encoder-decoder transformer assembled from attention variants and
position-encoding schemes.

Pre-LayerNorm residual blocks throughout. The global token stream (GlobalLocal
encoders) shares all projection and FFN weights with the token stream; the
only global-specific parameters are the g embedding rows and one input
LayerNorm per encoder layer, so the parameter delta over a plain BlockLocal
model is exactly g*d_model + enc_layers*2*d_model.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, asdict, replace

import numpy as np

from . import tensor as T
from . import posenc as P
from . import attention as A
from .tensor import Tensor
from .attention import AttentionSpec, Variant, make_block_layout
from .posenc import PosEncConfig, Scheme

PAD_ID = 1
EOS_ID = 2
BOS_ID = 3


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int = 64
    d_model: int = 32
    num_heads: int = 2
    d_ff: int = 64
    enc_layers: int = 2
    dec_layers: int = 2
    attention: AttentionSpec = field(
        default_factory=lambda: AttentionSpec(num_heads=2, head_dim=16))
    posenc: PosEncConfig = field(default_factory=PosEncConfig)
    cross_attn_layers: tuple = ()        # empty tuple means "all decoder layers"
    decoder_global_attn: bool = False
    max_input_len: int = 512
    max_output_len: int = 64
    dropout_p: float = 0.1
    tie_embeddings: bool = True

    def __post_init__(self):
        if self.d_model % self.num_heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by {self.num_heads} heads")
        spec = self.attention
        if spec.num_heads != self.num_heads or spec.head_dim * spec.num_heads != self.d_model:
            raise ValueError(
                f"attention spec heads {spec.num_heads}x{spec.head_dim} inconsistent "
                f"with d_model={self.d_model}, num_heads={self.num_heads}")
        xl = self.cross_layers()
        if not xl:
            raise ValueError("cross_attn_layers must be non-empty")
        if any(i < 0 or i >= self.dec_layers for i in xl):
            raise ValueError(f"cross_attn_layers {xl} outside [0, {self.dec_layers})")
        if self.decoder_global_attn and spec.variant != Variant.GLOBAL_LOCAL:
            raise ValueError("decoder_global_attn requires a GlobalLocal encoder")

    def cross_layers(self) -> tuple:
        return tuple(sorted(self.cross_attn_layers)) or tuple(range(self.dec_layers))

    @property
    def head_dim(self) -> int:
        return self.d_model // self.num_heads

    def to_dict(self) -> dict:
        d = asdict(self)
        d["attention"]["variant"] = self.attention.variant.value
        d["posenc"]["scheme"] = self.posenc.scheme.value
        d["cross_attn_layers"] = list(self.cross_layers())
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        d = dict(d)
        att = dict(d.pop("attention"))
        att["variant"] = Variant(att["variant"])
        pe = dict(d.pop("posenc"))
        pe["scheme"] = Scheme(pe["scheme"])
        d["cross_attn_layers"] = tuple(d.get("cross_attn_layers", ()))
        return cls(attention=AttentionSpec(**att), posenc=PosEncConfig(**pe), **d)

    def hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def make_config(variant=Variant.FULL, *, block_size=64, num_global=0, staggered=False,
                scheme=Scheme.SINUSOIDAL, **kw) -> ModelConfig:
    """Convenience constructor keeping the attention spec consistent."""
    d_model = kw.pop("d_model", 32)
    num_heads = kw.pop("num_heads", 2)
    spec = AttentionSpec(variant=variant, block_size=block_size,
                         num_global=num_global, staggered=staggered,
                         num_heads=num_heads, head_dim=d_model // num_heads)
    pe = kw.pop("posenc", None)
    if pe is None:
        pe = PosEncConfig(scheme=scheme, learned_max_len=kw.get("max_input_len", 512))
    return ModelConfig(d_model=d_model, num_heads=num_heads, attention=spec,
                       posenc=pe, **kw)


# ---------------------------------------------------------------------------
# parameters

def _trunc_normal(rng: np.random.Generator, shape, std=0.02) -> np.ndarray:
    out = rng.standard_normal(shape)
    bad = np.abs(out) > 2.0
    while bad.any():
        out[bad] = rng.standard_normal(int(bad.sum()))
        bad = np.abs(out) > 2.0
    return out * std


def param_shapes(cfg: ModelConfig) -> dict[str, tuple]:
    """Ordered parameter-name -> shape inventory for a config."""
    d, dff, V = cfg.d_model, cfg.d_ff, cfg.vocab_size
    spec = cfg.attention
    shapes: dict[str, tuple] = {}
    shapes["embed.tok"] = (V, d)
    if cfg.posenc.scheme == Scheme.LEARNED_ABSOLUTE:
        shapes["embed.pos_enc"] = (cfg.max_input_len, d)
        shapes["embed.pos_dec"] = (cfg.max_output_len, d)
    if spec.variant == Variant.GLOBAL_LOCAL:
        shapes["embed.global"] = (spec.num_global, d)
    if cfg.posenc.scheme == Scheme.T5_RELATIVE:
        shapes["posenc.bias_enc"] = (cfg.num_heads, cfg.posenc.t5_num_buckets)
        shapes["posenc.bias_dec"] = (cfg.num_heads, cfg.posenc.t5_num_buckets)
    for i in range(cfg.enc_layers):
        p = f"enc.{i}."
        shapes[p + "ln1.gain"] = (d,)
        shapes[p + "ln1.bias"] = (d,)
        if spec.variant == Variant.GLOBAL_LOCAL:
            shapes[p + "ln1g.gain"] = (d,)
            shapes[p + "ln1g.bias"] = (d,)
        for w in ("wq", "wk", "wv", "wo"):
            shapes[p + "attn." + w] = (d, d)
        shapes[p + "ln2.gain"] = (d,)
        shapes[p + "ln2.bias"] = (d,)
        shapes[p + "ffn.w1"] = (d, dff)
        shapes[p + "ffn.w2"] = (dff, d)
    shapes["enc.final_ln.gain"] = (d,)
    shapes["enc.final_ln.bias"] = (d,)
    xl = cfg.cross_layers()
    for i in range(cfg.dec_layers):
        p = f"dec.{i}."
        shapes[p + "ln1.gain"] = (d,)
        shapes[p + "ln1.bias"] = (d,)
        for w in ("wq", "wk", "wv", "wo"):
            shapes[p + "self." + w] = (d, d)
        if i in xl:
            if cfg.decoder_global_attn:
                shapes[p + "gx.ln.gain"] = (d,)
                shapes[p + "gx.ln.bias"] = (d,)
                for w in ("wq", "wk", "wv", "wo"):
                    shapes[p + "gx." + w] = (d, d)
            shapes[p + "cross.ln.gain"] = (d,)
            shapes[p + "cross.ln.bias"] = (d,)
            for w in ("wq", "wk", "wv", "wo"):
                shapes[p + "cross." + w] = (d, d)
        shapes[p + "ln2.gain"] = (d,)
        shapes[p + "ln2.bias"] = (d,)
        shapes[p + "ffn.w1"] = (d, dff)
        shapes[p + "ffn.w2"] = (dff, d)
    shapes["dec.final_ln.gain"] = (d,)
    shapes["dec.final_ln.bias"] = (d,)
    if not cfg.tie_embeddings:
        shapes["out_proj"] = (d, V)
    return shapes


def init_params(cfg: ModelConfig, seed: int = 0) -> dict[str, Tensor]:
    """Fan-in-scaled truncated-normal init.

    Weight matrices use std = 1/sqrt(fan_in) so attention logits and FFN
    activations start at O(1) regardless of width. Embedding tables use
    std = 1/sqrt(d_model); lookups are scaled by sqrt(d_model) at the input
    so token content has unit-variance components and is not drowned out by
    additive positional encodings.
    """
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    for name, shape in param_shapes(cfg).items():
        if name.endswith(".gain"):
            arr = np.ones(shape)
        elif name.endswith(".bias") or name.startswith("posenc.bias"):
            arr = np.zeros(shape)
        else:
            fan_in = cfg.d_model if name.startswith("embed.") else shape[0]
            arr = _trunc_normal(rng, shape, std=fan_in ** -0.5)
        params[name] = Tensor(arr, requires_grad=True)
    return params


def count_params(cfg: ModelConfig) -> int:
    return sum(int(np.prod(s)) for s in param_shapes(cfg).values())


# ---------------------------------------------------------------------------
# forward helpers

def _split_heads(x: Tensor, h: int) -> Tensor:
    L, d = x.shape
    return T.transpose(T.reshape(x, (L, h, d // h)), (1, 0, 2))


def _merge_heads(x: Tensor) -> Tensor:
    h, L, hd = x.shape
    return T.reshape(T.transpose(x, (1, 0, 2)), (L, h * hd))


def _project_heads(x: Tensor, w: Tensor, h: int) -> Tensor:
    return _split_heads(T.matmul(x, w), h)


def _ln(params, prefix: str, x: Tensor) -> Tensor:
    return T.layer_norm(x, params[prefix + ".gain"], params[prefix + ".bias"])


def _ffn(params, prefix: str, x: Tensor) -> Tensor:
    return T.matmul(T.gelu(T.matmul(x, params[prefix + ".w1"])), params[prefix + ".w2"])


class _Runtime:
    """Per-forward context: dropout rng, training flag."""

    def __init__(self, cfg: ModelConfig, training: bool, rng: np.random.Generator | None):
        self.cfg = cfg
        self.training = training
        self.rng = rng

    def drop(self, x: Tensor) -> Tensor:
        return T.dropout(x, self.cfg.dropout_p, self.training, self.rng)


def _maybe_rope(cfg: ModelConfig, x: Tensor, positions) -> Tensor:
    if cfg.posenc.scheme == Scheme.ROPE:
        return P.rope_apply(x, positions, cfg.posenc.sinusoidal_factor)
    return x


def _embed(cfg: ModelConfig, params, ids, side: str, step: int | None = None) -> Tensor:
    """Scaled token embeddings plus absolute positions: ids sit at positions
    0 .. len(ids) - 1, or all at position `step` when it is given."""
    x = T.scale(T.embedding_lookup(params["embed.tok"], ids), cfg.d_model ** 0.5)
    start, L = (0, len(ids)) if step is None else (step, 1)
    sch = cfg.posenc.scheme
    if sch == Scheme.SINUSOIDAL:
        x = T.add_const(x, P.sinusoidal(L, cfg.d_model, cfg.posenc.sinusoidal_factor, start))
    elif sch == Scheme.LEARNED_ABSOLUTE:
        table = params["embed.pos_enc" if side == "enc" else "embed.pos_dec"]
        x = T.add(x, P.learned_absolute(table, L, start))
    return x


def _enc_bias(cfg: ModelConfig, params, L: int):
    """Encoder self-attention logit bias: [h, L, L] for full attention, else
    the one [h, b, b] bias that every block shares."""
    if cfg.posenc.scheme != Scheme.T5_RELATIVE:
        return None
    pe, spec = cfg.posenc, cfg.attention
    n = L if spec.variant == Variant.FULL else spec.block_size
    return P.block_relative_bias(n, pe.t5_num_buckets, pe.t5_max_distance,
                                 params["posenc.bias_enc"])


def encoder_forward(cfg: ModelConfig, params, token_ids,
                    training: bool = False, rng: np.random.Generator | None = None):
    """Returns (token_states [L, d_model], global_states [g, d_model] or None)."""
    L = len(token_ids)
    if L < 1:
        raise ValueError("encoder input must be non-empty")
    if L > cfg.max_input_len:
        raise ValueError(f"input length {L} exceeds max_input_len {cfg.max_input_len}")
    rt = _Runtime(cfg, training, rng)
    spec = cfg.attention
    h = cfg.num_heads
    pos = np.arange(L)

    x = _embed(cfg, params, token_ids, "enc")
    glob = (T.scale(params["embed.global"], cfg.d_model ** 0.5)
            if spec.variant == Variant.GLOBAL_LOCAL else None)
    bias = _enc_bias(cfg, params, L)

    for i in range(cfg.enc_layers):
        p = f"enc.{i}."
        hx = _ln(params, p + "ln1", x)
        q = _maybe_rope(cfg, _project_heads(hx, params[p + "attn.wq"], h), pos)
        k = _maybe_rope(cfg, _project_heads(hx, params[p + "attn.wk"], h), pos)
        v = _project_heads(hx, params[p + "attn.wv"], h)
        glob_o = None
        if spec.variant == Variant.FULL:
            attn = A.full_attention(q, k, v, bias=bias)
        elif spec.variant == Variant.BLOCK_LOCAL:
            layout = make_block_layout(L, spec.block_size, i, spec.staggered)
            attn = A.block_local_attention(q, k, v, layout, bias=bias)
        else:
            layout = make_block_layout(L, spec.block_size, i, spec.staggered)
            hg = _ln(params, p + "ln1g", glob)
            gq, gk, gv = (_project_heads(hg, params[p + "attn." + w], h)
                          for w in ("wq", "wk", "wv"))
            attn, glob_o = A.global_local_attention(q, k, v, gq, gk, gv, layout, bias=bias)
        x = T.add(x, rt.drop(T.matmul(_merge_heads(attn), params[p + "attn.wo"])))
        if glob_o is not None:
            glob = T.add(glob, rt.drop(T.matmul(_merge_heads(glob_o), params[p + "attn.wo"])))
        x = T.add(x, rt.drop(_ffn(params, p + "ffn", _ln(params, p + "ln2", x))))
        if glob is not None:
            glob = T.add(glob, rt.drop(_ffn(params, p + "ffn", _ln(params, p + "ln2", glob))))

    x = _ln(params, "enc.final_ln", x)
    if glob is not None:
        glob = _ln(params, "enc.final_ln", glob)
    return x, glob


class DecodeState:
    """What one decoding request keeps between decoder steps (inference only:
    the caches hold no tape).

    `cross` maps each layer in cfg.cross_layers() to its cross-attention K/V
    (gk, gv, ck, cv), projected from the encoder states on the first step and
    shared by every hypothesis; gk/gv are None without decoder_global_attn.
    `self_kv` maps each decoder layer to its self-attention (k, v) so far,
    each [batch * h, t, hd]: the hypotheses are folded into the head axis.
    """

    def __init__(self):
        self.t = 0            # positions decoded so far
        self.batch = 0        # live hypotheses: set by the first step and by reorder
        self.cross: dict | None = None
        self.self_kv: dict[int, tuple[Tensor, Tensor]] = {}

    def append(self, layer: int, k: Tensor, v: Tensor) -> tuple[Tensor, Tensor]:
        """Add one position's K/V for `layer`; returns the whole cache."""
        if layer in self.self_kv:
            k0, v0 = self.self_kv[layer]
            k, v = T.concat([k0, k], axis=1), T.concat([v0, v], axis=1)
        self.self_kv[layer] = (k, v)
        return k, v

    def reorder(self, parents) -> None:
        """Make hypothesis parents[j] the new hypothesis j (beam search)."""
        parents = np.asarray(parents, dtype=np.int64)

        def gather(x: Tensor) -> Tensor:
            n, t, hd = x.shape
            per_hyp = x.data.reshape(self.batch, n // self.batch, t, hd)
            return Tensor(per_hyp[parents].reshape(-1, t, hd))

        self.self_kv = {i: (gather(k), gather(v)) for i, (k, v) in self.self_kv.items()}
        self.batch = len(parents)


def _cross_kv(cfg: ModelConfig, params, i: int, enc_tok: Tensor, enc_glob):
    """Decoder layer i's keys and values over the encoder output: (gk, gv, ck, cv)."""
    p, h = f"dec.{i}.", cfg.num_heads
    gk = gv = None
    if cfg.decoder_global_attn:
        gk = _project_heads(enc_glob, params[p + "gx.wk"], h)
        gv = _project_heads(enc_glob, params[p + "gx.wv"], h)
    ck = _maybe_rope(cfg, _project_heads(enc_tok, params[p + "cross.wk"], h),
                     np.arange(enc_tok.shape[0]))
    cv = _project_heads(enc_tok, params[p + "cross.wv"], h)
    return gk, gv, ck, cv


def decoder_forward(cfg: ModelConfig, params, out_ids, enc_tok, enc_glob=None,
                    training: bool = False, rng: np.random.Generator | None = None,
                    state: DecodeState | None = None) -> Tensor:
    """Decoder pass.

    Without `state` it is teacher-forced over the prefix `out_ids` and returns
    logits [T, vocab]. Training uses this path, and it is the reference the
    incremental path is tested against.

    With a DecodeState, `out_ids` holds the newest token of each of B
    hypotheses, all at position state.t. The first call projects the
    cross-attention K/V of the encoder states into the state; every call
    appends one self-attention K/V position per layer and advances state.t.
    Returns logits [B, vocab].
    """
    n = len(out_ids)
    if n < 1:
        raise ValueError("decoder input must be non-empty")
    t0 = 0 if state is None else state.t
    Td = n if state is None else t0 + 1
    if Td > cfg.max_output_len:
        raise ValueError(f"output length {Td} exceeds max_output_len {cfg.max_output_len}")
    if cfg.decoder_global_attn and enc_glob is None:
        raise ValueError("decoder_global_attn set but no global states supplied")
    rt = _Runtime(cfg, training, rng)
    h = cfg.num_heads
    xl = cfg.cross_layers()

    if state is None:
        pos = qpos = np.arange(n)
        heads, merge = (lambda a: _split_heads(a, h)), _merge_heads
        x = _embed(cfg, params, out_ids, "dec")
    else:
        if state.batch and n != state.batch:
            raise ValueError(f"decode state holds {state.batch} hypotheses, got {n} tokens")
        if state.cross is None:
            state.cross = {i: _cross_kv(cfg, params, i, enc_tok, enc_glob) for i in xl}
        state.batch = n
        pos, qpos = np.array([t0]), np.full(n, t0)
        heads = lambda a: T.reshape(a, (n * h, 1, cfg.head_dim))
        merge = lambda a: T.reshape(a, (n, cfg.d_model))
        x = _embed(cfg, params, out_ids, "dec", step=t0)
    dec_bias = None
    if cfg.posenc.scheme == Scheme.T5_RELATIVE:
        pe = cfg.posenc
        dec_bias = P.t5_relative_bias(len(pos), Td, pe.t5_num_buckets, pe.t5_max_distance,
                                      params["posenc.bias_dec"], bidirectional=False,
                                      q_start=t0)
        if state is not None:
            dec_bias = T.concat([dec_bias] * n, axis=0)      # one copy per hypothesis

    for i in range(cfg.dec_layers):
        p = f"dec.{i}."
        hx = _ln(params, p + "ln1", x)
        q = _maybe_rope(cfg, heads(T.matmul(hx, params[p + "self.wq"])), pos)
        k = _maybe_rope(cfg, heads(T.matmul(hx, params[p + "self.wk"])), pos)
        v = heads(T.matmul(hx, params[p + "self.wv"]))
        if state is not None:
            k, v = state.append(i, k, v)
        attn = A.causal_self_attention(q, k, v, bias=dec_bias)
        x = T.add(x, rt.drop(T.matmul(merge(attn), params[p + "self.wo"])))

        if i in xl:
            gk, gv, ck, cv = (state.cross[i] if state is not None
                              else _cross_kv(cfg, params, i, enc_tok, enc_glob))
            if gk is not None:
                hq = _ln(params, p + "gx.ln", x)
                gq = _project_heads(hq, params[p + "gx.wq"], h)
                gx = A.global_cross_attention(gq, gk, gv)
                x = T.add(x, rt.drop(T.matmul(_merge_heads(gx), params[p + "gx.wo"])))
            hq = _ln(params, p + "cross.ln", x)
            cq = _maybe_rope(cfg, _project_heads(hq, params[p + "cross.wq"], h), qpos)
            cx = A.cross_attention(cq, ck, cv)
            x = T.add(x, rt.drop(T.matmul(_merge_heads(cx), params[p + "cross.wo"])))

        x = T.add(x, rt.drop(_ffn(params, p + "ffn", _ln(params, p + "ln2", x))))

    if state is not None:
        state.t += 1
    x = _ln(params, "dec.final_ln", x)
    if cfg.tie_embeddings:
        return T.matmul(x, T.transpose(params["embed.tok"], (1, 0)))
    return T.matmul(x, params["out_proj"])


def seq2seq_loss(cfg: ModelConfig, params, input_ids, target_ids,
                 training: bool = False, rng: np.random.Generator | None = None) -> Tensor:
    """Teacher forcing: decoder sees [BOS] + target[:-1], predicts target.

    PAD positions in the target are ignored by the loss.
    """
    enc_tok, enc_glob = encoder_forward(cfg, params, input_ids, training, rng)
    dec_in = [BOS_ID] + list(target_ids[:-1])
    logits = decoder_forward(cfg, params, dec_in, enc_tok, enc_glob, training, rng)
    return T.cross_entropy(logits, list(target_ids), ignore_id=PAD_ID)


# ---------------------------------------------------------------------------
# decoding

def _check_decode_len(cfg: ModelConfig, max_len: int) -> None:
    if max_len > cfg.max_output_len:
        raise ValueError(f"max_len {max_len} exceeds max_output_len {cfg.max_output_len}")


def greedy_decode(cfg: ModelConfig, params, input_ids, max_len: int,
                  eos_id: int = EOS_ID) -> list[int]:
    _check_decode_len(cfg, max_len)
    enc_tok, enc_glob = encoder_forward(cfg, params, input_ids)
    state = DecodeState()
    out: list[int] = []
    tok = BOS_ID
    for _ in range(max_len):
        logits = decoder_forward(cfg, params, [tok], enc_tok, enc_glob, state=state)
        tok = int(np.argmax(logits.data[0]))
        out.append(tok)
        if tok == eos_id:
            break
    return out


def _length_penalty(length: int, alpha: float) -> float:
    return ((5.0 + length) / 6.0) ** alpha


def beam_decode(cfg: ModelConfig, params, input_ids, beam_size: int,
                alpha: float = 0.0, max_len: int = 32, eos_id: int = EOS_ID) -> list[int]:
    """Beam search with (5+len)/6 length normalization; beam 1 == greedy.

    The live hypotheses run as one batch of one decoder step each.
    """
    if beam_size < 1:
        raise ValueError(f"beam_size must be >= 1, got {beam_size}")
    _check_decode_len(cfg, max_len)
    enc_tok, enc_glob = encoder_forward(cfg, params, input_ids)
    state = DecodeState()
    live: list[tuple[float, list[int]]] = [(0.0, [])]   # (sum logprob, tokens)
    done: list[tuple[float, list[int]]] = []
    for _ in range(max_len):
        last = [seq[-1] if seq else BOS_ID for _, seq in live]
        logits = decoder_forward(cfg, params, last, enc_tok, enc_glob, state=state).data
        z = logits - logits.max(axis=-1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
        cand: list[tuple[float, list[int], int]] = []   # (.., .., parent hypothesis)
        for b, (lp, seq) in enumerate(live):
            for tid in np.argsort(-logp[b], kind="stable")[:beam_size]:
                cand.append((lp + float(logp[b, tid]), seq + [int(tid)], b))
        cand.sort(key=lambda c: (-c[0] / _length_penalty(len(c[1]), alpha),
                                 c[1]))
        live, parents = [], []
        for lp, seq, b in cand:
            if seq[-1] == eos_id:
                done.append((lp, seq))       # finished beams are never extended
            else:
                live.append((lp, seq))
                parents.append(b)
            if len(live) >= beam_size:
                break
        if not live:
            break
        state.reorder(parents)
    done.extend(live)
    best = max(done, key=lambda c: (c[0] / _length_penalty(len(c[1]), alpha),
                                    [-t for t in c[1]]))
    return best[1]

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
from dataclasses import dataclass, field, asdict

import numpy as np

from . import tensor as T
from . import posenc as P
from . import attention as A
from .tensor import Tensor
from .attention import AttentionSpec, Variant
from .posenc import Scheme
from .data import PAD_ID, EOS_ID, BOS_ID


class ConfigError(ValueError):
    pass


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
    posenc: Scheme = Scheme.SINUSOIDAL
    cross_attn_layers: tuple = ()        # empty tuple means "all decoder layers"
    decoder_global_attn: bool = False
    max_input_len: int = 512
    max_output_len: int = 64
    dropout_p: float = 0.1
    tie_embeddings: bool = True

    def __post_init__(self):
        for key in ("vocab_size", "d_model", "num_heads", "d_ff", "enc_layers", "dec_layers",
                    "max_input_len", "max_output_len"):     # before any arithmetic on them
            if getattr(self, key) < 1:
                raise ConfigError(f"model key '{key}' must be >= 1, got {getattr(self, key)}")
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
        d["posenc"] = self.posenc.value
        d["cross_attn_layers"] = list(self.cross_layers())
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        d = dict(d)
        att = dict(d.pop("attention"))
        att["variant"] = Variant(att["variant"])
        d["posenc"] = Scheme(d["posenc"])
        d["cross_attn_layers"] = tuple(d.get("cross_attn_layers", ()))
        return cls(attention=AttentionSpec(**att), **d)

    def hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def check_json(want, got, where: str, key: str = "") -> None:
    """The one type check for config documents: `got` must have the JSON type
    of the template `want`, where a float also takes an int; list items are
    checked against want's first item, and an object must have exactly want's
    keys. A mismatch is a ConfigError naming `where` and the dotted key."""
    if type(got) not in ((float, int) if type(want) is float else (type(want),)):
        name = f"{where} key '{key}'" if key else where
        raise ConfigError(f"{name} must be {type(want).__name__}, got {json.dumps(got)}")
    if type(want) is list and want:
        for item in got:
            check_json(want[0], item, where, key)
    if type(want) is dict:
        path = f"{key}." if key else ""
        for k in got:
            if k not in want:
                raise ConfigError(f"{where} has unknown key '{path + k}'")
        for k in want:
            if k not in got:
                raise ConfigError(f"{where} lacks key '{path + k}'")
            check_json(want[k], got[k], where, path + k)


def make_config(variant=Variant.FULL, *, block_size=64, num_global=0, staggered=False,
                scheme=Scheme.SINUSOIDAL, **kw) -> ModelConfig:
    """Convenience constructor keeping the attention spec consistent."""
    d_model = kw.pop("d_model", 32)
    num_heads = kw.pop("num_heads", 2)
    spec = AttentionSpec(variant=variant, block_size=block_size,
                         num_global=num_global, staggered=staggered,
                         num_heads=num_heads, head_dim=d_model // num_heads)
    return ModelConfig(d_model=d_model, num_heads=num_heads, attention=spec,
                       posenc=scheme, **kw)


# ---------------------------------------------------------------------------
# parameters

def _trunc_normal(rng: np.random.Generator, shape, std=0.02) -> np.ndarray:
    out = rng.standard_normal(shape)
    bad = np.abs(out) > 2.0
    while bad.any():
        out[bad] = rng.standard_normal(int(bad.sum()))
        bad = np.abs(out) > 2.0
    return out * std


def _cross_sublayers(cfg: ModelConfig, i: int) -> tuple:
    """Decoder layer i's cross-attention sublayers in the order they run:
    "gx" attends to the encoder's global states, "cross" to its token states."""
    if i not in cfg.cross_layers():
        return ()
    return ("gx", "cross") if cfg.decoder_global_attn else ("cross",)


def param_shapes(cfg: ModelConfig) -> dict[str, tuple]:
    """Ordered parameter-name -> shape inventory for a config; init_params
    draws in this order."""
    d, dff, V = cfg.d_model, cfg.d_ff, cfg.vocab_size
    spec = cfg.attention
    ln = lambda p: {p + ".gain": (d,), p + ".bias": (d,)}
    attn = lambda p: {f"{p}.{w}": (d, d) for w in ("wq", "wk", "wv", "wo")}
    ffn = lambda p: {p + ".w1": (d, dff), p + ".w2": (dff, d)}
    shapes: dict[str, tuple] = {"embed.tok": (V, d)}
    if cfg.posenc == Scheme.LEARNED_ABSOLUTE:
        shapes["embed.pos_enc"] = (cfg.max_input_len, d)
        shapes["embed.pos_dec"] = (cfg.max_output_len, d)
    if spec.num_global > 0:
        shapes["embed.global"] = (spec.num_global, d)
    if cfg.posenc == Scheme.T5_RELATIVE:
        shapes["posenc.bias_enc"] = (cfg.num_heads, P.T5_BUCKETS)
        shapes["posenc.bias_dec"] = (cfg.num_heads, P.T5_BUCKETS)
    for i in range(cfg.enc_layers):
        p = f"enc.{i}."
        shapes |= ln(p + "ln1")
        if spec.num_global > 0:
            shapes |= ln(p + "ln1g")
        shapes |= attn(p + "attn") | ln(p + "ln2") | ffn(p + "ffn")
    shapes |= ln("enc.final_ln")
    for i in range(cfg.dec_layers):
        p = f"dec.{i}."
        shapes |= ln(p + "ln1") | attn(p + "self")
        for s in _cross_sublayers(cfg, i):
            shapes |= ln(p + s + ".ln") | attn(p + s)
        shapes |= ln(p + "ln2") | ffn(p + "ffn")
    shapes |= ln("dec.final_ln")
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


def _maybe_rope(cfg: ModelConfig, x: Tensor, positions) -> Tensor:
    """RoPE at `positions` under the RoPE scheme; None means no positions."""
    if cfg.posenc == Scheme.ROPE and positions is not None:
        return P.rope_apply(x, positions)
    return x


def _embed(cfg: ModelConfig, params, ids, side: str, start: int, n: int) -> Tensor:
    """Scaled token embeddings plus absolute positions start .. start + n - 1:
    ids is one sequence of n tokens, or with n == 1 one token per sequence."""
    x = T.mul(T.embedding_lookup(params["embed.tok"], ids), cfg.d_model ** 0.5)
    if cfg.posenc == Scheme.SINUSOIDAL:
        x = T.add(x, P.sinusoidal(n, cfg.d_model, start=start))
    elif cfg.posenc == Scheme.LEARNED_ABSOLUTE:
        table = params["embed.pos_enc" if side == "enc" else "embed.pos_dec"]
        x = T.add(x, P.learned_absolute(table, n, start))
    return x


def _enc_bias(cfg: ModelConfig, params, L: int):
    """Encoder self-attention logit bias: the one [h, b, b] bias that every
    block of the encoder layout shares. Full attention is one block of L,
    so its bias is [h, L, L]."""
    if cfg.posenc != Scheme.T5_RELATIVE:
        return None
    b = A.encoder_layout(cfg.attention, L, 0).block_size
    return P.block_relative_bias(b, P.T5_BUCKETS, P.T5_MAX_DISTANCE,
                                 params["posenc.bias_enc"])


def encoder_forward(cfg: ModelConfig, params, token_ids,
                    training: bool = False, rng: np.random.Generator | None = None):
    """Returns (token_states [L, d_model], global_states [g, d_model] or None)."""
    L = len(token_ids)
    if L < 1:
        raise ValueError("encoder input must be non-empty")
    if L > cfg.max_input_len:
        raise ValueError(f"input length {L} exceeds max_input_len {cfg.max_input_len}")
    drop = lambda x: T.dropout(x, cfg.dropout_p, training, rng)
    spec = cfg.attention
    h = cfg.num_heads
    pos = np.arange(L)

    x = _embed(cfg, params, token_ids, "enc", 0, L)
    glob = (T.mul(params["embed.global"], cfg.d_model ** 0.5)
            if spec.num_global > 0 else None)
    bias = _enc_bias(cfg, params, L)

    for i in range(cfg.enc_layers):
        p = f"enc.{i}."
        hx = _ln(params, p + "ln1", x)
        q = _maybe_rope(cfg, _project_heads(hx, params[p + "attn.wq"], h), pos)
        k = _maybe_rope(cfg, _project_heads(hx, params[p + "attn.wk"], h), pos)
        v = _project_heads(hx, params[p + "attn.wv"], h)
        layout = A.encoder_layout(spec, L, i)
        if glob is None:
            attn = A.block_local_attention(q, k, v, layout, bias=bias)
        else:
            hg = _ln(params, p + "ln1g", glob)
            gq, gk, gv = (_project_heads(hg, params[p + "attn." + w], h)
                          for w in ("wq", "wk", "wv"))
            attn, glob_o = A.global_local_attention(q, k, v, gq, gk, gv, layout, bias=bias)
        x = T.add(x, drop(T.matmul(_merge_heads(attn), params[p + "attn.wo"])))
        if glob is not None:
            glob = T.add(glob, drop(T.matmul(_merge_heads(glob_o), params[p + "attn.wo"])))
        x = T.add(x, drop(_ffn(params, p + "ffn", _ln(params, p + "ln2", x))))
        if glob is not None:
            glob = T.add(glob, drop(_ffn(params, p + "ffn", _ln(params, p + "ln2", glob))))

    x = _ln(params, "enc.final_ln", x)
    if glob is not None:
        glob = _ln(params, "enc.final_ln", glob)
    return x, glob


class DecodeState:
    """The caches a decoding request keeps between decoder passes; a
    teacher-forced pass makes a fresh one.

    `cross` maps each cross sublayer's prefix ("dec.1.cross", "dec.1.gx") to
    its (k, v), projected from the encoder token or global states when that
    sublayer first runs; every hypothesis shares them. k is a transposed view
    of a contiguous [h, hd, L] K^T, made by recorded ops as W_k^T X^T, which
    each step's score matmul reads row by row. `kv` buffers the self-attention
    K and V of every layer, [layers, 2, batch * h, max_output_len, hd] with the
    hypotheses folded into the heads: a pass writes its positions in place,
    and reorder gathers the first t positions into a new buffer.
    """

    def __init__(self):
        self.t = 0            # positions decoded so far
        self.batch = 0        # sequences: set by the first pass and by reorder
        self.cross: dict[str, tuple[Tensor, Tensor]] = {}
        self.kv: np.ndarray | None = None

    def append(self, layer: int, k: Tensor, v: Tensor) -> tuple[Tensor, Tensor]:
        """Write the new positions' K/V for `layer`; returns the cache so far.
        The first pass gets its own k and v back, so a teacher-forced pass
        differentiates through them."""
        t, n = self.t, k.shape[1]
        kv = self.kv[layer]
        kv[0, :, t:t + n], kv[1, :, t:t + n] = k.data, v.data
        return (k, v) if t == 0 else (Tensor(kv[0, :, :t + n]), Tensor(kv[1, :, :t + n]))

    def reorder(self, parents) -> None:
        """Make hypothesis parents[j] the new hypothesis j (beam search)."""
        if list(parents) == list(range(self.batch)):
            return
        layers, _, n, cap, hd = self.kv.shape
        per_hyp = self.kv.reshape(layers, 2, self.batch, n // self.batch, cap, hd)
        kv = np.empty((layers, 2, len(parents)) + per_hyp.shape[3:])
        kv[..., :self.t, :] = per_hyp[:, :, parents, :, :self.t]
        self.kv = kv.reshape(layers, 2, -1, cap, hd)
        self.batch = len(parents)


def decoder_forward(cfg: ModelConfig, params, out_ids, enc_tok, enc_glob=None,
                    training: bool = False, rng: np.random.Generator | None = None,
                    state: DecodeState | None = None) -> Tensor:
    """One pass over B sequences of n new positions from position state.t;
    returns logits [B * n, vocab]. Without `state` it is teacher forcing:
    `out_ids` is one sequence (B = 1, n = len(out_ids)) on a fresh state.
    With a DecodeState it is one incremental step: `out_ids` holds the newest
    token of each of B hypotheses (n = 1). The new self-attention K/V go into
    the state, and each cross sublayer fills in its K/V the first time it runs.
    """
    if len(out_ids) < 1:
        raise ValueError("decoder input must be non-empty")
    if state is None:
        state, B, n = DecodeState(), 1, len(out_ids)
    else:
        B, n = len(out_ids), 1
    if state.batch and B != state.batch:
        raise ValueError(f"decode state holds {state.batch} hypotheses, got {B} tokens")
    t0 = state.t
    if t0 + n > cfg.max_output_len:
        raise ValueError(f"output length {t0 + n} exceeds max_output_len {cfg.max_output_len}")
    if cfg.decoder_global_attn and enc_glob is None:
        raise ValueError("decoder_global_attn set but no global states supplied")
    if t0 and T.Tape._active is not None:
        raise T.TapeError("a decoder step after the first cannot run under a tape: "
                          "its K/V cache holds values, not the ops that made them")
    drop = lambda x: T.dropout(x, cfg.dropout_p, training, rng)
    h = cfg.num_heads
    pos = np.arange(t0, t0 + n)
    qpos = np.tile(pos, B)                 # the cross queries' rows are B x n

    x = _embed(cfg, params, out_ids, "dec", t0, n)
    dec_bias = None
    if cfg.posenc == Scheme.T5_RELATIVE:
        dec_bias = P.t5_relative_bias(n, t0 + n, P.T5_BUCKETS, P.T5_MAX_DISTANCE,
                                      params["posenc.bias_dec"], bidirectional=False,
                                      q_start=t0)
    # One position per sequence: a reshape folds the B hypotheses into the
    # heads, [B * h, 1, hd]; a general head split would add ops to every step.
    if n == 1:
        heads = lambda a: T.reshape(a, (B * h, 1, cfg.head_dim))
        merge = lambda a: T.reshape(a, (B, cfg.d_model))
        if dec_bias is not None:
            dec_bias = T.concat([dec_bias] * B, axis=0)      # one copy per hypothesis
    else:
        heads, merge = (lambda a: _split_heads(a, h)), _merge_heads
    state.batch = B
    if t0 == 0:
        state.kv = np.empty((cfg.dec_layers, 2, B * h, cfg.max_output_len, cfg.head_dim))

    for i in range(cfg.dec_layers):
        p = f"dec.{i}."
        hx = _ln(params, p + "ln1", x)
        q = _maybe_rope(cfg, heads(T.matmul(hx, params[p + "self.wq"])), pos)
        k = _maybe_rope(cfg, heads(T.matmul(hx, params[p + "self.wk"])), pos)
        v = heads(T.matmul(hx, params[p + "self.wv"]))
        k, v = state.append(i, k, v)
        attn = A.causal_self_attention(q, k, v, bias=dec_bias)
        x = T.add(x, drop(T.matmul(merge(attn), params[p + "self.wo"])))

        for s in _cross_sublayers(cfg, i):
            sp, glob = p + s, s == "gx"          # global states have no positions
            if sp not in state.cross:
                src = enc_glob if glob else enc_tok
                kt = T.matmul(T.transpose(params[sp + ".wk"], (1, 0)), T.transpose(src, (1, 0)))
                k = T.transpose(T.reshape(kt, (h, cfg.head_dim, -1)), (0, 2, 1))
                k = _maybe_rope(cfg, k, None if glob else np.arange(src.shape[0]))
                state.cross[sp] = (k, _project_heads(src, params[sp + ".wv"], h))
            k, v = state.cross[sp]
            q = _project_heads(_ln(params, sp + ".ln", x), params[sp + ".wq"], h)
            attn = A.cross_attention(_maybe_rope(cfg, q, None if glob else qpos), k, v)
            x = T.add(x, drop(T.matmul(_merge_heads(attn), params[sp + ".wo"])))

        x = T.add(x, drop(_ffn(params, p + "ffn", _ln(params, p + "ln2", x))))

    state.t += n
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

def _length_penalty(length: int, alpha: float) -> float:
    return ((5.0 + length) / 6.0) ** alpha


def _search(cfg: ModelConfig, params, input_ids, width: int, alpha: float,
            max_len: int, eos_id: int) -> list[int]:
    """Beam search; the live hypotheses run as one batch of decoder steps."""
    if width < 1:
        raise ValueError(f"beam_size must be >= 1, got {width}")
    if max_len > cfg.max_output_len:
        raise ValueError(f"max_len {max_len} exceeds max_output_len {cfg.max_output_len}")
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
            for tid in np.argsort(-logp[b], kind="stable")[:width]:
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
            if len(live) >= width:
                break
        if not live:
            break
        state.reorder(parents)
    done.extend(live)
    best = max(done, key=lambda c: (c[0] / _length_penalty(len(c[1]), alpha),
                                    [-t for t in c[1]]))
    return best[1]


def greedy_decode(cfg: ModelConfig, params, input_ids, max_len: int,
                  eos_id: int = EOS_ID) -> list[int]:
    """Beam search of width 1: the most likely token at each step."""
    return _search(cfg, params, input_ids, 1, 0.0, max_len, eos_id)


def beam_decode(cfg: ModelConfig, params, input_ids, beam_size: int,
                alpha: float = 0.0, max_len: int = 32, eos_id: int = EOS_ID) -> list[int]:
    """Beam search with (5+len)/6 length normalization; beam 1 == greedy."""
    return _search(cfg, params, input_ids, beam_size, alpha, max_len, eos_id)

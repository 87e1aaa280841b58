"""Attention variants: full, block-local (optionally staggered), global-local,
causal decoder self-attention, dense and global cross-attention.

Staggering shifts block boundaries by half a block on odd layers; it is
implemented by padding the sequence frame by b/2 on each side and masking the
pad slots, so a block layout is fully described by (seq_len, block_size,
offset, pad_left, pad_right).

All functions operate on per-head projected tensors [h, L, d] except
global_local_attention, which handles the token/global stream pair at model
width. A module-level MAC counter tracks score-computation multiply-accumulates
(entries of Q.K^T actually computed, times head_dim); the value-side matmuls
have identical counts and are deliberately not double-counted, so the counter
is directly comparable to attention_cost().
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import tensor as T
from .tensor import Tensor, ShapeError


class Variant(str, Enum):
    FULL = "full"
    BLOCK_LOCAL = "block_local"
    GLOBAL_LOCAL = "global_local"


@dataclass(frozen=True)
class AttentionSpec:
    variant: Variant = Variant.FULL
    block_size: int = 64
    num_global: int = 0
    staggered: bool = False
    num_heads: int = 4
    head_dim: int = 16

    def __post_init__(self):
        if self.num_heads < 1 or self.head_dim < 1:
            raise ValueError("num_heads and head_dim must be positive")
        if self.variant == Variant.BLOCK_LOCAL and self.block_size < 1:
            raise ValueError("BlockLocal needs block_size >= 1")
        if self.variant == Variant.GLOBAL_LOCAL and self.num_global < 1:
            raise ValueError("GlobalLocal needs num_global >= 1")
        if self.staggered and self.variant == Variant.FULL:
            raise ValueError("staggered is meaningless for full attention")
        if self.staggered and self.block_size % 2 != 0:
            raise ValueError("staggered layout needs an even block_size")


@dataclass(frozen=True)
class BlockLayout:
    seq_len: int
    block_size: int
    offset: int            # 0 or block_size // 2
    pad_left: int
    pad_right: int
    block_index: tuple     # block id per real position

    @property
    def frame_len(self) -> int:
        return self.pad_left + self.seq_len + self.pad_right

    @property
    def num_blocks(self) -> int:
        return self.frame_len // self.block_size

    def real_slot(self, i: int) -> int:
        """Frame slot of real position i."""
        return self.pad_left + i

    def pad_mask(self) -> np.ndarray:
        """Boolean [frame_len]; True where the slot holds a real position."""
        m = np.zeros(self.frame_len, dtype=bool)
        m[self.pad_left:self.pad_left + self.seq_len] = True
        return m

    def pair_mask(self) -> np.ndarray:
        """Boolean [L, L] over real positions: True iff i and j share a block."""
        b = np.asarray(self.block_index)
        return b[:, None] == b[None, :]


def make_block_layout(L: int, b: int, layer_index: int, staggered: bool) -> BlockLayout:
    if L < 1:
        raise ValueError(f"sequence length must be >= 1, got {L}")
    if b < 1:
        raise ValueError(f"block size must be >= 1, got {b}")
    shifted = staggered and layer_index % 2 == 1
    if shifted and b % 2 != 0:
        raise ValueError(f"staggered layout needs even block size, got {b}")
    offset = b // 2 if shifted else 0
    pad_left = offset
    total = pad_left + L
    pad_right = (-total) % b
    blocks = tuple((i + offset) // b for i in range(L))
    return BlockLayout(L, b, offset, pad_left, pad_right, blocks)


# ---------------------------------------------------------------------------
# MAC counter

class MacCounter:
    """Counts score-matrix multiply-accumulates when enabled."""

    def __init__(self):
        self.enabled = False
        self.macs = 0
        self.score_elems = 0

    def reset(self):
        self.macs = 0
        self.score_elems = 0

    def add(self, entries: int, d: int):
        if self.enabled:
            self.score_elems += entries
            self.macs += entries * d


mac_counter = MacCounter()


# ---------------------------------------------------------------------------
# primitives

def _check_qkv(q: Tensor, k: Tensor, v: Tensor):
    if q.data.ndim != 3 or k.data.ndim != 3 or v.data.ndim != 3:
        raise ShapeError(f"expected [h, L, d] tensors, got {q.shape}, {k.shape}, {v.shape}")
    if q.shape[0] != k.shape[0] or q.shape[2] != k.shape[2]:
        raise ShapeError(f"q/k head or dim mismatch: {q.shape} vs {k.shape}")
    if k.shape[:2] != v.shape[:2]:
        raise ShapeError(f"k/v length mismatch: {k.shape} vs {v.shape}")


def full_attention(q: Tensor, k: Tensor, v: Tensor,
                   mask: np.ndarray | None = None,
                   bias: np.ndarray | Tensor | None = None) -> Tensor:
    """softmax(q k^T / sqrt(d) + bias + mask) v.

    mask: boolean array broadcastable to [h, Lq, Lk]; True = attend allowed.
    bias: additive logit bias (e.g. relative-position bias), may carry grad.
    """
    _check_qkv(q, k, v)
    h, Lq, d = q.shape
    Lk = k.shape[1]
    scores = T.scale(T.matmul(q, T.transpose(k, (0, 2, 1))), 1.0 / np.sqrt(d))
    mac_counter.add(h * Lq * Lk, d)
    if bias is not None:
        scores = T.add(scores, bias) if isinstance(bias, Tensor) else T.add_const(scores, bias)
    if mask is not None:
        scores = T.add_const(scores, np.where(mask, 0.0, T.MASK_NEG))
    w = T.softmax(scores, axis=-1)
    if mask is not None:
        # fully-masked rows come out uniform; zero them so they contribute nothing
        dead = ~mask.any(axis=-1, keepdims=True) if mask.ndim == 3 else None
        if dead is not None and dead.any():
            w = T.mul_const(w, np.where(dead, 0.0, 1.0))
    return T.matmul(w, v)


def _to_blocks(x: Tensor, layout: BlockLayout) -> Tensor:
    """[h, L, d] -> [h, nb, b, d] over the padded frame."""
    h, L, d = x.shape
    xf = T.pad_axis(x, 1, layout.pad_left, layout.pad_right)
    return T.reshape(xf, (h, layout.num_blocks, layout.block_size, d))


def _from_blocks(xb: Tensor, layout: BlockLayout) -> Tensor:
    h = xb.shape[0]
    d = xb.shape[-1]
    xf = T.reshape(xb, (h, layout.frame_len, d))
    return T.narrow(xf, 1, layout.pad_left, layout.seq_len)


def _block_scores(q: Tensor, k: Tensor, layout: BlockLayout,
                  bias: np.ndarray | None = None) -> tuple[Tensor, np.ndarray]:
    """Block-diagonal scores [h, nb, b, b] plus the pad-aware allow mask."""
    h, L, d = q.shape
    qb = _to_blocks(q, layout)
    kb = _to_blocks(k, layout)
    scores = T.scale(T.matmul(qb, T.transpose(kb, (0, 1, 3, 2))), 1.0 / np.sqrt(d))
    mac_counter.add(h * layout.frame_len * layout.block_size, d)
    if bias is not None:
        # same [b, b] relative-offset bias in every block
        scores = T.add(scores, bias) if isinstance(bias, Tensor) else T.add_const(scores, bias)
    real = layout.pad_mask().reshape(layout.num_blocks, layout.block_size)
    allow = real[None, :, None, :] & np.ones((1, 1, layout.block_size, 1), dtype=bool)
    allow = np.broadcast_to(allow, (1, layout.num_blocks, layout.block_size, layout.block_size))
    return scores, allow


def block_local_attention(q: Tensor, k: Tensor, v: Tensor, layout: BlockLayout,
                          bias: np.ndarray | Tensor | None = None) -> Tensor:
    """Attention restricted to non-overlapping blocks under `layout`."""
    _check_qkv(q, k, v)
    h, L, d = q.shape
    if layout.seq_len != L:
        raise ShapeError(f"layout seq_len {layout.seq_len} != sequence length {L}")
    scores, allow = _block_scores(q, k, layout, bias)
    scores = T.add_const(scores, np.where(allow, 0.0, T.MASK_NEG))
    w = T.softmax(scores, axis=-1)
    vb = _to_blocks(v, layout)
    out = T.matmul(w, vb)
    return _from_blocks(out, layout)


def global_local_attention(tok_q: Tensor, tok_k: Tensor, tok_v: Tensor,
                           glob_q: Tensor, glob_k: Tensor, glob_v: Tensor,
                           layout: BlockLayout,
                           bias: np.ndarray | Tensor | None = None) -> tuple[Tensor, Tensor]:
    """Block-local token attention augmented with g global tokens.

    Each token query sees {its block} ∪ {all globals} under one softmax; each
    global query sees {all tokens} ∪ {all globals}. Inputs are per-head
    projected tensors; tok_* are [h, L, d] and glob_* are [h, g, d].
    Returns (token_out [h, L, d], global_out [h, g, d]).
    """
    _check_qkv(tok_q, tok_k, tok_v)
    _check_qkv(glob_q, glob_k, glob_v)
    h, L, d = tok_q.shape
    g = glob_q.shape[1]
    if g < 1:
        raise ValueError("global-local attention needs at least one global token")
    if layout.seq_len != L:
        raise ShapeError(f"layout seq_len {layout.seq_len} != sequence length {L}")
    b = layout.block_size
    nb = layout.num_blocks
    F = layout.frame_len

    # token queries: block-diagonal scores in the padded frame + global keys
    scores_blk, allow = _block_scores(tok_q, tok_k, layout, bias)
    scores_blk = T.reshape(scores_blk, (h, F, b))
    allow_blk = np.broadcast_to(allow, (1, nb, b, b)).reshape(1, F, b)

    qf = T.pad_axis(tok_q, 1, layout.pad_left, layout.pad_right)
    scores_glb = T.scale(T.matmul(qf, T.transpose(glob_k, (0, 2, 1))), 1.0 / np.sqrt(d))
    mac_counter.add(h * F * g, d)
    allow_glb = np.broadcast_to(layout.pad_mask()[None, :, None], (1, F, g))

    scores = T.concat([scores_blk, scores_glb], axis=-1)
    allow_all = np.concatenate([np.broadcast_to(allow_blk, (1, F, b)), allow_glb], axis=-1)
    scores = T.add_const(scores, np.where(allow_all, 0.0, T.MASK_NEG))
    w = T.softmax(scores, axis=-1)
    # pad-slot query rows are dropped below; zero them so they add no values
    w = T.mul_const(w, layout.pad_mask()[None, :, None].astype(float))

    w_blk = T.reshape(T.narrow(w, 2, 0, b), (h, nb, b, b))
    w_glb = T.narrow(w, 2, b, g)
    vb = _to_blocks(tok_v, layout)
    tok_out_f = T.add(T.reshape(T.matmul(w_blk, vb), (h, F, d)), T.matmul(w_glb, glob_v))
    tok_out = T.narrow(tok_out_f, 1, layout.pad_left, layout.seq_len)

    # global queries: full attention over tokens + globals
    kv_k = T.concat([tok_k, glob_k], axis=1)
    kv_v = T.concat([tok_v, glob_v], axis=1)
    scores_g = T.scale(T.matmul(glob_q, T.transpose(kv_k, (0, 2, 1))), 1.0 / np.sqrt(d))
    mac_counter.add(h * g * (L + g), d)
    glob_out = T.matmul(T.softmax(scores_g, axis=-1), kv_v)
    return tok_out, glob_out


def causal_mask(Lq: int, Lk: int) -> np.ndarray:
    """[1, Lq, Lk]; query i sits at key position Lk - Lq + i and sees keys up to it."""
    return np.tril(np.ones((Lq, Lk), dtype=bool), k=Lk - Lq)[None]


def causal_self_attention(q: Tensor, k: Tensor, v: Tensor,
                          bias: np.ndarray | Tensor | None = None) -> Tensor:
    """Full attention with a j <= i mask over the last Lq of Lk positions.

    Lq == Lk is the teacher-forced case; Lq < Lk lets the newest queries
    attend to a cache of earlier keys and values.
    """
    _check_qkv(q, k, v)
    Lq, Lk = q.shape[1], k.shape[1]
    if Lq > Lk:
        raise ShapeError(f"causal self-attention needs Lq <= Lk, got {Lq} > {Lk}")
    return full_attention(q, k, v, mask=causal_mask(Lq, Lk), bias=bias)


def cross_attention(dec_q: Tensor, enc_k: Tensor, enc_v: Tensor) -> Tensor:
    """Dense decoder-to-encoder attention (no mask)."""
    return full_attention(dec_q, enc_k, enc_v)


def global_cross_attention(dec_q: Tensor, glob_k: Tensor, glob_v: Tensor) -> Tensor:
    """Decoder attention over the g global representations only."""
    if glob_k.shape[1] < 1:
        raise ValueError("global cross-attention needs at least one global token")
    return full_attention(dec_q, glob_k, glob_v)


# ---------------------------------------------------------------------------
# analytic cost model

def attention_cost(spec: AttentionSpec, L: int) -> dict[str, int]:
    """Closed-form score-side MAC and score-element counts for one layer.

    Mirrors exactly what the instrumented attention kernels compute: the
    block-diagonal term runs over the padded frame (frame_len * block_size
    entries; the frame grows by a full block when staggered shifts apply),
    and GlobalLocal adds token->global (frame_len * g) and global->all
    (g * (L + g)) terms per head.
    """
    h, d = spec.num_heads, spec.head_dim
    if spec.variant == Variant.FULL:
        elems = L * L
    else:
        layer = 1 if spec.staggered else 0
        layout = make_block_layout(L, spec.block_size, layer, spec.staggered)
        elems = layout.frame_len * spec.block_size
        if spec.variant == Variant.GLOBAL_LOCAL:
            g = spec.num_global
            elems += layout.frame_len * g + g * (L + g)
    return {"flops": h * elems * d, "score_mem_elems": h * elems}

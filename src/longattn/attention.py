"""Attention variants: full, block-local (optionally staggered), global-local,
causal decoder self-attention and dense cross-attention.

One op, tensor.attend, computes every softmax(q k^T / sqrt(d) + bias) v,
over any leading axes, with an optional allow-mask and additive bias, and
records one tape node. The entry points only shape its inputs:

- full_attention: [h, Lq, d] queries against [h, Lk, d] keys. Causal
  self-attention and cross-attention go through it.
- block_local_attention: the sequence is padded to a frame of whole blocks
  and viewed as [h, nb, b, d], so scores are [h, nb, b, b]. Staggering
  shifts block boundaries by half a block on odd layers by padding the frame
  by b/2 on the left; pad keys are masked out. A block layout is fully
  described by (seq_len, block_size, pad_left, pad_right), and one with no
  padding pads nothing. encoder_layout gives each encoder layer its layout:
  full attention is one block of L.
- global_local_attention: the same blocks with the g global keys and values
  appended to every block ([h, nb, b, b + g] scores), plus the global
  queries attending to all L + g keys.

The score entries these compute, times head_dim, are exactly the score MACs
that attention_cost() gives in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
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
        if self.variant != Variant.FULL and self.block_size < 1:
            raise ValueError(f"{self.variant.value} attention needs block_size >= 1")
        if self.variant == Variant.GLOBAL_LOCAL and self.num_global < 1:
            raise ValueError("GlobalLocal needs num_global >= 1")
        if self.variant != Variant.GLOBAL_LOCAL and self.num_global != 0:
            raise ValueError(f"num_global {self.num_global} needs variant global_local, "
                             f"got {self.variant.value}")
        if self.staggered and self.variant == Variant.FULL:
            raise ValueError("staggered is meaningless for full attention")
        if self.staggered and self.block_size % 2 != 0:
            raise ValueError("staggered layout needs an even block_size")


@dataclass(frozen=True)
class BlockLayout:
    seq_len: int
    block_size: int
    pad_left: int          # 0, or block_size // 2 on a staggered odd layer
    pad_right: int

    @property
    def frame_len(self) -> int:
        return self.pad_left + self.seq_len + self.pad_right

    @property
    def num_blocks(self) -> int:
        return self.frame_len // self.block_size

    def pair_mask(self) -> np.ndarray:
        """Boolean [L, L] over real positions: True iff i and j share a block."""
        blk = (np.arange(self.seq_len) + self.pad_left) // self.block_size
        return blk[:, None] == blk[None, :]


def make_block_layout(L: int, b: int, layer_index: int, staggered: bool) -> BlockLayout:
    if L < 1:
        raise ValueError(f"sequence length must be >= 1, got {L}")
    if b < 1:
        raise ValueError(f"block size must be >= 1, got {b}")
    if layer_index < 0:
        raise ValueError(f"layer index must be >= 0, got {layer_index}")
    shifted = staggered and layer_index % 2 == 1
    if shifted and b % 2 != 0:
        raise ValueError(f"staggered layout needs even block size, got {b}")
    pad_left = b // 2 if shifted else 0
    return BlockLayout(L, b, pad_left, (-(pad_left + L)) % b)


def encoder_layout(spec: AttentionSpec, L: int, layer: int) -> BlockLayout:
    """Encoder layer `layer`'s layout over L positions: one block of L under
    full attention, else blocks of spec.block_size, shifted on odd layers
    when staggered."""
    b = L if spec.variant == Variant.FULL else spec.block_size
    return make_block_layout(L, b, layer, spec.staggered)


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
    return T.attend(q, k, v, mask, bias)


def _blocks(x: Tensor, layout: BlockLayout, extra: Tensor | None = None) -> Tensor:
    """[h, L, d] -> [h, nb, b, d] over the padded frame; `extra` [h, g, d] is
    appended to every block, giving [h, nb, b + g, d]."""
    h, L, d = x.shape
    nb = layout.num_blocks
    xf = T.pad_axis(x, 1, layout.pad_left, layout.pad_right)
    xb = T.reshape(xf, (h, nb, layout.block_size, d))
    if extra is None:
        return xb
    one = T.reshape(extra, (h, 1) + extra.shape[1:])
    return T.concat([xb, T.concat([one] * nb, axis=1)], axis=2)


def _unblock(x: Tensor, layout: BlockLayout) -> Tensor:
    """[h, nb, b, d] over the padded frame -> [h, L, d] over real positions."""
    h, d = x.shape[0], x.shape[-1]
    return T.narrow(T.reshape(x, (h, layout.frame_len, d)), 1, layout.pad_left, layout.seq_len)


def _local(q: Tensor, k: Tensor, v: Tensor, layout: BlockLayout, bias,
           glob_k: Tensor | None = None, glob_v: Tensor | None = None) -> Tensor:
    """Each frame block's queries against its own keys (and the global keys,
    when given): [h, L, d] out. Pad keys are masked out; the [h, b, b]
    bias is the same in every block and never applies to global keys."""
    _check_qkv(q, k, v)
    if layout.seq_len != q.shape[1]:
        raise ShapeError(f"layout seq_len {layout.seq_len} != sequence length {q.shape[1]}")
    nb, b = layout.num_blocks, layout.block_size
    g = 0 if glob_k is None else glob_k.shape[1]
    allow = None
    if layout.pad_left or layout.pad_right:
        keys = np.pad(np.ones(layout.seq_len, dtype=bool), (layout.pad_left, layout.pad_right))
        keys = keys.reshape(1, nb, 1, b)
        allow = np.concatenate([keys, np.ones((1, nb, 1, g), dtype=bool)], axis=-1)
    if bias is not None:
        bias = T.reshape(bias if isinstance(bias, Tensor) else Tensor(bias), (-1, 1, b, b))
        bias = T.pad_axis(bias, 3, 0, g)
    out = T.attend(_blocks(q, layout), _blocks(k, layout, glob_k),
                   _blocks(v, layout, glob_v), allow, bias)
    return _unblock(out, layout)


def block_local_attention(q: Tensor, k: Tensor, v: Tensor, layout: BlockLayout,
                          bias: np.ndarray | Tensor | None = None) -> Tensor:
    """Attention restricted to non-overlapping blocks under `layout`; `bias`
    is one [h, b, b] relative-offset bias shared by every block."""
    return _local(q, k, v, layout, bias)


def global_local_attention(tok_q: Tensor, tok_k: Tensor, tok_v: Tensor,
                           glob_q: Tensor, glob_k: Tensor, glob_v: Tensor,
                           layout: BlockLayout,
                           bias: np.ndarray | Tensor | None = None) -> tuple[Tensor, Tensor]:
    """Block-local token attention augmented with g global tokens.

    Each token query sees {its block} ∪ {all globals} under one softmax; each
    global query sees {all tokens} ∪ {all globals}. Inputs are per-head
    projected tensors; tok_* are [h, L, d] and glob_* are [h, g, d]. `bias`
    is the per-block [h, b, b] token-token bias, as for block_local_attention.
    Pad-slot queries of the frame are computed like any other and then
    dropped, as in block_local_attention, so they reach neither output.
    Returns (token_out [h, L, d], global_out [h, g, d]).
    """
    _check_qkv(glob_q, glob_k, glob_v)
    if glob_q.shape[1] < 1:
        raise ValueError("global-local attention needs at least one global token")
    tok_out = _local(tok_q, tok_k, tok_v, layout, bias, glob_k, glob_v)
    glob_out = T.attend(glob_q, T.concat([tok_k, glob_k], axis=1),
                        T.concat([tok_v, glob_v], axis=1))
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
    """Dense decoder attention over encoder token or global states (no mask)."""
    return full_attention(dec_q, enc_k, enc_v)


# ---------------------------------------------------------------------------
# analytic cost model

def attention_cost(spec: AttentionSpec, L: int) -> dict[str, int]:
    """Closed-form score-side MAC and score-element counts for one layer.

    Mirrors exactly the scores the attention kernels compute: the
    block-diagonal term runs over encoder_layout's padded frame (frame_len *
    block_size entries; the frame grows by a full block when staggered shifts
    apply), and GlobalLocal adds token->global (frame_len * g) and
    global->all (g * (L + g)) terms per head.
    """
    h, d = spec.num_heads, spec.head_dim
    layout = encoder_layout(spec, L, 1 if spec.staggered else 0)
    g = spec.num_global                 # 0 off global_local
    elems = layout.frame_len * (layout.block_size + g) + g * (L + g)
    return {"flops": h * elems * d, "score_mem_elems": h * elems}

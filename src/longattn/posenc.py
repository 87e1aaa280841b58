"""Position-encoding schemes: none, sinusoidal, learned-absolute (with
replication to longer lengths), rotary (RoPE), and T5-style relative bias.

Application sites differ per scheme: sinusoidal / learned-absolute / none act
on input embeddings, RoPE rotates per-head queries and keys, T5Relative adds a
bucketed bias to attention logits. Global tokens carry no position and are
never encoded. Every scheme is built from tensor ops, so it defines no
backward rule of its own.

The model fixes its constants: base 10000 for sinusoidal and RoPE (the
functions' default), and T5_BUCKETS buckets up to T5_MAX_DISTANCE for the T5
bias (Raffel et al. 2019). The functions take them as arguments for the oracles.

Sinusoidal rows are views of one read-only table per (width, factor), kept for
the process's life and rebuilt at least twice as long when a call reaches past
its end: at most twice the furthest position asked for (2048 x 64 floats is
1 MiB). A row is the closed form at its position, however the table grew.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from . import tensor as T
from .tensor import Tensor


class Scheme(str, Enum):
    NONE = "none"
    SINUSOIDAL = "sinusoidal"
    LEARNED_ABSOLUTE = "learned_absolute"
    ROPE = "rope"
    T5_RELATIVE = "t5_relative"


T5_BUCKETS = 32
T5_MAX_DISTANCE = 128
_SINUSOIDAL: dict[tuple[int, float], np.ndarray] = {}   # (d, factor) -> read-only table


def sinusoidal(L: int, d: int, factor: float = 10000.0, start: int = 0) -> np.ndarray:
    """PE[p, 2i] = sin(p / factor^(2i/d)), PE[p, 2i+1] = cos(...), for the L
    positions p = start .. start + L - 1: a read-only view of a cached table."""
    if d % 2 != 0 or start < 0:
        raise ValueError(f"sinusoidal encoding needs an even width and start >= 0, "
                         f"got {d} and {start}")
    table = _SINUSOIDAL.get((d, factor), np.empty((0, d)))
    if start + L > len(table):
        pos = np.arange(max(start + L, 2 * len(table)), dtype=np.float64)[:, None]
        ang = pos * factor ** (-np.arange(0, d, 2, dtype=np.float64) / d)
        table = np.empty((len(pos), d))
        table[:, 0::2], table[:, 1::2] = np.sin(ang), np.cos(ang)
        table.flags.writeable = False
        _SINUSOIDAL[(d, factor)] = table
    return table[start:start + L]


def replicate(table: np.ndarray, new_len: int) -> np.ndarray:
    """Tile a learned position table end-to-end up to new_len rows."""
    old = table.shape[0]
    if new_len < old:
        raise ValueError(f"replicate: new length {new_len} < current {old}")
    reps = -(-new_len // old)
    return np.tile(table, (reps, 1))[:new_len]


def learned_absolute(table: Tensor, L: int, start: int = 0) -> Tensor:
    """Rows start .. start + L - 1 of a learned position table."""
    if start + L > table.shape[0]:
        raise ValueError(
            f"sequence length {start + L} exceeds learned position table "
            f"({table.shape[0]}); replicate the table first")
    return T.narrow(table, 0, start, L)


# ---------------------------------------------------------------------------
# RoPE

def rope_apply(x: Tensor, positions, factor: float = 10000.0) -> Tensor:
    """Rotate frequency pairs (2i, 2i+1) of [h, L, d] by p * theta_i.

    Applied to queries and keys only, as x·cos + (x @ rot)·sin where rot maps
    each pair (x0, x1) to (-x1, x0): tensor ops, which differentiate it.
    """
    h, L, d = x.shape
    if d % 2 != 0:
        raise ValueError(f"RoPE needs an even head_dim, got {d}")
    positions = np.asarray(positions, dtype=np.float64)
    if positions.shape != (L,):
        raise ValueError(f"positions shape {positions.shape} != ({L},)")
    theta = factor ** (-np.arange(0, d, 2, dtype=np.float64) / d)
    ang = positions[:, None] * theta[None, :]                     # [L, d/2]
    cos, sin = np.repeat(np.cos(ang), 2, axis=1), np.repeat(np.sin(ang), 2, axis=1)
    rot = np.eye(d)[np.arange(d) ^ 1] * np.tile([1.0, -1.0], d // 2)[:, None]
    return T.add(T.mul(x, cos), T.mul(T.matmul(x, rot), sin))


# ---------------------------------------------------------------------------
# T5 relative bias

def t5_bucket(rel: np.ndarray, num_buckets: int, max_distance: int,
              bidirectional: bool) -> np.ndarray:
    """Canonical T5 relative-position bucketing of rel = j - i (key - query)."""
    rel = np.asarray(rel, dtype=np.int64)
    buckets = np.zeros_like(rel)
    n = num_buckets
    if bidirectional:
        n //= 2
        buckets = buckets + (rel > 0).astype(np.int64) * n
        rel_abs = np.abs(rel)
    else:
        rel_abs = np.maximum(-rel, 0)   # causal: only j <= i carries signal
    max_exact = n // 2
    is_small = rel_abs < max_exact
    log_part = max_exact + (
        np.log(np.maximum(rel_abs, 1) / max_exact)
        / math.log(max_distance / max_exact)
        * (n - max_exact)
    ).astype(np.int64)
    log_part = np.minimum(log_part, n - 1)
    return buckets + np.where(is_small, rel_abs, log_part)


def relative_bucket_matrix(Lq: int, Lk: int, num_buckets: int, max_distance: int,
                           bidirectional: bool, q_start: int = 0) -> np.ndarray:
    """Buckets of key j relative to query i, which sits at position q_start + i."""
    rel = np.arange(Lk)[None, :] - np.arange(q_start, q_start + Lq)[:, None]
    return t5_bucket(rel, num_buckets, max_distance, bidirectional)


def t5_relative_bias(Lq: int, Lk: int, num_buckets: int, max_distance: int,
                     bias_table: Tensor, bidirectional: bool, q_start: int = 0) -> Tensor:
    """[h, Lq, Lk] additive logit bias gathered from a [h, num_buckets] table;
    query i sits at key position q_start + i."""
    if bias_table.shape[1] != num_buckets:
        raise ValueError(
            f"bias table has {bias_table.shape[1]} buckets, config says {num_buckets}")
    buckets = relative_bucket_matrix(Lq, Lk, num_buckets, max_distance, bidirectional,
                                     q_start)
    rows = T.embedding_lookup(T.transpose(bias_table, (1, 0)), buckets)   # [Lq, Lk, h]
    return T.transpose(rows, (2, 0, 1))


def block_relative_bias(b: int, num_buckets: int, max_distance: int,
                        bias_table: Tensor) -> Tensor:
    """[h, b, b] bias for block-diagonal attention; relative offsets within a
    block are the same for every block, so one matrix serves them all."""
    return t5_relative_bias(b, b, num_buckets, max_distance, bias_table,
                            bidirectional=True)

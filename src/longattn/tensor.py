"""Dense float64 tensors with reverse-mode autodiff over a fixed op set. Only
this module defines backward rules; other modules (RoPE's) compose its ops.

Ops only record backward rules when a Tape is active and some input has
requires_grad set; inference runs tape-free and allocates nothing extra.
A one-input op is recorded only when its input requires grad, so its
backward rule needs no check; a rule of several inputs skips those that do not.
Constants are plain operands: `add`, `mul`, `matmul` and `concat` wrap an
ndarray or float operand in a Tensor that needs no grad. `attend` is the
one attention op, softmax(q k^T / sqrt(d) + bias) v, with a hand-written
backward. It runs one loop over tiles of at most ATTEND_TILE scores: a call
that fits one tile keeps its probabilities, a larger one recomputes them in
backward. `softmax` is no op, only attend's normaliser of score arrays. An op
writes only into arrays it allocated, never into inputs, gradients or arrays
saved for backward, so a backward rule may hand one array to several parents;
it never writes into an array it has handed to a parent. Every op that
computes checks its output for NaN/Inf and raises on violation.
The movement ops (reshape, transpose, concat, narrow, pad_axis) only copy or
view values, so they leave the check to the next op that computes.

Memory: `backward` releases each node as soon as its rule has run, so a
step's activations and intermediate gradients are freed during the pass; only
leaves (the parameters) and the loss keep a .grad after it. On glibc, import
raises two process-wide malloc thresholds, so freed buffers stay in the heap
for reuse. Backward rebuilds what is cheap to rebuild from arrays the tape
already holds rather than keep a copy: layer_norm keeps each row's mean and
inverse std and rebuilds x̂ from its input, gelu rebuilds its tanh from its
input, and attend rebuilds the scaled queries from q. Because no op writes
into its inputs, the rebuilt arrays equal forward's bit for bit.
"""

from __future__ import annotations

import ctypes
import math
import sys
import warnings
from typing import Callable, Sequence

import numpy as np

MASK_NEG = -1e9
ATTEND_TILE = 1 << 19      # score entries per attention tile: 4 MiB of float64

# M_MMAP_THRESHOLD (-3) and M_TRIM_THRESHOLD (-1); musl's mallopt is a no-op.
# backward frees as it goes, so a step ends with its whole peak free at the
# heap's top: a trim threshold below that peak would hand it back to the OS
# and the next step would fault it in again
_libc = ctypes.CDLL(None) if sys.platform.startswith("linux") else None
if hasattr(_libc, "gnu_get_libc_version") and not all(
        [_libc.mallopt(*pv) == 1 for pv in ((-3, 32 << 20), (-1, 1 << 30))]):
    warnings.warn("mallopt failed: freed buffers go back to the OS", RuntimeWarning)


class ShapeError(ValueError):
    pass


class TapeError(RuntimeError):
    pass


class Tape:
    """Records ops in forward order; one backward pass per forward pass."""

    _active: "Tape | None" = None

    def __init__(self):
        self.nodes: list[Tensor] = []
        self.consumed = False

    def __enter__(self) -> "Tape":
        if Tape._active is not None:
            raise TapeError("nested tapes are not supported")
        Tape._active = self
        return self

    def __exit__(self, *exc):
        Tape._active = None
        return False


def _check_finite(arr: np.ndarray, op: str) -> None:
    if not np.isfinite(arr).all():
        raise FloatingPointError(f"non-finite values produced by op '{op}'")


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "tape")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None
        self.tape: Tape | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def accumulate_grad(self, g: np.ndarray) -> None:
        self.grad = g if self.grad is None else self.grad + g


# ops that only copy or view their inputs' values: they leave the finiteness
# check to the next op that computes
_MOVES = frozenset({"reshape", "transpose", "concat", "narrow", "pad"})


def _record(out: Tensor, parents: Sequence[Tensor],
            backward: Callable[[np.ndarray], None], op: str) -> Tensor:
    if op not in _MOVES:
        _check_finite(out.data, op)
    tape = Tape._active
    if tape is not None and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
        out.tape = tape
        tape.nodes.append(out)
    return out


# ---------------------------------------------------------------------------
# broadcasting helpers

def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient g down to `shape` (inverse of numpy broadcasting)."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# ---------------------------------------------------------------------------
# elementwise / arithmetic

def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out = Tensor(a.data + b.data)
    except ValueError as e:
        raise ShapeError(f"add: incompatible shapes {a.shape} vs {b.shape}") from e

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g, b.shape))
    return _record(out, (a, b), backward, "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out = Tensor(a.data * b.data)
    except ValueError as e:
        raise ShapeError(f"mul: incompatible shapes {a.shape} vs {b.shape}") from e

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g * a.data, b.shape))
    return _record(out, (a, b), backward, "mul")


_GELU_C = math.sqrt(2.0 / math.pi)


def _gelu_tanh(x: np.ndarray) -> np.ndarray:
    """tanh(sqrt(2/pi) (x + 0.044715 x^3)) in a new array. gelu's forward and
    backward both call it, so backward rebuilds forward's tanh bit for bit."""
    t = np.multiply(x, x, out=np.empty_like(x))   # an array for 0-d x too; x ** 3 calls pow
    t *= x
    t *= 0.044715
    t += x
    t *= _GELU_C
    return np.tanh(t, out=t)


def gelu(a: Tensor) -> Tensor:
    """tanh-approximation GELU. Backward rebuilds the tanh from the input
    rather than keep it."""
    x = a.data
    out = _gelu_tanh(x)
    out += 1.0
    out *= 0.5 * x

    def backward(g):
        t = _gelu_tanh(x)
        d = np.multiply(x, x, out=np.empty_like(x))   # 0.5 (1 + t + (1 - t^2) x inner')
        d *= 3 * 0.044715 * _GELU_C
        d += _GELU_C
        d *= 1.0 - t * t            # before x: x^3 overflows, and 0 * inf is NaN, from |x| 1e103
        d *= x
        d += 1.0 + t
        d *= 0.5 * g
        a.accumulate_grad(d)
    return _record(Tensor(out), (a,), backward, "gelu")


def dropout(a: Tensor, p: float, training: bool, rng: np.random.Generator | None = None) -> Tensor:
    if not training or p == 0.0:
        return a
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout p must be in [0, 1), got {p}")
    if rng is None:
        raise ValueError("dropout in training mode needs an rng")
    keep = (rng.random(a.shape) >= p) / (1.0 - p)
    return mul(a, keep)


# ---------------------------------------------------------------------------
# matmul

def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} x {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner extents differ, {a.shape} x {b.shape}")
    try:
        out = Tensor(a.data @ b.data)
    except ValueError as e:
        raise ShapeError(f"matmul: batch extents incompatible, {a.shape} x {b.shape}") from e

    def backward(g):
        if a.requires_grad:
            ga = g @ np.swapaxes(b.data, -1, -2)
            a.accumulate_grad(_unbroadcast(ga, a.shape))
        if b.requires_grad:
            gb = np.swapaxes(a.data, -1, -2) @ g
            b.accumulate_grad(_unbroadcast(gb, b.shape))
    return _record(out, (a, b), backward, "matmul")


# ---------------------------------------------------------------------------
# reductions / shaping

def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))

    def backward(g):
        if axis is None:
            a.accumulate_grad(np.broadcast_to(g, a.shape))
        else:
            gg = g if keepdims else np.expand_dims(g, axis)
            a.accumulate_grad(np.broadcast_to(gg, a.shape))
    return _record(out, (a,), backward, "sum")


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape))

    def backward(g):
        a.accumulate_grad(g.reshape(a.shape))
    return _record(out, (a,), backward, "reshape")


def transpose(a: Tensor, axes) -> Tensor:
    out = Tensor(a.data.transpose(axes))
    inv = np.argsort(axes)

    def backward(g):
        a.accumulate_grad(g.transpose(inv))
    return _record(out, (a,), backward, "transpose")


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        parts = np.split(g, splits, axis=axis)
        for t, gp in zip(tensors, parts):
            if t.requires_grad:
                t.accumulate_grad(gp)
    return _record(out, tuple(tensors), backward, "concat")


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Slice `length` entries from `start` along `axis`; the whole axis is `a`.
    A slice that does not lie within the axis raises ShapeError."""
    if start < 0 or length < 0 or start + length > a.shape[axis]:
        raise ShapeError(f"narrow: [{start}, {start + length}) lies outside axis {axis} "
                         f"of shape {a.shape}")
    if start == 0 and length == a.shape[axis]:
        return a
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    out = Tensor(a.data[idx])

    def backward(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        a.accumulate_grad(full)
    return _record(out, (a,), backward, "narrow")


def pad_axis(a: Tensor, axis: int, before: int, after: int) -> Tensor:
    if before == 0 and after == 0:
        return a
    width = [(0, 0)] * a.data.ndim
    width[axis] = (before, after)
    out = Tensor(np.pad(a.data, width))
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(before, before + a.shape[axis])
    idx = tuple(idx)

    def backward(g):
        a.accumulate_grad(g[idx])
    return _record(out, (a,), backward, "pad")


# ---------------------------------------------------------------------------
# attention / normalization / loss

def softmax(s: np.ndarray) -> np.ndarray:
    """Row probabilities of a score array over its last axis, in a new array:
    attend's normaliser, called once per tile. It records no node and leaves
    the finiteness check to attend, whose output a NaN here reaches."""
    p = s - s.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    return p


def _tile_axis(scores: tuple[int, ...]) -> tuple[int, int]:
    """(axis, step): the outermost score axis, bar the key axis, cut into the
    fewest equal runs of `step` entries that span at most ATTEND_TILE scores
    each. Single rows when no axis fits: a tile then holds one row of every
    leading index."""
    n = math.prod(scores)
    for axis in range(-len(scores), -1):
        if scores[axis] > 1 and n // scores[axis] <= ATTEND_TILE:
            count = -(-scores[axis] // (ATTEND_TILE // (n // scores[axis])))
            return axis, -(-scores[axis] // count)
    return -2, 1


def attend(q: Tensor, k: Tensor, v: Tensor, allow: np.ndarray | None = None,
           bias: np.ndarray | Tensor | None = None) -> Tensor:
    """softmax(q k^T / sqrt(d) + bias) v over any leading axes, restricted to
    the keys `allow` marks True (broadcastable to the scores). Rows with no
    allowed key come out zero. `bias` (broadcastable to the scores) may carry
    grad. One recorded op and one loop over tiles of at most ATTEND_TILE
    scores, cut along one axis (Rabe & Staats 2021, arXiv 2112.05682): forward
    calls softmax once per tile. Scores that fit one tile are a
    loop of one, whose node keeps their probabilities and no other
    score-sized array. Larger scores keep each row's log-sum-exp instead:
    backward recomputes each tile's p = exp(s - lse) and adds the tile's share
    to every gradient, so no buffer outlives its tile (only a bias gradient is
    as large as the bias)."""
    bias = None if bias is None else _as_tensor(bias)
    parents = (q, k, v) if bias is None else (q, k, v, bias)
    scale = 1.0 / np.sqrt(q.shape[-1])

    def cut(x: np.ndarray, sl: slice, keys: bool = False) -> tuple:
        """Index of the tile `sl` in x, which is right-aligned with the scores
        (k and v with their leading axes); () where x is broadcast there."""
        if x is None or (keys and axis == -2) or x.ndim < -axis or x.shape[axis] == 1:
            return ()
        return (slice(None),) * (x.ndim + axis) + (sl,)

    def tile(sl: slice) -> tuple:
        """The tile `sl`'s index in q, k, v, the bias, allow and the output rows."""
        return (cut(q.data, sl), cut(k.data, sl, True), cut(v.data, sl, True),
                cut(None if bias is None else bias.data, sl), cut(allow, sl),
                (slice(None),) * (len(scores) + axis) + (sl,))

    def tile_scores(at: tuple):
        """A tile's scores and allow-mask, None where the tile masks no key.
        It scales q, not the larger scores, and q·scale dies with the matmul."""
        s = (q.data[at[0]] * scale) @ np.swapaxes(k.data[at[1]], -1, -2)
        if bias is not None:
            s += bias.data[at[3]]
        mask = None if allow is None or allow[at[4]].all() else allow[at[4]]
        if mask is not None:
            s += np.where(mask, 0.0, MASK_NEG)
        return s, mask

    if k.shape[-2:-1] == (0,):
        raise ShapeError(f"attend: empty key axis in k {k.shape}: no key to attend to")
    try:
        rows = q.shape[:-1] if q.shape[:-2] == k.shape[:-2] else \
            np.broadcast_shapes(q.shape[:-1], k.shape[:-2] + (1,))
        scores = rows + k.shape[-2:-1]
        one = math.prod(scores) <= ATTEND_TILE   # so too no scores, which _tile_axis cannot cut
        axis, step = (-2, 0) if one else _tile_axis(scores)
        tiles = [slice(None)] if one else [slice(i, i + step) for i in range(0, scores[axis], step)]
        kept = None                              # a loop of one's probabilities
        o, lse = (None, None) if one else (np.empty(rows + v.shape[-1:]), np.empty(rows + (1,)))
        for sl in tiles:
            at = tile(sl)
            s, mask = tile_scores(at)
            p = softmax(s)                       # once per tile, so its calls count the scores
            dead = None if mask is None else ~mask.any(axis=-1, keepdims=True)
            if dead is not None and dead.any():
                p *= np.where(dead, 0.0, 1.0)    # a dead row comes out uniform; zero it
            if one:
                o, kept = p @ v.data[at[2]], p
                continue
            # a row's largest p is 1 / its sum; a dead row's lse is inf, so it recomputes as 0
            with np.errstate(divide="ignore"):
                lse[at[5]] = s.max(axis=-1, keepdims=True) - np.log(p.max(axis=-1, keepdims=True))
            o[at[5]] = p @ v.data[at[2]]
    except (ValueError, IndexError) as e:
        raise ShapeError(f"attend: incompatible shapes q {q.shape}, k {k.shape}, v {v.shape}, "
                         f"bias {None if bias is None else bias.shape}") from e

    def backward(g):
        sums = None if one else [np.zeros(t.shape) if t.requires_grad else None for t in parents]
        for sl in tiles:
            at = tile(sl)
            if one:
                p = kept                         # kept, so no scores are rebuilt
            else:
                p, _ = tile_scores(at)
                p -= lse[at[5]]
                np.exp(p, out=p)
            gt, ot = g[at[5]], o[at[5]]
            dv = np.swapaxes(p, -1, -2) @ gt if v.requires_grad else None
            ds = gt @ np.swapaxes(v.data[at[2]], -1, -2)   # rowsum(dP * P) = rowsum(dO * O)
            ds -= (gt * ot).sum(axis=-1, keepdims=True)
            ds *= p
            dq = None
            if q.requires_grad:
                dq = ds @ k.data[at[1]]
                dq *= scale                      # scale dq, never ds, which may become the bias's
            dk = np.swapaxes(ds, -1, -2) @ (q.data[at[0]] * scale) if k.requires_grad else None
            for i, (t, d) in enumerate(zip(parents, (dq, dk, dv, ds))):
                if t.requires_grad and one:
                    t.accumulate_grad(_unbroadcast(d, t.shape))   # the bias's may be ds itself
                elif t.requires_grad:
                    sums[i][at[i]] += _unbroadcast(d, sums[i][at[i]].shape)
        for t, total in zip(parents, sums or ()):
            if total is not None:
                t.accumulate_grad(total)
    return _record(Tensor(o), parents, backward, "attend")


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-6) -> Tensor:
    d = a.shape[-1]
    if d == 0:
        raise ShapeError("layer_norm: zero-length last axis")
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm: gain/bias {gain.shape}/{bias.shape} vs last extent {d}")
    mu = a.data.mean(axis=-1, keepdims=True)
    out = a.data - mu                    # centred here, normalised in place below
    var = (out ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    out *= inv
    out *= gain.data
    out += bias.data

    def backward(g):
        xhat = a.data - mu               # forward's x̂, rebuilt bit for bit
        xhat *= inv
        if gain.requires_grad:
            gain.accumulate_grad((g * xhat).reshape(-1, d).sum(axis=0))
        if bias.requires_grad:
            bias.accumulate_grad(g.reshape(-1, d).sum(axis=0))
        if a.requires_grad:
            gx = g * gain.data
            t1 = gx.mean(axis=-1, keepdims=True)
            t2 = (gx * xhat).mean(axis=-1, keepdims=True)
            a.accumulate_grad(inv * (gx - t1 - xhat * t2))
    return _record(Tensor(out), (a, gain, bias), backward, "layer_norm")


def embedding_lookup(table: Tensor, ids) -> Tensor:
    ids = np.asarray(ids, dtype=np.int64)
    V = table.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= V):
        raise IndexError(f"embedding id out of range [0, {V})")
    out = Tensor(table.data[ids])

    def backward(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids, g)
        table.accumulate_grad(gt)
    return _record(out, (table,), backward, "embedding_lookup")


def cross_entropy(logits: Tensor, targets, ignore_id: int = -1) -> Tensor:
    """Mean negative log-softmax over non-ignored positions."""
    targets = np.asarray(targets, dtype=np.int64)
    T, V = logits.shape
    if targets.shape != (T,):
        raise ShapeError(f"cross_entropy: targets {targets.shape} vs logits {logits.shape}")
    live = targets != ignore_id
    if live.any() and (targets[live].min() < 0 or targets[live].max() >= V):
        raise IndexError(f"target id out of range [0, {V})")
    n = max(int(live.sum()), 1)              # no live position: loss 0, gradient 0
    x = logits.data
    z = x - x.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    logp = z - lse
    tgt = np.where(live, targets, 0)
    picked = logp[np.arange(T), tgt]
    out = Tensor(-(picked * live).sum() / n)

    def backward(g):
        p = np.exp(logp)
        p[np.arange(T), tgt] -= 1.0
        p *= (live / n)[:, None] * g
        logits.accumulate_grad(p)
    return _record(out, (logits,), backward, "cross_entropy")


# ---------------------------------------------------------------------------
# backward / finite differences

def backward(loss: Tensor) -> None:
    """Run reverse-mode accumulation from a scalar loss; a tape runs it once.

    Every leaf on a path to the loss that requires grad (the parameters) has
    its gradient added to .grad; callers clear .grad between passes. Nothing
    is returned. Each node is released as soon as its rule has run: it leaves
    the tape and drops its parents, its rule and, unless it is the loss, its
    .grad. So activations, saved arrays and intermediate gradients are freed
    during the pass, and no intermediate .grad is kept after it. `.tape`
    rejects a second pass.
    """
    if loss.data.shape != ():
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.shape}")
    tape = loss.tape
    if tape is None:
        raise TapeError("loss is not attached to a tape (no grad recorded)")
    if tape.consumed:
        raise TapeError("tape already consumed by a previous backward pass")
    tape.consumed = True

    loss.grad = np.array(1.0)
    nodes = tape.nodes
    while nodes:
        node = nodes.pop()
        if node.grad is not None:
            node._backward(node.grad)
        node._parents, node._backward = (), None
        if node is not loss:
            node.grad = None


def finite_diff_grad(f: Callable[[Tensor], Tensor], x: Tensor, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of scalar f at x, elementwise."""
    base = np.array(x.data, copy=True)
    g = np.zeros_like(base)
    flat = base.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = float(f(Tensor(base)).data)
        flat[i] = orig - h
        fm = float(f(Tensor(base)).data)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return g


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    """Max elementwise relative error with denominator max(|a|,|b|,1e-8)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0

"""Dense float64 tensors with reverse-mode autodiff over a fixed op set.

Ops only record backward rules when a Tape is active and some input has
requires_grad set; inference runs tape-free and allocates nothing extra.
A one-input op is recorded only when its input requires grad, so its
backward rule needs no check; a rule of several inputs skips those that do not.
Constants are plain operands: `add`, `mul`, `matmul` and `concat` wrap an
ndarray or float operand in a Tensor that needs no grad. Gradients are
never updated in place, so a backward rule may hand one array to several
parents.
Every forward op checks its output for NaN/Inf and raises on violation.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

MASK_NEG = -1e9


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
    if not np.all(np.isfinite(arr)):
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


def _record(out: Tensor, parents: Sequence[Tensor],
            backward: Callable[[np.ndarray], None], op: str) -> Tensor:
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


def gelu(a: Tensor) -> Tensor:
    """tanh-approximation GELU."""
    x = a.data
    inner = _GELU_C * (x + 0.044715 * x ** 3)
    t = np.tanh(inner)
    out = Tensor(0.5 * x * (1.0 + t))

    def backward(g):
        dinner = _GELU_C * (1.0 + 3 * 0.044715 * x ** 2)
        d = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t ** 2) * dinner
        a.accumulate_grad(g * d)
    return _record(out, (a,), backward, "gelu")


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
    """Slice `length` entries from `start` along `axis`."""
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
# normalization / softmax / loss

def softmax(a: Tensor, axis: int = -1) -> Tensor:
    x = a.data
    if not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"softmax axis {axis} out of bounds for shape {a.shape}")
    s = x - x.max(axis=axis, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=axis, keepdims=True)
    out = Tensor(s)

    def backward(g):
        dot = (g * s).sum(axis=axis, keepdims=True)
        a.accumulate_grad(s * (g - dot))
    return _record(out, (a,), backward, "softmax")


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-6) -> Tensor:
    d = a.shape[-1]
    if d == 0:
        raise ShapeError("layer_norm: zero-length last axis")
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm: gain/bias {gain.shape}/{bias.shape} vs last extent {d}")
    mu = a.data.mean(axis=-1, keepdims=True)
    xc = a.data - mu
    var = (xc ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = Tensor(xhat * gain.data + bias.data)

    def backward(g):
        if gain.requires_grad:
            gain.accumulate_grad((g * xhat).reshape(-1, d).sum(axis=0))
        if bias.requires_grad:
            bias.accumulate_grad(g.reshape(-1, d).sum(axis=0))
        if a.requires_grad:
            gx = g * gain.data
            t1 = gx.mean(axis=-1, keepdims=True)
            t2 = (gx * xhat).mean(axis=-1, keepdims=True)
            a.accumulate_grad(inv * (gx - t1 - xhat * t2))
    return _record(out, (a, gain, bias), backward, "layer_norm")


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

    Every tensor on a path to the loss that requires grad, parameters
    included, has its gradient added to .grad (callers clear .grad between
    passes). Nothing is returned.
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
    for node in reversed(tape.nodes):
        if node.grad is None:
            continue
        node._backward(node.grad)


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

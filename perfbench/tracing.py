"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of the longattn modules from outside the
library. Each function is replaced at every name a caller can resolve it
through: the defining module's attribute and any other longattn module that
imported it by name (``train.py`` imports ``seq2seq_loss`` from ``model``).
A span is a list ``[name, parent, start, end]`` kept in memory; spans are
aggregated into per-layer metrics and written out when the run ends.

Counts come from argument shapes (matmul and attention score MACs), from the
tape a loss hangs on (nodes and their output bytes) and from ``gc.callbacks``,
never from counters inside the library.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import gc
import gzip
import math
import sys
from time import perf_counter

import numpy as np

ALL = ("train-needle", "train-long", "decode-long")
TRAIN = ("train-needle", "train-long")

TENSOR_OPS = {
    "matmul": ("matmul",),
    "softmax": ("softmax",),
    "layer_norm": ("layer_norm",),
    "gelu": ("gelu",),
    # composites (sub, mean, dropout) are counted through the primitives they call
    "elementwise": ("add", "mul", "scale", "add_const", "mul_const", "relu", "tsum"),
    "movement": ("reshape", "transpose", "concat", "narrow", "pad_axis"),
    "embedding_lookup": ("embedding_lookup",),
    "cross_entropy": ("cross_entropy",),
}
KERNELS = ("full_attention", "block_local_attention", "global_local_attention")
ATTENTION_FNS = KERNELS + ("causal_self_attention", "cross_attention")
POSENC_FNS = ("sinusoidal", "learned_absolute", "rope_apply", "t5_relative_bias",
              "block_relative_bias")

# Tensor ops the model never calls; wrapped so their calls still show.
UNUSED_OPS = ("mul", "relu", "tsum")

# (module, attribute, span name, workloads on which a call is required)
TARGETS = (
    [("tensor", "backward", "tensor.backward", TRAIN)]
    + [("tensor", fn, f"tensor.op.{cat}",
        () if fn in UNUSED_OPS else TRAIN if cat == "cross_entropy" else ALL)
       for cat, fns in TENSOR_OPS.items() for fn in fns]
    + [("attention", fn, f"attention.{fn}",
        TRAIN if fn == "block_local_attention" else ALL)
       for fn in ATTENTION_FNS]
    + [("posenc", fn, f"posenc.{fn}",
        ("train-long", "decode-long") if fn == "sinusoidal" else ())
       for fn in POSENC_FNS]
    + [("model", "encoder_forward", "model.encoder_forward", ALL),
       ("model", "decoder_forward", "model.decoder_forward", ALL),
       ("model", "seq2seq_loss", "model.seq2seq_loss", TRAIN),
       ("model", "greedy_decode", "model.greedy_decode", ("decode-long",)),
       ("model", "beam_decode", "model.beam_decode", ("decode-long",)),
       ("train", "train_step", "train.train_step", TRAIN),
       ("train", "Adam.step", "train.adam", TRAIN),
       ("data", "gen_corpus", "data.gen_corpus", ALL),
       ("adapt", "save", "adapt.save", ("decode-long",)),
       ("adapt", "load", "adapt.load", ("decode-long",)),
       ("adapt", "port_to_global_local", "adapt.port_to_global_local", ("decode-long",)),
       ("rouge", "corpus_report", "rouge.corpus_report", ("decode-long",))]
)


class Tracer:
    """Installs wrappers, records spans while active, and aggregates them."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.active = False
        self.meta: dict[int, tuple] = {}        # span index -> counted quantities
        self.absent: list[str] = []             # "module.attr" not found
        self.aliases: list[str] = []            # extra bindings that were wrapped
        self.fired: dict[str, list] = {}        # "module.attr" -> [traced calls]
        self.gc_ms = 0.0
        self.gc_collections = 0
        self._gc_t0 = 0.0
        self.errors: list[str] = []

    # -- installation ------------------------------------------------------

    def install(self, package: str = "longattn") -> None:
        hooks = {
            "tensor.op.matmul": _matmul_macs,
            "tensor.backward": _tape_size,
            "attention.full_attention": _full_macs,
            "attention.block_local_attention": _block_macs,
            "attention.global_local_attention": _global_macs,
            "model.encoder_forward": _encoder_meta,
            "model.decoder_forward": _decoder_positions,
        }
        modules = {k[len(package) + 1:]: m for k, m in list(sys.modules.items())
                   if k.startswith(package + ".") and m is not None}
        for mod_name, attr, span, _ in TARGETS:
            mod = modules.get(mod_name)
            owner, _, fn_name = attr.rpartition(".")
            holder = getattr(mod, owner, None) if owner else mod
            fn = getattr(holder, fn_name, None) if holder is not None else None
            if fn is None:
                self.absent.append(f"{mod_name}.{attr}")
                continue
            counter = self.fired.setdefault(f"{mod_name}.{attr}", [0])
            wrapped = self._wrap(fn, span, hooks.get(span), counter)
            setattr(holder, fn_name, wrapped)
            if owner:
                continue
            for other_name, other in modules.items():
                for key, val in list(vars(other).items()):
                    if val is fn and not (other is mod and key == fn_name):
                        setattr(other, key, wrapped)
                        self.aliases.append(f"{other_name}.{key} -> {mod_name}.{attr}")
        gc.callbacks.append(self._gc_callback)

    def _wrap(self, fn, name, hook, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            counter[0] += 1
            spans, stack = tracer.spans, tracer.stack
            idx = len(spans)
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(rec)
            stack.append(idx)
            if hook is not None:
                try:
                    hook(tracer, idx, args, kwargs)
                except Exception as e:      # a counting bug must not alter the run
                    tracer.errors.append(f"{name}: {type(e).__name__}: {e}")
            rec[2] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
        return wrapper

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block (untimed correctness checks)."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def present(self) -> set[str]:
        """Span names with at least one wrapped function behind them."""
        return {span for mod, attr, span, _ in TARGETS if f"{mod}.{attr}" in self.fired}

    def silent(self, workload: str) -> list[str]:
        """Wrapped functions required on `workload` that recorded no call."""
        return [f"{mod}.{attr}" for mod, attr, _, need in TARGETS
                if workload in need and self.fired.get(f"{mod}.{attr}", [1])[0] == 0]

    def _gc_callback(self, phase, info) -> None:
        if not self.active:
            return
        if phase == "start":
            self._gc_t0 = perf_counter()
        else:
            self.gc_ms += (perf_counter() - self._gc_t0) * 1e3
            self.gc_collections += 1

    # -- aggregation ---------------------------------------------------------

    def ancestor(self, idx: int, names) -> int:
        p = self.spans[idx][1]
        while p >= 0 and self.spans[p][0] not in names:
            p = self.spans[p][1]
        return p

    def write(self, path) -> None:
        """Write every span as `index name parent start_s end_s` lines."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("index\tname\tparent\tstart_s\tend_s\n")
            for i, (name, parent, t0, t1) in enumerate(self.spans):
                f.write(f"{i}\t{name}\t{parent}\t{t0:.9f}\t{t1:.9f}\n")


class Window:
    """Totals over spans opened between two indices of a tracer's span list."""

    def __init__(self, tracer: Tracer, lo: int, hi: int):
        self.tracer = tracer
        self.lo, self.hi = lo, hi
        self.calls: dict[str, int] = {}
        self.total_ms: dict[str, float] = {}
        self.self_ms: dict[str, float] = {}
        spans = tracer.spans
        child_ms = [0.0] * (hi - lo)
        for i in range(hi - 1, lo - 1, -1):
            name, parent, t0, t1 = spans[i]
            dur = (t1 - t0) * 1e3
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total_ms[name] = self.total_ms.get(name, 0.0) + dur
            self.self_ms[name] = self.self_ms.get(name, 0.0) + dur - child_ms[i - lo]
            if parent >= lo:
                child_ms[parent - lo] += dur

    def indices(self, name: str):
        spans = self.tracer.spans
        return [i for i in range(self.lo, self.hi) if spans[i][0] == name]

    def meta_sum(self, name: str, k: int = 0) -> int:
        meta = self.tracer.meta
        return sum(meta[i][k] for i in self.indices(name) if i in meta)

    def positions_per(self, call: str) -> float:
        """Decoder positions computed per `call` span (a decode request)."""
        tr = self.tracer
        calls = self.indices(call)
        if not calls:
            return 0.0
        total = sum(tr.meta[i][0] for i in self.indices("model.decoder_forward")
                    if tr.ancestor(i, (call,)) >= 0)
        return total / len(calls)

    def top_level(self, prefix: str) -> tuple[int, float]:
        """Calls and inclusive ms of spans named `prefix*` whose nearest
        traced ancestor is not also such a span."""
        spans = self.tracer.spans
        n, ms = 0, 0.0
        for i in range(self.lo, self.hi):
            name, parent, t0, t1 = spans[i]
            if name.startswith(prefix) and not (parent >= 0 and spans[parent][0].startswith(prefix)):
                n += 1
                ms += (t1 - t0) * 1e3
        return n, ms


# -- counting hooks ----------------------------------------------------------
# Each records a tuple in tracer.meta[span index] from the call's arguments.

def _matmul_macs(tr, idx, args, kwargs):
    a, b = args[0].shape, args[1].shape
    batch = math.prod(np.broadcast_shapes(a[:-2], b[:-2]))
    tr.meta[idx] = (batch * a[-2] * a[-1] * b[-1],)


def _score(tr, idx, h, d, elems, itemsize):
    # (MACs, score bytes): every score entry costs d MACs and one float
    tr.meta[idx] = (h * elems * d, h * elems * itemsize)


def _full_macs(tr, idx, args, kwargs):
    q, k = args[0], args[1]
    h, lq, d = q.shape
    _score(tr, idx, h, d, lq * k.shape[1], q.data.itemsize)


def _block_macs(tr, idx, args, kwargs):
    q, layout = args[0], args[3] if len(args) > 3 else kwargs["layout"]
    h, _, d = q.shape
    _score(tr, idx, h, d, layout.frame_len * layout.block_size, q.data.itemsize)


def _global_macs(tr, idx, args, kwargs):
    q, gq, layout = args[0], args[3], args[6] if len(args) > 6 else kwargs["layout"]
    h, L, d = q.shape
    g = gq.shape[1]
    F = layout.frame_len
    _score(tr, idx, h, d, F * layout.block_size + F * g + g * (L + g), q.data.itemsize)


def _tape_size(tr, idx, args, kwargs):
    tape = getattr(args[0], "tape", None)
    nodes = getattr(tape, "nodes", None)
    if nodes is not None:
        tr.meta[idx] = (len(nodes), sum(n.data.nbytes for n in nodes))


def _encoder_meta(tr, idx, args, kwargs):
    tr.meta[idx] = (args[0], len(args[2]))     # (cfg, L)


def _decoder_positions(tr, idx, args, kwargs):
    tr.meta[idx] = (len(args[2]),)


def encoder_cost_mismatches(win: Window) -> list[str | None]:
    """Compare score MACs traced under each encoder_forward call with the sum
    of attention_cost() over that encoder's layers: one entry per call, None
    where they agree."""
    from longattn.attention import attention_cost

    tr = win.tracer
    traced: dict[int, int] = {}
    for kernel in KERNELS:
        for i in win.indices(f"attention.{kernel}"):
            enc = tr.ancestor(i, ("model.encoder_forward",))
            if enc >= 0 and i in tr.meta:
                traced[enc] = traced.get(enc, 0) + tr.meta[i][0]
    out = []
    for i in win.indices("model.encoder_forward"):
        cfg, L = tr.meta[i]
        spec = cfg.attention
        expect = 0
        for layer in range(cfg.enc_layers):
            layer_spec = spec
            if spec.staggered:
                layer_spec = dataclasses.replace(spec, staggered=layer % 2 == 1)
            expect += attention_cost(layer_spec, L)["flops"]
        out.append(None if traced.get(i, 0) == expect else
                   f"encoder_forward L={L} {spec.variant.value}: traced "
                   f"{traced.get(i, 0)} score MACs, attention_cost() {expect}")
    return out

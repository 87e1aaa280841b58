"""Attention scaling harness: wall time plus the closed-form score counts of
attention_cost().

Assertions are made on those counts only; wall time is informational (desk
hardware varies) and never checked in CI.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass

import numpy as np

from . import attention as A
from .attention import AttentionSpec, Variant, make_block_layout
from .tensor import Tensor

CSV_FIELDS = ["variant", "L", "b", "g", "wall_ms", "mac_count", "score_elems",
              "wall_rel", "mac_rel", "score_rel"]


def _run_once(spec: AttentionSpec, L: int, rng: np.random.Generator) -> None:
    h, d = spec.num_heads, spec.head_dim
    q, k, v = (Tensor(rng.standard_normal((h, L, d))) for _ in range(3))
    if spec.variant == Variant.FULL:
        A.full_attention(q, k, v)
        return
    layer = 1 if spec.staggered else 0
    layout = make_block_layout(L, spec.block_size, layer, spec.staggered)
    if spec.variant == Variant.BLOCK_LOCAL:
        A.block_local_attention(q, k, v, layout)
    else:
        g = spec.num_global
        gq, gk, gv = (Tensor(rng.standard_normal((h, g, d))) for _ in range(3))
        A.global_local_attention(q, k, v, gq, gk, gv, layout)


def measure(spec: AttentionSpec, L: int, repeats: int = 5, seed: int = 0) -> dict:
    """Median wall time over `repeats` after 2 warmups, plus attention_cost()."""
    rng = np.random.default_rng(seed)
    for _ in range(2):
        _run_once(spec, L, rng)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _run_once(spec, L, rng)
        times.append((time.perf_counter() - t0) * 1e3)
    cost = A.attention_cost(spec, L)
    return {"variant": spec.variant.value, "L": L, "b": spec.block_size,
            "g": spec.num_global, "wall_ms": float(np.median(times)),
            "mac_count": cost["flops"], "score_elems": cost["score_mem_elems"]}


def run_scaling(specs: list[AttentionSpec], lengths: list[int], repeats: int = 5,
                baseline: tuple | None = None, seed: int = 0) -> list[dict]:
    """Grid of measurements; ratios are normalized to a named baseline row.

    baseline: (variant_value, L) naming the row all _rel columns divide by;
    defaults to the first row.
    """
    rows = []
    for spec in specs:
        for L in lengths:
            rows.append(measure(spec, L, repeats=repeats, seed=seed))
    if baseline is None:
        base = rows[0]
    else:
        bv, bL = baseline
        base = next((r for r in rows if r["variant"] == bv and r["L"] == bL), None)
        if base is None:
            raise ValueError(
                f"baseline row ({bv}, L={bL}) is not in the measured grid")
    for r in rows:
        r["wall_rel"] = r["wall_ms"] / base["wall_ms"]
        r["mac_rel"] = r["mac_count"] / base["mac_count"]
        r["score_rel"] = r["score_elems"] / base["score_elems"]
    return rows


def rows_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=CSV_FIELDS)
    w.writeheader()
    for r in rows:
        w.writerow(r)
    return buf.getvalue()


@dataclass
class OrderingReport:
    ok: bool
    checks: list
    message: str


def ordering_check(rows: list[dict], min_len_blocks: int = 8) -> OrderingReport:
    """Local <= GlobalLocal < Full on mac_count, for L >= min_len_blocks * b."""
    by_len: dict[int, dict[str, dict]] = {}
    for r in rows:
        by_len.setdefault(r["L"], {})[r["variant"]] = r
    checks = []
    ok = True
    for L, group in sorted(by_len.items()):
        local = group.get(Variant.BLOCK_LOCAL.value)
        gl = group.get(Variant.GLOBAL_LOCAL.value)
        full = group.get(Variant.FULL.value)
        if local is None or full is None:
            continue
        if L < min_len_blocks * local["b"]:
            continue
        mid = gl["mac_count"] if gl else local["mac_count"]
        good = local["mac_count"] <= mid < full["mac_count"]
        checks.append((L, local["mac_count"], mid, full["mac_count"], good))
        ok = ok and good
    msg = "ordering holds" if ok else "ordering violated"
    if not checks:
        ok = False
        msg = "no comparable rows (need Local and Full at L >= 8b)"
    return OrderingReport(ok, checks, msg)

"""longattn benchmark: one workload per process, closed loop, one BLAS thread.

    python3 perfbench/run.py --workload train-needle --seed 1 --seconds 36 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the public
functions of each library module and prints per-layer metrics instead.
``--workload all`` runs every workload, each in a fresh process, one after
another. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
only if every operation and correctness check succeeded.
See perfbench/README.md for what each metric means on each workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("train-needle", "train-long", "decode-long")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    # BLAS threads must be pinned before NumPy is first imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return run_one(args)


def run_one(args) -> int:
    load_start = os.getloadavg()
    t0 = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy  # noqa: F401
        import longattn  # noqa: F401
        import workloads
    except ImportError as e:
        print(f"cannot import the library from {ROOT / 'src'}: {e}", file=sys.stderr)
        return 2
    import_s = perf_counter() - t0

    workdir = ROOT / ".bench_build" / "perfbench"
    workdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    if args.trace:
        metrics, info = run_traced(wl, args.seconds, workdir)
    else:
        metrics, info = run_untraced(wl, args.seconds, import_s)

    env = environment(load_start)
    correct = wl.failed == 0
    print(f"{wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for line in info:
        print("  " + line)
    for err in wl.errors[:20]:
        print(f"  FAILED: {err}")
    print("env " + json.dumps(env))
    result = {"correct": correct, "attempted": wl.attempted, "failed": wl.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (workdir / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "env": env}, indent=1))
    print(json.dumps(result))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# timed loops

def run_setups(wl) -> list[float]:
    times = []
    for _ in range(wl.setup_repeats):
        t0 = perf_counter()
        wl.setup()
        times.append(perf_counter() - t0)
    return times


def timed_loop(wl, seconds: float, min_cycles: int) -> tuple[int, float]:
    """Run whole cycles until `seconds` have passed and the minimum sample
    counts are reached (never more than 90 s past the deadline).

    Returns the cycle count and the process's peak RSS in MB after
    `min_cycles` cycles: a fixed amount of work, so the figure does not
    depend on how many cycles a fast or slow machine fits into the run.
    """
    wl.reset_samples()
    start = perf_counter()
    cycles, peak_mb = 0, 0.0
    while True:
        now = perf_counter()
        enough = cycles >= min_cycles and wl.done_min()
        if (now - start >= seconds and enough) or now - start >= seconds + 90:
            return cycles, peak_mb or peak_rss_mb()
        wl.cycle()
        cycles += 1
        if cycles == min_cycles:
            peak_mb = peak_rss_mb()


def peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(wl, seconds: float, import_s: float):
    import numpy as np

    setup_times = run_setups(wl)
    cycles, peak_mb = timed_loop(wl, seconds, wl.min_cycles)
    wl.end_checks()
    wl.check(wl.done_min(), "loop ended before the loss window was complete")
    n_tail = len(wl.tail_samples)
    metrics = {
        "setup_s": (import_s + statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "ok_frac": ((wl.attempted - wl.failed) / max(1, wl.attempted), "ratio"),
        "tokens_per_s": (wl.tokens / (wl.busy_ms / 1e3) if wl.busy_ms else 0.0, "tok/s"),
    }
    for i, arm in enumerate(wl.arms, 1):
        metrics[f"op{i}_ms"] = (_median(wl.samples[arm]), "ms")
    metrics["op_tail_ms"] = (float(np.percentile(wl.tail_samples, wl.tail_pct))
                             if wl.tail_samples else 0.0, "ms")
    metrics["loss"] = (wl.quality(), "nats")
    counts = {"setup_s": len(setup_times), "op_tail_ms": n_tail,
              "tokens_per_s": n_tail, "peak_rss_mb": wl.min_cycles, "loss": 1,
              "ok_frac": wl.attempted}
    for i, arm in enumerate(wl.arms, 1):
        counts[f"op{i}_ms"] = len(wl.samples[arm])
    info = [f"{cycles} cycles; import {import_s:.3f} s; setups "
            + ", ".join(f"{t:.3f}" for t in setup_times) + " s"]
    for name, (value, unit) in metrics.items():
        label = wl.labels.get(name, name)
        info.append(f"{label:<28} {name:<13} {value:>14.6g} {unit:<6} n={counts[name]}")
    return metrics, info


def _median(xs):
    return statistics.median(xs) if xs else 0.0


# ---------------------------------------------------------------------------
# traced run

def run_traced(wl, seconds: float, workdir: Path):
    import tracing as tr_mod

    tracer = tr_mod.Tracer()
    tracer.install()
    wl.untraced = tracer.paused
    tracer.active = True
    setup_times = run_setups(wl)
    tracer.active = False
    setup_hi = len(tracer.spans)

    # untraced then traced halves of the same loop: their difference is the
    # tracing overhead
    timed_loop(wl, seconds / 2, 1)
    base = {a: _median(s) for a, s in wl.samples.items()}
    lo = len(tracer.spans)
    gc0 = (tracer.gc_ms, tracer.gc_collections)
    tracer.active = True
    cycles, _ = timed_loop(wl, seconds / 2, 1)
    tracer.active = False
    hi = len(tracer.spans)
    gc_ms, gc_n = tracer.gc_ms - gc0[0], tracer.gc_collections - gc0[1]
    traced = {a: _median(s) for a, s in wl.samples.items()}
    wl.end_checks()

    win = tr_mod.Window(tracer, lo, hi)
    setup = tr_mod.Window(tracer, 0, setup_hi)
    n = cycles * wl.ops_per_cycle
    r = len(setup_times)
    present = tracer.present()

    m: dict[str, tuple] = {}

    def put(name, value, unit, *spans):
        if all(s in present for s in spans):
            m[name] = (value, unit)

    put("tensor.backward.calls", win.calls.get("tensor.backward", 0) / n, "count", "tensor.backward")
    put("tensor.backward.ms", win.total_ms.get("tensor.backward", 0.0) / n, "ms", "tensor.backward")
    put("tensor.tape_nodes", win.meta_sum("tensor.backward", 0) / n, "count", "tensor.backward")
    put("tensor.tape_bytes", win.meta_sum("tensor.backward", 1) / n, "B", "tensor.backward")
    for cat in tr_mod.TENSOR_OPS:
        span = f"tensor.op.{cat}"
        put(f"{span}.calls", win.calls.get(span, 0) / n, "count", span)
        put(f"{span}.ms", win.self_ms.get(span, 0.0) / n, "ms", span)
    put("tensor.op.matmul.macs", win.meta_sum("tensor.op.matmul") / n, "MAC", "tensor.op.matmul")
    put("tensor.gc_ms", gc_ms / n, "ms")
    put("tensor.gc_collections", gc_n / n, "count")
    for fn in tr_mod.ATTENTION_FNS:
        span = f"attention.{fn}"
        put(f"{span}.calls", win.calls.get(span, 0) / n, "count", span)
        put(f"{span}.fwd_ms", win.total_ms.get(span, 0.0) / n, "ms", span)
    kernels = [f"attention.{k}" for k in tr_mod.KERNELS]
    put("attention.score_macs", sum(win.meta_sum(k, 0) for k in kernels) / n, "MAC", *kernels)
    put("attention.score_bytes", sum(win.meta_sum(k, 1) for k in kernels) / n, "B", *kernels)
    pe_calls, pe_ms = win.top_level("posenc.")
    put("posenc.calls", pe_calls / n, "count")
    put("posenc.ms", pe_ms / n, "ms")
    for fn in ("encoder_forward", "decoder_forward"):
        span = f"model.{fn}"
        put(f"{span}.calls", win.calls.get(span, 0) / n, "count", span)
        put(f"{span}.ms", win.total_ms.get(span, 0.0) / n, "ms", span)
    put("model.seq2seq_loss.ms", win.total_ms.get("model.seq2seq_loss", 0.0) / n, "ms",
        "model.seq2seq_loss")
    for kind, span in (("greedy", "model.greedy_decode"), ("beam4", "model.beam_decode")):
        put(f"model.decoder_positions_per_request.{kind}",
            win.positions_per(span), "count", span, "model.decoder_forward")
    put("train.train_step.self_ms", win.self_ms.get("train.train_step", 0.0) / n, "ms",
        "train.train_step")
    put("train.adam.ms", win.total_ms.get("train.adam", 0.0) / n, "ms", "train.adam")
    steps = win.calls.get("train.train_step", 0)
    put("train.tapes_per_step", win.calls.get("tensor.backward", 0) / steps if steps else 0.0,
        "count", "train.train_step", "tensor.backward")
    for span in ("data.gen_corpus", "adapt.save", "adapt.load", "adapt.port_to_global_local",
                 "rouge.corpus_report"):
        put(f"{span}.ms", setup.total_ms.get(span, 0.0) / r, "ms", span)
    put("adapt.ckpt_bytes", float(wl.ckpt_bytes), "B", "adapt.save")
    base_sum, traced_sum = sum(base.values()), sum(traced.values())
    put("trace.overhead_pct", 100.0 * (traced_sum - base_sum) / base_sum if base_sum else 0.0,
        "%")

    # the trace itself must not miss: expected wrappers fired, counts agree
    # with the closed-form cost model, and no counting hook failed
    for key in tracer.silent(wl.name):
        wl.check(False, f"trace: {key} was expected to be called on {wl.name} but was not")
    cost_checks = []
    if all(k in present for k in kernels):     # else the absent kernels are listed
        cost_checks = tr_mod.encoder_cost_mismatches(tr_mod.Window(tracer, 0, hi))
    for bad in cost_checks:
        wl.check(bad is None, f"trace: {bad}")
    wl.check(not tracer.errors, f"trace hooks raised: {tracer.errors[:3]}")

    span_file = workdir / f"spans-{wl.name}-seed{wl.seed}.tsv.gz"
    tracer.write(span_file)
    info = [f"{cycles} traced cycles; {hi - lo} spans in the traced loop, "
            f"{len(tracer.spans)} in all, written to {span_file.relative_to(ROOT)}",
            f"score MACs of {len(cost_checks)} encoder_forward calls checked against "
            "attention_cost()" + ("" if cost_checks else " (skipped: a kernel is absent)")]
    info += [f"absent (not measured): {a}" for a in tracer.absent]
    info += [f"wrapped alias: {a}" for a in tracer.aliases]
    info += [f"{name:<46} {value:>16.6g} {unit}" for name, (value, unit) in m.items()]
    return m, info


# ---------------------------------------------------------------------------

def environment(load_start) -> dict:
    import numpy as np
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
    }


def blas_threads():
    """Thread count reported by the OpenBLAS library loaded in this process."""
    import ctypes
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({ln.split()[-1] for ln in f if "openblas" in ln.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rc = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        rc = rc or proc.returncode
        try:
            res = json.loads(lines[-1])
        except (json.JSONDecodeError, IndexError):
            print(lines[-1] if lines else "", file=sys.stderr)
            return proc.returncode or 1
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            merged["metrics"][f"{name}/{k}"] = v
    print(json.dumps(merged))
    return rc


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Attention cost scaling: full vs block-local vs global-local.

Measures wall time over a length grid and prints it next to the closed-form
score-side MACs of attention_cost() as a relative-growth table; wall times
are informational.

Usage:
    python3 scripts/scaling_benchmark.py [--lengths 256 512 1024 2048]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from longattn import bench as B                    # noqa: E402
from longattn.attention import AttentionSpec, Variant  # noqa: E402


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--lengths", type=int, nargs="+",
                    default=[256, 512, 1024, 2048])
    ap.add_argument("--block-size", type=int, default=64)
    ap.add_argument("--num-global", type=int, default=32)
    ap.add_argument("--heads", type=int, default=4)
    ap.add_argument("--head-dim", type=int, default=16)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--out", default="runs/scaling.csv")
    args = ap.parse_args()

    h, d = args.heads, args.head_dim
    specs = [
        AttentionSpec(Variant.FULL, args.block_size, 0, False, h, d),
        AttentionSpec(Variant.BLOCK_LOCAL, args.block_size, 0, False, h, d),
        AttentionSpec(Variant.GLOBAL_LOCAL, args.block_size, args.num_global,
                      False, h, d),
    ]
    rows = B.run_scaling(specs, args.lengths, repeats=args.repeats,
                         baseline=("block_local", args.lengths[0]))
    csv_text = B.rows_to_csv(rows)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(csv_text)
    print(csv_text)
    report = B.ordering_check(rows)
    print(report.message)
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())

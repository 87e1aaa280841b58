#!/usr/bin/env python3
"""Three-stage pipeline demo: gap-sentence pretraining on short inputs, then
checkpoint surgery to a longer-input global-local architecture, then a short
fine-tune, evaluated with greedy and beam-4 decoding — all via the CLI so
every stage leaves a reproducible run.json.

Usage:
    python3 scripts/pretrain_adapt_finetune.py [--out runs/pipeline]
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from longattn.cli import main as cli_main          # noqa: E402


def run(args):
    rc = cli_main([str(a) for a in args])
    if rc != 0:
        raise SystemExit(f"step failed (exit {rc}): {args}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="runs/pipeline")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    out = Path(args.out)

    # 1. gap-sentence pretrain a full-attention model on short inputs
    run(["pretrain", "--out", out / "pretrain", "--seed", args.seed,
         "--set", "model.max_input_len=64",
         "--set", "model.dropout_p=0.0",
         "--set", "schedule.total_budget=2048",
         "--set", "schedule.short_len=16", "--set", "schedule.long_len=64"])

    # 2. surgery: block-local + global tokens, longer positions, fewer
    #    cross-attention layers
    chain = json.dumps([
        {"op": "global_local", "block_size": 16, "num_global": 4,
         "staggered": False},
        {"op": "drop_cross", "keep_layers": [0]},
    ])
    run(["adapt", "--out", out / "adapt", "--seed", args.seed,
         "--ckpt", out / "pretrain" / "ckpt_final",
         "--set", f"surgery.chain={chain}"])

    # 3. fine-tune the adapted checkpoint on a copy task
    run(["gen-data", "--out", out / "data", "--seed", args.seed,
         "--set", "data.kind=copy", "--set", "data.n_docs=64",
         "--set", "data.len_min=16", "--set", "data.len_max=32"])
    run(["finetune", "--out", out / "finetune", "--seed", args.seed,
         "--ckpt", out / "adapt" / "ckpt",
         "--data", out / "data" / "corpus.jsonl",
         "--set", "train.steps=100"])
    run(["eval", "--out", out / "eval", "--seed", args.seed,
         "--ckpt", out / "finetune" / "ckpt",
         "--data", out / "data" / "corpus.jsonl",
         "--set", "decode.max_len=33"])
    run(["eval", "--out", out / "eval-beam4", "--seed", args.seed,
         "--ckpt", out / "finetune" / "ckpt",
         "--data", out / "data" / "corpus.jsonl",
         "--set", "decode.max_len=33", "--set", "decode.beam_size=4"])
    print(f"pipeline artifacts under {out}/")


if __name__ == "__main__":
    main()

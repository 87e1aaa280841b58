#!/usr/bin/env python3
"""Cross-block retrieval ablation: fixed vs staggered block boundaries vs a
global-token channel.

The one definition of the needle experiment: its constants, three arms,
corpus, training schedule and scoring. The slow gate
(`tests/test_acceptance.py::TestCrossBlockRetrieval`) trains and scores
through `train_arm`, and `tests/test_stagger_ablation.py` checks that
perfbench `train-needle` steps the same arms.

Trains three small encoder-decoder models on the `needle` task (the answer
payload is identified only through block co-membership with the announced
key) and reports exact match over training. Non-staggered block-local
attention has no information path from the query block to the payload block
and should stay near chance (1 / (decoys + 1)); staggered boundaries or
global tokens provide that path and should solve the task.

Usage (3,000 steps per arm: 349 s on a 2-vCPU VM with one BLAS thread):
    python3 scripts/stagger_ablation.py [--steps 3000] [--out runs/ablation]
"""

import argparse
import csv
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from longattn import data as D                     # noqa: E402
from longattn import train as TR                   # noqa: E402
from longattn.attention import Variant             # noqa: E402
from longattn.model import init_params, make_config  # noqa: E402
from longattn.posenc import Scheme                 # noqa: E402

L, BLOCK, VOCAB, DECOYS = 256, 32, 64, 3
STEPS, CHUNK, BATCH, LR, WARMUP = 3000, 250, 4, 3e-3, 100


def _config(variant, staggered, num_global, enc_layers):
    return make_config(variant, block_size=BLOCK, num_global=num_global,
                       staggered=staggered, scheme=Scheme.NONE, vocab_size=VOCAB,
                       d_model=32, num_heads=2, d_ff=64, enc_layers=enc_layers,
                       dec_layers=1, cross_attn_layers=(0,), max_input_len=L,
                       max_output_len=8, dropout_p=0.0)


ARMS = {
    "block_local": _config(Variant.BLOCK_LOCAL, False, 0, 2),
    "block_local_staggered": _config(Variant.BLOCK_LOCAL, True, 0, 2),
    "global_local": _config(Variant.GLOBAL_LOCAL, False, 8, 3),
}


def corpus():
    """(train, test) pairs: 2,000 training documents (seed 1) and 50 test
    documents (seed 99)."""
    def pairs(n, seed):
        return TR.docs_to_pairs(D.gen_corpus("needle", n, (L, L), VOCAB, seed=seed,
                                             needle_block=BLOCK, needle_decoys=DECOYS))
    return pairs(2000, 1), pairs(50, 99)


def train_arm(name, train_pairs, test_pairs, steps=STEPS, eval_every=CHUNK, lr=LR):
    """Train arm `name` from init_params(cfg, 0) in chunks of `eval_every`
    steps, each a fresh `TR.train` with seed = chunk index (warmup WARMUP in
    the first chunk, 1 after), and yield (step, loss, exact match) after each
    chunk; loss is the mean of the chunk's last 50 step losses."""
    cfg = ARMS[name]
    params = init_params(cfg, 0)
    for chunk in range(steps // eval_every):
        losses: list = []
        TR.train(cfg, params, train_pairs, steps=eval_every, batch_size=BATCH,
                 seed=chunk, lr=lr, warmup=WARMUP if chunk == 0 else 1,
                 loss_log=losses)
        tail = [loss for _, loss in losses[-50:]]
        yield ((chunk + 1) * eval_every, sum(tail) / len(tail),
               TR.exact_match(cfg, params, test_pairs))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--steps", type=int, default=STEPS)
    ap.add_argument("--eval-every", type=int, default=CHUNK)
    ap.add_argument("--lr", type=float, default=LR)
    ap.add_argument("--out", default="runs/ablation")
    args = ap.parse_args()
    if args.eval_every < 1:
        ap.exit(2, f"error: --eval-every must be >= 1, got {args.eval_every}\n")
    if args.steps < args.eval_every:
        ap.exit(2, f"error: --steps must be >= --eval-every ({args.eval_every}), "
                   f"got {args.steps}\n")

    train_pairs, test_pairs = corpus()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    log: list = []
    finals = {}
    for name in ARMS:
        t0 = time.time()
        for step, loss, em in train_arm(name, train_pairs, test_pairs, args.steps,
                                        args.eval_every, args.lr):
            log.append({"arm": name, "step": step, "loss": round(loss, 4),
                        "exact_match": em})
            print(f"{name:>22} step {step:>5} loss {loss:6.3f} "
                  f"em {em:5.2f}  ({time.time() - t0:5.0f}s)", flush=True)
            finals[name] = em

    with open(out / "ablation.csv", "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=["arm", "step", "loss", "exact_match"])
        w.writeheader()
        w.writerows(log)

    chance = 1 / (DECOYS + 1)
    print(f"\nchance = {chance:.2f}")
    for name, em in finals.items():
        print(f"{name:>22}: final exact match {em:.2f}")


if __name__ == "__main__":
    main()

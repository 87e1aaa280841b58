#!/usr/bin/env python3
"""One sha256 over the model's numbers on a grid of small configurations.

The grid is every encoder layout (full; block-local with fixed and with
staggered blocks; global-local the same two ways, each with and without
decoder global attention) times every position scheme times dropout 0 and
0.2: 70 configurations. For each, the digest covers the training loss and
every parameter gradient, the encoder token and global states, the
teacher-forced logits, and the greedy and beam-3 (alpha 0.6) tokens.

A refactor meant to change no number prints the same digest before and after
it, when both runs are on one machine. Digests from different machines need
not agree, because BLAS builds round differently.

A change that moves numbers on purpose (a reordered sum, say) is checked with
a dump instead: `--dump FILE` writes every number to an .npz file, and
`--compare FILE` prints the worst absolute and relative difference of each
quantity (loss, grads, encoder states, logits) against such a dump, made at
another commit on the same machine; the relative one is `tensor.rel_err`,
|a - b| / max(|a|, |b|, 1e-8). It exits 1 if any decoded token differs or a
quantity is present in only one of the two runs. For a commit that predates
`--dump`, run a copy of this script placed in that checkout's scripts/.

Usage:
    python3 scripts/fingerprint.py
    python3 scripts/fingerprint.py --dump parent.npz     # at the other commit
    python3 scripts/fingerprint.py --compare parent.npz
"""

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from longattn import tensor as T                   # noqa: E402
from longattn.attention import Variant             # noqa: E402
from longattn.data import BOS_ID                   # noqa: E402
from longattn.model import (beam_decode, decoder_forward, encoder_forward,  # noqa: E402
                            greedy_decode, init_params, make_config, seq2seq_loss)
from longattn.posenc import Scheme                 # noqa: E402

L, BLOCK, VOCAB, OUT = 13, 4, 16, 6

LAYOUTS = [
    dict(variant=Variant.FULL),
    dict(variant=Variant.BLOCK_LOCAL, staggered=False),
    dict(variant=Variant.BLOCK_LOCAL, staggered=True),
] + [dict(variant=Variant.GLOBAL_LOCAL, staggered=s, num_global=2, decoder_global_attn=dga)
     for s in (False, True) for dga in (False, True)]

KINDS = ("loss", "grads", "encoder states", "logits", "tokens")


def grid():
    for layout in LAYOUTS:
        for scheme in Scheme:
            for dropout_p in (0.0, 0.2):
                yield make_config(block_size=BLOCK, scheme=scheme, vocab_size=VOCAB,
                                  d_model=8, num_heads=2, d_ff=16, enc_layers=2,
                                  dec_layers=2, max_input_len=L, max_output_len=OUT + 2,
                                  dropout_p=dropout_p, **layout)


def quantities(cfg, seed: int):
    """Yield (kind, name, value) for every number of one configuration, in
    digest order; a parameter without a gradient has value None."""
    rng = np.random.default_rng(seed)
    params = init_params(cfg, seed)
    src = rng.integers(3, VOCAB, size=L).tolist()
    tgt = rng.integers(3, VOCAB, size=OUT).tolist()
    with T.Tape():
        loss = seq2seq_loss(cfg, params, src, tgt, training=cfg.dropout_p > 0, rng=rng)
        T.backward(loss)
    yield "loss", "loss", loss.data
    for name in sorted(params):
        yield "grads", name, params[name].grad
    enc_tok, enc_glob = encoder_forward(cfg, params, src)
    yield "encoder states", "tokens", enc_tok.data
    if enc_glob is not None:
        yield "encoder states", "globals", enc_glob.data
    yield "logits", "logits", decoder_forward(cfg, params, [BOS_ID] + tgt[:-1],
                                              enc_tok, enc_glob).data
    yield "tokens", "greedy", greedy_decode(cfg, params, src, OUT)
    yield "tokens", "beam3", beam_decode(cfg, params, src, 3, alpha=0.6, max_len=OUT)


def digest_bytes(kind: str, name: str, value) -> bytes:
    if kind == "tokens":
        return str(value).encode()
    if kind == "grads":
        return name.encode() + (b"none" if value is None
                                else np.ascontiguousarray(value).tobytes())
    return value.tobytes()


def compare(mine: dict, theirs: dict) -> bool:
    """Print the worst difference per kind; False if a decoded token differs,
    a shape differs or a quantity is missing on one side."""
    bad = sorted(mine.keys() ^ theirs.keys())
    worst = {kind: [0, 0.0, 0.0] for kind in KINDS}
    for key in sorted(mine.keys() & theirs.keys()):
        kind = key.split("|")[1]
        a, b = mine[key], theirs[key]
        w = worst[kind]
        w[0] += 1
        if a.shape != b.shape or (kind == "tokens" and (a != b).any()):
            bad.append(key)
        elif kind != "tokens" and a.size:
            w[1] = max(w[1], float(np.abs(a - b).max()))
            w[2] = max(w[2], T.rel_err(a, b))
    for key in bad:
        if key not in theirs or key not in mine:
            print(f"only in {'this run' if key in mine else 'the dump'}: {key}")
        elif mine[key].shape != theirs[key].shape:
            print(f"shape differs: {key}: {mine[key].shape} vs {theirs[key].shape}")
        else:
            print(f"tokens differ: {key}: {mine[key].tolist()} vs {theirs[key].tolist()}")
    for kind, (n, abs_d, rel_d) in worst.items():
        if kind == "tokens":
            same = not any(key.split("|")[1] == "tokens" for key in bad)
            print(f"{kind:>15}: {n} sequences, {'identical' if same else 'DIFFERENT'}")
        else:
            print(f"{kind:>15}: {n} arrays, max abs diff {abs_d:.3g}, max rel diff {rel_d:.3g}")
    return not bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--dump", metavar="FILE", help="write every number to an .npz file")
    ap.add_argument("--compare", metavar="FILE", help="compare against a --dump file")
    args = ap.parse_args(argv)
    total = hashlib.sha256()
    numbers = {}
    n = 0
    for seed, cfg in enumerate(grid()):
        one = hashlib.sha256()
        for kind, name, value in quantities(cfg, seed):
            one.update(digest_bytes(kind, name, value))
            if value is not None:
                numbers[f"{seed}|{kind}|{name}"] = np.asarray(value)
        total.update(one.digest())
        n += 1
    print(f"{total.hexdigest()}  {n} configs")
    if args.dump:
        with open(args.dump, "wb") as f:
            np.savez(f, **numbers)
    if args.compare:
        with np.load(args.compare) as theirs:
            if not compare(numbers, {k: theirs[k] for k in theirs.files}):
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

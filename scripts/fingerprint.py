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

Usage:
    python3 scripts/fingerprint.py
"""

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


def grid():
    for layout in LAYOUTS:
        for scheme in Scheme:
            for dropout_p in (0.0, 0.2):
                yield make_config(block_size=BLOCK, scheme=scheme, vocab_size=VOCAB,
                                  d_model=8, num_heads=2, d_ff=16, enc_layers=2,
                                  dec_layers=2, max_input_len=L, max_output_len=OUT + 2,
                                  dropout_p=dropout_p, **layout)


def config_bytes(cfg, seed: int):
    """Yield every number the digest covers for one configuration."""
    rng = np.random.default_rng(seed)
    params = init_params(cfg, seed)
    src = rng.integers(3, VOCAB, size=L).tolist()
    tgt = rng.integers(3, VOCAB, size=OUT).tolist()
    with T.Tape():
        loss = seq2seq_loss(cfg, params, src, tgt, training=cfg.dropout_p > 0, rng=rng)
        T.backward(loss)
    yield loss.data.tobytes()
    for name in sorted(params):
        yield name.encode()
        g = params[name].grad
        yield b"none" if g is None else np.ascontiguousarray(g).tobytes()
    enc_tok, enc_glob = encoder_forward(cfg, params, src)
    yield enc_tok.data.tobytes()
    if enc_glob is not None:
        yield enc_glob.data.tobytes()
    yield decoder_forward(cfg, params, [BOS_ID] + tgt[:-1], enc_tok, enc_glob).data.tobytes()
    yield str(greedy_decode(cfg, params, src, OUT)).encode()
    yield str(beam_decode(cfg, params, src, 3, alpha=0.6, max_len=OUT)).encode()


def main():
    total = hashlib.sha256()
    n = 0
    for seed, cfg in enumerate(grid()):
        one = hashlib.sha256()
        for blob in config_bytes(cfg, seed):
            one.update(blob)
        total.update(one.digest())
        n += 1
    print(f"{total.hexdigest()}  {n} configs")


if __name__ == "__main__":
    main()

"""The three benchmark workloads.

Each workload is built from the seed alone and drives the library only
through its public entry points (``train.train_step``, ``train.Adam``,
``model.encoder_forward``/``greedy_decode``/``beam_decode``/
``decoder_forward``, ``adapt.*``, ``data.gen_corpus``,
``rouge.corpus_report``), so refactors behind them need no benchmark edit.

A workload has three operation kinds ("arms") that one cycle runs once each:
one train step per model for the train workloads, and the encode, greedy and
beam-4 phases of one request for ``decode-long``.
"""

from __future__ import annotations

import contextlib
import math
import shutil
from pathlib import Path
from time import perf_counter

import numpy as np

from longattn import adapt, data, model, rouge, train
from longattn.attention import AttentionSpec, Variant
from longattn.posenc import Scheme

DECODE_LEN = 32
NEVER_EMITTED = -1          # eos id outside the vocabulary: decodes do fixed work
LOGIT_TIE = 1e-9


class Workload:
    """Common bookkeeping: timed samples per arm, operations and failures."""

    name = ""
    arms: tuple = ()
    labels: dict = {}           # generic metric name -> name shown in the table
    setup_repeats = 3
    min_cycles = 1              # enough samples for the tail percentile and loss
    tail_pct = 90
    ops_per_cycle = 1           # timed operations per cycle (per-layer normaliser)
    ckpt_bytes = 0              # bytes of the checkpoint written during set-up

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.untraced = contextlib.nullcontext    # the traced run pauses spans here
        self.reset_samples()

    def reset_samples(self) -> None:
        self.samples = {a: [] for a in self.arms}
        self.tail_samples: list[float] = []
        self.tokens = 0
        self.busy_ms = 0.0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)
        return ok

    def operation(self, what: str, fn, *args, **kwargs):
        """Run one timed operation; returns (result, ms) or (None, ms) on failure."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as e:           # count it, keep measuring the rest
            self.failed += 1
            self.errors.append(f"{what}: {type(e).__name__}: {e}")
            out = None
        return out, (perf_counter() - t0) * 1e3

    def quality(self) -> float:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# training workloads

class _Arm:
    def __init__(self, name, cfg, pairs, batch, lr, warmup):
        self.name, self.cfg, self.pairs, self.batch = name, cfg, pairs, batch
        self.lr, self.warmup = lr, warmup
        self.params = model.init_params(cfg, 0)
        self.opt = train.Adam(self.params, lr=lr)
        self.losses: list[float] = []


class _TrainWorkload(Workload):
    loss_steps = (0, 1)         # mean loss over these step indices of every arm
    ops_per_cycle = 3           # one train step per arm

    def build_arms(self) -> list[_Arm]:
        raise NotImplementedError

    def setup(self) -> None:
        self.rng = np.random.default_rng(self.seed)
        self.arm_state = self.build_arms()
        self.cycle(record=False)             # lazy set-up counts as set-up

    def cycle(self, record: bool = True) -> None:
        for arm in self.arm_state:
            idx = self.rng.integers(0, len(arm.pairs), size=arm.batch)
            batch = [arm.pairs[i] for i in idx]
            lr = arm.lr * min(1.0, (len(arm.losses) + 1) / arm.warmup)
            loss, ms = self.operation(f"{arm.name} train_step", train.train_step,
                                      arm.cfg, arm.params, batch, arm.opt, self.rng,
                                      lr=lr, clip=1.0)
            if loss is not None:
                self.check(math.isfinite(loss),
                           f"{arm.name} step {len(arm.losses)}: loss {loss}")
                arm.losses.append(loss)
            if record:
                self.samples[arm.name].append(ms)
                self.tail_samples.append(ms)
                self.tokens += sum(len(x) + len(y) for x, y in batch)
                self.busy_ms += ms

    def done_min(self) -> bool:
        return all(len(a.losses) >= self.loss_steps[1] for a in self.arm_state)

    def quality(self) -> float:
        lo, hi = self.loss_steps
        window = [x for a in self.arm_state for x in a.losses[lo:hi]]
        return float(np.mean(window)) if window else 0.0

    def end_checks(self) -> None:
        pass


class TrainNeedle(_TrainWorkload):
    """The slow retrieval gate's three arms, one step each per cycle."""

    name = "train-needle"
    arms = ("block_local", "staggered", "global_local")
    labels = {"op1_ms": "train_step_ms.block_local", "op2_ms": "train_step_ms.staggered",
              "op3_ms": "train_step_ms.global_local", "op_tail_ms": "train_step_ms.p95",
              "tokens_per_s": "train_tokens_per_s", "loss": "train_loss_end"}
    setup_repeats = 5
    min_cycles = 67             # >= 200 pooled steps, so 10 lie beyond p95
    tail_pct = 95
    loss_steps = (32, 40)
    L, BLOCK, VOCAB, DECOYS = 256, 32, 64, 3

    def build_arms(self):
        docs = data.gen_corpus("needle", 256, (self.L, self.L), self.VOCAB, seed=self.seed,
                               needle_block=self.BLOCK, needle_decoys=self.DECOYS)
        pairs = [(d.flat(), d.target) for d in docs]
        arms = []
        for name, variant, stag, glob, layers in (
                ("block_local", Variant.BLOCK_LOCAL, False, 0, 2),
                ("staggered", Variant.BLOCK_LOCAL, True, 0, 2),
                ("global_local", Variant.GLOBAL_LOCAL, False, 8, 3)):
            cfg = model.make_config(
                variant, block_size=self.BLOCK, num_global=glob, staggered=stag,
                scheme=Scheme.NONE, vocab_size=self.VOCAB, d_model=32, num_heads=2,
                d_ff=64, enc_layers=layers, dec_layers=1, cross_attn_layers=(0,),
                max_input_len=self.L, max_output_len=8, dropout_p=0.0)
            arms.append(_Arm(name, cfg, pairs, batch=4, lr=3e-3, warmup=100))
        return arms


class TrainLong(_TrainWorkload):
    """Fine-tuning on long inputs with short targets, batch 1."""

    name = "train-long"
    arms = ("full", "block_local", "global_local")
    labels = {"op1_ms": "long_step_ms.full", "op2_ms": "long_step_ms.block_local",
              "op3_ms": "long_step_ms.global_local", "op_tail_ms": "long_step_ms.p90",
              "tokens_per_s": "long_tokens_per_s", "loss": "long_loss_end"}
    min_cycles = 34             # >= 100 pooled steps, so 10 lie beyond p90
    tail_pct = 90
    loss_steps = (4, 8)
    BLOCK, VOCAB = 64, 64

    def build_arms(self):
        arms = []
        for name, variant, glob, L in (("full", Variant.FULL, 0, 1024),
                                       ("block_local", Variant.BLOCK_LOCAL, 0, 2048),
                                       ("global_local", Variant.GLOBAL_LOCAL, 32, 2048)):
            docs = data.gen_corpus("extractive-summ", 4, (L, L), self.VOCAB, seed=self.seed,
                                   summ_sentences=L // 16, summ_flagged=1)
            pairs = [(d.flat(), d.target) for d in docs]
            cfg = model.make_config(
                variant, block_size=self.BLOCK, num_global=glob,
                staggered=variant != Variant.FULL, scheme=Scheme.SINUSOIDAL,
                vocab_size=self.VOCAB, d_model=32, num_heads=2, d_ff=64,
                enc_layers=2, dec_layers=2, max_input_len=L + 1, max_output_len=64,
                dropout_p=0.0)
            arms.append(_Arm(name, cfg, pairs, batch=1, lr=1e-3, warmup=1))
        return arms


# ---------------------------------------------------------------------------
# decoding workload

class DecodeLong(Workload):
    """Adapt a short-input full-attention checkpoint to staggered global-local
    attention, then serve encode + greedy-32 + beam4-32 requests."""

    name = "decode-long"
    arms = ("encode", "greedy", "beam4")
    labels = {"op1_ms": "encode_ms", "op2_ms": "greedy_ms", "op3_ms": "beam4_ms",
              "op_tail_ms": "request_ms.p75", "tokens_per_s": "decode_tokens_per_s",
              "loss": "reference_loss"}
    min_cycles = 40             # >= 40 requests, so 10 lie beyond p75
    tail_pct = 75
    L, BLOCK, GLOBAL, VOCAB, N_DOCS = 2048, 64, 32, 64, 4

    def setup(self) -> None:
        src_cfg = model.make_config(
            Variant.FULL, scheme=Scheme.SINUSOIDAL, vocab_size=self.VOCAB, d_model=32,
            num_heads=2, d_ff=64, enc_layers=2, dec_layers=2, max_input_len=2 * self.L,
            max_output_len=64, dropout_p=0.0)
        src_params = model.init_params(src_cfg, 0)
        path = self.workdir / f"ckpt-{self.seed}"
        shutil.rmtree(path, ignore_errors=True)
        adapt.save(src_cfg, src_params, path)
        self.ckpt_bytes = sum(f.stat().st_size for f in path.iterdir())
        cfg2, params2 = adapt.load(path)
        shutil.rmtree(path, ignore_errors=True)
        self.check(cfg2.hash() == src_cfg.hash() and params2.keys() == src_params.keys()
                   and all(np.array_equal(params2[k].data,
                                          src_params[k].data.astype("<f4").astype(np.float64))
                           for k in src_params),
                   "checkpoint round trip is not bit-identical")
        spec = AttentionSpec(Variant.GLOBAL_LOCAL, block_size=self.BLOCK,
                             num_global=self.GLOBAL, staggered=True, num_heads=2,
                             head_dim=16)
        ported = adapt.port_to_global_local(adapt.Checkpoint.from_params(cfg2, params2),
                                            spec, rng_seed=0)
        self.cfg, self.params = ported.config, ported.to_params()
        docs = data.gen_corpus("extractive-summ", self.N_DOCS, (self.L, self.L), self.VOCAB,
                               seed=self.seed, summ_sentences=self.L // 16, summ_flagged=1)
        self.docs = [(d.flat(), d.target) for d in docs]
        self.requests = 0
        self.ref_losses: list[float] = []
        self.first_greedy = None
        out = self.cycle(record=False)       # lazy set-up counts as set-up
        if out is not None:
            rouge.corpus_report([(out, self.docs[0][1])])

    def cycle(self, record: bool = True):
        ids, target = self.docs[self.requests % self.N_DOCS]
        self.requests += 1
        self.attempted += 1
        cfg, params = self.cfg, self.params
        try:
            t0 = perf_counter()
            enc = model.encoder_forward(cfg, params, ids)
            t1 = perf_counter()
            greedy = model.greedy_decode(cfg, params, ids, DECODE_LEN, eos_id=NEVER_EMITTED)
            t2 = perf_counter()
            model.beam_decode(cfg, params, ids, 4, max_len=DECODE_LEN, eos_id=NEVER_EMITTED)
            t3 = perf_counter()
        except Exception as e:           # count it, keep measuring the rest
            self.failed += 1
            self.errors.append(f"request {self.requests}: {type(e).__name__}: {e}")
            return None
        if record:
            for arm, ms in zip(self.arms, ((t1 - t0) * 1e3, (t2 - t1) * 1e3, (t3 - t2) * 1e3)):
                self.samples[arm].append(ms)
            self.tail_samples.append((t3 - t0) * 1e3)
            self.tokens += len(ids) + 2 * DECODE_LEN
            self.busy_ms += (t3 - t0) * 1e3
        with self.untraced():
            self.check_request(ids, target, enc, greedy)
        return greedy

    def check_request(self, ids, target, enc, greedy) -> None:
        """Greedy tokens must be the argmax of the teacher-forced decoder over
        the decoded prefix (ties within LOGIT_TIE accepted). The first time a
        document is seen, also score its reference summary for `quality`."""
        if self.first_greedy is None:
            self.first_greedy = (ids, greedy)
        logits = model.decoder_forward(self.cfg, self.params, [model.BOS_ID] + greedy[:-1],
                                       enc[0], enc[1]).data
        picked = logits[np.arange(len(greedy)), greedy]
        self.check(len(greedy) == DECODE_LEN
                   and bool(np.all(picked >= logits.max(axis=-1) - LOGIT_TIE)),
                   f"request {self.requests}: greedy tokens are not the teacher-forced argmax")
        if len(self.ref_losses) < self.N_DOCS:
            z = model.decoder_forward(self.cfg, self.params, [model.BOS_ID] + target[:-1],
                                      enc[0], enc[1]).data
            z = z - z.max(axis=-1, keepdims=True)
            logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
            self.ref_losses.append(float(-logp[np.arange(len(target)), target].mean()))

    def done_min(self) -> bool:
        return len(self.ref_losses) >= self.N_DOCS

    def quality(self) -> float:
        return float(np.mean(self.ref_losses)) if self.ref_losses else 0.0

    def end_checks(self) -> None:
        """Beam search with beam 1 must reproduce greedy decoding (untimed)."""
        if self.first_greedy is None:
            return
        ids, greedy = self.first_greedy
        beam1, _ = self.operation("beam-1 decode", model.beam_decode, self.cfg, self.params,
                                  ids, 1, max_len=DECODE_LEN, eos_id=NEVER_EMITTED)
        self.check(beam1 == greedy, "beam_decode(beam=1) differs from greedy_decode")


WORKLOADS = {w.name: w for w in (TrainNeedle, TrainLong, DecodeLong)}

"""Adam training loop over the seq2seq model, with loss logging and
exact-match evaluation helpers."""

from __future__ import annotations

import logging

import numpy as np

from . import tensor as T
from .model import ModelConfig, seq2seq_loss, greedy_decode
from .data import SyntheticDoc

log = logging.getLogger(__name__)


class Adam:
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: dict[str, T.Tensor], lr: float = 1e-3):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        corr1 = 1 - b1 ** self.t
        corr2 = 1 - b2 ** self.t
        for k, g in grads.items():
            self.m[k] = b1 * self.m[k] + (1 - b1) * g
            self.v[k] = b2 * self.v[k] + (1 - b2) * g * g
            mhat = self.m[k] / corr1
            vhat = self.v[k] / corr2
            p = self.params[k]
            p.data -= self.lr * mhat / (np.sqrt(vhat) + self.eps)


def _clear_grads(params):
    for p in params.values():
        p.grad = None


def train_step(cfg: ModelConfig, params, batch, opt: Adam,
               rng: np.random.Generator, lr: float, clip: float = 1.0) -> float:
    """One gradient step at learning rate `lr` on a batch of (input_ids,
    target_ids) pairs; gradients are averaged over the batch and clipped to a
    global L2 norm of `clip`."""
    opt.lr = lr
    total = 0.0
    grads: dict[str, np.ndarray] = {}
    for input_ids, target_ids in batch:
        _clear_grads(params)
        with T.Tape():
            loss = seq2seq_loss(cfg, params, input_ids, target_ids,
                                training=cfg.dropout_p > 0, rng=rng)
            T.backward(loss)
        total += loss.item()
        for k, p in params.items():
            if p.grad is not None:
                grads[k] = grads.get(k, 0) + p.grad
    n = len(batch)
    grads = {k: g / n for k, g in grads.items()}
    norm = float(np.sqrt(sum((g * g).sum() for g in grads.values())))
    if norm > clip:
        grads = {k: g * (clip / norm) for k, g in grads.items()}
    opt.step(grads)
    _clear_grads(params)
    return total / n


def train(cfg: ModelConfig, params, examples: list[tuple], steps: int,
          batch_size: int, seed: int, lr: float = 1e-3, warmup: int = 100,
          log_every: int = 50, loss_log: list | None = None) -> None:
    """Train for `steps` steps, sampling batches with replacement.

    Linear learning-rate warmup over `warmup` steps, constant afterwards;
    gradients are clipped to global L2 norm 1. Each call starts a fresh Adam.
    """
    if batch_size < 1:
        raise ValueError(f"batch size must be >= 1, got {batch_size}")
    if not lr > 0:
        raise ValueError(f"learning rate must be > 0, got {lr}")
    if steps < 0:
        raise ValueError(f"training steps must be >= 0, got {steps}")
    if not examples:
        raise ValueError("no training examples")
    rng = np.random.default_rng(seed)
    opt = Adam(params, lr=lr)
    n = len(examples)
    for step in range(steps):
        idx = rng.integers(0, n, size=batch_size)
        batch = [examples[i] for i in idx]
        cur_lr = lr * min(1.0, (step + 1) / max(1, warmup))
        loss = train_step(cfg, params, batch, opt, rng, lr=cur_lr)
        if loss_log is not None:
            loss_log.append((step, loss))
        if log_every and step % log_every == 0:
            log.info("step %d loss %.4f", step, loss)


def exact_match(cfg: ModelConfig, params, examples: list[tuple]) -> float:
    """Fraction of examples whose greedy decode, of at most len(target) + 2
    tokens, equals the target exactly."""
    if not examples:
        return 0.0
    hit = 0
    for input_ids, target_ids in examples:
        out = greedy_decode(cfg, params, input_ids, len(target_ids) + 2)
        if list(out) == list(target_ids):
            hit += 1
    return hit / len(examples)


def docs_to_pairs(docs: list[SyntheticDoc]) -> list[tuple]:
    pairs = []
    for d in docs:
        if d.target is None:
            raise ValueError("document has no target; use gsg_mask for pretraining data")
        pairs.append((d.flat(), d.target))
    return pairs

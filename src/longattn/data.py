"""Synthetic corpora, toy word-level tokenizer conventions, gap-sentence
masking with length-proportional ratio scaling, and pretraining schedules.

Token-id conventions (closed synthetic vocabulary):
    0 = MASK_SENT (gap-sentence mask), 1 = PAD, 2 = EOS, 3 = BOS.
    4 = QUERY (needle task query marker), 5 = FLAG (extractive-summ marker).
Content tokens occupy [FIRST_CONTENT, V).

Corpora serialize as JSON-lines, one document per line:
    {"sentences": [[ids...], ...], "target": [ids...]}
where "target" is present only for supervised tasks. Readers ignore other
fields, such as the "chars" count that older corpora carry.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MASK_SENT_ID = 0
PAD_ID = 1
EOS_ID = 2
BOS_ID = 3
QUERY_ID = 4
FLAG_ID = 5
FIRST_CONTENT = 6


@dataclass
class SyntheticDoc:
    sentences: list          # list of lists of token ids
    target: list | None = None   # present for supervised task corpora

    def __post_init__(self):
        if not self.sentences:
            raise ValueError("a document needs at least one sentence")

    def flat(self) -> list:
        return [t for s in self.sentences for t in s]


def write_jsonl(docs: list[SyntheticDoc], path) -> None:
    with open(path, "w") as f:
        for d in docs:
            rec = {"sentences": d.sentences}
            if d.target is not None:
                rec["target"] = d.target
            f.write(json.dumps(rec) + "\n")


def read_jsonl(path) -> list[SyntheticDoc]:
    docs = []
    for n, line in enumerate(Path(path).read_text().splitlines(), 1):
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            raise ValueError(f"{path} line {n} is not JSON: {e}") from None
        if not isinstance(rec, dict) or "sentences" not in rec:
            raise ValueError(f"{path} line {n} has no \"sentences\"")
        sents, target = rec["sentences"], rec.get("target")
        if (not isinstance(sents, list) or not all(isinstance(s, list) for s in sents)
                or not isinstance(target, (list, type(None)))):
            raise ValueError(f"{path} line {n}: \"sentences\" must be a list of lists "
                             f"and \"target\" a list")
        docs.append(SyntheticDoc(sents, target=target))
    return docs


# ---------------------------------------------------------------------------
# corpus generators

def _rand_tokens(rng, n, V):
    return rng.integers(FIRST_CONTENT, V, size=n).tolist()


def gen_corpus(kind: str, n_docs: int, len_dist, V: int, seed: int,
               needle_block: int = 32, needle_decoys: int = 3,
               summ_sentences: int = 4,
               summ_flagged: int = 1) -> list[SyntheticDoc]:
    """Deterministic synthetic corpus. len_dist is (min_len, max_len) tokens.

    kinds:
      copy            target == input tokens
      reverse         target == reversed input tokens
      needle          cross-block key/value retrieval where block membership
                      (needle_block) is the only positional cue; target = the
                      payload paired with the announced key (see _gen_needle)
      extractive-summ target = the sentences preceded by an in-band FLAG token
    """
    if V <= FIRST_CONTENT + 1:
        raise ValueError(f"vocab size {V} leaves no content tokens")
    if n_docs < 1:
        raise ValueError(f"n_docs must be >= 1, got {n_docs}")
    lo, hi = len_dist
    if lo < 1:
        raise ValueError(f"minimum length must be >= 1, got {lo}")
    if lo > hi:
        raise ValueError(f"minimum length {lo} exceeds maximum length {hi}")
    if kind == "needle" and needle_block < 8:      # the pair region needs a key and a payload
        raise ValueError(f"needle_block must be >= 8, got {needle_block}")
    if kind == "needle" and needle_decoys < 0:
        raise ValueError(f"needle_decoys must be >= 0, got {needle_decoys}")
    rng = np.random.default_rng(seed)
    docs = []
    for _ in range(n_docs):
        L = int(rng.integers(lo, hi + 1))
        if kind == "copy":
            toks = _rand_tokens(rng, L, V)
            docs.append(SyntheticDoc([toks], target=toks + [EOS_ID]))
        elif kind == "reverse":
            toks = _rand_tokens(rng, L, V)
            docs.append(SyntheticDoc([toks], target=toks[::-1] + [EOS_ID]))
        elif kind == "needle":
            docs.append(_gen_needle(rng, L, V, needle_block, needle_decoys))
        elif kind == "extractive-summ":
            docs.append(_gen_extractive(rng, L, V, summ_sentences, summ_flagged))
        else:
            raise ValueError(f"unknown corpus kind '{kind}'")
    return docs


def _gen_needle(rng, L, V, block, n_decoys) -> SyntheticDoc:
    """Cross-block retrieval where block membership is the only position cue.

    The content vocabulary is split in half: keys in [FIRST_CONTENT, mid) and
    payloads in [mid, V). The first block alternates QUERY and the announced
    key k, ending with QUERY. The true pair — k and its payload v — fills the
    slots [block+1, 1.5*block - 2] with alternating copies: inside the second
    fixed block, but also inside the block a half-size boundary shift forms
    over the query prefix. Each of n_decoys decoy pairs (k_j, v_j), with
    distinct keys and payloads, fills the matching first-half region of its
    own later block the same way. Filler tokens are keys never used by any
    pair; payload tokens appear only at pair slots. target = [v, EOS].

    By construction the task needs no position encoding, only block structure:
    every payload is identified by the key sharing its block, and only the
    true payload's half-shifted block also contains the query prefix. Without
    some channel out of the first block (shifted boundaries or a global
    channel), the n_decoys+1 payloads are interchangeable by symmetry.
    """
    n_pairs = n_decoys + 1
    if L < (n_pairs + 1) * block:
        raise ValueError(
            f"needle documents need length >= {(n_pairs + 1) * block} "
            f"({n_decoys} decoys, block {block}), got {L}")
    mid = FIRST_CONTENT + (V - FIRST_CONTENT) // 2
    if mid - FIRST_CONTENT <= n_pairs or V - mid < n_pairs:
        raise ValueError(f"vocab size {V} too small for {n_pairs} key/payload pairs")
    keys = rng.choice(np.arange(FIRST_CONTENT, mid), size=n_pairs,
                      replace=False).tolist()
    payloads = rng.choice(np.arange(mid, V), size=n_pairs, replace=False).tolist()
    k, v = int(keys[0]), int(payloads[0])
    prefix = [k if i % 2 == 1 and i < block - 1 else QUERY_ID
              for i in range(block)]
    filler_pool = np.array([t for t in range(FIRST_CONTENT, mid) if t not in keys])
    toks = prefix + rng.choice(filler_pool, size=L - block).tolist()
    pair_blocks = [1] + rng.choice(np.arange(2, L // block), size=n_decoys,
                                   replace=False).tolist()
    for (key, pay), B in zip(zip(keys, payloads), pair_blocks):
        # alternate the pair over the first half of block B, clear of both of
        # B's boundaries so the pair also shares every half-shifted block
        lo = B * block + 1
        for j in range(block // 2 - 2):
            toks[lo + j] = int(key) if j % 2 == 0 else int(pay)
    return SyntheticDoc([toks], target=[v, EOS_ID])


def _gen_extractive(rng, L, V, n_sent, n_flagged) -> SyntheticDoc:
    per = max(2, L // n_sent)
    sentences = [_rand_tokens(rng, per, V) for _ in range(n_sent)]
    flagged = sorted(rng.choice(n_sent, size=min(n_flagged, n_sent), replace=False).tolist())
    target = []
    for i in flagged:
        sentences[i] = [FLAG_ID] + sentences[i]
        target.extend(sentences[i][1:])
    return SyntheticDoc(sentences, target=target + [EOS_ID])


# ---------------------------------------------------------------------------
# gap-sentence masking

def scale_mask_ratio(base_ratio: float, base_len: int, new_len: int) -> float:
    """Scale the sentence-mask ratio inversely with input-length growth."""
    ratio = base_ratio * base_len / new_len
    if ratio >= 1.0:
        raise ValueError(f"scaled mask ratio {ratio} >= 1")
    return ratio


def gsg_mask(doc: SyntheticDoc, mask_ratio: float, seed: int):
    """Gap-sentence masking: selected sentences become the target.

    Each selected sentence is replaced in the input by a single MASK_SENT
    token; the target is the selected sentences in document order, separated
    and terminated by EOS. At least one sentence is always selected.
    """
    if not 0.0 < mask_ratio <= 1.0:
        raise ValueError(f"mask_ratio must be in (0, 1], got {mask_ratio}")
    n = len(doc.sentences)
    n_sel = max(1, math.ceil(mask_ratio * n))
    rng = np.random.default_rng(seed)
    sel = sorted(rng.choice(n, size=min(n_sel, n), replace=False).tolist())
    sel_set = set(sel)
    input_ids = []
    target_ids = []
    for i, s in enumerate(doc.sentences):
        if i in sel_set:
            input_ids.append(MASK_SENT_ID)
            target_ids.extend(s)
            target_ids.append(EOS_ID)
        else:
            input_ids.extend(s)
    return input_ids, target_ids


# ---------------------------------------------------------------------------
# pretraining schedules

SCHEDULE_SHAPES = {
    "S100": ((1.0, "short"),),
    "S75L25": ((0.75, "short"), (0.25, "long")),
    "S50L50": ((0.5, "short"), (0.5, "long")),
    "L100": ((1.0, "long"),),
}


@dataclass(frozen=True)
class Phase:
    input_len: int
    mask_ratio: float
    token_budget: int
    steps: int
    kind: str                  # "short" or "long": the schedule length it trains at


@dataclass(frozen=True)
class PretrainSchedule:
    phases: tuple
    total_budget: int

    def __post_init__(self):
        if sum(p.token_budget for p in self.phases) != self.total_budget:
            raise ValueError("phase budgets do not sum to the total budget")


def build_schedule(shape: str, total_budget: int, short_len: int, long_len: int,
                   batch: int = 1, base_mask_ratio: float = 0.45) -> PretrainSchedule:
    """Split a token budget across short/long phases per the named shape.

    Phase step counts are budget // (batch * input_len); any remainder from
    earlier phases is assigned to the final phase, which must absorb it in
    whole steps for the budget to be conserved exactly.
    """
    if shape not in SCHEDULE_SHAPES:
        raise ValueError(f"unknown schedule shape '{shape}' "
                         f"(choose from {sorted(SCHEDULE_SHAPES)})")
    if min(batch, short_len, long_len) < 1:
        raise ValueError(f"batch and lengths must be >= 1, got {batch}, {short_len}, {long_len}")
    phases = []
    consumed = 0
    parts = SCHEDULE_SHAPES[shape]
    for idx, (frac, which) in enumerate(parts):
        input_len = short_len if which == "short" else long_len
        last = idx == len(parts) - 1
        budget = total_budget - consumed if last else int(frac * total_budget)
        per_step = batch * input_len
        steps = budget // per_step
        if last and steps * per_step != budget:
            raise ValueError(
                f"token budget {total_budget} is not divisible into whole steps "
                f"(final phase leftover {budget - steps * per_step})")
        budget = steps * per_step
        consumed += budget
        ratio = scale_mask_ratio(base_mask_ratio, short_len, input_len)
        phases.append(Phase(input_len, ratio, budget, steps, which))
    return PretrainSchedule(tuple(phases), consumed)

"""ROUGE-1/2/L over token sequences, plus the geometric-mean aggregate.

Token-level scoring on the toy vocabulary: no stemming or stopword handling.
ROUGE-L is sequence-level LCS. Each candidate and reference is one line, and
on one line summary-level ROUGE-Lsum equals ROUGE-L, so it is not computed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass


@dataclass(frozen=True)
class Score:
    precision: float
    recall: float
    f1: float


def _f1(p: float, r: float) -> float:
    return 2 * p * r / (p + r) if p + r > 0 else 0.0


def _score(overlap: int, n_cand: int, n_ref: int) -> Score:
    p = overlap / n_cand if n_cand else 0.0
    r = overlap / n_ref if n_ref else 0.0
    return Score(p, r, _f1(p, r))


def _ngrams(seq, n) -> Counter:
    return Counter(tuple(seq[i:i + n]) for i in range(len(seq) - n + 1))


def rouge_n(cand, ref, n: int) -> Score:
    """Clipped n-gram overlap precision/recall/F1."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    cg = _ngrams(cand, n)
    rg = _ngrams(ref, n)
    overlap = sum((cg & rg).values())
    return _score(overlap, sum(cg.values()), sum(rg.values()))


def lcs_len(a, b) -> int:
    """Longest-common-subsequence length, by the DP over prefixes of a, one row
    per token of a."""
    prev = [0] * (len(b) + 1)
    for x in a:
        row = [0]
        for j, y in enumerate(b):
            row.append(prev[j] + 1 if x == y else max(prev[j + 1], row[j]))
        prev = row
    return prev[-1]


def rouge_l(cand, ref) -> Score:
    return _score(lcs_len(cand, ref), len(cand), len(ref))


# ---------------------------------------------------------------------------
# corpus aggregation

@dataclass(frozen=True)
class RougeReport:
    rouge1: Score
    rouge2: Score
    rougeL: Score
    rg: float
    n_examples: int


def geometric_mean(values) -> float:
    prod = 1.0
    for v in values:
        prod *= v
    return prod ** (1.0 / len(values))


def score_pair(cand, ref) -> dict[str, Score]:
    """All three scores of one candidate against one reference."""
    return {
        "rouge1": rouge_n(cand, ref, 1),
        "rouge2": rouge_n(cand, ref, 2),
        "rougeL": rouge_l(cand, ref),
    }


def corpus_report(pairs) -> RougeReport:
    """pairs: iterable of (candidate tokens, reference tokens).

    Corpus scores are means of per-example precision/recall/F1; the RG
    aggregate is the geometric mean of the corpus-mean R1/R2/RL F1 scores.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("corpus_report needs at least one pair")
    acc = {k: [0.0, 0.0, 0.0] for k in ("rouge1", "rouge2", "rougeL")}
    for cand, ref in pairs:
        for key, sc in score_pair(list(cand), list(ref)).items():
            acc[key][0] += sc.precision
            acc[key][1] += sc.recall
            acc[key][2] += sc.f1
    n = len(pairs)
    means = {k: Score(v[0] / n, v[1] / n, v[2] / n) for k, v in acc.items()}
    rg = geometric_mean([means["rouge1"].f1, means["rouge2"].f1, means["rougeL"].f1])
    return RougeReport(means["rouge1"], means["rouge2"], means["rougeL"], rg, n)

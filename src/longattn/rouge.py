"""ROUGE-1/2/L/Lsum over token sequences, plus the geometric-mean aggregate.

Token-level scoring on the toy vocabulary: no stemming or stopword handling.
ROUGE-L is sequence-level LCS; ROUGE-Lsum splits candidate/reference into
lines and uses summary-level union-LCS with clipped token counts.
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
    """Longest-common-subsequence length."""
    return len(_lcs_indices(a, b))


def rouge_l(cand, ref) -> Score:
    return _score(lcs_len(cand, ref), len(cand), len(ref))


def _lcs_indices(a, b) -> list[int]:
    """Indices into a of one LCS of a and b."""
    n, m = len(a), len(b)
    dp = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n):
        for j in range(m):
            dp[i + 1][j + 1] = dp[i][j] + 1 if a[i] == b[j] else max(dp[i][j + 1], dp[i + 1][j])
    out = []
    i, j = n, m
    while i > 0 and j > 0:
        if a[i - 1] == b[j - 1] and dp[i][j] == dp[i - 1][j - 1] + 1:
            out.append(i - 1)
            i -= 1
            j -= 1
        elif dp[i - 1][j] >= dp[i][j - 1]:
            i -= 1
        else:
            j -= 1
    return out[::-1]


def rouge_lsum(cand_lines, ref_lines) -> Score:
    """Summary-level union-LCS with token-count clipping (rouge-score style)."""
    n_cand = sum(len(s) for s in cand_lines)
    n_ref = sum(len(s) for s in ref_lines)
    if n_cand == 0 or n_ref == 0:
        return _score(0, n_cand, n_ref)
    token_budget = Counter(t for s in cand_lines for t in s)
    hits = 0
    for ref_sent in ref_lines:
        union: set[int] = set()
        for cand_sent in cand_lines:
            union.update(_lcs_indices(ref_sent, cand_sent))
        for idx in union:
            tok = ref_sent[idx]
            if token_budget[tok] > 0:
                token_budget[tok] -= 1
                hits += 1
    return _score(hits, n_cand, n_ref)


# ---------------------------------------------------------------------------
# corpus aggregation

@dataclass(frozen=True)
class RougeReport:
    rouge1: Score
    rouge2: Score
    rougeL: Score
    rougeLsum: Score
    rg: float
    n_examples: int


def geometric_mean(values) -> float:
    prod = 1.0
    for v in values:
        prod *= v
    return prod ** (1.0 / len(values))


def score_pair(cand, ref) -> dict[str, Score]:
    """All four scores of one candidate against one reference, each one line."""
    return {
        "rouge1": rouge_n(cand, ref, 1),
        "rouge2": rouge_n(cand, ref, 2),
        "rougeL": rouge_l(cand, ref),
        "rougeLsum": rouge_lsum([list(cand)], [list(ref)]),
    }


def corpus_report(pairs) -> RougeReport:
    """pairs: iterable of (candidate tokens, reference tokens).

    Corpus scores are means of per-example precision/recall/F1; the RG
    aggregate is the geometric mean of the corpus-mean R1/R2/RL F1 scores.
    Each side is one line, where RLsum equals RL, so RG is the same with either.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("corpus_report needs at least one pair")
    acc = {k: [0.0, 0.0, 0.0] for k in ("rouge1", "rouge2", "rougeL", "rougeLsum")}
    for cand, ref in pairs:
        for key, sc in score_pair(list(cand), list(ref)).items():
            acc[key][0] += sc.precision
            acc[key][1] += sc.recall
            acc[key][2] += sc.f1
    n = len(pairs)
    means = {k: Score(v[0] / n, v[1] / n, v[2] / n) for k, v in acc.items()}
    rg = geometric_mean([means["rouge1"].f1, means["rouge2"].f1, means["rougeL"].f1])
    return RougeReport(means["rouge1"], means["rouge2"], means["rougeL"],
                       means["rougeLsum"], rg, n)

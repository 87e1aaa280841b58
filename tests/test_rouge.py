import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from longattn import rouge as R

tokens = st.lists(st.integers(0, 9), max_size=12)


def brute_ngram_overlap(cand, ref, n):
    """Clipped overlap via explicit multiset intersection."""
    cg = [tuple(cand[i:i + n]) for i in range(len(cand) - n + 1)]
    rg = [tuple(ref[i:i + n]) for i in range(len(ref) - n + 1)]
    overlap = 0
    pool = list(rg)
    for g in cg:
        if g in pool:
            pool.remove(g)
            overlap += 1
    return overlap, len(cg), len(rg)


def brute_lcs(a, b):
    """Exponential subsequence enumeration for tiny sequences."""
    best = 0
    for r in range(len(a), 0, -1):
        for comb in itertools.combinations(range(len(a)), r):
            sub = [a[i] for i in comb]
            it = iter(b)
            if all(t in it for t in sub):
                return r
    return 0


class TestRougeN:
    def test_identical(self):
        s = R.rouge_n([1, 2, 3], [1, 2, 3], 1)
        assert s.precision == s.recall == s.f1 == 1.0

    def test_disjoint(self):
        s = R.rouge_n([1, 2], [3, 4], 1)
        assert s.precision == s.recall == s.f1 == 0.0

    def test_clipped_counts(self):
        # "a b a" vs "a a b": unigram multisets are equal -> overlap 3
        s = R.rouge_n([0, 1, 0], [0, 0, 1], 1)
        assert s.precision == s.recall == 1.0
        ov, nc, nr = brute_ngram_overlap([0, 1, 0], [0, 0, 1], 1)
        assert (ov, nc, nr) == (3, 3, 3)

    def test_clipping_caps_repeats(self):
        s = R.rouge_n([7, 7, 7, 7], [7], 1)
        assert s.precision == 0.25 and s.recall == 1.0

    def test_empty_ref(self):
        s = R.rouge_n([1, 2], [], 1)
        assert s.precision == s.recall == s.f1 == 0.0

    def test_bad_n(self):
        with pytest.raises(ValueError):
            R.rouge_n([1], [1], 0)

    def test_bigrams(self):
        s = R.rouge_n([1, 2, 3], [2, 3, 4], 2)
        assert s.precision == 0.5 and s.recall == 0.5

    @settings(max_examples=100, deadline=None)
    @given(cand=tokens, ref=tokens, n=st.integers(1, 3))
    def test_matches_multiset_oracle(self, cand, ref, n):
        ov, nc, nr = brute_ngram_overlap(cand, ref, n)
        s = R.rouge_n(cand, ref, n)
        assert s.precision == (ov / nc if nc else 0.0)
        assert s.recall == (ov / nr if nr else 0.0)

    @given(cand=tokens, ref=tokens)
    def test_f1_symmetric_under_swap(self, cand, ref):
        a = R.rouge_n(cand, ref, 1)
        b = R.rouge_n(ref, cand, 1)
        assert a.precision == b.recall and a.recall == b.precision
        assert abs(a.f1 - b.f1) < 1e-12


class TestRougeL:
    def test_identical(self):
        assert R.rouge_l([1, 2, 3], [1, 2, 3]).f1 == 1.0

    def test_reversed_distinct(self):
        s = R.rouge_l([3, 2, 1], [1, 2, 3])
        assert s.precision == s.recall == pytest.approx(1 / 3)

    def test_lcs_known_case(self):
        assert R.lcs_len([1, 3, 4, 1, 2], [3, 4, 1, 2, 1]) == 4

    def test_empty(self):
        assert R.lcs_len([], [1, 2]) == 0
        assert R.rouge_l([], [1]).f1 == 0.0

    @settings(max_examples=100, deadline=None)
    @given(a=st.lists(st.integers(0, 4), max_size=8),
           b=st.lists(st.integers(0, 4), max_size=8))
    def test_dp_matches_enumeration_oracle(self, a, b):
        assert R.lcs_len(a, b) == brute_lcs(a, b)

    @given(cand=tokens, ref=tokens.filter(lambda r: len(r) > 0))
    def test_appending_ref_token_never_decreases_recall(self, cand, ref):
        before = R.rouge_l(cand, ref).recall
        after = R.rouge_l(cand + [ref[0]], ref).recall
        assert after >= before - 1e-12


class TestAggregate:
    def test_geometric_mean_reference(self):
        assert R.geometric_mean([0.25, 0.04, 0.09]) == pytest.approx(
            (0.25 * 0.04 * 0.09) ** (1 / 3))
        assert R.geometric_mean([0.25, 0.04, 0.09]) == pytest.approx(0.0965, abs=5e-4)

    def test_single_pair_report_equals_pair_scores(self):
        cand, ref = [1, 2, 3, 4], [1, 2, 5, 4]
        rep = R.corpus_report([(cand, ref)])
        pair = R.score_pair(cand, ref)
        assert rep.rouge1 == pair["rouge1"]
        assert rep.rougeL == pair["rougeL"]
        assert rep.n_examples == 1

    def test_mean_of_extremes(self):
        rep = R.corpus_report([([1, 2], [1, 2]), ([3], [4])])
        assert rep.rouge1.f1 == 0.5

    def test_identical_corpus_rg_one(self):
        rep = R.corpus_report([([1, 2, 3], [1, 2, 3])] * 3)
        assert rep.rg == 1.0

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            R.corpus_report([])

    def test_rg_from_corpus_means(self):
        pairs = [([1, 2, 3], [1, 2, 4]), ([5, 6], [6, 5])]
        rep = R.corpus_report(pairs)
        want = R.geometric_mean([rep.rouge1.f1, rep.rouge2.f1, rep.rougeL.f1])
        assert rep.rg == pytest.approx(want)

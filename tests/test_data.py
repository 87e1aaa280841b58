import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from longattn import data as D


class TestCorpusGenerators:
    def test_copy_target_is_input(self):
        docs = D.gen_corpus("copy", 5, (8, 8), 32, seed=0)
        for d in docs:
            assert d.target == d.flat() + [D.EOS_ID]

    def test_reverse_target(self):
        docs = D.gen_corpus("reverse", 5, (8, 8), 32, seed=0)
        for d in docs:
            assert d.target == d.flat()[::-1] + [D.EOS_ID]

    def test_same_seed_identical(self):
        a = D.gen_corpus("needle", 20, (192, 256), 64, seed=7)
        b = D.gen_corpus("needle", 20, (192, 256), 64, seed=7)
        assert [d.sentences for d in a] == [d.sentences for d in b]
        assert [d.target for d in a] == [d.target for d in b]

    def test_different_seed_differs(self):
        a = D.gen_corpus("copy", 5, (8, 8), 32, seed=0)
        b = D.gen_corpus("copy", 5, (8, 8), 32, seed=1)
        assert [d.sentences for d in a] != [d.sentences for d in b]

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            D.gen_corpus("mystery", 1, (8, 8), 32, seed=0)

    def test_tiny_vocab_rejected(self):
        with pytest.raises(ValueError):
            D.gen_corpus("copy", 1, (8, 8), D.FIRST_CONTENT + 1, seed=0)

    def test_needle_pair_placement(self):
        b, V = 32, 64
        mid = D.FIRST_CONTENT + (V - D.FIRST_CONTENT) // 2
        docs = D.gen_corpus("needle", 2_000, (256, 256), V, seed=3,
                            needle_block=b, needle_decoys=3)
        for d in docs:
            toks = d.flat()
            k = toks[1]
            v = d.target[0]
            assert d.target == [v, D.EOS_ID]
            assert D.FIRST_CONTENT <= k < mid <= v < V
            n_slots = b // 2 - 2
            pays = [i for i, t in enumerate(toks) if t >= mid]
            assert len(pays) == 4 * (n_slots // 2)
            assert len({toks[p] for p in pays}) == 4
            blocks_used = set()
            for p in pays:
                B = p // b
                blocks_used.add(B)
                assert B * b + 1 <= p <= B * b + n_slots
                if toks[p] == v:
                    assert B == 1
            assert len(blocks_used) == 4
            assert 1 in blocks_used and 0 not in blocks_used
            # each pair block's region alternates its key and payload copies,
            # clear of the block boundaries on both sides
            for B in blocks_used:
                lo = B * b + 1
                key, pay = toks[lo], toks[lo + 1]
                assert key < mid <= pay
                assert toks[lo:lo + n_slots] == [key, pay] * (n_slots // 2)
                assert toks[lo - 1] != key and toks[lo + n_slots] != key
            # the announced key appears downstream only in block 1's region,
            # co-located with the true payload
            k_hits = [i for i in range(b, len(toks)) if toks[i] == k]
            assert k_hits == list(range(b + 1, b + 1 + n_slots, 2))

    def test_needle_query_block_structure(self):
        docs = D.gen_corpus("needle", 50, (256, 256), 64, seed=4, needle_block=32)
        for d in docs:
            toks = d.flat()
            k = toks[1]
            assert k >= D.FIRST_CONTENT
            # alternating QUERY/k prefix, QUERY-terminated
            for i in range(32):
                want = k if i % 2 == 1 and i < 31 else D.QUERY_ID
                assert toks[i] == want

    def test_needle_announced_key_absent_from_decoy_blocks(self):
        docs = D.gen_corpus("needle", 200, (256, 256), 64, seed=8, needle_block=32)
        for d in docs:
            toks = d.flat()
            k = toks[1]
            assert all(toks[i] != k for i in range(64, len(toks)))

    def test_needle_too_short_rejected(self):
        with pytest.raises(ValueError):
            D.gen_corpus("needle", 1, (128, 128), 64, seed=0,
                         needle_block=32, needle_decoys=3)

    def test_needle_tiny_vocab_rejected(self):
        with pytest.raises(ValueError):
            D.gen_corpus("needle", 1, (256, 256), 14, seed=0,
                         needle_block=32, needle_decoys=3)

    def test_extractive_target_is_flagged_sentences(self):
        docs = D.gen_corpus("extractive-summ", 20, (64, 64), 32, seed=5,
                            summ_sentences=4, summ_flagged=2)
        for d in docs:
            want = []
            for s in d.sentences:
                if s[0] == D.FLAG_ID:
                    want.extend(s[1:])
            assert d.target == want + [D.EOS_ID]


class TestSurfaceAndIO:
    def test_empty_doc_rejected(self):
        with pytest.raises(ValueError):
            D.SyntheticDoc([])

    def test_jsonl_roundtrip(self, tmp_path):
        docs = D.gen_corpus("extractive-summ", 5, (32, 32), 32, seed=6)
        p = tmp_path / "c.jsonl"
        D.write_jsonl(docs, p)
        back = D.read_jsonl(p)
        assert [d.sentences for d in back] == [d.sentences for d in docs]
        assert [d.target for d in back] == [d.target for d in docs]

    def test_old_chars_field_is_ignored(self, tmp_path):
        # corpora written before the field's removal carry a "chars" count
        p = tmp_path / "old.jsonl"
        p.write_text('{"sentences": [[6, 7], [8]], "chars": 9, "target": [8, 2]}\n')
        (doc,) = D.read_jsonl(p)
        assert doc.sentences == [[6, 7], [8]] and doc.target == [8, 2]

    @pytest.mark.parametrize("line, why", [("{}", 'no "sentences"'),
                                           ("[1]", 'no "sentences"'),
                                           ("xx", "not JSON")])
    def test_bad_record_names_its_line(self, tmp_path, line, why):
        p = tmp_path / "c.jsonl"
        p.write_text('{"sentences": [[6]]}\n' + line + "\n")
        with pytest.raises(ValueError, match=f"line 2 (has|is) {why}"):
            D.read_jsonl(p)

    def test_inverted_length_range_rejected(self):
        with pytest.raises(ValueError, match="exceeds maximum length"):
            D.gen_corpus("copy", 2, (20, 4), 32, seed=0)


class TestMaskRatio:
    def test_reference_scaling(self):
        assert D.scale_mask_ratio(0.45, 512, 4096) == 0.05625

    def test_identity(self):
        assert D.scale_mask_ratio(0.3, 128, 128) == 0.3

    def test_halving_length_doubles_nothing(self):
        assert D.scale_mask_ratio(0.45, 512, 1024) == 0.225

    def test_shrinking_length_grows_ratio(self):
        assert D.scale_mask_ratio(0.2, 512, 256) == pytest.approx(0.4)

    def test_ratio_one_or_more_rejected(self):
        with pytest.raises(ValueError):
            D.scale_mask_ratio(0.5, 1024, 256)

    @given(r=st.floats(0.01, 0.9), b=st.integers(1, 4096), n=st.integers(1, 4096))
    def test_formula(self, r, b, n):
        if r * b / n >= 1.0:
            with pytest.raises(ValueError):
                D.scale_mask_ratio(r, b, n)
        else:
            assert D.scale_mask_ratio(r, b, n) == r * b / n


class TestGsgMask:
    def doc(self, n_sent, seed=0, per=4):
        rng = np.random.default_rng(seed)
        return D.SyntheticDoc([rng.integers(6, 32, size=per).tolist()
                               for _ in range(n_sent)])

    def test_single_sentence(self):
        d = self.doc(1)
        inp, tgt = D.gsg_mask(d, 0.5, seed=0)
        assert inp == [D.MASK_SENT_ID]
        assert tgt == d.sentences[0] + [D.EOS_ID]

    def test_all_sentences(self):
        d = self.doc(4)
        inp, tgt = D.gsg_mask(d, 1.0, seed=0)
        assert inp == [D.MASK_SENT_ID] * 4
        want = []
        for s in d.sentences:
            want.extend(s + [D.EOS_ID])
        assert tgt == want

    def test_floor_at_one(self):
        d = self.doc(10)
        inp, tgt = D.gsg_mask(d, 0.01, seed=0)
        assert inp.count(D.MASK_SENT_ID) == 1

    def test_bad_ratio(self):
        for r in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                D.gsg_mask(self.doc(3), r, seed=0)

    def test_targets_verbatim_in_order(self):
        d = self.doc(8, seed=1)
        inp, tgt = D.gsg_mask(d, 0.4, seed=2)
        chunks = []
        cur = []
        for t in tgt:
            if t == D.EOS_ID:
                chunks.append(cur)
                cur = []
            else:
                cur.append(t)
        masked = [s for s in d.sentences if s in chunks]
        assert chunks == masked

    def test_monte_carlo_selection_fraction(self):
        ratio = 0.45
        n_sent = 20
        total_sel = 0
        for seed in range(10_000):
            d = self.doc(n_sent, seed=0)
            inp, _ = D.gsg_mask(d, ratio, seed=seed)
            total_sel += inp.count(D.MASK_SENT_ID)
        frac = total_sel / (10_000 * n_sent)
        # ceil(0.45*20)=9 of 20 deterministic; check the realized fraction
        assert abs(frac - math.ceil(ratio * n_sent) / n_sent) < 0.01

    def test_deterministic_per_seed(self):
        d = self.doc(8)
        assert D.gsg_mask(d, 0.3, seed=5) == D.gsg_mask(d, 0.3, seed=5)


class TestSchedule:
    def test_split_75_25(self):
        s = D.build_schedule("S75L25", 1024 * 64, short_len=64, long_len=512, batch=1)
        assert s.phases[0].token_budget == int(0.75 * 1024 * 64)
        assert s.phases[1].token_budget == 1024 * 64 - s.phases[0].token_budget
        assert s.total_budget == 1024 * 64

    def test_long_only_step_count(self):
        s = D.build_schedule("L100", 8192, short_len=64, long_len=512, batch=2)
        assert s.phases[0].steps == 8192 // (2 * 512)

    def test_50_50_long_phase_one_eighth_steps(self):
        s = D.build_schedule("S50L50", 2 ** 16, short_len=64, long_len=512, batch=1)
        short, long = s.phases
        assert long.input_len == 8 * short.input_len
        assert long.steps * 8 == short.steps

    def test_mask_ratio_scaled_per_phase(self):
        s = D.build_schedule("S50L50", 2 ** 16, short_len=64, long_len=512,
                             batch=1, base_mask_ratio=0.45)
        assert s.phases[0].mask_ratio == 0.45
        assert s.phases[1].mask_ratio == 0.45 / 8

    def test_budget_conserved_exactly(self):
        s = D.build_schedule("S75L25", 2 ** 14, short_len=32, long_len=128, batch=4)
        assert sum(p.steps * 4 * p.input_len for p in s.phases) == s.total_budget

    def test_indivisible_budget_rejected(self):
        with pytest.raises(ValueError):
            D.build_schedule("L100", 1000, short_len=64, long_len=512, batch=1)

    def test_unknown_shape(self):
        with pytest.raises(ValueError):
            D.build_schedule("S25L75", 1024, short_len=64, long_len=512)

    def test_phase_budget_sum_invariant_enforced(self):
        ph = D.Phase(64, 64, 0.45, 640, 10)
        with pytest.raises(ValueError):
            D.PretrainSchedule((ph,), total_budget=641)

"""End-to-end verification gate: the ten headline behaviors of the library,
each with its stated tolerance and runtime budget.

1.  BlockLocal with block >= L matches Full attention logits to 1e-8.
2.  Analytic gradients match central differences to 1e-4 relative error
    across the attention-variant x position-encoding grid.
3.  Staggered boundaries let adjacent positions co-attend within any two
    consecutive layers (exhaustive mask enumeration).
4.  Cross-block retrieval: non-staggered BlockLocal stays at chance while
    staggered BlockLocal and GlobalLocal reach >= 90% exact match.
5.  Mask-ratio scaling reference value is exact.
6.  Checkpoint surgery: parameter deltas, vocab-row global init, cross-attn
    removal arithmetic, and position replication stability.
7.  Score entries the kernels compute equal the closed-form cost model;
    quadratic vs linear growth.
8.  ROUGE implementations match brute-force oracles exactly.
9.  Token-budget schedule arithmetic.
10. CLI pipeline smoke test with bit-identical reruns.
"""

import json
import time
from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from longattn import adapt as AD
from longattn import cli
from longattn import data as D
from longattn import rouge as R
from longattn import tensor as T
from longattn import train as TR
from longattn.attention import (AttentionSpec, Variant, attention_cost,
                                make_block_layout)
from longattn.model import (count_params, decoder_forward, encoder_forward,
                            init_params, make_config, seq2seq_loss)
from longattn.posenc import Scheme
from score_count import softmax_entries


def toy_config(variant, **kw):
    kw.setdefault("vocab_size", 64)
    kw.setdefault("d_model", 32)
    kw.setdefault("num_heads", 2)
    kw.setdefault("d_ff", 64)
    kw.setdefault("enc_layers", 2)
    kw.setdefault("dec_layers", 2)
    kw.setdefault("max_input_len", 64)
    kw.setdefault("max_output_len", 16)
    kw.setdefault("dropout_p", 0.0)
    return make_config(variant, **kw)


class TestFullEquivalence:
    def test_big_block_local_matches_full_logits(self):
        t0 = time.time()
        cfg_full = toy_config(Variant.FULL)
        cfg_local = toy_config(Variant.BLOCK_LOCAL, block_size=64, staggered=False)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            params = init_params(cfg_full, seed)
            L = int(rng.integers(4, 65))
            inp = rng.integers(6, 64, size=L).tolist()
            dec_in = [3] + rng.integers(6, 64, size=4).tolist()
            outs = []
            for cfg in (cfg_full, cfg_local):
                enc_tok, enc_glob = encoder_forward(cfg, params, inp)
                outs.append(decoder_forward(cfg, params, dec_in, enc_tok,
                                            enc_glob).data)
            assert np.max(np.abs(outs[0] - outs[1])) < 1e-8
        assert time.time() - t0 < 60


class TestGradientGrid:
    VARIANTS = [
        dict(variant=Variant.FULL),
        dict(variant=Variant.BLOCK_LOCAL, block_size=4, staggered=True),
        dict(variant=Variant.GLOBAL_LOCAL, block_size=4, num_global=2),
    ]
    SCHEMES = [Scheme.NONE, Scheme.SINUSOIDAL, Scheme.LEARNED_ABSOLUTE,
               Scheme.ROPE, Scheme.T5_RELATIVE]

    def test_analytic_matches_central_difference(self):
        t0 = time.time()
        for vkw in self.VARIANTS:
            for scheme in self.SCHEMES:
                self._check_one(dict(vkw), scheme)
        assert time.time() - t0 < 300

    def _check_one(self, vkw, scheme):
        variant = vkw.pop("variant")
        cfg = make_config(variant, scheme=scheme, vocab_size=16, d_model=8,
                          num_heads=2, d_ff=16, enc_layers=1, dec_layers=1,
                          max_input_len=16, max_output_len=8, dropout_p=0.0,
                          **vkw)
        params = init_params(cfg, 0)
        rng = np.random.default_rng(1)
        inp = rng.integers(6, 16, size=8).tolist()
        tgt = rng.integers(6, 16, size=3).tolist() + [2]

        def loss_value():
            with T.Tape():
                return seq2seq_loss(cfg, params, inp, tgt).item()

        for p in params.values():
            p.grad = None
        with T.Tape():
            loss = seq2seq_loss(cfg, params, inp, tgt)
            T.backward(loss)

        names = sorted(params)
        picked = names[:: max(1, len(names) // 8)]
        for name in picked:
            p = params[name]
            flat = p.data.reshape(-1)
            idx = int(rng.integers(0, flat.size))
            analytic = 0.0 if p.grad is None else float(p.grad.reshape(-1)[idx])
            base = flat[idx]
            h = 1e-3

            def fd(step):
                flat[idx] = base + step
                up = loss_value()
                flat[idx] = base - step
                down = loss_value()
                flat[idx] = base
                return (up - down) / (2 * step)

            # Richardson extrapolation cancels the O(h^2) truncation term
            est = (4.0 * fd(h / 2) - fd(h)) / 3.0
            denom = max(abs(analytic), abs(est), 1e-6)
            assert abs(analytic - est) / denom < 1e-4, \
                (variant, scheme, name, analytic, est)


class TestStaggerReach:
    def test_adjacent_positions_co_attend_across_two_layers(self):
        t0 = time.time()
        for b in (2, 4, 8, 64):
            for L in range(2, 257):
                if L < b:
                    continue
                m0 = make_block_layout(L, b, 0, True).pair_mask()
                m1 = make_block_layout(L, b, 1, True).pair_mask()
                union = m0 | m1
                for i in range(L - 1):
                    assert union[i, i + 1], (b, L, i)
        assert time.time() - t0 < 10

    def test_fixed_boundaries_always_split_somewhere(self):
        for b in (2, 4, 8, 64):
            for L in (2 * b, 256):
                m0 = make_block_layout(L, b, 0, False).pair_mask()
                m1 = make_block_layout(L, b, 1, False).pair_mask()
                union = m0 | m1
                assert not union[b - 1, b]


@pytest.mark.slow
class TestCrossBlockRetrieval:
    """Trains three small models on the cross-block retrieval task and
    checks the direction of the effect: fixed block boundaries stay near
    chance, while staggered boundaries or a global channel solve it."""

    L, BLOCK, VOCAB = 256, 32, 64
    DECOYS = 3
    STEPS, EVAL_EVERY = 3000, 250
    TARGET_EM = 0.9

    @pytest.fixture(scope="class")
    def corpus(self):
        train_docs = D.gen_corpus("needle", 2000, (self.L, self.L), self.VOCAB,
                                  seed=1, needle_block=self.BLOCK,
                                  needle_decoys=self.DECOYS)
        test_docs = D.gen_corpus("needle", 50, (self.L, self.L), self.VOCAB,
                                 seed=99, needle_block=self.BLOCK,
                                 needle_decoys=self.DECOYS)
        return TR.docs_to_pairs(train_docs), TR.docs_to_pairs(test_docs)

    def _run(self, corpus, variant, *, staggered=False, num_global=0,
             enc_layers=2):
        train_pairs, test_pairs = corpus
        cfg = make_config(variant, block_size=self.BLOCK, num_global=num_global,
                          staggered=staggered, scheme=Scheme.NONE,
                          vocab_size=self.VOCAB, d_model=32, num_heads=2,
                          d_ff=64, enc_layers=enc_layers, dec_layers=1,
                          cross_attn_layers=(0,), max_input_len=self.L,
                          max_output_len=8, dropout_p=0.0)
        params = init_params(cfg, 0)
        best = 0.0
        for chunk in range(self.STEPS // self.EVAL_EVERY):
            TR.train(cfg, params, train_pairs, steps=self.EVAL_EVERY,
                     batch_size=4, seed=chunk, lr=3e-3,
                     warmup=100 if chunk == 0 else 1, log_every=0)
            best = max(best, TR.exact_match(cfg, params, test_pairs))
            if best >= self.TARGET_EM:
                break
        return best

    def test_staggering_or_global_channel_solves_retrieval(self, corpus):
        t0 = time.time()
        chance = 1.0 / (self.DECOYS + 1)

        em_nonstag = self._run(corpus, Variant.BLOCK_LOCAL, staggered=False)
        assert em_nonstag <= chance + 0.10, em_nonstag

        em_stag = self._run(corpus, Variant.BLOCK_LOCAL, staggered=True)
        assert em_stag >= self.TARGET_EM, em_stag

        em_glob = self._run(corpus, Variant.GLOBAL_LOCAL, num_global=8,
                            enc_layers=3)
        assert em_glob >= self.TARGET_EM, em_glob

        assert time.time() - t0 < 1800


class TestMaskRatioRule:
    def test_reference_value_exact(self):
        assert D.scale_mask_ratio(0.45, 512, 4096) == 0.05625


class TestSurgerySuite:
    def _source(self, tmp_path, **kw):
        cfg = toy_config(Variant.BLOCK_LOCAL, block_size=8, **kw)
        params = init_params(cfg, 3)
        return AD.Checkpoint.from_params(cfg, params)

    def test_global_channel_parameter_delta(self, tmp_path):
        src = self._source(tmp_path)
        spec = AttentionSpec(Variant.GLOBAL_LOCAL, 8, 4, False, 2, 16)
        out = AD.port_to_global_local(src, spec, rng_seed=0)
        delta = (sum(a.size for a in out.arrays.values())
                 - sum(a.size for a in src.arrays.values()))
        g, d, enc = 4, src.config.d_model, src.config.enc_layers
        assert delta == g * d + enc * 2 * d

    def test_global_embeddings_are_sampled_vocab_rows(self, tmp_path):
        src = self._source(tmp_path)
        spec = AttentionSpec(Variant.GLOBAL_LOCAL, 8, 4, False, 2, 16)
        out = AD.port_to_global_local(src, spec, rng_seed=5)
        vocab = src.arrays["embed.tok"]
        for row in out.arrays["embed.global"]:
            assert any(np.array_equal(row, vr) for vr in vocab)

    def test_cross_attention_removal_matches_config_count(self, tmp_path):
        full = toy_config(Variant.FULL, dec_layers=8)
        ckpt = AD.Checkpoint.from_params(full, init_params(full, 0))
        out = AD.drop_cross_attention(ckpt, [0, 6])
        want = count_params(toy_config(Variant.FULL, dec_layers=8,
                                       cross_attn_layers=(0, 6)))
        assert sum(a.size for a in out.arrays.values()) == want

    def test_position_replication_keeps_short_logits_bitstable(self, tmp_path):
        cfg = toy_config(Variant.FULL, scheme=Scheme.LEARNED_ABSOLUTE,
                         max_input_len=32)
        params = init_params(cfg, 7)
        ckpt = AD.Checkpoint.from_params(cfg, params)
        out = AD.replicate_positions(ckpt, 64)
        rng = np.random.default_rng(0)
        inp = rng.integers(6, 64, size=16).tolist()
        dec_in = [3, 6, 7]

        def logits(c):
            pcfg, pp = c.config, c.to_params()
            et, eg = encoder_forward(pcfg, pp, inp)
            return decoder_forward(pcfg, pp, dec_in, et, eg).data

        assert np.array_equal(logits(ckpt), logits(out))


class TestCostModel:
    CONFIGS = [
        (Variant.FULL, 64, 0, False, 128),
        (Variant.FULL, 64, 0, False, 256),
        (Variant.BLOCK_LOCAL, 16, 0, False, 128),
        (Variant.BLOCK_LOCAL, 16, 0, True, 128),
        (Variant.BLOCK_LOCAL, 32, 0, True, 200),
        (Variant.BLOCK_LOCAL, 64, 0, False, 512),
        (Variant.GLOBAL_LOCAL, 16, 4, False, 128),
        (Variant.GLOBAL_LOCAL, 32, 8, False, 256),
        (Variant.GLOBAL_LOCAL, 32, 8, True, 256),
        (Variant.GLOBAL_LOCAL, 64, 16, False, 512),
    ]

    def _run_counted(self, spec, L):
        from longattn import attention as A
        rng = np.random.default_rng(0)
        h, d = spec.num_heads, spec.head_dim
        q, k, v = (T.Tensor(rng.standard_normal((h, L, d))) for _ in range(3))
        with softmax_entries() as sizes:
            if spec.variant == Variant.FULL:
                A.full_attention(q, k, v)
            else:
                layout = make_block_layout(L, spec.block_size,
                                           1 if spec.staggered else 0,
                                           spec.staggered)
                if spec.variant == Variant.BLOCK_LOCAL:
                    A.block_local_attention(q, k, v, layout)
                else:
                    g = spec.num_global
                    gq, gk, gv = (T.Tensor(rng.standard_normal((h, g, d)))
                                  for _ in range(3))
                    A.global_local_attention(q, k, v, gq, gk, gv, layout)
        return sum(sizes) * d, sum(sizes)

    def test_counters_equal_cost_model_on_ten_configs(self):
        t0 = time.time()
        for variant, b, g, stag, L in self.CONFIGS:
            spec = AttentionSpec(variant, b, g, stag, 2, 16)
            macs, elems = self._run_counted(spec, L)
            cost = attention_cost(spec, L)
            assert macs == cost["flops"], (variant, b, g, stag, L)
            assert elems == cost["score_mem_elems"], (variant, b, g, stag, L)
        assert time.time() - t0 < 60

    def test_quadratic_vs_linear_growth(self):
        full = AttentionSpec(Variant.FULL, 64, 0, False, 2, 16)
        local = AttentionSpec(Variant.BLOCK_LOCAL, 64, 0, False, 2, 16)
        for L in (256, 512, 1024):
            rf = (attention_cost(full, 2 * L)["score_mem_elems"]
                  / attention_cost(full, L)["score_mem_elems"])
            rl = (attention_cost(local, 2 * L)["score_mem_elems"]
                  / attention_cost(local, L)["score_mem_elems"])
            assert rf == 4.0
            assert rl == 2.0


def _oracle_ngram_f1(cand, ref, n):
    c = Counter(tuple(cand[i:i + n]) for i in range(len(cand) - n + 1))
    r = Counter(tuple(ref[i:i + n]) for i in range(len(ref) - n + 1))
    overlap = sum((c & r).values())
    nc, nr = sum(c.values()), sum(r.values())
    if overlap == 0:
        return 0.0
    p, rec = overlap / nc, overlap / nr
    return 2 * p * rec / (p + rec)


def _oracle_lcs(a, b):
    best = 0
    for r in range(len(a), 0, -1):
        if r <= best:
            break
        for comb in combinations(range(len(a)), r):
            sub = [a[i] for i in comb]
            it = iter(b)
            if all(x in it for x in sub):
                best = r
                break
    return best


class TestRougeOracle:
    def test_thousand_random_pairs(self):
        t0 = time.time()
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n1 = int(rng.integers(1, 9))
            n2 = int(rng.integers(1, 9))
            cand = rng.integers(0, 5, size=n1).tolist()
            ref = rng.integers(0, 5, size=n2).tolist()
            for n in (1, 2):
                assert R.rouge_n(cand, ref, n).f1 == pytest.approx(
                    _oracle_ngram_f1(cand, ref, n), abs=1e-12)
            assert R.lcs_len(cand, ref) == _oracle_lcs(cand, ref)
        assert time.time() - t0 < 30

    def test_equal_strings_score_one(self):
        toks = [1, 2, 3, 4]
        scores = R.score_pair(toks, toks)
        rg = R.geometric_mean([scores["rouge1"].f1, scores["rouge2"].f1,
                               scores["rougeL"].f1])
        assert rg == 1.0


class TestScheduleArithmetic:
    def test_even_split_gives_one_eighth_long_steps(self):
        s = D.build_schedule("S50L50", 2 ** 16, short_len=64, long_len=512,
                             batch=1)
        short, long = s.phases
        assert long.input_len == 8 * short.input_len
        assert short.steps == 8 * long.steps
        assert s.total_budget == 2 ** 16


class TestCliSmoke:
    def _gen(self, out, seed=11):
        return cli.main(["gen-data", "--out", str(out), "--seed", str(seed),
                         "--set", "data.kind=needle", "--set", "data.n_docs=24",
                         "--set", "data.len_min=256", "--set", "data.len_max=256"])

    def _finetune(self, out, data, seed=12):
        return cli.main([
            "finetune", "--out", str(out), "--data", str(data),
            "--seed", str(seed),
            "--set", "model.attention.variant=block_local",
            "--set", "model.attention.block_size=32",
            "--set", "model.attention.staggered=true",
            "--set", "model.dec_layers=1",
            "--set", "model.cross_attn_layers=[0]",
            "--set", "model.dropout_p=0.0",
            "--set", "train.steps=8", "--set", "train.batch=2",
            "--set", "train.log_every=0"])

    def test_pipeline_and_bit_identical_rerun(self, tmp_path):
        assert self._gen(tmp_path / "data") == 0
        corpus = tmp_path / "data" / "corpus.jsonl"
        assert self._finetune(tmp_path / "ft", corpus) == 0
        rc = cli.main(["eval", "--out", str(tmp_path / "ev"),
                       "--ckpt", str(tmp_path / "ft" / "ckpt"),
                       "--data", str(corpus),
                       "--set", "decode.max_len=4"])
        assert rc == 0
        metrics = json.loads((tmp_path / "ev" / "metrics.json").read_text())
        assert 0.0 <= metrics["exact_match"] <= 1.0

        # rerunning each stage from its run.json alone reproduces artifacts
        rc = cli.main(["gen-data", "--out", str(tmp_path / "data2"),
                       "--config", str(tmp_path / "data" / "run.json")])
        assert rc == 0
        assert corpus.read_bytes() == (tmp_path / "data2" / "corpus.jsonl").read_bytes()
        rc = cli.main(["finetune", "--out", str(tmp_path / "ft2"),
                       "--config", str(tmp_path / "ft" / "run.json")])
        assert rc == 0
        assert (tmp_path / "ft" / "ckpt" / "params.bin").read_bytes() == \
               (tmp_path / "ft2" / "ckpt" / "params.bin").read_bytes()

import csv
import json
import os
from pathlib import Path

import numpy as np
import pytest

from longattn import cli
from longattn.cli import ConfigError, main, resolve_config


def run(args):
    return main([str(a) for a in args])


class TestConfigResolution:
    def test_defaults(self):
        cfg = resolve_config("gen-data", None, [])
        assert cfg["data"]["kind"] == "copy"

    def test_set_override_with_json_value(self):
        cfg = resolve_config("gen-data", None, ["data.n_docs=5", "data.kind=needle"])
        assert cfg["data"]["n_docs"] == 5
        assert cfg["data"]["kind"] == "needle"

    def test_unknown_key_is_hard_error(self):
        with pytest.raises(ConfigError, match="data.ndocs"):
            resolve_config("gen-data", None, ["data.ndocs=5"])

    def test_unknown_nested_file_key(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"data": {"n_docs": 3, "typo_key": 1}}))
        with pytest.raises(ConfigError, match="typo_key"):
            resolve_config("gen-data", str(p), [])

    def test_malformed_set(self):
        with pytest.raises(ConfigError):
            resolve_config("gen-data", None, ["data.n_docs"])

    def test_run_json_unwrapped(self, tmp_path):
        p = tmp_path / "run.json"
        p.write_text(json.dumps({"command": "gen-data", "seed": 3,
                                 "config": {"data": {"n_docs": 7}}}))
        cfg = resolve_config("gen-data", str(p), [])
        assert cfg["data"]["n_docs"] == 7


class TestExitCodes:
    def test_unknown_key_exits_2(self, tmp_path, capsys):
        rc = run(["gen-data", "--out", tmp_path, "--set", "data.bogus=1"])
        assert rc == 2
        assert "bogus" in capsys.readouterr().err

    def test_missing_ckpt_exits_2(self, tmp_path):
        assert run(["adapt", "--out", tmp_path]) == 2

    def test_missing_data_file_exits_2(self, tmp_path):
        cfg = tmp_path / "ck"
        rc = run(["finetune", "--out", tmp_path, "--data", tmp_path / "nope.jsonl"])
        assert rc == 2

    def test_gen_data_ok(self, tmp_path):
        rc = run(["gen-data", "--out", tmp_path, "--seed", 1,
                  "--set", "data.n_docs=4"])
        assert rc == 0
        assert (tmp_path / "corpus.jsonl").exists()
        assert (tmp_path / "run.json").exists()


class TestSeedHandling:
    def test_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LONGATTN_SEED", "17")
        run(["gen-data", "--out", tmp_path, "--set", "data.n_docs=2"])
        rj = json.loads((tmp_path / "run.json").read_text())
        assert rj["seed"] == 17

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LONGATTN_SEED", "17")
        run(["gen-data", "--out", tmp_path, "--seed", 4, "--set", "data.n_docs=2"])
        rj = json.loads((tmp_path / "run.json").read_text())
        assert rj["seed"] == 4

    def test_same_seed_same_corpus(self, tmp_path):
        run(["gen-data", "--out", tmp_path / "a", "--seed", 9, "--set", "data.n_docs=6"])
        run(["gen-data", "--out", tmp_path / "b", "--seed", 9, "--set", "data.n_docs=6"])
        assert (tmp_path / "a" / "corpus.jsonl").read_bytes() == \
               (tmp_path / "b" / "corpus.jsonl").read_bytes()


class TestRunJson:
    def test_captures_resolved_config(self, tmp_path):
        run(["gen-data", "--out", tmp_path, "--seed", 2, "--set", "data.n_docs=3"])
        rj = json.loads((tmp_path / "run.json").read_text())
        assert rj["command"] == "gen-data"
        assert rj["config"]["data"]["n_docs"] == 3
        assert "git" in rj

    def test_rerun_from_run_json_bit_identical(self, tmp_path):
        run(["gen-data", "--out", tmp_path / "a", "--seed", 5,
             "--set", "data.kind=needle", "--set", "data.n_docs=4",
             "--set", "data.needle_decoys=1",
             "--set", "data.len_min=128", "--set", "data.len_max=128"])
        rc = run(["gen-data", "--out", tmp_path / "b", "--seed", 5,
                  "--config", tmp_path / "a" / "run.json"])
        assert rc == 0
        assert (tmp_path / "a" / "corpus.jsonl").read_bytes() == \
               (tmp_path / "b" / "corpus.jsonl").read_bytes()


class TestDumpMask:
    def test_pbm_and_csv(self, tmp_path):
        rc = run(["dump-mask", "--out", tmp_path, "--set", "mask.L=8",
                  "--set", "mask.block_size=4", "--set", "mask.layer=1",
                  "--set", "mask.staggered=true"])
        assert rc == 0
        pbm = (tmp_path / "mask.pbm").read_text().splitlines()
        assert pbm[0] == "P1"
        assert pbm[1] == "8 8"
        rows = [r.split(",") for r in (tmp_path / "mask.csv").read_text().splitlines()]
        mask = np.array(rows, dtype=int)
        # shifted-boundary groups {0,1}, {2..5}, {6,7}
        assert mask[0, 1] == 1 and mask[0, 2] == 0
        assert mask[2, 5] == 1 and mask[5, 6] == 0
        assert np.array_equal(mask, mask.T)


class TestBenchCommand:
    def test_bench_writes_csv_and_passes_ordering(self, tmp_path):
        rc = run(["bench", "--out", tmp_path, "--set", "bench.repeats=1",
                  "--set", "bench.lengths=[512,1024]",
                  "--set", 'bench.baseline=["block_local",512]',
                  "--set", "bench.num_heads=1", "--set", "bench.head_dim=4"])
        assert rc == 0
        with open(tmp_path / "scaling.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        full = {int(r["L"]): int(r["score_elems"]) for r in rows if r["variant"] == "full"}
        assert full[1024] == 4 * full[512]

    def test_default_baseline_is_first_row(self, tmp_path):
        rc = run(["bench", "--out", tmp_path, "--set", "bench.repeats=1",
                  "--set", "bench.lengths=[128]", "--set", "bench.check_ordering=false",
                  "--set", "bench.num_heads=1", "--set", "bench.head_dim=4"])
        assert rc == 0
        with open(tmp_path / "scaling.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert int(rows[0]["L"]) == 128 and float(rows[0]["mac_rel"]) == 1.0


class TestAdaptCommand:
    def make_ckpt(self, tmp_path):
        from longattn import adapt as AD
        from longattn import model as M
        from longattn.model import make_config
        from longattn.attention import Variant
        cfg = make_config(Variant.FULL, vocab_size=16, d_model=16, num_heads=2,
                          d_ff=32, enc_layers=1, dec_layers=1,
                          max_input_len=32, max_output_len=8)
        AD.save(cfg, M.init_params(cfg, 0), tmp_path / "src")
        return tmp_path / "src"

    def test_adapt_deterministic(self, tmp_path):
        src = self.make_ckpt(tmp_path)
        chain = json.dumps([{"op": "global_local", "block_size": 8, "num_global": 2}])
        for name in ("a", "b"):
            rc = run(["adapt", "--out", tmp_path / name, "--ckpt", src,
                      "--seed", 7, "--set", f"surgery.chain={chain}"])
            assert rc == 0
        assert (tmp_path / "a" / "ckpt" / "params.bin").read_bytes() == \
               (tmp_path / "b" / "ckpt" / "params.bin").read_bytes()

    def test_unknown_surgery_exits_2(self, tmp_path):
        src = self.make_ckpt(tmp_path)
        rc = run(["adapt", "--out", tmp_path / "x", "--ckpt", src,
                  "--set", 'surgery.chain=[{"op": "mystery"}]'])
        assert rc == 2


class TestEvalCommand:
    def test_identical_pairs_rg_one(self, tmp_path):
        # train nothing: evaluate a model against targets equal to its own
        # greedy outputs, which forces rg == 1.0
        from longattn import adapt as AD
        from longattn import data as D
        from longattn import model as M
        from longattn.model import make_config, greedy_decode
        from longattn.attention import Variant
        cfg = make_config(Variant.FULL, vocab_size=16, d_model=16, num_heads=2,
                          d_ff=32, enc_layers=1, dec_layers=1,
                          max_input_len=32, max_output_len=8)
        params = M.init_params(cfg, 0)
        AD.save(cfg, params, tmp_path / "ck")
        docs = []
        for i, doc in enumerate(D.gen_corpus("copy", 3, (4, 6), 16, seed=0)):
            hyp = greedy_decode(cfg, params, doc.flat(), max_len=8)
            docs.append(D.SyntheticDoc(doc.sentences, target=list(hyp)))
        D.write_jsonl(docs, tmp_path / "fix.jsonl")
        rc = run(["eval", "--out", tmp_path / "ev", "--ckpt", tmp_path / "ck",
                  "--data", tmp_path / "fix.jsonl",
                  "--set", "decode.max_len=8"])
        assert rc == 0
        header, row = (tmp_path / "ev" / "rouge.csv").read_text().splitlines()
        assert header == "r1,r2,rl,rlsum,rg"
        assert float(row.split(",")[-1]) == 1.0
        metrics = json.loads((tmp_path / "ev" / "metrics.json").read_text())
        assert metrics["exact_match"] == 1.0

    def make_run(self, tmp_path):
        from longattn import adapt as AD
        from longattn import data as D
        from longattn import model as M
        from longattn.attention import Variant
        cfg = M.make_config(Variant.FULL, vocab_size=16, d_model=16, num_heads=2,
                            d_ff=32, enc_layers=1, dec_layers=1,
                            max_input_len=32, max_output_len=8)
        AD.save(cfg, M.init_params(cfg, 0), tmp_path / "ck")
        D.write_jsonl(D.gen_corpus("copy", 2, (4, 6), 16, seed=0), tmp_path / "d.jsonl")
        return ["eval", "--out", tmp_path / "ev", "--ckpt", tmp_path / "ck",
                "--data", tmp_path / "d.jsonl"]

    @pytest.mark.parametrize("beam_size", [1, 3])
    def test_overlong_decode_exits_2(self, tmp_path, capsys, beam_size):
        rc = run(self.make_run(tmp_path) + ["--set", "decode.max_len=200",
                                            "--set", f"decode.beam_size={beam_size}"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "max_len 200" in err

    @pytest.mark.parametrize("beam_size", ["0", "-1", '"two"'])
    def test_bad_beam_size_exits_2(self, tmp_path, capsys, beam_size):
        rc = run(self.make_run(tmp_path) + ["--set", f"decode.beam_size={beam_size}"])
        assert rc == 2
        assert "decode.beam_size" in capsys.readouterr().err

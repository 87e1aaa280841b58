import json
import os
import subprocess
import sys
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

    def test_finetune_reads_only_the_checkpoints_config(self, tmp_path):
        # params.bin is read once, by the fine-tune's load, not to resolve the config
        ck = tiny_ckpt(tmp_path / "ck")
        (ck / "params.bin").write_bytes(b"")
        cfg = resolve_config("finetune", None, [], [("ckpt", str(ck))])
        assert cfg["model"] == json.loads((ck / "config.json").read_text())

    def test_run_json_unwrapped(self, tmp_path, monkeypatch):
        # the layout of a run.json from before "seed" was a config key
        p = tmp_path / "run.json"
        p.write_text(json.dumps({"command": "gen-data", "seed": 3,
                                 "config": {"data": {"n_docs": 7}}}))
        monkeypatch.setenv("LONGATTN_SEED", "99")
        cfg = resolve_config("gen-data", str(p), [])
        assert cfg["data"]["n_docs"] == 7 and cfg["seed"] == 3


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

    # the flags a command's usage lists beyond --config, --set, --seed and --out
    HELP_FLAGS = {"gen-data": (), "pretrain": (), "adapt": ("--ckpt",),
                  "finetune": ("--ckpt", "--data"), "eval": ("--ckpt", "--data"),
                  "dump-mask": ()}

    @pytest.mark.parametrize("command", [None, *HELP_FLAGS])
    def test_help_prints_usage_and_exits_0(self, capsys, command):
        # a parse error is bad input, but --help is not: argparse prints the
        # usage to stdout and exits 0, for every subcommand's parser too
        argv = [command] if command else []
        with pytest.raises(SystemExit) as e:
            main(argv + ["--help"])
        out, err = capsys.readouterr()
        assert e.value.code == 0 and err == ""
        assert out.startswith(" ".join(["usage: longattn"] + argv))
        if command:
            flags = ("--config", "--set", "--seed", "--out") + self.HELP_FLAGS[command]
            assert all(flag in out for flag in flags)
            assert ("--ckpt" in out) == ("--ckpt" in flags)
        else:
            assert all(name in out for name in cli.COMMANDS)


class TestSeedHandling:
    def test_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LONGATTN_SEED", "17")
        run(["gen-data", "--out", tmp_path, "--set", "data.n_docs=2"])
        rj = json.loads((tmp_path / "run.json").read_text())
        assert rj["config"]["seed"] == 17

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LONGATTN_SEED", "17")
        run(["gen-data", "--out", tmp_path, "--seed", 4, "--set", "data.n_docs=2"])
        rj = json.loads((tmp_path / "run.json").read_text())
        assert rj["config"]["seed"] == 4

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

    def test_rerun_from_run_json_bit_identical(self, tmp_path, monkeypatch):
        run(["gen-data", "--out", tmp_path / "a", "--seed", 5,
             "--set", "data.kind=needle", "--set", "data.n_docs=4",
             "--set", "data.needle_decoys=1",
             "--set", "data.len_min=128", "--set", "data.len_max=128"])
        monkeypatch.setenv("LONGATTN_SEED", "99")
        rc = run(["gen-data", "--out", tmp_path / "b",
                  "--config", tmp_path / "a" / "run.json"])
        assert rc == 0
        assert (tmp_path / "a" / "corpus.jsonl").read_bytes() == \
               (tmp_path / "b" / "corpus.jsonl").read_bytes()

    # each stage run with its seed, checkpoint and corpus given as flags, and
    # the artifacts its rerun from the run.json alone must reproduce
    STAGES = {
        "pretrain": (["pretrain", "--seed", 3, "--set", "schedule.shape=S100",
                      "--set", "schedule.total_budget=64"], ["ckpt_final/params.bin", "loss.csv"]),
        "adapt": (["adapt", "--seed", 7, "--ckpt", "CKPT", "--set", 'surgery.chain=[{"op": '
                   '"global_local", "block_size": 8, "num_global": 2}]'], ["ckpt/params.bin"]),
        "finetune-fresh": (["finetune", "--seed", 4, "--data", "CORPUS",
                            "--set", "train.steps=2"], ["ckpt/params.bin", "loss.csv"]),
        "finetune-ckpt": (["finetune", "--seed", 4, "--ckpt", "CKPT", "--data", "CORPUS",
                           "--set", "train.steps=2"], ["ckpt/params.bin", "loss.csv"]),
        "eval": (["eval", "--seed", 2, "--ckpt", "CKPT", "--data", "CORPUS",
                  "--set", "decode.max_len=4"], ["rouge.csv", "metrics.json"]),
    }

    @pytest.mark.parametrize("stage", list(STAGES))
    def test_rerun_from_run_json_alone(self, tmp_path, monkeypatch, stage):
        from longattn import data as D
        D.write_jsonl(D.gen_corpus("copy", 3, (4, 6), 16, seed=0), tmp_path / "d.jsonl")
        files = {"CKPT": tiny_ckpt(tmp_path / "ck"), "CORPUS": tmp_path / "d.jsonl"}
        argv, artifacts = self.STAGES[stage]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run([files.get(x, x) for x in argv] + ["--out", a]) == 0
        monkeypatch.setenv("LONGATTN_SEED", "99")
        assert run([argv[0], "--out", b, "--config", a / "run.json"]) == 0
        for name in artifacts:
            assert (a / name).read_bytes() == (b / name).read_bytes()
        rj_a, rj_b = (json.loads((d / "run.json").read_text()) for d in (a, b))
        assert rj_a["config"] == rj_b["config"]
        assert rj_a["config"]["seed"] == argv[argv.index("--seed") + 1]

    def test_finetune_from_ckpt_records_the_checkpoints_model(self, tmp_path):
        from longattn import data as D
        D.write_jsonl(D.gen_corpus("copy", 3, (4, 6), 16, seed=0), tmp_path / "d.jsonl")
        ck = tiny_ckpt(tmp_path / "ck")
        assert run(["finetune", "--out", tmp_path / "f", "--ckpt", ck,
                    "--data", tmp_path / "d.jsonl", "--set", "train.steps=1"]) == 0
        rj = json.loads((tmp_path / "f" / "run.json").read_text())
        assert rj["config"]["model"] == json.loads((ck / "config.json").read_text())
        assert rj["config"]["model"] != cli.DEFAULT_MODEL


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
        assert header == "r1,r2,rl,rg"
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

    @pytest.mark.parametrize("max_len", ["0", "-3"])
    def test_bad_max_len_exits_2(self, tmp_path, capsys, max_len):
        rc = run(self.make_run(tmp_path) + ["--set", f"decode.max_len={max_len}"])
        assert rc == 2
        assert "decode.max_len" in capsys.readouterr().err
        assert not (tmp_path / "ev" / "rouge.csv").exists()


def tiny_ckpt(path):
    from longattn import adapt as AD
    from longattn import model as M
    from longattn.attention import Variant
    cfg = M.make_config(Variant.FULL, vocab_size=16, d_model=16, num_heads=2,
                        d_ff=32, enc_layers=1, dec_layers=1,
                        max_input_len=32, max_output_len=8)
    AD.save(cfg, M.init_params(cfg, 0), path)
    return path


class TestInputContract:
    """Every bad value, file or input record exits 2 with one stderr line."""

    @pytest.fixture
    def files(self, tmp_path):
        run(["gen-data", "--out", tmp_path / "g", "--set", "data.n_docs=4"])
        paths = {"CORPUS": tmp_path / "g" / "corpus.jsonl", "CKPT": tiny_ckpt(tmp_path / "ck")}
        # checkpoints with a truncated params.bin, and with one byte flipped
        for name, edit in {"TRUNC": lambda b: b[:100],
                           "FLIPPED": lambda b: bytes([b[0] ^ 1]) + b[1:]}.items():
            paths[name] = tiny_ckpt(tmp_path / name)
            blob = paths[name] / "params.bin"
            blob.write_bytes(edit(blob.read_bytes()))
        for name, (file, edit) in self.BROKEN.items():
            paths[name] = tiny_ckpt(tmp_path / name)
            f = paths[name] / file
            f.write_text(json.dumps(edit(json.loads(f.read_text()))))
        # the checkpoint's own model config with one value changed
        model = json.loads((paths["CKPT"] / "config.json").read_text())
        texts = {"BAD_CONFIG": '{"data": {"n_docs": 3', "EMPTY": "", "NO_SENTENCES": "{}\n",
                 "CKPT_MODEL_D_FF": json.dumps({"model": {**model, "d_ff": 8}}),
                 "IN_VOCAB": '{"sentences": [[6, 7, 8]], "target": [6]}\n',
                 "NOT_JSON": "xx\n", "NO_TARGET": '{"sentences": [[6, 7, 8]]}\n',
                 "FLAT_SENTENCES": '{"sentences": [6, 7], "target": [6]}\n',
                 "TARGET_INT": '{"sentences": [[6, 7]], "target": 6}\n',
                 "TOKEN_STR": '{"sentences": [[6, "x"]], "target": [6]}\n',
                 "OLD_RUN_JSON": json.dumps({"command": "finetune", "seed": 0, "config": {
                     "model": {"posenc": {"learned_max_len": 512}}}}),
                 "RUN_JSON_LOG_EVERY": json.dumps({"command": "finetune", "config": {
                     "train": {"log_every": 50}}})}
        for name, text in texts.items():
            paths[name] = tmp_path / name
            paths[name].write_text(text)
        return paths

    # checkpoints with one edit to one metadata file: name -> (file, edit)
    BROKEN = {
        "NO_PARAMS": ("manifest.json", lambda m: {"format_version": 1}),
        "MANIFEST_LIST": ("manifest.json", lambda m: [m]),
        "SHAPE_STR": ("manifest.json",
                      lambda m: {**m, "params": {**m["params"], "embed.tok": {
                          **m["params"]["embed.tok"], "shape": "16x16"}}}),
        "OFFSET_STR": ("manifest.json",
                       lambda m: {**m, "params": {**m["params"], "embed.tok": {
                           **m["params"]["embed.tok"], "offset": "0"}}}),
        "NO_EMBED": ("manifest.json", lambda m: {**m, "params": {
            k: v for k, v in m["params"].items() if k != "embed.tok"}}),
        "NO_ATTENTION": ("config.json",
                         lambda c: {k: v for k, v in c.items() if k != "attention"}),
        "EXTRA_KEY": ("config.json", lambda c: {**c, "bogus": 1}),
        "D_MODEL_STR": ("config.json", lambda c: {**c, "d_model": "16"}),
        "NUM_HEADS_0": ("config.json", lambda c: {**c, "num_heads": 0}),
        "FLOAT16": ("manifest.json", lambda m: {**m, "params": {
            k: {**v, "dtype": "float16"} for k, v in m["params"].items()}}),
        # an older checkpoint's posenc object, with a value the model no longer takes
        "POSENC_BUCKETS_16": ("config.json", lambda c: {**c, "posenc": {
            "scheme": c["posenc"], "sinusoidal_factor": 10000.0, "t5_num_buckets": 16,
            "t5_max_distance": 128}}),
    }

    CASES = {
        "kind-bogus": ["gen-data", "--set", "data.kind=bogus"],
        "n-docs-string": ["gen-data", "--set", 'data.n_docs="x"'],
        "len-min-above-max": ["gen-data", "--set", "data.len_min=20", "--set", "data.len_max=4"],
        "malformed-config": ["gen-data", "--config", "BAD_CONFIG"],
        "batch-zero": ["finetune", "--data", "CORPUS", "--set", "train.batch=0"],
        "lr-negative": ["finetune", "--data", "CORPUS", "--set", "train.lr=-0.01",
                        "--set", "train.steps=1"],
        "lr-zero": ["pretrain", "--set", "train.lr=0"],
        "lr-string": ["finetune", "--data", "CORPUS", "--set", 'train.lr="x"'],
        "empty-corpus": ["finetune", "--data", "EMPTY"],
        "record-without-sentences": ["finetune", "--data", "NO_SENTENCES"],
        "record-not-json": ["finetune", "--data", "NOT_JSON"],
        "document-without-target": ["finetune", "--data", "NO_TARGET"],
        "sentences-not-lists": ["finetune", "--data", "FLAT_SENTENCES"],
        "target-not-list": ["eval", "--ckpt", "CKPT", "--data", "TARGET_INT"],
        "token-not-int": ["eval", "--ckpt", "CKPT", "--data", "TOKEN_STR"],
        "truncated-params": ["eval", "--ckpt", "TRUNC", "--data", "CORPUS"],
        "params-byte-flipped": ["adapt", "--ckpt", "FLIPPED"],
        "mask-length-zero": ["dump-mask", "--set", "mask.L=0"],
        "budget-not-whole-steps": ["pretrain", "--set", "schedule.total_budget=1000"],
        "surgery-missing-key": ["adapt", "--ckpt", "CKPT",
                                "--set", 'surgery.chain=[{"op": "local"}]'],
        "surgery-entry-not-object": ["adapt", "--ckpt", "CKPT", "--set", "surgery.chain=[5]"],
        "surgery-value-type": ["adapt", "--ckpt", "CKPT",
                               "--set", 'surgery.chain=[{"op": "local", "block_size": "x"}]'],
        "surgery-staggered-type": ["adapt", "--ckpt", "CKPT", "--set",
                                   'surgery.chain=[{"op": "local", "block_size": 8, "staggered": [1]}]'],
        "surgery-unknown-key": ["adapt", "--ckpt", "CKPT", "--set",
                                'surgery.chain=[{"op":"local","block_size":8,"stagered":true}]'],
        "surgery-staggered-on-drop-cross": [
            "adapt", "--ckpt", "CKPT", "--set",
            'surgery.chain=[{"op":"drop_cross","keep_layers":[0],"staggered":true}]'],
        "surgery-staggered-on-replicate": [
            "adapt", "--ckpt", "CKPT", "--set",
            'surgery.chain=[{"op":"replicate_positions","new_max_len":64,"staggered":false}]'],
        "run-json-learned-max-len": ["finetune", "--data", "CORPUS", "--config", "OLD_RUN_JSON"],
        "run-json-log-every": ["finetune", "--data", "CORPUS", "--config", "RUN_JSON_LOG_EVERY"],
        "config-posenc-buckets-16": ["eval", "--ckpt", "POSENC_BUCKETS_16", "--data", "CORPUS"],
        "steps-negative": ["finetune", "--data", "CORPUS", "--set", "train.steps=-1"],
        "len-min-zero": ["gen-data", "--set", "data.len_min=0", "--set", "data.len_max=0"],
        # long enough documents that only the needle bound can fail
        **{f"needle-{key}-{val}": ["gen-data", "--set", "data.kind=needle",
                                   "--set", "data.n_docs=4", "--set", "data.len_min=256",
                                   "--set", "data.len_max=256", "--set", f"data.needle_{key}={val}"]
           for key, val in (("block", 0), ("block", 4), ("block", 6), ("decoys", -1))},
        "schedule-batch-zero": ["pretrain", "--set", "schedule.batch=0"],
        # bad argv: argparse's message, on one line
        "unknown-command": ["bench"],
        "seed-not-int": ["gen-data", "--seed", "abc"],
        "unknown-flag": ["gen-data", "--bogus", "1"],
        "flag-missing-value": ["gen-data", "--seed"],
        "flag-of-another-command": ["gen-data", "--ckpt", "CKPT"],
        "manifest-without-params": ["eval", "--ckpt", "NO_PARAMS", "--data", "CORPUS"],
        "manifest-not-object": ["eval", "--ckpt", "MANIFEST_LIST", "--data", "CORPUS"],
        "manifest-shape-string": ["eval", "--ckpt", "SHAPE_STR", "--data", "CORPUS"],
        "manifest-offset-string": ["eval", "--ckpt", "OFFSET_STR", "--data", "CORPUS"],
        "config-missing-key": ["eval", "--ckpt", "NO_ATTENTION", "--data", "CORPUS"],
        "config-unknown-key": ["eval", "--ckpt", "EXTRA_KEY", "--data", "CORPUS"],
        "config-value-type": ["eval", "--ckpt", "D_MODEL_STR", "--data", "CORPUS"],
        # sizes are checked before d_model % num_heads and init's fan_in ** -0.5
        "config-num-heads-zero": ["eval", "--ckpt", "NUM_HEADS_0", "--data", "CORPUS"],
        "model-num-heads-zero": ["finetune", "--data", "CORPUS", "--set", "model.num_heads=0"],
        "model-d-ff-zero": ["finetune", "--data", "CORPUS", "--set", "model.d_ff=0"],
        "manifest-missing-param-global-local": [
            "adapt", "--ckpt", "NO_EMBED", "--set",
            'surgery.chain=[{"op": "global_local", "block_size": 8, "num_global": 2}]'],
        "manifest-missing-param-drop-cross": [
            "adapt", "--ckpt", "NO_EMBED", "--set",
            'surgery.chain=[{"op": "drop_cross", "keep_layers": [0]}]'],
        "global-local-block-size-zero": [
            "adapt", "--ckpt", "CKPT", "--set",
            'surgery.chain=[{"op": "global_local", "block_size": 0, "num_global": 2}]'],
        "manifest-dtype-float16": ["eval", "--ckpt", "FLOAT16", "--data", "CORPUS"],
        # CKPT has 16 tokens, CORPUS is drawn from 64
        "eval-token-out-of-vocab": ["eval", "--ckpt", "CKPT", "--data", "CORPUS"],
        "finetune-token-out-of-vocab": ["finetune", "--ckpt", "CKPT", "--data", "CORPUS",
                                        "--set", "train.steps=1"],
        "pretrain-data-vocab-above-model": ["pretrain", "--set", "model.vocab_size=16"],
        "pretrain-sentences-short-zero": ["pretrain", "--set", "data.sentences_short=0"],
        "pretrain-sentences-long-zero": ["pretrain", "--set", "data.sentences_long=0"],
        "pretrain-output-len-zero": ["pretrain", "--set", "schedule.output_len=0"],
        # a phase's inputs or targets longer than the model takes
        "pretrain-long-len-above-model": ["pretrain", "--set", "model.max_input_len=32",
                                          "--set", "schedule.long_len=64"],
        "pretrain-output-len-above-model": ["pretrain", "--set", "model.max_output_len=16"],
        # the default schedule's GSG targets are 10 tokens
        "pretrain-output-len-below-target": ["pretrain", "--set", "schedule.output_len=8",
                                             "--set", "schedule.total_budget=512"],
        "pretrain-sentences-above-short-len": ["pretrain", "--set", "schedule.short_len=2"],
        "n-docs-negative": ["gen-data", "--set", "data.n_docs=-1"],
        "n-docs-zero": ["gen-data", "--set", "data.n_docs=0"],
        "seed-env-not-int": ["dump-mask"],
        # num_global on a variant without global tokens
        **{f"num-global-{variant}": ["finetune", "--data", "CORPUS", "--set", "train.steps=1",
                                     "--set", f"model.attention.variant={variant}",
                                     "--set", "model.attention.block_size=8",
                                     "--set", "model.attention.num_global=8"]
           for variant in ("full", "block_local")},
        "seed-negative-gen-data": ["gen-data", "--seed", "-1"],
        "seed-negative-pretrain": ["pretrain", "--seed", "-3"],
        "seed-env-negative": ["dump-mask"],
        "seed-offset-removed": ["gen-data", "--set", "data.seed_offset=0"],
        "mask-layer-negative": ["dump-mask", "--set", "mask.layer=-1"],
        "finetune-model-not-the-checkpoints": ["finetune", "--ckpt", "CKPT", "--data", "IN_VOCAB",
                                               "--config", "CKPT_MODEL_D_FF",
                                               "--set", "train.steps=1"],
    }
    # environment variables a case sets
    ENV = {"seed-env-not-int": {"LONGATTN_SEED": "abc"},
           "seed-env-negative": {"LONGATTN_SEED": "-1"}}
    # what the message of some cases must name
    NAMED = {"truncated-params": ("params.bin",),
             "params-byte-flipped": ("params.bin", "sha256", "manifest.json"),
             "lr-negative": ("learning rate", "-0.01"), "lr-zero": ("learning rate",),
             "unknown-command": ("'bench'",), "seed-not-int": ("--seed", "'abc'"),
             "unknown-flag": ("--bogus",), "flag-missing-value": ("--seed",),
             "flag-of-another-command": ("--ckpt",),
             "manifest-without-params": ("manifest.json", "'params'"),
             "manifest-not-object": ("manifest.json", "'params'"),
             "manifest-shape-string": ("manifest.json", "'shape'", "'embed.tok'"),
             "manifest-offset-string": ("manifest.json", "'offset'", "'embed.tok'"),
             "config-missing-key": ("config.json", "'attention'"),
             "config-unknown-key": ("config.json", "'bogus'"),
             "config-value-type": ("config.json", "'d_model'"),
             "config-num-heads-zero": ("config.json", "'num_heads'", ">= 1"),
             "model-num-heads-zero": ("'num_heads'", ">= 1"),
             "model-d-ff-zero": ("'d_ff'", ">= 1"),
             "manifest-missing-param-global-local": ("manifest.json", "'embed.tok'"),
             "manifest-missing-param-drop-cross": ("manifest.json", "'embed.tok'"),
             "global-local-block-size-zero": ("block_size",),
             "manifest-dtype-float16": ("manifest.json", "'dtype'", "'embed.tok'"),
             "eval-token-out-of-vocab": ("corpus.jsonl line 1", "vocabulary [0, 16)"),
             "finetune-token-out-of-vocab": ("corpus.jsonl line 1", "vocabulary [0, 16)"),
             "sentences-not-lists": ("FLAT_SENTENCES line 1",),
             "target-not-list": ("TARGET_INT line 1",),
             "token-not-int": ("TOKEN_STR line 1", '"x"'),
             "pretrain-data-vocab-above-model": ("data.vocab_size", "model.vocab_size"),
             "surgery-unknown-key": ("'stagered'",),
             "surgery-staggered-on-drop-cross": ("'staggered'", "drop_cross"),
             "surgery-staggered-on-replicate": ("'staggered'", "replicate_positions"),
             "run-json-learned-max-len": ("'model.posenc.learned_max_len'",),
             "run-json-log-every": ("'train.log_every'",),
             "config-posenc-buckets-16": ("config.json", "'posenc.t5_num_buckets'"),
             "steps-negative": ("steps", "-1"),
             "pretrain-sentences-short-zero": ("'data.sentences_short'",),
             "pretrain-sentences-long-zero": ("'data.sentences_long'",),
             "pretrain-output-len-zero": ("'schedule.output_len'",),
             "pretrain-long-len-above-model": ("'schedule.long_len'", "'model.max_input_len'"),
             "pretrain-output-len-above-model": ("'schedule.output_len'",
                                                 "'model.max_output_len'"),
             "pretrain-sentences-above-short-len": ("'data.sentences_short'",
                                                    "'schedule.short_len'"),
             "pretrain-output-len-below-target": ("'schedule.output_len'", "10 tokens"),
             "n-docs-negative": ("n_docs", "-1"), "n-docs-zero": ("n_docs", "0"),
             "len-min-zero": ("minimum length", "0"),
             "needle-block-0": ("needle_block",), "needle-block-4": ("needle_block",),
             "needle-block-6": ("needle_block",), "needle-decoys--1": ("needle_decoys",),
             "seed-env-not-int": ("LONGATTN_SEED", "'abc'"),
             "num-global-full": ("num_global", "global_local"),
             "num-global-block_local": ("num_global", "global_local"),
             "seed-negative-gen-data": ("'seed'", "-1"), "seed-negative-pretrain": ("'seed'", "-3"),
             "seed-env-negative": ("'seed'", "-1"),
             "seed-offset-removed": ("'data.seed_offset'",),
             "mask-layer-negative": ("layer", "-1"),
             "finetune-model-not-the-checkpoints": ("'model.d_ff'", "checkpoint")}

    @pytest.mark.parametrize("case", list(CASES))
    def test_bad_input_exits_2_with_one_line(self, files, capsys, tmp_path, monkeypatch, case):
        for name, value in self.ENV.get(case, {}).items():
            monkeypatch.setenv(name, value)
        cmd, *rest = [files.get(a, a) for a in self.CASES[case]]
        capsys.readouterr()
        rc = run([cmd, "--out", tmp_path / "out"] + rest)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert all(name in err for name in self.NAMED.get(case, ()))

    @pytest.mark.parametrize("assignment, key", [
        ("data.n_docs=true", "data.n_docs"),          # an int key takes no bool
        ("data.kind=3", "data.kind"),
        ("data=5", "data"),
        ("data.n_docs.x=1", "data.n_docs"),
    ])
    def test_type_error_names_the_key(self, assignment, key):
        with pytest.raises(ConfigError, match=f"'{key}'"):
            resolve_config("gen-data", None, [assignment])

    def test_type_check_accepts_int_for_float(self):
        cfg = resolve_config("finetune", None, ["train.lr=1", "model.dropout_p=0"])
        assert cfg["train"]["lr"] == 1 and cfg["model"]["dropout_p"] == 0

    def test_list_items_checked_against_default_items(self):
        with pytest.raises(ConfigError, match="model.cross_attn_layers"):
            resolve_config("finetune", None, ['model.cross_attn_layers=[0,"x"]'])

    def test_config_file_values_are_type_checked(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"data": {"vocab_size": 6.5}}))
        with pytest.raises(ConfigError, match="data.vocab_size"):
            resolve_config("gen-data", str(p), [])

    def test_numeric_error_still_exits_3(self, tmp_path, capsys):
        run(["gen-data", "--out", tmp_path / "g", "--set", "data.n_docs=2"])
        args = ["finetune", "--out", tmp_path / "f", "--data", tmp_path / "g" / "corpus.jsonl",
                "--set", "train.steps=3", "--set", "train.warmup=1", "--set", "train.lr=1e308"]
        assert run(args) == 3
        assert capsys.readouterr().err.startswith("numeric error: ")
        # a process of its own shows NumPy's warnings, which pytest captures here
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        proc = subprocess.run([sys.executable, "-W", "default", "-m", "longattn.cli",
                               *map(str, args)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 3
        assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("numeric error: ")


class TestPretrainCommand:
    def test_writes_checkpoint_and_loss_and_reruns_identically(self, tmp_path):
        rc = run(["pretrain", "--out", tmp_path / "a", "--seed", 3,
                  "--set", "schedule.shape=S100", "--set", "schedule.total_budget=1024"])
        assert rc == 0
        a = tmp_path / "a"
        assert (a / "ckpt_final" / "params.bin").exists()
        rows = (a / "loss.csv").read_text().splitlines()
        assert rows[0] == "step,loss" and len(rows) == 1 + 1024 // (2 * 16)
        rc = run(["pretrain", "--out", tmp_path / "b", "--config", a / "run.json"])
        assert rc == 0
        for name in ("ckpt_final/params.bin", "ckpt_final/manifest.json", "loss.csv"):
            assert (a / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_long_phase_reads_sentences_long_when_lengths_are_equal(self, tmp_path):
        losses = []
        for n in (2, 8):
            rc = run(["pretrain", "--out", tmp_path / str(n), "--set", "schedule.short_len=16",
                      "--set", "schedule.long_len=16", "--set", "schedule.total_budget=512",
                      "--set", f"data.sentences_long={n}"])
            assert rc == 0
            losses.append((tmp_path / str(n) / "loss.csv").read_text().splitlines())
        # S75L25: the short phase's 12 steps match, the long phase's 4 do not
        assert losses[0][:13] == losses[1][:13] and losses[0][13:] != losses[1][13:]

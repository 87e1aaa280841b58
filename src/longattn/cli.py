"""Operator surface: reproducible experiment runs over the library modules.

Every subcommand takes --config <json> plus dotted overrides --set key=value,
draws all randomness from --seed (env LONGATTN_SEED as fallback), and writes
its artifacts plus a run.json (resolved config + seed + git describe) under
--out. Re-running a subcommand from a run.json reproduces artifacts
bit-identically.

Exit codes: 0 ok, 2 config error, 3 numeric error (NaN/Inf), 4 acceptance
failure.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from . import adapt as AD
from . import bench as B
from . import data as D
from . import rouge as R
from . import train as TR
from .attention import AttentionSpec, Variant, make_block_layout
from .model import ModelConfig, beam_decode, greedy_decode, init_params
from .posenc import Scheme


class ConfigError(ValueError):
    pass


DEFAULT_MODEL = ModelConfig().to_dict()

DEFAULTS: dict[str, dict] = {
    "gen-data": {
        "data": {"kind": "copy", "n_docs": 200, "len_min": 8, "len_max": 16,
                 "vocab_size": 64, "needle_block": 32, "needle_decoys": 3,
                 "seed_offset": 0},
    },
    "pretrain": {
        "model": DEFAULT_MODEL,
        "schedule": {"shape": "S75L25", "total_budget": 4096, "short_len": 16,
                     "long_len": 64, "batch": 2, "base_mask_ratio": 0.45,
                     "output_len": 32},
        "train": {"lr": 1e-3, "warmup": 20},
        "data": {"n_docs": 64, "sentences_short": 4, "sentences_long": 16,
                 "vocab_size": 64},
    },
    "adapt": {
        "surgery": {"chain": []},
    },
    "finetune": {
        "model": DEFAULT_MODEL,
        "train": {"steps": 200, "batch": 4, "lr": 1e-3, "warmup": 50,
                  "log_every": 50},
        "data": {"path": ""},
    },
    "eval": {
        "decode": {"beam_size": 1, "alpha": 0.0, "max_len": 32},
        "data": {"path": ""},
        "use_lsum_for_rg": False,
    },
    "bench": {
        "bench": {"lengths": [256, 512, 1024], "block_size": 64, "num_global": 32,
                  "num_heads": 4, "head_dim": 16, "repeats": 3,
                  "variants": ["full", "block_local", "global_local"],
                  "baseline": None, "check_ordering": True},
    },
    "dump-mask": {
        "mask": {"L": 64, "layer": 0, "block_size": 16, "staggered": True},
    },
}


# ---------------------------------------------------------------------------
# config plumbing

def _merge_checked(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, val in override.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key '{here}'")
        if isinstance(base[key], dict) and isinstance(val, dict):
            out[key] = _merge_checked(base[key], val, here)
        else:
            out[key] = val
    return out


def _parse_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _apply_set(cfg: dict, assignment: str) -> None:
    if "=" not in assignment:
        raise ConfigError(f"--set needs key=value, got '{assignment}'")
    key, raw = assignment.split("=", 1)
    node = cfg
    parts = key.split(".")
    for part in parts[:-1]:
        if part not in node or not isinstance(node[part], dict):
            raise ConfigError(f"unknown config key '{key}'")
        node = node[part]
    if parts[-1] not in node:
        raise ConfigError(f"unknown config key '{key}'")
    node[parts[-1]] = _parse_value(raw)


def resolve_config(command: str, config_path: str | None, sets: list[str]) -> dict:
    cfg = copy.deepcopy(DEFAULTS[command])
    if config_path:
        loaded = json.loads(Path(config_path).read_text())
        if "command" in loaded and "config" in loaded:   # a run.json
            loaded = loaded["config"]
        cfg = _merge_checked(cfg, loaded)
    for s in sets:
        _apply_set(cfg, s)
    return cfg


def _git_describe() -> str:
    try:
        return subprocess.run(["git", "describe", "--always", "--dirty"],
                              capture_output=True, text=True, timeout=5,
                              check=False).stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def write_run_json(out: Path, command: str, cfg: dict, seed: int) -> None:
    out.mkdir(parents=True, exist_ok=True)
    (out / "run.json").write_text(json.dumps(
        {"command": command, "config": cfg, "seed": seed,
         "git": _git_describe()}, indent=1))


def _model_from_cfg(cfg: dict) -> ModelConfig:
    try:
        return ModelConfig.from_dict(cfg["model"])
    except (ValueError, KeyError, TypeError) as e:
        raise ConfigError(f"bad model config: {e}") from e


# ---------------------------------------------------------------------------
# subcommands

def cmd_gen_data(cfg: dict, out: Path, seed: int) -> int:
    d = cfg["data"]
    docs = D.gen_corpus(d["kind"], d["n_docs"], (d["len_min"], d["len_max"]),
                        d["vocab_size"], seed + d["seed_offset"],
                        needle_block=d["needle_block"],
                        needle_decoys=d["needle_decoys"])
    D.write_jsonl(docs, out / "corpus.jsonl")
    print(f"wrote {len(docs)} docs to {out / 'corpus.jsonl'}")
    return 0


def cmd_pretrain(cfg: dict, out: Path, seed: int) -> int:
    mcfg = _model_from_cfg(cfg)
    sc = cfg["schedule"]
    schedule = D.build_schedule(sc["shape"], sc["total_budget"], sc["short_len"],
                                sc["long_len"], batch=sc["batch"],
                                base_mask_ratio=sc["base_mask_ratio"],
                                output_len=sc["output_len"])
    params = init_params(mcfg, seed)
    dcfg = cfg["data"]
    losses: list = []
    for pi, phase in enumerate(schedule.phases):
        n_sent = (dcfg["sentences_short"] if phase.input_len == sc["short_len"]
                  else dcfg["sentences_long"])
        sent_len = max(1, phase.input_len // n_sent)
        docs = D.gen_corpus("copy", dcfg["n_docs"],
                            (sent_len * n_sent, sent_len * n_sent),
                            dcfg["vocab_size"], seed + 1000 + pi)
        examples = []
        for di, doc in enumerate(docs):
            sents = [doc.flat()[i:i + sent_len]
                     for i in range(0, len(doc.flat()), sent_len)]
            gdoc = D.SyntheticDoc(sents)
            inp, tgt = D.gsg_mask(gdoc, phase.mask_ratio, seed + 2000 + di)
            examples.append((inp[:mcfg.max_input_len],
                             tgt[:min(phase.output_len, mcfg.max_output_len)]))
        TR.train(mcfg, params, examples, phase.steps, sc["batch"],
                 seed + 3000 + pi, lr=cfg["train"]["lr"],
                 warmup=cfg["train"]["warmup"], loss_log=losses)
        AD.save(mcfg, params, out / f"ckpt_phase{pi}")
    AD.save(mcfg, params, out / "ckpt_final")
    _write_loss_csv(out / "loss.csv", losses)
    print(f"pretrained {len(schedule.phases)} phases, "
          f"{sum(p.steps for p in schedule.phases)} steps")
    return 0


def _write_loss_csv(path: Path, losses: list) -> None:
    with open(path, "w") as f:
        f.write("step,loss\n")
        for step, loss in losses:
            f.write(f"{step},{loss:.10g}\n")


def cmd_adapt(cfg: dict, out: Path, seed: int, ckpt_path: str) -> int:
    if not ckpt_path:
        raise ConfigError("adapt needs --ckpt")
    ckpt = AD.Checkpoint.load_dir(ckpt_path)
    for op in cfg["surgery"]["chain"]:
        op = dict(op)
        name = op.pop("op", None)
        src = ckpt.config.attention
        if name == "local":
            spec = AttentionSpec(Variant.BLOCK_LOCAL, op["block_size"], 0,
                                 op.get("staggered", False),
                                 src.num_heads, src.head_dim)
            ckpt = AD.port_to_local(ckpt, spec)
        elif name == "global_local":
            spec = AttentionSpec(Variant.GLOBAL_LOCAL, op["block_size"],
                                 op["num_global"], op.get("staggered", False),
                                 src.num_heads, src.head_dim)
            ckpt = AD.port_to_global_local(ckpt, spec, rng_seed=seed)
        elif name == "replicate_positions":
            ckpt = AD.replicate_positions(ckpt, op["new_max_len"])
        elif name == "drop_cross":
            ckpt = AD.drop_cross_attention(ckpt, op["keep_layers"])
        else:
            raise ConfigError(f"unknown surgery op '{name}'")
    ckpt.save(out / "ckpt")
    print(f"adapted checkpoint written to {out / 'ckpt'}")
    return 0


def _load_pairs(path: str):
    docs = D.read_jsonl(path)
    return TR.docs_to_pairs(docs)


def cmd_finetune(cfg: dict, out: Path, seed: int, ckpt_path: str,
                 data_path: str) -> int:
    data_path = data_path or cfg["data"]["path"]
    if not data_path:
        raise ConfigError("finetune needs --data (or data.path in config)")
    if ckpt_path:
        mcfg, params = AD.load(ckpt_path)
    else:
        mcfg = _model_from_cfg(cfg)
        params = init_params(mcfg, seed)
    pairs = _load_pairs(data_path)
    tr = cfg["train"]
    losses: list = []
    TR.train(mcfg, params, pairs, tr["steps"], tr["batch"], seed,
             lr=tr["lr"], warmup=tr["warmup"], log_every=tr["log_every"],
             loss_log=losses)
    AD.save(mcfg, params, out / "ckpt")
    _write_loss_csv(out / "loss.csv", losses)
    print(f"finetuned {tr['steps']} steps on {len(pairs)} examples")
    return 0


def cmd_eval(cfg: dict, out: Path, seed: int, ckpt_path: str,
             data_path: str) -> int:
    if not ckpt_path:
        raise ConfigError("eval needs --ckpt")
    data_path = data_path or cfg["data"]["path"]
    if not data_path:
        raise ConfigError("eval needs --data (or data.path in config)")
    dc = cfg["decode"]
    if not isinstance(dc["beam_size"], int) or dc["beam_size"] < 1:
        raise ConfigError(f"decode.beam_size must be >= 1, got {dc['beam_size']}")
    mcfg, params = AD.load(ckpt_path)
    pairs = _load_pairs(data_path)
    outputs = []
    try:
        for inp, tgt in pairs:
            if dc["beam_size"] > 1:
                hyp = beam_decode(mcfg, params, inp, dc["beam_size"], dc["alpha"],
                                  dc["max_len"])
            else:
                hyp = greedy_decode(mcfg, params, inp, dc["max_len"])
            outputs.append((hyp, tgt))
    except ValueError as e:
        raise ConfigError(f"decode: {e}") from e
    report = R.corpus_report(outputs, use_lsum_for_rg=cfg["use_lsum_for_rg"])
    em = sum(1 for h, t in outputs if list(h) == list(t)) / len(outputs)
    with open(out / "rouge.csv", "w") as f:
        f.write("r1,r2,rl,rlsum,rg\n")
        f.write(f"{report.rouge1.f1:.6f},{report.rouge2.f1:.6f},"
                f"{report.rougeL.f1:.6f},{report.rougeLsum.f1:.6f},"
                f"{report.rg:.6f}\n")
    (out / "metrics.json").write_text(json.dumps(
        {"exact_match": em, "rg": report.rg, "n": report.n_examples}, indent=1))
    print(f"rg={report.rg:.4f} exact_match={em:.3f} over {len(outputs)} examples")
    return 0


def cmd_bench(cfg: dict, out: Path, seed: int) -> int:
    bc = cfg["bench"]
    h, hd = bc["num_heads"], bc["head_dim"]
    specs = []
    for name in bc["variants"]:
        v = Variant(name)
        specs.append(AttentionSpec(
            v, bc["block_size"],
            bc["num_global"] if v == Variant.GLOBAL_LOCAL else 0,
            False, h, hd))
    try:
        baseline = None if bc["baseline"] is None else tuple(bc["baseline"])
        rows = B.run_scaling(specs, bc["lengths"], repeats=bc["repeats"],
                             baseline=baseline, seed=seed)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    (out / "scaling.csv").write_text(B.rows_to_csv(rows))
    print(B.rows_to_csv(rows))
    if bc["check_ordering"]:
        rep = B.ordering_check(rows)
        print(rep.message)
        if not rep.ok:
            return 4
    return 0


def cmd_dump_mask(cfg: dict, out: Path, seed: int) -> int:
    mc = cfg["mask"]
    layout = make_block_layout(mc["L"], mc["block_size"], mc["layer"],
                               mc["staggered"])
    mask = layout.pair_mask()
    pbm = [f"P1\n{mask.shape[1]} {mask.shape[0]}"]
    for row in mask:
        pbm.append(" ".join("1" if x else "0" for x in row))
    (out / "mask.pbm").write_text("\n".join(pbm) + "\n")
    with open(out / "mask.csv", "w") as f:
        for row in mask:
            f.write(",".join(str(int(x)) for x in row) + "\n")
    print(f"wrote {mask.shape} mask to {out / 'mask.pbm'}")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="longattn")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in DEFAULTS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        p.add_argument("--set", action="append", default=[], dest="sets",
                       metavar="KEY=VALUE")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default="runs/out")
        if name in ("adapt", "finetune", "eval"):
            p.add_argument("--ckpt", default="")
        if name in ("finetune", "eval"):
            p.add_argument("--data", default="")
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args.command, args.config, args.sets)
        seed = args.seed
        if seed is None:
            seed = int(os.environ.get("LONGATTN_SEED", "0"))
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_run_json(out, args.command, cfg, seed)
        if args.command == "gen-data":
            return cmd_gen_data(cfg, out, seed)
        if args.command == "pretrain":
            return cmd_pretrain(cfg, out, seed)
        if args.command == "adapt":
            return cmd_adapt(cfg, out, seed, args.ckpt)
        if args.command == "finetune":
            return cmd_finetune(cfg, out, seed, args.ckpt, args.data)
        if args.command == "eval":
            return cmd_eval(cfg, out, seed, args.ckpt, args.data)
        if args.command == "bench":
            return cmd_bench(cfg, out, seed)
        if args.command == "dump-mask":
            return cmd_dump_mask(cfg, out, seed)
        raise ConfigError(f"unknown command {args.command}")
    except (ConfigError, AD.CheckpointError, FileNotFoundError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except FloatingPointError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""Operator surface: reproducible experiment runs over the library modules.

A run's inputs are its config. `resolve_config` builds it, later over earlier:
the command's defaults, env LONGATTN_SEED (as "seed"), the --config file (or a
run.json's "config"), each dotted --set key=value, then --seed, --ckpt and
--data (as "seed", "ckpt" and "data.path"); `model.check_json` checks it once.
Each run writes its artifacts and a run.json (that config + git describe) under
--out, so --config <run.json> alone reruns it bit-identically. Paths are kept as
given, relative to the working directory; an older run.json kept its seed beside
its config, and that seed is read. Exit codes: 0 ok, 2 bad input (any ValueError
or OSError: a bad config value, file or record), 3 numeric error (NaN/Inf), 4
acceptance failure; `main` is the one place that maps exceptions to them, with
one line on stderr.
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
from .model import ConfigError, ModelConfig, beam_decode, check_json, init_params


DEFAULT_MODEL = ModelConfig().to_dict()

DEFAULTS: dict[str, dict] = {
    "gen-data": {
        "seed": 0,
        "data": {"kind": "copy", "n_docs": 200, "len_min": 8, "len_max": 16,
                 "vocab_size": 64, "needle_block": 32, "needle_decoys": 3},
    },
    "pretrain": {
        "seed": 0, "model": DEFAULT_MODEL,
        "schedule": {"shape": "S75L25", "total_budget": 4096, "short_len": 16,
                     "long_len": 64, "batch": 2, "base_mask_ratio": 0.45,
                     "output_len": 32},
        "train": {"lr": 1e-3, "warmup": 20},
        "data": {"n_docs": 64, "sentences_short": 4, "sentences_long": 16,
                 "vocab_size": 64},
    },
    "adapt": {"seed": 0, "ckpt": "", "surgery": {"chain": []}},
    "finetune": {
        "seed": 0, "ckpt": "", "model": DEFAULT_MODEL,
        "train": {"steps": 200, "batch": 4, "lr": 1e-3, "warmup": 50},
        "data": {"path": ""},
    },
    "eval": {
        "seed": 0, "ckpt": "",
        "decode": {"beam_size": 1, "alpha": 0.0, "max_len": 32},
        "data": {"path": ""},
    },
    "bench": {
        "seed": 0,
        "bench": {"lengths": [256, 512, 1024], "block_size": 64, "num_global": 32,
                  "num_heads": 4, "head_dim": 16, "repeats": 3,
                  "variants": ["full", "block_local", "global_local"],
                  "baseline": None, "check_ordering": True},
    },
    "dump-mask": {"seed": 0, "mask": {"L": 64, "layer": 0, "block_size": 16,
                                      "staggered": True}},
}


# ---------------------------------------------------------------------------
# config plumbing

def _merge(base, override):
    if not (isinstance(base, dict) and isinstance(override, dict)):
        return override
    return {**base, **{k: _merge(base.get(k), v) for k, v in override.items()}}


def _parse_set(assignment: str) -> tuple[str, object]:
    """'a.b=v' -> ("a.b", v), with v parsed as JSON where it parses."""
    if "=" not in assignment:
        raise ConfigError(f"--set needs key=value, got '{assignment}'")
    key, raw = assignment.split("=", 1)
    try:
        return key, json.loads(raw)
    except json.JSONDecodeError:
        return key, raw


def resolve_config(command: str, config_path: str | None, sets: list[str],
                   flags=()) -> dict:
    """The run's config: the defaults, LONGATTN_SEED, the config file, each
    --set, then `flags`, the (dotted key, value) pairs of --seed/--ckpt/--data.
    A finetune from a checkpoint takes the checkpoint's model config."""
    cfg = copy.deepcopy(DEFAULTS[command])
    env_seed = os.environ.get("LONGATTN_SEED", str(cfg["seed"]))
    try:
        cfg["seed"] = int(env_seed)
    except ValueError:
        raise ConfigError(f"LONGATTN_SEED must be an integer, got {env_seed!r}") from None
    if config_path:
        loaded = json.loads(Path(config_path).read_text())
        if isinstance(loaded, dict) and "command" in loaded and "config" in loaded:
            if "seed" in loaded:         # a run.json from before "seed" was a config key
                cfg["seed"] = loaded["seed"]
            loaded = loaded["config"]
        if not isinstance(loaded, dict):
            raise ConfigError(f"{config_path} must hold a JSON object")
        cfg = _merge(cfg, loaded)
    for key, value in [*map(_parse_set, sets), *flags]:
        for part in reversed(key.split(".")):
            value = {part: value}
        cfg = _merge(cfg, value)
    model = cfg.get("model")
    if type(model) is dict and type(model.get("posenc")) is dict:   # an older run.json
        key = next((k for k in model["posenc"] if k != "scheme"), "scheme")
        raise ConfigError(f"config has unknown key 'model.posenc.{key}': "
                          "model.posenc is now the scheme's name")
    check_json(DEFAULTS[command], cfg, "config")
    if cfg["seed"] < 0:
        raise ConfigError(f"config key 'seed' must be >= 0, got {cfg['seed']}")
    if command == "finetune" and cfg["ckpt"]:
        saved = AD.load_config(cfg["ckpt"]).to_dict()
        key = next((k for k in saved if cfg["model"][k] != saved[k]), None)
        if key and cfg["model"] != DEFAULT_MODEL:
            raise ConfigError(f"config 'model' must be the defaults or checkpoint {cfg['ckpt']}'s "
                              f"config, and differs from the latter at 'model.{key}'")
        cfg["model"] = saved
    return cfg


def _require_positive(cfg: dict, *keys: str) -> None:
    """A ConfigError naming the first dotted key whose value is below 1."""
    for key in keys:
        section, name = key.split(".")
        if cfg[section][name] < 1:
            raise ConfigError(f"config key '{key}' must be >= 1, got {cfg[section][name]}")


def _git_describe() -> str:
    try:
        return subprocess.run(["git", "describe", "--always", "--dirty"],
                              capture_output=True, text=True, timeout=5,
                              check=False).stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def write_run_json(out: Path, command: str, cfg: dict) -> None:
    out.mkdir(parents=True, exist_ok=True)
    (out / "run.json").write_text(json.dumps(
        {"command": command, "config": cfg, "git": _git_describe()}, indent=1))


# ---------------------------------------------------------------------------
# subcommands

def cmd_gen_data(cfg: dict, out: Path) -> int:
    d = cfg["data"]
    docs = D.gen_corpus(d["kind"], d["n_docs"], (d["len_min"], d["len_max"]),
                        d["vocab_size"], cfg["seed"],
                        needle_block=d["needle_block"],
                        needle_decoys=d["needle_decoys"])
    D.write_jsonl(docs, out / "corpus.jsonl")
    print(f"wrote {len(docs)} docs to {out / 'corpus.jsonl'}")
    return 0


def cmd_pretrain(cfg: dict, out: Path) -> int:
    _require_positive(cfg, "data.sentences_short", "data.sentences_long",
                      "schedule.output_len")
    # a phase's GSG inputs then fit in the model, and are at most its input_len long
    for key, bound in (("schedule.short_len", "model.max_input_len"),
                       ("schedule.long_len", "model.max_input_len"),
                       ("schedule.output_len", "model.max_output_len"),
                       ("data.sentences_short", "schedule.short_len"),
                       ("data.sentences_long", "schedule.long_len")):
        value, limit = (cfg[section][name] for section, name in (key.split("."), bound.split(".")))
        if value > limit:
            raise ConfigError(f"config key '{key}' ({value}) must be <= '{bound}' ({limit})")
    mcfg = ModelConfig.from_dict(cfg["model"])
    sc = cfg["schedule"]
    schedule = D.build_schedule(sc["shape"], sc["total_budget"], sc["short_len"],
                                sc["long_len"], batch=sc["batch"],
                                base_mask_ratio=sc["base_mask_ratio"])
    dcfg = cfg["data"]
    if dcfg["vocab_size"] > mcfg.vocab_size:
        raise ConfigError(f"data.vocab_size {dcfg['vocab_size']} exceeds the model's "
                          f"vocabulary (model.vocab_size {mcfg.vocab_size})")
    phase_examples = []              # every phase's, so a bad output_len fails before training
    for pi, phase in enumerate(schedule.phases):
        n_sent = dcfg["sentences_" + phase.kind]
        sent_len = phase.input_len // n_sent
        docs = D.gen_corpus("copy", dcfg["n_docs"],
                            (sent_len * n_sent, sent_len * n_sent),
                            dcfg["vocab_size"], cfg["seed"] + 1000 + pi)
        phase_examples.append([
            D.gsg_mask(D.SyntheticDoc([doc.flat()[i:i + sent_len]
                                       for i in range(0, len(doc.flat()), sent_len)]),
                       phase.mask_ratio, cfg["seed"] + 2000 + di)
            for di, doc in enumerate(docs)])
    longest = max(len(tgt) for examples in phase_examples for _, tgt in examples)
    if longest > sc["output_len"]:
        raise ConfigError(f"config key 'schedule.output_len' ({sc['output_len']}) is below "
                          f"the longest GSG target ({longest} tokens)")
    params = init_params(mcfg, cfg["seed"])
    losses: list = []
    for pi, (phase, examples) in enumerate(zip(schedule.phases, phase_examples)):
        TR.train(mcfg, params, examples, phase.steps, sc["batch"],
                 cfg["seed"] + 3000 + pi, lr=cfg["train"]["lr"],
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


# the keys each surgery op takes besides "op", each mapped to an example of the
# JSON type its value must have; "staggered" is optional (default false)
SURGERY_KEYS = {"local": {"block_size": 0, "staggered": False},
                "global_local": {"block_size": 0, "num_global": 0, "staggered": False},
                "replicate_positions": {"new_max_len": 0}, "drop_cross": {"keep_layers": [0]}}


def cmd_adapt(cfg: dict, out: Path) -> int:
    if not cfg["ckpt"]:
        raise ConfigError("adapt needs --ckpt (or ckpt in config)")
    ckpt = AD.Checkpoint.load_dir(cfg["ckpt"])
    for op in cfg["surgery"]["chain"]:
        if not isinstance(op, dict):
            raise ConfigError(f"surgery.chain entries are objects, got {json.dumps(op)}")
        name = str(op.get("op"))
        if name not in SURGERY_KEYS:
            raise ConfigError(f"unknown surgery op '{name}'")
        keys = SURGERY_KEYS[name]
        op = {"staggered": False, **op} if "staggered" in keys else op
        check_json({"op": "", **keys}, op, f"surgery op '{name}'")
        src = ckpt.config.attention
        if name == "local":
            spec = AttentionSpec(Variant.BLOCK_LOCAL, op["block_size"], 0, op["staggered"],
                                 src.num_heads, src.head_dim)
            ckpt = AD.port_to_local(ckpt, spec)
        elif name == "global_local":
            spec = AttentionSpec(Variant.GLOBAL_LOCAL, op["block_size"],
                                 op["num_global"], op["staggered"],
                                 src.num_heads, src.head_dim)
            ckpt = AD.port_to_global_local(ckpt, spec, rng_seed=cfg["seed"])
        elif name == "replicate_positions":
            ckpt = AD.replicate_positions(ckpt, op["new_max_len"])
        else:
            ckpt = AD.drop_cross_attention(ckpt, op["keep_layers"])
    ckpt.save(out / "ckpt")
    print(f"adapted checkpoint written to {out / 'ckpt'}")
    return 0


def _read_pairs(cfg: dict, vocab_size: int) -> list[tuple]:
    """(input, target) pairs from data.path; a token id outside the model's
    vocabulary is a ValueError naming its corpus line."""
    data_path = cfg["data"]["path"]
    if not data_path:
        raise ConfigError("no corpus: give --data (or data.path in config)")
    pairs = TR.docs_to_pairs(D.read_jsonl(data_path))
    for n, (inp, tgt) in enumerate(pairs, 1):
        bad = [t for t in (*inp, *tgt) if type(t) is not int or not 0 <= t < vocab_size]
        if bad:
            raise ValueError(f"{data_path} line {n}: token id {json.dumps(bad[0])} is "
                             f"outside the model's vocabulary [0, {vocab_size})")
    return pairs


def cmd_finetune(cfg: dict, out: Path) -> int:
    mcfg = ModelConfig.from_dict(cfg["model"])
    params = AD.load(cfg["ckpt"])[1] if cfg["ckpt"] else init_params(mcfg, cfg["seed"])
    pairs = _read_pairs(cfg, mcfg.vocab_size)
    tr = cfg["train"]
    losses: list = []
    TR.train(mcfg, params, pairs, tr["steps"], tr["batch"], cfg["seed"],
             lr=tr["lr"], warmup=tr["warmup"], loss_log=losses)
    AD.save(mcfg, params, out / "ckpt")
    _write_loss_csv(out / "loss.csv", losses)
    print(f"finetuned {tr['steps']} steps on {len(pairs)} examples")
    return 0


def cmd_eval(cfg: dict, out: Path) -> int:
    if not cfg["ckpt"]:
        raise ConfigError("eval needs --ckpt (or ckpt in config)")
    _require_positive(cfg, "decode.beam_size", "decode.max_len")
    dc = cfg["decode"]
    mcfg, params = AD.load(cfg["ckpt"])
    pairs = _read_pairs(cfg, mcfg.vocab_size)
    outputs = [(beam_decode(mcfg, params, inp, dc["beam_size"], dc["alpha"], dc["max_len"]),
                tgt) for inp, tgt in pairs]
    report = R.corpus_report(outputs)
    em = sum(1 for h, t in outputs if list(h) == list(t)) / len(outputs)
    with open(out / "rouge.csv", "w") as f:
        f.write("r1,r2,rl,rg\n")
        f.write(f"{report.rouge1.f1:.6f},{report.rouge2.f1:.6f},"
                f"{report.rougeL.f1:.6f},{report.rg:.6f}\n")
    (out / "metrics.json").write_text(json.dumps(
        {"exact_match": em, "rg": report.rg, "n": report.n_examples}, indent=1))
    print(f"rg={report.rg:.4f} exact_match={em:.3f} over {len(outputs)} examples")
    return 0


def cmd_bench(cfg: dict, out: Path) -> int:
    bc = cfg["bench"]
    bl, lengths = bc["baseline"], bc["lengths"]
    if bl is not None and not (isinstance(bl, list) and len(bl) == 2
                               and isinstance(bl[0], str) and type(bl[1]) is int):
        raise ConfigError(f"config key 'bench.baseline' must be null or [variant, L], "
                          f"got {json.dumps(bl)}")
    if not lengths or min(lengths) < 1:
        raise ConfigError(f"config key 'bench.lengths' must list lengths >= 1, "
                          f"got {json.dumps(lengths)}")
    if not bc["variants"]:
        raise ConfigError("config key 'bench.variants' must name at least one variant")
    _require_positive(cfg, "bench.repeats")
    h, hd = bc["num_heads"], bc["head_dim"]
    specs = []
    for name in bc["variants"]:
        v = Variant(name)
        specs.append(AttentionSpec(
            v, bc["block_size"],
            bc["num_global"] if v == Variant.GLOBAL_LOCAL else 0,
            False, h, hd))
    rows = B.run_scaling(specs, lengths, repeats=bc["repeats"],
                         baseline=None if bl is None else tuple(bl), seed=cfg["seed"])
    (out / "scaling.csv").write_text(B.rows_to_csv(rows))
    print(B.rows_to_csv(rows))
    if bc["check_ordering"]:
        rep = B.ordering_check(rows)
        print(rep.message)
        if not rep.ok:
            return 4
    return 0


def cmd_dump_mask(cfg: dict, out: Path) -> int:
    mc = cfg["mask"]
    mask = make_block_layout(mc["L"], mc["block_size"], mc["layer"], mc["staggered"]).pair_mask()
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

COMMANDS = {"gen-data": cmd_gen_data, "pretrain": cmd_pretrain, "adapt": cmd_adapt,
            "finetune": cmd_finetune, "eval": cmd_eval, "bench": cmd_bench,
            "dump-mask": cmd_dump_mask}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="longattn")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        p.add_argument("--set", action="append", default=[], dest="sets",
                       metavar="KEY=VALUE")
        p.add_argument("--seed", type=int)
        p.add_argument("--out", default="runs/out")
        if name in ("adapt", "finetune", "eval"):
            p.add_argument("--ckpt")
        if name in ("finetune", "eval"):
            p.add_argument("--data", dest="data.path")
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    flags = [(k, v) for k, v in vars(args).items()
             if k in ("seed", "ckpt", "data.path") and v is not None]
    try:
        cfg = resolve_config(args.command, args.config, args.sets, flags)
        out = Path(args.out)
        write_run_json(out, args.command, cfg)
        # _check_finite reports a NaN/Inf naming its op; NumPy's own warning
        # about it would add lines to stderr
        with np.errstate(all="ignore"):
            return COMMANDS[args.command](cfg, out)
    except FloatingPointError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as e:           # the input's fault, not the program's
        print(f"error: {e}".replace("\n", " "), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

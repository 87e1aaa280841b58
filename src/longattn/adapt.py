"""Checkpoint format and weight-surgery recipes.

A checkpoint is a directory:
    manifest.json  -- {"format_version": 1, "sha256": <of params.bin>, "params": {name: {shape, dtype, offset}}}
    params.bin     -- little-endian float32 blob, concatenated in manifest order
    config.json    -- the ModelConfig the parameters belong to

Storage is 32-bit; core math upcasts to 64-bit on load. Surgeries are pure
checkpoint -> checkpoint transforms and never touch parameter bytes they are
not about.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np

from .tensor import Tensor
from .model import ModelConfig, check_json, param_shapes
from .attention import AttentionSpec, Variant
from .posenc import T5_BUCKETS, T5_MAX_DISTANCE, Scheme, replicate
# after the package modules, which load hashlib first (model.py): loading it ahead of
# them moves perfbench train-long into a slower allocator layout (+8% step time)
import hashlib  # noqa: E402

FORMAT_VERSION = 1


class CheckpointError(ValueError):
    pass


class Checkpoint:
    """Float32 arrays of exactly param_shapes(config), in its order; any other
    inventory is a CheckpointError naming `source`."""

    def __init__(self, config: ModelConfig, arrays: dict[str, np.ndarray], source="params"):
        expect = param_shapes(config)
        _check_inventory(expect, {k: np.shape(v) for k, v in arrays.items()}, source)
        self.config = config
        self.arrays = {k: np.asarray(arrays[k], dtype="<f4") for k in expect}

    @classmethod
    def from_params(cls, config: ModelConfig, params: dict[str, Tensor]) -> "Checkpoint":
        return cls(config, {k: p.data for k, p in params.items()})

    def to_params(self) -> dict[str, Tensor]:
        return {k: Tensor(np.asarray(v, dtype=np.float64), requires_grad=True)
                for k, v in self.arrays.items()}

    def save(self, path) -> None:
        """Write the three files into a temporary directory beside `path`, then
        rename it to `path`, so a failed save leaves the checkpoint already there
        whole; that one is moved aside first and removed after. A directory
        holding other files is refused."""
        path, files = Path(path), {"manifest.json", "params.bin", "config.json"}
        if path.exists() and {f.name for f in path.iterdir()} - files:
            raise CheckpointError(f"{path} holds files other than a checkpoint's "
                                  f"{sorted(files)}; refusing to replace it")
        entries, offset = {}, 0
        for name, arr in self.arrays.items():
            entries[name] = {"shape": list(arr.shape), "dtype": "float32", "offset": offset}
            offset += arr.nbytes
        blob = b"".join(arr.tobytes() for arr in self.arrays.values())
        manifest = {"format_version": FORMAT_VERSION,
                    "sha256": hashlib.sha256(blob).hexdigest(), "params": entries}
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp, old = (path.with_name(f".{path.name}.{os.getpid()}.{s}") for s in ("tmp", "old"))
        tmp.mkdir()
        try:
            (tmp / "manifest.json").write_text(json.dumps(manifest, indent=1))
            (tmp / "params.bin").write_bytes(blob)
            (tmp / "config.json").write_text(json.dumps(self.config.to_dict(), indent=1))
            if path.exists():
                path.rename(old)
            tmp.rename(path)
        except BaseException:
            shutil.rmtree(tmp, ignore_errors=True)
            if old.exists() and not path.exists():
                old.rename(path)
            raise
        shutil.rmtree(old, ignore_errors=True)

    @classmethod
    def load_dir(cls, path) -> "Checkpoint":
        """Read a checkpoint; malformed metadata, a params.bin that fails the
        manifest's sha256 (older manifests have none), or parameters other than
        param_shapes(config), is a ValueError naming the file and key. config.json
        is read by `load_config`."""
        path = Path(path)
        mpath, bpath = path / "manifest.json", path / "params.bin"
        manifest = json.loads(mpath.read_text())
        entries = manifest.get("params") if isinstance(manifest, dict) else None
        if not isinstance(entries, dict):
            raise CheckpointError(f"{mpath} needs an object 'params'")
        if manifest.get("format_version") != FORMAT_VERSION:
            raise CheckpointError(
                f"checkpoint format version {manifest.get('format_version')} "
                f"!= supported {FORMAT_VERSION}")
        config = load_config(path)
        blob = bpath.read_bytes()
        arrays = {}
        for name, meta in entries.items():
            shape = meta.get("shape") if isinstance(meta, dict) else None
            if type(shape) is not list or any(type(n) is not int or n < 0 for n in shape):
                raise CheckpointError(f"{mpath}: 'shape' of '{name}' must list ints >= 0")
            off, n = meta.get("offset"), int(np.prod(shape))
            if type(off) is not int:
                raise CheckpointError(f"{mpath}: 'offset' of '{name}' must be an int")
            if meta.get("dtype") != "float32":
                raise CheckpointError(f"{mpath}: 'dtype' of '{name}' must be \"float32\", "
                                      f"got {json.dumps(meta.get('dtype'))}")
            if not 0 <= off <= len(blob) - 4 * n:
                raise CheckpointError(
                    f"parameter '{name}' ({4 * n} bytes at offset {off}) runs past the "
                    f"end of {bpath} ({len(blob)} bytes)")
            arrays[name] = np.frombuffer(blob, dtype="<f4", count=n, offset=off).reshape(shape)
        if "sha256" in manifest and manifest["sha256"] != hashlib.sha256(blob).hexdigest():
            raise CheckpointError(f"{bpath} does not match the sha256 in {mpath}")
        return cls(config, arrays, mpath)


def load_config(path) -> ModelConfig:
    """A checkpoint's config.json, checked by `model.check_json` as the CLI's configs are.
    An older one's `posenc` object loads as its scheme if its other values are the
    ones the model now fixes."""
    cpath = Path(path) / "config.json"
    raw = json.loads(cpath.read_text())
    if type(raw) is dict and type(raw.get("posenc")) is dict:   # older: an object
        pe = raw["posenc"]
        pe.pop("learned_max_len", None)   # in checkpoints from before its removal
        fixed = {"sinusoidal_factor": 10000.0, "t5_num_buckets": T5_BUCKETS,
                 "t5_max_distance": T5_MAX_DISTANCE}
        check_json({"scheme": "", **fixed}, pe, str(cpath), "posenc")
        for key, value in fixed.items():
            if pe[key] != value:
                raise CheckpointError(f"{cpath} key 'posenc.{key}' must be {value}, "
                                      f"the value the model fixes, got {json.dumps(pe[key])}")
        raw["posenc"] = pe["scheme"]
    check_json(ModelConfig().to_dict(), raw, str(cpath))
    try:
        return ModelConfig.from_dict(raw)
    except ValueError as e:
        raise CheckpointError(f"{cpath}: {e}") from e


def _check_inventory(expect: dict[str, tuple], got: dict[str, tuple], source) -> None:
    for name, shape in expect.items():
        if name not in got:
            raise CheckpointError(f"{source} lacks parameter '{name}'")
        if tuple(got[name]) != tuple(shape):
            raise CheckpointError(f"{source}: parameter '{name}' has shape "
                                  f"{tuple(got[name])}, config requires {tuple(shape)}")
    extra = set(got) - set(expect)
    if extra:
        raise CheckpointError(f"{source} has unexpected parameters: {sorted(extra)}")


def save(model_config: ModelConfig, params: dict[str, Tensor], path) -> Checkpoint:
    ckpt = Checkpoint.from_params(model_config, params)
    ckpt.save(path)
    return ckpt


def load(path, cfg: ModelConfig | None = None) -> tuple[ModelConfig, dict[str, Tensor]]:
    """Load a checkpoint; if cfg is given it must hash-match the stored config.

    The hash check rejects silent architecture drift, e.g. turning staggering
    off at inference time on a model trained with it.
    """
    ckpt = Checkpoint.load_dir(path)
    if cfg is not None and cfg.hash() != ckpt.config.hash():
        raise CheckpointError(
            "supplied config does not match the checkpoint's stored config "
            f"(hash {cfg.hash()[:12]} vs {ckpt.config.hash()[:12]})")
    return ckpt.config, ckpt.to_params()


# ---------------------------------------------------------------------------
# surgeries

def port_to_local(ckpt: Checkpoint, new_attn: AttentionSpec) -> Checkpoint:
    """Swap the attention spec to BlockLocal; dense projections carry over."""
    if new_attn.variant != Variant.BLOCK_LOCAL:
        raise CheckpointError(f"port_to_local needs a BlockLocal spec, got {new_attn.variant}")
    if ckpt.config.attention.variant == Variant.GLOBAL_LOCAL:
        raise CheckpointError("source already has global parameters; cannot port to plain local")
    cfg = replace(ckpt.config, attention=new_attn)
    return Checkpoint(cfg, ckpt.arrays)


def port_to_global_local(ckpt: Checkpoint, new_attn: AttentionSpec, rng_seed: int) -> Checkpoint:
    """Add global parameters per the adaptation recipe.

    Each of the g new global embedding rows is a copy of a uniformly sampled
    vocabulary embedding row (with replacement); each encoder layer's global
    input LayerNorm is cloned from that layer's token input LayerNorm.
    """
    if new_attn.variant != Variant.GLOBAL_LOCAL:
        raise CheckpointError(f"port_to_global_local needs a GlobalLocal spec, got {new_attn.variant}")
    if ckpt.config.attention.variant == Variant.GLOBAL_LOCAL:
        raise CheckpointError("source already has global parameters")
    cfg = replace(ckpt.config, attention=new_attn)
    rng = np.random.default_rng(rng_seed)
    vocab = ckpt.arrays["embed.tok"]
    rows = rng.integers(0, vocab.shape[0], size=new_attn.num_global)
    new_arrays = dict(ckpt.arrays)
    new_arrays["embed.global"] = vocab[rows].copy()
    for i in range(cfg.enc_layers):
        new_arrays[f"enc.{i}.ln1g.gain"] = ckpt.arrays[f"enc.{i}.ln1.gain"].copy()
        new_arrays[f"enc.{i}.ln1g.bias"] = ckpt.arrays[f"enc.{i}.ln1.bias"].copy()
    return Checkpoint(cfg, new_arrays)


def replicate_positions(ckpt: Checkpoint, new_max_len: int) -> Checkpoint:
    """Tile the learned encoder position table up to new_max_len rows."""
    if ckpt.config.posenc != Scheme.LEARNED_ABSOLUTE:
        raise CheckpointError(
            f"replicate_positions needs LearnedAbsolute positions, "
            f"config has {ckpt.config.posenc.value}")
    old = ckpt.config.max_input_len
    if new_max_len < old:
        raise CheckpointError(f"new_max_len {new_max_len} < current {old}")
    cfg = replace(ckpt.config, max_input_len=new_max_len)
    pos = replicate(np.asarray(ckpt.arrays["embed.pos_enc"]), new_max_len)
    return Checkpoint(cfg, {**ckpt.arrays, "embed.pos_enc": pos})


def drop_cross_attention(ckpt: Checkpoint, keep_layers) -> Checkpoint:
    """Remove cross-attention parameter groups for all layers not kept."""
    keep = tuple(sorted(set(keep_layers)))
    existing = ckpt.config.cross_layers()
    if not keep:
        raise CheckpointError("keep_layers must be non-empty")
    if not set(keep) <= set(existing):
        raise CheckpointError(
            f"keep_layers {keep} not a subset of existing cross layers {existing}")
    cfg = replace(ckpt.config, cross_attn_layers=keep)
    return Checkpoint(cfg, {name: ckpt.arrays[name] for name in param_shapes(cfg)})

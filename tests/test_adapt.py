import hashlib
import json

import numpy as np
import pytest

from longattn import adapt as AD
from longattn import model as M
from longattn.adapt import Checkpoint, CheckpointError
from longattn.attention import AttentionSpec, Variant
from longattn.model import ModelConfig, make_config
from longattn.posenc import Scheme
from longattn.tensor import Tensor

TINY = dict(vocab_size=16, d_model=16, num_heads=2, d_ff=32,
            max_input_len=32, max_output_len=8, dropout_p=0.0)


def cfg_full(**kw):
    return make_config(Variant.FULL, **{**TINY, "enc_layers": 2, "dec_layers": 2, **kw})


def blob_bytes(path):
    return (path / "params.bin").read_bytes()


class TestRoundTrip:
    def test_save_load_save_byte_identical(self, tmp_path):
        cfg = cfg_full()
        params = M.init_params(cfg, 0)
        AD.save(cfg, params, tmp_path / "a")
        cfg2, params2 = AD.load(tmp_path / "a")
        AD.save(cfg2, params2, tmp_path / "b")
        assert blob_bytes(tmp_path / "a") == blob_bytes(tmp_path / "b")
        assert (tmp_path / "a" / "manifest.json").read_text() == \
               (tmp_path / "b" / "manifest.json").read_text()

    def test_load_upcasts_to_float64(self, tmp_path):
        cfg = cfg_full()
        AD.save(cfg, M.init_params(cfg, 0), tmp_path / "c")
        _, params = AD.load(tmp_path / "c")
        assert all(p.data.dtype == np.float64 for p in params.values())

    def test_wrong_config_shape_names_parameter(self):
        cfg = cfg_full()
        params = M.init_params(cfg, 0)
        params["embed.tok"] = Tensor(np.zeros((16, 8)), requires_grad=True)
        with pytest.raises(CheckpointError, match="embed.tok"):
            Checkpoint.from_params(cfg, params)

    def test_missing_and_extra_params_rejected(self):
        cfg = cfg_full()
        params = M.init_params(cfg, 0)
        extra = dict(params)
        extra["mystery"] = Tensor(np.zeros(3))
        with pytest.raises(CheckpointError, match="mystery"):
            Checkpoint.from_params(cfg, extra)
        short = dict(params)
        del short["enc.0.attn.wq"]
        with pytest.raises(CheckpointError, match="enc.0.attn.wq"):
            Checkpoint.from_params(cfg, short)

    def test_version_mismatch(self, tmp_path):
        cfg = cfg_full()
        AD.save(cfg, M.init_params(cfg, 0), tmp_path / "v")
        m = json.loads((tmp_path / "v" / "manifest.json").read_text())
        m["format_version"] = 99
        (tmp_path / "v" / "manifest.json").write_text(json.dumps(m))
        with pytest.raises(CheckpointError, match="version"):
            Checkpoint.load_dir(tmp_path / "v")

    def test_blob_too_short_names_parameter(self, tmp_path):
        cfg = cfg_full()
        AD.save(cfg, M.init_params(cfg, 0), tmp_path / "t")
        blob = tmp_path / "t" / "params.bin"
        names = list(json.loads((tmp_path / "t" / "manifest.json").read_text())["params"])
        blob.write_bytes(blob.read_bytes()[:-4])           # truncated params.bin
        with pytest.raises(CheckpointError, match=f"'{names[-1]}'.*params.bin"):
            Checkpoint.load_dir(tmp_path / "t")
        AD.save(cfg, M.init_params(cfg, 0), tmp_path / "m")
        m = json.loads((tmp_path / "m" / "manifest.json").read_text())
        m["params"][names[0]]["offset"] = (tmp_path / "m" / "params.bin").stat().st_size
        (tmp_path / "m" / "manifest.json").write_text(json.dumps(m))
        with pytest.raises(CheckpointError, match=f"'{names[0]}'.*params.bin"):
            Checkpoint.load_dir(tmp_path / "m")

    def test_hand_built_manifest_fixture(self, tmp_path):
        # the config's arrays laid out by hand, in the reverse of manifest
        # order; load must follow the offsets and reproduce them exactly
        p = tmp_path / "fix"
        p.mkdir()
        shapes = M.param_shapes(cfg_full())
        arrays = {k: (np.arange(np.prod(s), dtype="<f4") * 0.25 + i).reshape(s)
                  for i, (k, s) in enumerate(shapes.items())}
        blob, offsets = b"", {}
        for k in reversed(list(shapes)):
            offsets[k] = len(blob)
            blob += arrays[k].tobytes()
        manifest = {"format_version": 1, "params": {
            k: {"shape": list(s), "dtype": "float32", "offset": offsets[k]}
            for k, s in shapes.items()}}
        (p / "manifest.json").write_text(json.dumps(manifest))
        (p / "params.bin").write_bytes(blob)
        (p / "config.json").write_text(json.dumps(cfg_full().to_dict()))
        ck = Checkpoint.load_dir(p)                  # a manifest without a sha256 loads
        assert all(np.array_equal(ck.arrays[k], a) for k, a in arrays.items())
        assert list(ck.arrays) == list(shapes)

    def test_config_hash_guard(self, tmp_path):
        cfg = make_config(Variant.BLOCK_LOCAL, block_size=8, staggered=True,
                          **{**TINY, "enc_layers": 2, "dec_layers": 2})
        AD.save(cfg, M.init_params(cfg, 0), tmp_path / "g")
        drifted = make_config(Variant.BLOCK_LOCAL, block_size=8, staggered=False,
                              **{**TINY, "enc_layers": 2, "dec_layers": 2})
        with pytest.raises(CheckpointError, match="hash"):
            AD.load(tmp_path / "g", cfg=drifted)
        AD.load(tmp_path / "g", cfg=cfg)   # matching config passes

    def test_config_with_learned_max_len_loads(self, tmp_path):
        # checkpoints written before the key's removal carry it in config.json
        cfg = cfg_full()
        params = M.init_params(cfg, 0)
        AD.save(cfg, params, tmp_path / "old")
        path = tmp_path / "old" / "config.json"
        d = json.loads(path.read_text())
        d["posenc"]["learned_max_len"] = 512
        path.write_text(json.dumps(d, indent=1))
        cfg2, params2 = AD.load(tmp_path / "old", cfg=cfg)   # hashes match
        assert "learned_max_len" not in cfg2.to_dict()["posenc"]
        assert all(np.array_equal(params2[k].data, params[k].data.astype("<f4"))
                   for k in params)


class TestPortToLocal:
    def test_params_byte_identical(self):
        cfg = cfg_full()
        ck = Checkpoint.from_params(cfg, M.init_params(cfg, 0))
        spec = AttentionSpec(variant=Variant.BLOCK_LOCAL, block_size=8,
                            num_heads=2, head_dim=8)
        ported = AD.port_to_local(ck, spec)
        assert set(ported.arrays) == set(ck.arrays)
        for name in ck.arrays:
            assert ported.arrays[name].tobytes() == ck.arrays[name].tobytes()
        assert ported.config.attention.variant == Variant.BLOCK_LOCAL

    def test_big_block_logits_identical(self):
        cfg = cfg_full()
        params = M.init_params(cfg, 0)
        ck = Checkpoint.from_params(cfg, params)
        spec = AttentionSpec(variant=Variant.BLOCK_LOCAL, block_size=64,
                            num_heads=2, head_dim=8)
        ported = AD.port_to_local(ck, spec)
        p2 = ported.to_params()
        ids = list(range(6, 14))
        tgt = [7, M.EOS_ID]
        e1, _ = M.encoder_forward(cfg, ck.to_params(), ids)
        l1 = M.decoder_forward(cfg, ck.to_params(), tgt, e1)
        e2, _ = M.encoder_forward(ported.config, p2, ids)
        l2 = M.decoder_forward(ported.config, p2, tgt, e2)
        assert np.abs(l1.data - l2.data).max() < 1e-8

    def test_wrong_target_variant(self):
        cfg = cfg_full()
        ck = Checkpoint.from_params(cfg, M.init_params(cfg, 0))
        spec = AttentionSpec(variant=Variant.GLOBAL_LOCAL, num_global=2,
                            num_heads=2, head_dim=8)
        with pytest.raises(CheckpointError):
            AD.port_to_local(ck, spec)


class TestPortToGlobalLocal:
    def spec(self, g=4):
        return AttentionSpec(variant=Variant.GLOBAL_LOCAL, block_size=8,
                             num_global=g, num_heads=2, head_dim=8)

    def test_globals_are_vocab_rows(self):
        cfg = cfg_full()
        ck = Checkpoint.from_params(cfg, M.init_params(cfg, 0))
        ported = AD.port_to_global_local(ck, self.spec(), rng_seed=7)
        vocab = ck.arrays["embed.tok"]
        for row in ported.arrays["embed.global"]:
            assert any(np.array_equal(row, vr) for vr in vocab)

    def test_layer_norms_cloned(self):
        cfg = cfg_full()
        ck = Checkpoint.from_params(cfg, M.init_params(cfg, 0))
        ported = AD.port_to_global_local(ck, self.spec(), rng_seed=7)
        for i in range(cfg.enc_layers):
            assert np.array_equal(ported.arrays[f"enc.{i}.ln1g.gain"],
                                  ck.arrays[f"enc.{i}.ln1.gain"])
            assert np.array_equal(ported.arrays[f"enc.{i}.ln1g.bias"],
                                  ck.arrays[f"enc.{i}.ln1.bias"])

    def test_param_count_delta(self):
        cfg = cfg_full()
        ck = Checkpoint.from_params(cfg, M.init_params(cfg, 0))
        g = 4
        ported = AD.port_to_global_local(ck, self.spec(g), rng_seed=0)
        got = sum(a.size for a in ported.arrays.values())
        src = sum(a.size for a in ck.arrays.values())
        d = cfg.d_model
        assert got - src == g * d + cfg.enc_layers * 2 * d
        assert got == M.count_params(ported.config)

    def test_untouched_params_bitwise_stable(self):
        cfg = cfg_full()
        ck = Checkpoint.from_params(cfg, M.init_params(cfg, 0))
        ported = AD.port_to_global_local(ck, self.spec(), rng_seed=3)
        for name, arr in ck.arrays.items():
            assert hashlib.sha256(ported.arrays[name].tobytes()).digest() == \
                   hashlib.sha256(arr.tobytes()).digest()

    def test_seed_changes_only_global_rows(self):
        cfg = cfg_full()
        ck = Checkpoint.from_params(cfg, M.init_params(cfg, 0))
        a = AD.port_to_global_local(ck, self.spec(), rng_seed=1)
        b = AD.port_to_global_local(ck, self.spec(), rng_seed=2)
        diff = [n for n in a.arrays
                if a.arrays[n].tobytes() != b.arrays[n].tobytes()]
        assert diff == ["embed.global"]

    def test_deterministic(self):
        cfg = cfg_full()
        ck = Checkpoint.from_params(cfg, M.init_params(cfg, 0))
        a = AD.port_to_global_local(ck, self.spec(), rng_seed=5)
        b = AD.port_to_global_local(ck, self.spec(), rng_seed=5)
        assert all(np.array_equal(a.arrays[n], b.arrays[n]) for n in a.arrays)

    def test_double_port_rejected(self):
        cfg = cfg_full()
        ck = Checkpoint.from_params(cfg, M.init_params(cfg, 0))
        once = AD.port_to_global_local(ck, self.spec(), rng_seed=0)
        with pytest.raises(CheckpointError):
            AD.port_to_global_local(once, self.spec(), rng_seed=0)


class TestReplicatePositions:
    def cfg(self, max_len=16):
        return make_config(Variant.FULL, scheme=Scheme.LEARNED_ABSOLUTE,
                           **{**TINY, "enc_layers": 1, "dec_layers": 1,
                              "max_input_len": max_len})

    def test_rows_repeat(self):
        cfg = self.cfg()
        ck = Checkpoint.from_params(cfg, M.init_params(cfg, 0))
        rep = AD.replicate_positions(ck, 40)
        tab = rep.arrays["embed.pos_enc"]
        assert tab.shape == (40, cfg.d_model)
        assert np.array_equal(tab[:16], ck.arrays["embed.pos_enc"])
        assert np.array_equal(tab[16:32], ck.arrays["embed.pos_enc"])

    def test_short_input_logits_bit_stable(self):
        cfg = self.cfg()
        ck = Checkpoint.from_params(cfg, M.init_params(cfg, 0))
        rep = AD.replicate_positions(ck, 64)
        ids = [6, 7, 8, 9]
        tgt = [7, M.EOS_ID]
        e1, _ = M.encoder_forward(cfg, ck.to_params(), ids)
        l1 = M.decoder_forward(cfg, ck.to_params(), tgt, e1)
        p2 = rep.to_params()
        e2, _ = M.encoder_forward(rep.config, p2, ids)
        l2 = M.decoder_forward(rep.config, p2, tgt, e2)
        assert np.array_equal(l1.data, l2.data)

    def test_shrink_rejected(self):
        cfg = self.cfg()
        ck = Checkpoint.from_params(cfg, M.init_params(cfg, 0))
        with pytest.raises(CheckpointError):
            AD.replicate_positions(ck, 8)

    def test_scheme_mismatch(self):
        cfg = cfg_full()
        ck = Checkpoint.from_params(cfg, M.init_params(cfg, 0))
        with pytest.raises(CheckpointError):
            AD.replicate_positions(ck, 64)


class TestDropCrossAttention:
    def cfg12(self):
        return make_config(Variant.FULL, **{**TINY, "enc_layers": 1, "dec_layers": 12})

    def test_keep_all_identity(self):
        cfg = cfg_full()
        ck = Checkpoint.from_params(cfg, M.init_params(cfg, 0))
        same = AD.drop_cross_attention(ck, ck.config.cross_layers())
        # the source config spells "all layers" as (); the result spells it
        # explicitly — identical once serialized
        assert same.config.to_dict() == ck.config.to_dict()
        assert same.config.hash() == ck.config.hash()
        assert all(np.array_equal(same.arrays[n], ck.arrays[n]) for n in ck.arrays)

    def test_keep_0_6_of_twelve(self):
        cfg = self.cfg12()
        ck = Checkpoint.from_params(cfg, M.init_params(cfg, 0))
        dropped = AD.drop_cross_attention(ck, {0, 6})
        removed = set(ck.arrays) - set(dropped.arrays)
        groups = {n.rsplit(".", 1)[0].replace(".ln", "") for n in removed}
        assert len({n.split(".")[1] for n in removed}) == 10
        assert sum(a.size for a in dropped.arrays.values()) == \
               M.count_params(dropped.config)
        assert dropped.config.cross_layers() == (0, 6)

    def test_forward_runs_without_dropped_params(self):
        cfg = self.cfg12()
        ck = Checkpoint.from_params(cfg, M.init_params(cfg, 0))
        dropped = AD.drop_cross_attention(ck, {0, 6})
        p = dropped.to_params()
        enc, _ = M.encoder_forward(dropped.config, p, [6, 7, 8])
        logits = M.decoder_forward(dropped.config, p, [3, 9], enc)
        assert logits.shape == (2, cfg.vocab_size)

    def test_empty_keep_rejected(self):
        cfg = cfg_full()
        ck = Checkpoint.from_params(cfg, M.init_params(cfg, 0))
        with pytest.raises(CheckpointError):
            AD.drop_cross_attention(ck, set())

    def test_non_subset_rejected(self):
        cfg = cfg_full()
        ck = Checkpoint.from_params(cfg, M.init_params(cfg, 0))
        with pytest.raises(CheckpointError):
            AD.drop_cross_attention(ck, {5})

    def test_commutes_with_replicate_positions(self):
        cfg = make_config(Variant.FULL, scheme=Scheme.LEARNED_ABSOLUTE,
                          **{**TINY, "enc_layers": 1, "dec_layers": 4,
                             "max_input_len": 16})
        ck = Checkpoint.from_params(cfg, M.init_params(cfg, 0))
        a = AD.replicate_positions(AD.drop_cross_attention(ck, {0, 2}), 32)
        b = AD.drop_cross_attention(AD.replicate_positions(ck, 32), {0, 2})
        assert a.config == b.config
        assert set(a.arrays) == set(b.arrays)
        for n in a.arrays:
            assert a.arrays[n].tobytes() == b.arrays[n].tobytes()

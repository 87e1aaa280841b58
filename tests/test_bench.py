import csv
import io

import numpy as np
import pytest

from longattn import bench as B
from longattn.attention import AttentionSpec, Variant, attention_cost
from score_count import softmax_entries


def grid_specs(b=64, g=32, h=2, d=8):
    return [
        AttentionSpec(variant=Variant.FULL, num_heads=h, head_dim=d),
        AttentionSpec(variant=Variant.BLOCK_LOCAL, block_size=b, num_heads=h, head_dim=d),
        AttentionSpec(variant=Variant.GLOBAL_LOCAL, block_size=b, num_global=g,
                      num_heads=h, head_dim=d),
    ]


class TestMeasure:
    def test_counters_match_cost_model(self):
        spec = AttentionSpec(variant=Variant.BLOCK_LOCAL, block_size=16,
                             staggered=True, num_heads=2, head_dim=8)
        row = B.measure(spec, 64, repeats=1)
        with softmax_entries() as sizes:
            B._run_once(spec, 64, np.random.default_rng(0))
        cost = attention_cost(spec, 64)
        assert sum(sizes) * 8 == row["mac_count"] == cost["flops"]
        assert sum(sizes) == row["score_elems"] == cost["score_mem_elems"]
        assert row["wall_ms"] > 0

    def test_reproducible_counters(self):
        spec = AttentionSpec(variant=Variant.FULL, num_heads=2, head_dim=8)
        a = B.measure(spec, 128, repeats=1)
        b = B.measure(spec, 128, repeats=1)
        assert a["mac_count"] == b["mac_count"]
        assert a["score_elems"] == b["score_elems"]
        counts = []
        for _ in range(2):
            with softmax_entries() as sizes:
                B._run_once(spec, 128, np.random.default_rng(0))
            counts.append(sum(sizes))
        assert counts == [a["score_elems"]] * 2


class TestScalingLaws:
    def test_full_quadratic_ratios(self):
        spec = [AttentionSpec(variant=Variant.FULL, num_heads=1, head_dim=4)]
        rows = B.run_scaling(spec, [256, 512, 1024], repeats=1)
        assert [r["score_rel"] for r in rows] == [1.0, 4.0, 16.0]

    def test_block_local_linear_ratios(self):
        spec = [AttentionSpec(variant=Variant.BLOCK_LOCAL, block_size=64,
                              num_heads=1, head_dim=4)]
        rows = B.run_scaling(spec, [256, 512, 1024], repeats=1)
        assert [r["score_rel"] for r in rows] == [1.0, 2.0, 4.0]

    def test_global_local_overhead_closed_form(self):
        # the global terms add a constant-factor overhead over plain
        # block-local: 1 + g/b + g*(L+g)/(L*b) on score-side MACs (≈2 at
        # g = b/2); whole-model overhead is far smaller because projections
        # and FFN dominate at realistic widths, but this counter is
        # deliberately attention-score-only
        L, b, g = 1024, 64, 32
        local = AttentionSpec(variant=Variant.BLOCK_LOCAL, block_size=b,
                              num_heads=2, head_dim=8)
        gl = AttentionSpec(variant=Variant.GLOBAL_LOCAL, block_size=b,
                           num_global=g, num_heads=2, head_dim=8)
        r = attention_cost(gl, L)["flops"] / attention_cost(local, L)["flops"]
        assert r == pytest.approx(1 + g / b + g * (L + g) / (L * b))
        assert 1.0 < r < attention_cost(
            AttentionSpec(variant=Variant.FULL, num_heads=2, head_dim=8),
            L)["flops"] / attention_cost(local, L)["flops"]

    def test_named_baseline_row(self):
        specs = grid_specs()
        rows = B.run_scaling(specs, [512, 1024], repeats=1,
                             baseline=(Variant.BLOCK_LOCAL.value, 512))
        base = next(r for r in rows
                    if r["variant"] == "block_local" and r["L"] == 512)
        assert base["mac_rel"] == 1.0 and base["score_rel"] == 1.0


class TestCsv:
    def test_roundtrip(self):
        rows = B.run_scaling(grid_specs(), [512], repeats=1)
        text = B.rows_to_csv(rows)
        back = list(csv.DictReader(io.StringIO(text)))
        for a, b in zip(rows, back):
            assert a["variant"] == b["variant"]
            assert a["mac_count"] == int(b["mac_count"])
            assert a["score_elems"] == int(b["score_elems"])


class TestOrderingCheck:
    def test_grid_passes(self):
        rows = B.run_scaling(grid_specs(), [512, 1024], repeats=1)
        rep = B.ordering_check(rows)
        assert rep.ok, rep.message
        assert len(rep.checks) == 2

    def test_degenerate_tie_not_flagged(self):
        # at L == b block-local ties full on score elements; the ordering
        # constraint only binds for L >= 8b, so the tie row is never a
        # violation — it is outside the checked regime
        b = 64
        specs = [AttentionSpec(variant=Variant.FULL, num_heads=1, head_dim=4),
                 AttentionSpec(variant=Variant.BLOCK_LOCAL, block_size=b,
                               num_heads=1, head_dim=4)]
        rows = B.run_scaling(specs, [b, 1024], repeats=1)
        assert rows[0]["score_elems"] == rows[2]["score_elems"]   # the tie
        rep = B.ordering_check(rows)
        assert rep.ok                       # only the L=1024 row is checked
        assert [c[0] for c in rep.checks] == [1024]

    def test_short_lengths_skipped(self):
        rows = B.run_scaling(grid_specs(), [128], repeats=1)
        rep = B.ordering_check(rows)   # 128 < 8*64: nothing comparable
        assert not rep.ok
        assert "no comparable rows" in rep.message

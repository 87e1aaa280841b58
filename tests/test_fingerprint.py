import numpy as np

from repo_module import load_module
from score_count import softmax_entries

fp = load_module("scripts/fingerprint.py")

BASE = {"0|loss|loss": np.array(2.0), "0|grads|w": np.array([1.0, -3.0]),
        "0|tokens|greedy": np.array([3, 4])}


def test_compare_reports_the_worst_float_difference(capsys):
    moved = {**BASE, "0|grads|w": np.array([1.0, -3.0 + 1e-12])}
    assert fp.compare(moved, BASE)
    out = capsys.readouterr().out
    assert "grads: 1 arrays, max abs diff 1e-12" in out
    assert "tokens: 1 sequences, identical" in out


def test_compare_fails_on_a_token_a_shape_or_a_missing_quantity(capsys):
    for other in ({**BASE, "0|tokens|greedy": np.array([3, 5])},
                  {**BASE, "0|grads|w": np.array([1.0])},
                  {k: v for k, v in BASE.items() if k != "0|loss|loss"}):
        assert not fp.compare(BASE, other)
    out = capsys.readouterr().out
    assert "tokens differ: 0|tokens|greedy: [3, 4] vs [3, 5]" in out
    assert "shape differs: 0|grads|w: (2,) vs (1,)" in out
    assert "only in this run: 0|loss|loss" in out


def grid_numbers():
    return [(kind, name, value) for seed, cfg in enumerate(fp.grid())
            for kind, name, value in fp.quantities(cfg, seed)]


def test_tiled_attention_gives_the_grid_numbers_of_one_tile(monkeypatch):
    # drives the tiles through T5 bias, RoPE, decoder self- and
    # cross-attention and beam folding
    with softmax_entries() as one_tile:
        one = grid_numbers()
    monkeypatch.setattr(fp.T, "ATTEND_TILE", 16)
    with softmax_entries() as tiles:
        tiled = grid_numbers()
    assert len(tiles) > len(one_tile)
    assert [x[:2] for x in one] == [x[:2] for x in tiled]
    for (kind, name, a), (_, _, b) in zip(one, tiled):
        if kind == "tokens":
            assert a == b, name
        elif a is None or b is None:
            assert a is b, name
        else:
            assert a.shape == b.shape and np.abs(a - b).max() <= 1e-12, name

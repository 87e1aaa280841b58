import numpy as np

from repo_module import load_module

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

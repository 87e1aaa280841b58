"""scripts/stagger_ablation.py is the one definition of the needle
experiment: the slow retrieval gate trains and scores through it, and
perfbench train-needle steps the same arms."""

import math
import subprocess
import sys
from pathlib import Path

import pytest

from repo_module import load_module

ablation = load_module("scripts/stagger_ablation.py")


@pytest.mark.parametrize("arm", list(ablation.ARMS))
def test_each_arm_trains_and_scores_one_chunk(arm):
    train_pairs, test_pairs = ablation.corpus()
    (step, loss, em), = ablation.train_arm(arm, train_pairs[:8], test_pairs[:2],
                                           steps=2, eval_every=2)
    assert step == 2
    assert math.isfinite(loss)
    assert 0.0 <= em <= 1.0


def test_perfbench_train_needle_steps_the_gates_arms(tmp_path):
    workloads = load_module("perfbench/workloads.py")
    arms = workloads.TrainNeedle(0, tmp_path).build_arms()
    assert [a.cfg for a in arms] == list(ablation.ARMS.values())
    for a in arms:
        assert (a.batch, a.lr, a.warmup) == (ablation.BATCH, ablation.LR, ablation.WARMUP)


@pytest.mark.parametrize("argv, flag", [(["--eval-every", "0"], "--eval-every"),
                                        (["--steps", "100"], "--steps")])
def test_bad_schedule_exits_2_with_one_line(argv, flag, tmp_path):
    script = Path(ablation.__file__)
    proc = subprocess.run([sys.executable, str(script), *argv, "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1 and flag in proc.stderr
    assert not (tmp_path / "out").exists()

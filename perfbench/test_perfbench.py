"""Tests of the benchmark itself: the smoke run, the correctness gate and the
refusal to run outside a checkout. Run from the repository root:

    python3 -m pytest perfbench -q
"""

import os
import random
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import workloads  # noqa: E402


def test_smoke_prints_every_metric_with_its_unit():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count(" ok") == 8, proc.stdout


def test_wrong_reference_counts_as_failure():
    wl = workloads.build("fp-small", seed=3, smoke=True)
    clean = run.measure(workloads, wl, 0, random.Random(3))
    assert clean["failed_frac"] == 0.0, clean["failures"]

    young = next(op.case for op in wl.ops if op.case.name == "young")
    young.reference = 0.8  # deliberately wrong: the constant is sqrt(3)/2
    m = run.measure(workloads, wl, 0, random.Random(3))
    assert m["failed"] == 3 and m["failed_frac"] == 0.5
    assert m["failed_samples"] == 3 * m["passes"]
    assert all(f["known_defect"] is None for f in m["failures"].values())


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fp-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

"""The benchmark's quick run and self-test, run as the benchmark runs them.

The quick run goes through every workload at small sizes, untraced and
then traced, so a public function that a traced span expects but the
program stops calling fails here.
"""

import json
import os
import pathlib
import subprocess
import sys

BENCH = pathlib.Path(__file__).resolve().parent.parent / "benchmark"


def run_script(name, *args):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, str(BENCH / name), *args], cwd=BENCH.parent,
                          env=env, capture_output=True, text=True, timeout=300)


def test_quick_run_is_correct_and_fails_nothing():
    proc = run_script("run.py", "--quick")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert json.loads(lines[-1]) == {"correct": True}
    runs = json.loads(lines[-2])["quick"]
    assert runs
    assert all(r["correct"] and r["attempted"] > 0 and r["failed"] == 0 for r in runs)


def test_selftest_rejects_every_perturbation():
    proc = run_script("selftest.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "all checks reject perturbed outputs"

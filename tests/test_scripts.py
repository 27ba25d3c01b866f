"""The scripts under scripts/, run at tiny sizes from the command line, so a
change to the library API that breaks one of them fails here."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_script(name, *args):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=src + os.pathsep + path if path else src)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_fidelity_sweep():
    lines = run_script("fidelity_sweep.py", "--sizes", "16", "--scales", "0.1",
                       "--seeds", "0")
    assert lines[0].split() == ["n", "scale", "seed", "mean|dH|", "max|dH|", "mean_kl",
                                "rank_rate", "max_th_gap", "out_rel"]
    assert len(lines) == 2
    row = lines[1].split()
    assert row[:3] == ["16", "0.1", "0"] and len(row) == 9


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


def test_scaling_bench():
    sizes = "64,128,256"
    lines = run_script("scaling_bench.py", "--exact-n-list", sizes, "--linear-n-list", sizes,
                       "--repeats", "1", "--quadratic")
    modes = ["exact", "eala-quadratic", "eala-linear"]
    headers = [ln for ln in lines if ": sizes " in ln]
    assert headers == [f"{m}: sizes [64, 128, 256], c=64, repeats=1" for m in modes]
    slopes = [ln.split(": log-log slope ") for ln in lines if ": log-log slope " in ln]
    assert [m for m, _ in slopes] == modes
    for _, value in slopes:
        float(value)

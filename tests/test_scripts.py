"""Smoke tests of the scripts in scripts/: each runs in a subprocess on a
small range, exits 0 and writes its output."""

import json
import os
import subprocess
import sys

import hlab

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, *args):
    src = os.path.dirname(os.path.dirname(hlab.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_square_shift_lab(tmp_path):
    # at mu 0.49 the strict threshold opens below 389, so 389 and 397 are
    # built and their axioms checked
    out = tmp_path / "square_shift"
    stdout = run_script(
        "run_square_shift_lab.py",
        "--lo", "379", "--hi", "397", "--mu", "0.49",
        "--extension-samples", "20", "--out", str(out),
    )
    rows = json.loads((out / "summary.json").read_text())["rows"]
    built = [row for row in rows if row[3] != "below threshold"]
    assert built and all(row[3] == "ok" for row in built)
    assert "wrote" in stdout


def test_coarse_dimension(tmp_path):
    out = tmp_path / "coarse" / "coarse_dim.csv"
    run_script("run_coarse_dimension.py", "--lo", "101", "--hi", "140", "--mu", "0.49", "--out", str(out))
    lines = out.read_text().splitlines()
    assert lines[0] == "size,h_size,ratio"
    assert len(lines) == 1 + 9  # the primes 101..139


def test_lovely_pair():
    stdout = run_script("run_lovely_pair.py", "--max-p", "7")
    assert "all subfield violation counts zero: True" in stdout

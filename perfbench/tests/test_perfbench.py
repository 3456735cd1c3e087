"""Self-tests of the benchmark harness on tiny inputs.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import check  # noqa: E402
import harness  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, commands, operations  # noqa: E402


def shrink(command):
    """The same command on a family a tenth as wide."""
    family = dict(command.config["family"])
    family["hi"] = family["lo"] + (family["hi"] - family["lo"]) // 10
    return dataclasses.replace(command, config={**command.config, "family": family})


def workspace():
    return harness.Workspace(harness.child_env(), time.monotonic() + 170)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat(workload):
    shrunk = [shrink(c) for c in commands(workload, seed=7, nproc=2)]
    counts = []
    for _ in range(2):
        with workspace() as ws:
            session = ws.session(shrunk, traced=True)
        assert [r.outcome.problems for r in session.runs] == [[] for _ in shrunk]
        metrics = session.layers.metrics()
        counts.append({name: metrics[name] for name in spans.COUNTS})
    assert counts[0] == counts[1]
    assert counts[0]["finitemodels.structures_built"] > 0
    assert counts[0]["cli.report_bytes"] > 0


def test_config_that_exits_2_fails_every_structure():
    command = shrink(commands("quantifier_loop", seed=0, nproc=1)[0])
    bad = dataclasses.replace(command, config={**command.config, "no_such_key": 1})
    with workspace() as ws:
        run = ws.session([bad], traced=False).runs[0]
    assert run.process.rc == 2
    assert run.outcome.operations == operations(bad) > 0
    assert run.outcome.failed == run.outcome.operations


def test_reference_mismatch_fails_every_structure(tmp_path):
    reports = [
        {"p": 3, "q": 9, "a1": 1, "a2": 2, "phi_count": 2, "subfield_violations": 0, "deviation": 0.25},
        {"p": 5, "q": 25, "a1": 1, "a2": 4, "phi_count": 7, "subfield_violations": 0, "deviation": 0.75},
    ]
    summary = {"witnessed": True}
    (tmp_path / "lovely_pair.json").write_text(json.dumps({"summary": summary, "reports": reports}))
    result = check.extract("lovely-pair", str(tmp_path))
    assert check.assess("lovely-pair", str(tmp_path), 0, 2, result).failed == 0
    changed = {**result, "reports": [result["reports"][0], [5, 25, 1, 4, 6, 0]]}
    outcome = check.assess("lovely-pair", str(tmp_path), 0, 2, changed)
    assert outcome.failed == 2
    assert outcome.problems == ["result differs from the reference"]


def test_self_time_is_busy_minus_child_coverage():
    # a cli span whose two pool tasks overlap in time; the first task has a
    # folang child and a nested hgreedy child
    tree = [
        {"id": 1, "parent": None, "layer": "cli", "name": "main", "start": 0, "end": 100},
        {"id": 2, "parent": 1, "layer": "hgreedy", "name": "build_h", "start": 10, "end": 60, "pool": 9},
        {"id": 3, "parent": 1, "layer": "hgreedy", "name": "build_h", "start": 30, "end": 80, "pool": 9},
        {"id": 4, "parent": 2, "layer": "folang", "name": "solution_mask_matrix", "start": 20, "end": 30, "cells": 5},
        {"id": 5, "parent": 2, "layer": "hgreedy", "name": "greedy_step", "start": 40, "end": 50},
    ]
    assert spans.self_times(tree) == {1: 100 - 70, 2: 50 - 20, 3: 50, 4: 10, 5: 10}
    layers = spans.SessionLayers()
    layers.add_process(tree, [{"id": 9, "workers": 2, "start": 5, "end": 85}])
    m = layers.metrics()
    ns = spans.NS
    assert m["cli.busy_s"] == pytest.approx(100 / ns)
    assert m["cli.self_s"] == pytest.approx((100 - 70) / ns)
    assert m["hgreedy.busy_s"] == pytest.approx(100 / ns)
    assert m["hgreedy.self_s"] == pytest.approx((30 + 50 + 10) / ns)
    assert m["folang.busy_s"] == m["folang.self_s"] == pytest.approx(10 / ns)
    assert m["folang.ns_per_cell"] == pytest.approx(2.0)
    assert m["cli.pool_util"] == pytest.approx(100 / (2 * 80))


def snapshot(root: Path, skip: Path) -> dict:
    """Every file under root except `skip`, .git and bytecode caches."""
    files = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [
            d for d in dirnames if d not in (".git", "__pycache__") and Path(dirpath, d) != skip
        ]
        for name in filenames:
            st = Path(dirpath, name).stat()
            files[os.path.join(dirpath, name)] = (st.st_size, st.st_mtime_ns)
    return files


def test_runs_write_only_inside_the_benchmark_directory():
    before = snapshot(harness.ROOT, harness.HERE)
    shrunk = [shrink(c) for c in commands("square_shift", seed=0, nproc=2)]
    with workspace() as ws:
        ws.probe(shrunk[0])
        ws.session(shrunk, traced=True)
        ws.session(shrunk, traced=False)
        scratch = ws.path
    assert not scratch.exists()
    assert snapshot(harness.ROOT, harness.HERE) == before


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(harness.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

"""hlab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload square_shift --seed 0 --seconds 15 --trace 0

Run it from the root of a checkout; it builds nothing and runs hlab from
src/. With --trace 0 it runs whole sessions of the workload (every command,
each in a fresh process) until --seconds have passed, at least one, and
prints the end-to-end metrics of BENCHMARK.json as medians over sessions.
With --trace 1 it runs one untraced session, then traced sessions, and
prints the per-layer metrics. Every command's outputs are checked; the last
line of stdout is the JSON result. Exit code 2, with no result, means the
benchmark cannot run here.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

import harness
import spans as spanlib
from harness import HERE, ROOT, HarnessError
from workloads import WORKLOADS, commands as workload_commands

REFERENCE_SEED = 0
DEADLINE_S = 170.0  # a run must end within 180 s
SETUP_PROBES = 3


def machine_facts(commands) -> dict:
    try:
        lscpu = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
        caches = {
            key.strip(): value.strip()
            for key, _, value in (line.partition(":") for line in lscpu.splitlines())
            if "cache" in key
        }
    except (OSError, subprocess.SubprocessError):
        caches = "unavailable"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {c.label: c.threads for c in commands},
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "caches": caches,
    }


def reference_results(workload: str, seed: int):
    if seed != REFERENCE_SEED:
        return None
    data = json.loads((HERE / "reference" / f"{workload}.json").read_text())
    return [c["result"] for c in data["commands"]]


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def run_sessions(ws, commands, traced: bool, references, seconds: float, start: float):
    """Closed loop: whole sessions back to back until `seconds` have passed
    (at least one), leaving room for one more before the deadline."""
    sessions = []
    while True:
        begun = time.monotonic()
        sessions.append(ws.session(commands, traced, references))
        now = time.monotonic()
        if now - start >= seconds or now + (now - begun) > ws.deadline:
            return sessions


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        env = harness.child_env()
    except (OSError, HarnessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    commands = workload_commands(args.workload, args.seed, len(os.sched_getaffinity(0)))
    references = reference_results(args.workload, args.seed)
    launched = time.monotonic()
    with harness.Workspace(env, launched + DEADLINE_S) as ws:
        ws.probe(commands[0])  # warm-up: brings interpreter and library files into memory
        setups = [ws.probe(commands[i % len(commands)]).setup_s for i in range(SETUP_PROBES)]
        start = time.monotonic()
        untraced, traced = [], []
        if args.trace:
            untraced.append(ws.session(commands, False, references))
            traced = run_sessions(ws, commands, True, references, args.seconds, start)
        else:
            untraced = run_sessions(ws, commands, False, references, args.seconds, start)

    runs = [run for s in untraced + traced for run in s.runs]
    setups += [run.process.setup_s for s in untraced for run in s.runs]
    attempted = sum(r.outcome.operations for r in runs)
    failed = sum(r.outcome.failed for r in runs)
    for run in runs:
        for problem in run.outcome.problems:
            print(f"check failed: {args.workload} {run.command.name}: {problem}", file=sys.stderr)

    labels = list(dict.fromkeys(c.label for c in commands))
    print("machine " + json.dumps(machine_facts(commands) | {"seed": args.seed}))
    print(
        f"workload {args.workload}: {len(untraced)} untraced and {len(traced)} traced "
        f"session(s) of {', '.join(c.name for c in commands)}"
    )
    for label in labels:
        print(f"  {label}_s {median([s.command_s(label) for s in untraced]):.4f} s")
    print(f"  failed_frac {failed / attempted if attempted else 1.0} ratio ({failed} of {attempted} operations)")

    if args.trace:
        per_session = [s.layers.metrics() for s in traced]
        values = {name: median([m[name] for m in per_session]) for name in per_session[0]}
        for label in ("profile", "build", "sequence", "axioms", "lovely_pair"):
            values[f"cli.{label}_s"] = median([s.command_s(label) for s in untraced])
        values["trace.overhead_frac"] = (
            median([s.wall_s for s in traced]) / median([s.wall_s for s in untraced]) - 1
        )
        counts = {name: per_session[0][name] for name in spanlib.COUNTS}
        if any({n: m[n] for n in spanlib.COUNTS} != counts for m in per_session):
            print("warning: exact counts differ between traced sessions", file=sys.stderr)
        print("counts " + json.dumps(counts))
        declared = spec["per_layer"]
    else:
        values = {
            "wall_s": median([s.wall_s for s in untraced]),
            "setup_s": len(commands) * median(setups),
            "peak_rss_mb": median([s.peak_rss_mb for s in untraced]),
        }
        declared = spec["end_to_end"]

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, metric in metrics.items():
        print(f"  {name} {metric['value']} {metric['unit']}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

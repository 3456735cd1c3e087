"""Regenerate perfbench/reference/<workload>.json: each command's semantic
result (see check.py) at the reference seed.

    python3 perfbench/write_reference.py [workload ...]

Only for an intended change of results; say why in CHANGES.md. A workload
whose invariants fail is not written.
"""

from __future__ import annotations

import json
import os
import sys
import time

import harness
from run import DEADLINE_S, REFERENCE_SEED
from workloads import WORKLOADS, commands as workload_commands


def main(argv) -> int:
    env = harness.child_env()
    status = 0
    for workload in argv or WORKLOADS:
        commands = workload_commands(workload, REFERENCE_SEED, len(os.sched_getaffinity(0)))
        with harness.Workspace(env, time.monotonic() + DEADLINE_S) as ws:
            session = ws.session(commands, traced=False)
        problems = [p for r in session.runs for p in r.outcome.problems]
        if problems or any(r.outcome.failed for r in session.runs):
            print(f"{workload}: not written: {problems}", file=sys.stderr)
            status = 1
            continue
        data = {
            "workload": workload,
            "seed": REFERENCE_SEED,
            "commands": [
                {"command": r.command.name, "args": list(r.command.args), "result": r.outcome.result}
                for r in session.runs
            ],
        }
        path = harness.HERE / "reference" / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(f"{workload}: wrote {path.relative_to(harness.ROOT)}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

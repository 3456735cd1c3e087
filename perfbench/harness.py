"""Runs a workload's commands as fresh `hlab` processes, one after another
(a closed loop with one client), and measures each one from outside.

Every process runs child.py, which imports hlab from the checkout's src/
and calls `hlab.cli.main` with the command's arguments. Set-up is the time
from spawning the process until `load_config` returns; the command's time
is the rest, up to the moment the process has exited. Peak memory is the
process's own `ru_maxrss`. Configs, reports and traces live in a scratch
directory under perfbench/_work and are removed afterwards; traces are
written beside, never inside, a command's `--out` directory.
"""

from __future__ import annotations

import json
import os
import select
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import check
import spans as spanlib
from workloads import Command, operations

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"


class HarnessError(Exception):
    """The benchmark cannot run here (for instance, no hlab sources)."""


def child_env() -> dict:
    if not (SRC / "hlab" / "cli.py").is_file():
        raise HarnessError(f"no hlab sources under {SRC}")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass
class Process:
    rc: int
    setup_s: float
    run_s: float
    rss_mib: float


def run_process(argv: list[str], mode: str, trace: Path | None, work: Path, env: dict, deadline: float) -> Process:
    """Spawn child.py and wait for it (killed at `deadline`), reaping it with
    wait4 so its own resource usage is read."""
    meta = work / "meta.json"
    meta.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), str(meta), str(trace or "-"), mode, *argv]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, stdin=subprocess.DEVNULL, stdout=2)
    try:
        fd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([fd], [], [], max(0.0, deadline - time.monotonic()))
        finally:
            os.close(fd)
        if not ready:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    # a process that died before loading its config counts as all set-up
    setup_end = (json.loads(meta.read_text())["setup_end"] if meta.exists() else None) or end
    return Process(
        rc=proc.returncode,
        setup_s=setup_end - start,
        run_s=end - setup_end,
        rss_mib=usage.ru_maxrss / 1024,
    )


@dataclass
class CommandRun:
    command: Command
    process: Process
    outcome: check.Outcome


@dataclass
class Session:
    runs: list[CommandRun]
    layers: spanlib.SessionLayers | None = None

    @property
    def wall_s(self) -> float:
        return sum(r.process.run_s for r in self.runs)

    @property
    def peak_rss_mb(self) -> float:
        return max(r.process.rss_mib for r in self.runs)

    def command_s(self, label: str) -> float:
        return sum((r.process.run_s for r in self.runs if r.command.label == label), 0.0)


@dataclass
class Workspace:
    """A scratch directory for one benchmark run, removed on close."""

    env: dict
    deadline: float
    path: Path = field(init=False)

    def __post_init__(self):
        WORK.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))

    def close(self):
        shutil.rmtree(self.path, ignore_errors=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def write_config(self, index: int, command: Command) -> Path:
        path = self.path / f"config{index}.json"
        path.write_text(json.dumps(command.config))
        return path

    def probe(self, command: Command) -> Process:
        """Set-up alone: start, import hlab, load and validate the config."""
        config = self.write_config(0, command)
        return run_process(
            command.argv(str(config), str(self.path / "probe")), "probe", None, self.path, self.env, self.deadline
        )

    def session(self, commands: list[Command], traced: bool, references=None) -> Session:
        """Run every command once, in order, and check its outputs."""
        runs = []
        layers = spanlib.SessionLayers() if traced else None
        for i, command in enumerate(commands):
            config = self.write_config(i, command)
            out = self.path / f"out{i}"
            shutil.rmtree(out, ignore_errors=True)
            trace = self.path / f"trace{i}.jsonl" if traced else None
            process = run_process(command.argv(str(config), str(out)), "run", trace, self.path, self.env, self.deadline)
            reference = None if references is None else references[i]
            outcome = check.assess(command.name, str(out), process.rc, operations(command), reference)
            if traced and trace.exists():
                layers.add_process(*spanlib.read_trace(trace))
                trace.unlink()
            shutil.rmtree(out, ignore_errors=True)
            runs.append(CommandRun(command, process, outcome))
        return Session(runs, layers)


"""Schedules across a growing family: per-structure truncation levels, the
per-structure builds, the truncated algebraic closure, and the coarse
dimension series ln|H| / ln|M|.

A schedule is a finite ordered list of cover-formula profiles and a finite
ordered list of avoid-formula profiles, all taken over the family being
scheduled. Level n uses the first n+1 entries of each list, the top level
all of them. A structure's level is the largest n whose size threshold it
passes (with the extra size > C^n requirement in coarse-dim mode);
structures below every level get an empty H. In best_effort mode every
structure sits at the top level. `sequence` builds the whole schedule,
`build` and `axioms` its top level, all through build_sequence.

parallel_map, the package's one process pool, lives here: it forks its
workers once, gives each an interleaved share of the items, and reads back
one pickle per worker.
"""

from __future__ import annotations

import math
import os
import pickle
import sys
from dataclasses import dataclass, field

import numpy as np

from .asymptotics import MeasureProfile
from .errors import ConfigRejectedError
from .finitemodels import FiniteStructure
from .hgreedy import (
    BEST_EFFORT,
    STRICT,
    BuildReport,
    GreedyConfig,
    build_h,
    closures,
    derive_config,
    size_threshold_ok,
)

COARSE_DIM = "coarse-dim"


@dataclass
class PlanEntry:
    structure: FiniteStructure = field(repr=False)
    size: int
    level: int | None  # None encodes "below every threshold"
    report: BuildReport | None = None  # None until built, and for an entry below every level
    check_result: object = field(default=None, repr=False)  # build_sequence's check; never serialised

    def to_json_dict(self) -> dict:
        return {
            "size": self.size,
            "structure": self.structure.describe(),
            "level": self.level,
            "report": None if self.report is None else self.report.to_json_dict(),
        }


@dataclass
class SequencePlan:
    mode: str
    mu: float
    configs: dict[int, GreedyConfig]
    entries: list[PlanEntry]

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "mu": self.mu,
            "levels": {str(k): cfg.summary() for k, cfg in self.configs.items()},
            "entries": [e.to_json_dict() for e in self.entries],
        }


def schedule_in(
    family: list[FiniteStructure],
    cover: list[MeasureProfile],
    avoid: list[MeasureProfile],
    mu: float | None = None,
    mode: str = STRICT,
) -> SequencePlan:
    """Assign each structure of the family its truncation level; H is not
    built yet. The top level's config is derived first, from every profile
    (which must have been taken over this family), and fixes mu; level n's
    config takes the first n+1 profiles of each list at that mu. So a
    rejected config raises the top level's error: a prefix is never rejected.

    Levels are monotone in structure size on families where the threshold is
    monotone; an entry below every level keeps an empty H. In best_effort
    mode no threshold is tested and every entry sits at the top level.
    """
    if not cover or not avoid:
        raise ConfigRejectedError("schedule needs at least one cover and one avoid formula")
    top = derive_config(cover, avoid, mu)
    levels = range(max(len(cover), len(avoid)))
    configs = {n: derive_config(cover[: n + 1], avoid[: n + 1], top.mu) for n in levels[:-1]}
    configs[levels[-1]] = top
    entries = []
    for M in family:
        level = None
        for n in levels:
            cfg = configs[n]
            if mode != BEST_EFFORT and not size_threshold_ok(cfg, M).ok:
                continue
            if mode == COARSE_DIM and not M.size > cfg.c_delta_gamma**n:
                continue
            level = n
        entries.append(PlanEntry(structure=M, size=M.size, level=level))
    return SequencePlan(mode=mode, mu=top.mu, configs=configs, entries=entries)


def parallel_map(fn, items, threads: int) -> list:
    """[fn(item) for item in items], spread over up to `threads` forked
    worker processes; results keep the order of `items`.

    The workers are forked once, after stdout and stderr are flushed, so
    text written before the map appears once. Worker w runs the interleaved
    share items[w::workers] in order and stops at its first exception. It
    sends back one pickle, either its results or the failing index and the
    exception, and exits. So fn may be a lambda or a closure; only results
    and exceptions are pickled. The parent runs no item: it reads every
    worker's pickle, reaps every worker, and puts the results back in item
    order. A failure re-raises the exception of the lowest failing index,
    which is the one the serial map raises, with its type, message and
    attributes. A worker that dies, or sends a short or unreadable pickle,
    raises BrokenProcessPool; on that or any other exception in the parent,
    the workers still running are killed and reaped. The map runs in this
    process when threads <= 1, when there is at most one item, or where the
    platform cannot fork. This is the package's only pool. Under the CLI the
    workers inherit the heap that cli.main froze, so their collections skip
    the import-time objects.
    """
    items = list(items)
    workers = min(threads, len(items))
    if workers <= 1 or not hasattr(os, "fork"):
        return [fn(item) for item in items]
    import signal

    sys.stdout.flush()
    sys.stderr.flush()
    results = [None] * len(items)
    failed = None  # (index, exception) of the lowest failing index
    running = {}  # pid -> read end of the worker's result pipe, until reaped
    try:
        for w in range(workers):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                _run_share(fn, items[w::workers], w, workers, write)
            os.close(write)
            running[pid] = os.fdopen(read, "rb")
        for w, pid in enumerate(list(running)):
            data = running[pid].read()
            status = os.waitpid(pid, 0)[1]
            running.pop(pid).close()
            if status:
                code = os.waitstatus_to_exitcode(status)
                raise _broken_pool(f"worker {w} of {workers} died with exit status {code}")
            try:
                index, outcome = pickle.loads(data)
            except Exception as exc:
                raise _broken_pool(f"worker {w} of {workers} sent an unreadable result") from exc
            if index is None:
                results[w::workers] = outcome
            elif failed is None or index < failed[0]:
                failed = (index, outcome)
    finally:
        for pid, pipe in running.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if failed is not None:
        raise failed[1]
    return results


def _broken_pool(message: str):
    from concurrent.futures.process import BrokenProcessPool

    return BrokenProcessPool(message)


def _run_share(fn, share, first: int, step: int, write: int):
    """A forked worker's whole life: run fn over its share, write one pickle
    to the `write` end of its pipe, and exit without returning. The pickle
    holds (None, results), or (index, exception) for the first item that
    raised; a result or exception that cannot be pickled ends the worker
    with exit status 1 and a traceback on stderr."""
    code = 1
    try:
        results = []
        try:
            for item in share:
                results.append(fn(item))
            outcome = (None, results)
        except Exception as exc:
            outcome = (first + step * len(results), exc)
        with open(write, "wb") as pipe:
            pipe.write(pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL))
        code = 0
    except BaseException:
        import traceback

        traceback.print_exc()
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code)


def build_sequence(plan: SequencePlan, threads: int = 1, check=None) -> SequencePlan:
    """Build every scheduled structure at its level's config, one pooled job
    per structure: best_effort in a best_effort plan, strict otherwise.
    check(M, report, config), when given, runs in the job that built H, and
    its result is left on the entry as check_result. Results are attached in
    family order, so the plan is deterministic for any thread count."""
    mode = BEST_EFFORT if plan.mode == BEST_EFFORT else STRICT

    def job(entry):
        cfg = plan.configs[entry.level]
        report = build_h(entry.structure, cfg, mode)[1]
        return report, None if check is None else check(entry.structure, report, cfg)

    scheduled = [e for e in plan.entries if e.level is not None]
    results = parallel_map(job, scheduled, threads)
    for entry in plan.entries:
        entry.report, entry.check_result = None, None
    for entry, (report, result) in zip(scheduled, results):
        entry.report, entry.check_result = report, result
    return plan


def closure(M: FiniteStructure, h_elements, a_elements, gamma_trunc, *, max_solutions: int) -> list[int]:
    """clos(H union A) under the truncated avoid list, in index order: the
    one member list of closures, checked against the union bound at
    max_solutions, the config's B."""
    a_set = np.array([list(a_elements)], dtype=np.intp)
    return closures(M, h_elements, a_set, gamma_trunc, max_solutions=max_solutions).tolist()


@dataclass
class CoarseDimensionSeries:
    """Per structure (size, h_size, ln|H|/ln|M|) plus a windowed trend
    summary over the structures that actually built a non-empty H."""

    rows: list[tuple[int, int, float]]
    window: int
    first_ratio: float | None
    last_ratio: float | None
    first_window_avg: float | None
    last_window_avg: float | None
    nonincreasing: bool | None

    def to_json_dict(self) -> dict:
        return dict(vars(self), rows=[list(r) for r in self.rows])

    def csv_rows(self):
        yield ("size", "h_size", "ratio")
        for size, h_size, ratio in self.rows:
            yield (size, h_size, repr(float(ratio)))


def coarse_dimension_series(plan: SequencePlan, window: int = 3) -> CoarseDimensionSeries:
    """ln|H|/ln|M| per structure; 0 by convention when H is empty (and when
    |H| = 1, since ln 1 = 0)."""
    rows = []
    built = []
    for entry in plan.entries:
        h_size = 0 if entry.report is None else entry.report.h_size
        ratio = 0.0 if h_size < 1 else math.log(h_size) / math.log(entry.size)
        rows.append((entry.size, h_size, ratio))
        if h_size >= 1:
            built.append(ratio)
    if not built:
        return CoarseDimensionSeries(rows, window, None, None, None, None, None)
    w = min(window, len(built))
    first_avg = sum(built[:w]) / w
    last_avg = sum(built[-w:]) / w
    return CoarseDimensionSeries(
        rows=rows,
        window=w,
        first_ratio=built[0],
        last_ratio=built[-1],
        first_window_avg=first_avg,
        last_window_avg=last_avg,
        nonincreasing=last_avg <= first_avg + 1e-12,
    )

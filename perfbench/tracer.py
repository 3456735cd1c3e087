"""Spans around the public functions of every hlab module, installed from
outside the package: nothing under src/ knows about it.

`install()` wraps each function in TARGETS in its defining module and at
every import site inside the package (so `hlab.hgreedy.build_h` and
`hlab.cli.build_h` are both traced). folang's own `eval_bulk` recursion is
left alone; only the calls other modules make into it are spans. Each thread
keeps its own parent stack. Work submitted to a ThreadPoolExecutor by
hlab.cli or hlab.hsequence carries the submitting span as its parent and
the pool's id, so pool utilisation and self time stay correct under
threads. Spans stay in memory until `dump`.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

# (module, layer, functions); _util belongs to the cli layer
TARGETS = (
    (
        "finitemodels",
        "finitemodels",
        (
            "enumerate_family",
            "make_prime_field",
            "make_extension_field",
            "make_cyclic_group",
            "make_f2_vector_space",
        ),
    ),
    (
        "folang",
        "folang",
        (
            "parse_formula",
            "eval_bulk",
            "solution_set",
            "solution_count",
            "solution_mask_matrix",
            "solution_counts_all",
        ),
    ),
    ("asymptotics", "asymptotics", ("profile_family", "classify", "psi_set", "psi_columns")),
    (
        "hgreedy",
        "hgreedy",
        ("derive_config", "build_h", "greedy_step", "forbidden_set", "verify_cover", "verify_avoid"),
    ),
    ("hsequence", "hsequence", ("schedule_in", "build_sequence", "closure", "coarse_dimension_series")),
    (
        "haxioms",
        "haxioms",
        ("run_axiom_checks", "check_independence", "check_density", "check_extension"),
    ),
    (
        "lovelypair",
        "lovelypair",
        (
            "run_experiment",
            "make_report",
            "build_quadratic_pair",
            "phi_count",
            "subfield_violations",
            "experiment_summary",
        ),
    ),
    (
        "cli",
        "cli",
        (
            "main",
            "load_config",
            "cmd_profile",
            "cmd_build",
            "cmd_sequence",
            "cmd_axioms",
            "cmd_lovely_pair",
            "_build_family",
            "_write_csv",
        ),
    ),
    ("_util", "cli", ("atomic_write_text", "dump_json")),
)

# modules whose ThreadPoolExecutor is replaced by the tracing pool
POOL_MODULES = ("cli", "hsequence")


def _structure(args, kwargs, M):
    tables = list(M.functions.values()) + list(M.relations.values())
    return {
        "key": [M.family, sorted(M.params.items())],
        "table_bytes": sum(int(t.nbytes) for t in tables),
    }


def _profile(args, kwargs, profile):
    family, pf = args[0], args[1]
    return {
        "key": [
            pf.text,
            [M.size for M in family],
            profile.gap,
            profile.ceiling,
            kwargs.get("samples"),
            profile.seed,
        ]
    }


# per-function counts taken from the arguments and the result
ATTRS = {
    "make_prime_field": _structure,
    "make_extension_field": _structure,
    "make_cyclic_group": _structure,
    "make_f2_vector_space": _structure,
    "solution_mask_matrix": lambda args, kwargs, mask: {"cells": int(mask.size)},
    "profile_family": _profile,
    "build_h": lambda args, kwargs, result: {"h": len(result[0].elements)},
    "atomic_write_text": lambda args, kwargs, result: {"bytes": len(args[1].encode())},
}


class Recorder:
    def __init__(self):
        self.spans: list[dict] = []
        self.pools: list[dict] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self.pool_class = self._make_pool_class()

    def _next_id(self) -> int:
        with self._lock:
            return next(self._ids)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, name: str, fn, attrs=None):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = rec._stack()
            if stack:
                parent, pool = stack[-1], None
            else:
                parent, pool = getattr(rec._local, "handoff", None) or (None, None)
            sid = rec._next_id()
            stack.append(sid)
            done = False
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                span = {
                    "id": sid,
                    "parent": parent,
                    "layer": layer,
                    "name": name,
                    "start": start,
                    "end": end,
                }
                if pool is not None:
                    span["pool"] = pool
                if attrs is not None and done:
                    span.update(attrs(args, kwargs, result))
                with rec._lock:
                    rec.spans.append(span)

        return traced

    def _make_pool_class(self):
        rec = self

        class TracingPool(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self._record = {
                    "id": rec._next_id(),
                    "workers": self._max_workers,
                    "start": time.perf_counter_ns(),
                    "end": None,
                }
                with rec._lock:
                    rec.pools.append(self._record)

            def submit(self, fn, /, *args, **kwargs):
                stack = rec._stack()
                handoff = (stack[-1] if stack else None, self._record["id"])

                def task():
                    rec._local.handoff = handoff
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        rec._local.handoff = None

                return super().submit(task)

            def shutdown(self, *args, **kwargs):
                super().shutdown(*args, **kwargs)
                self._record["end"] = time.perf_counter_ns()

        return TracingPool

    def dump(self, path: str):
        with open(path, "w") as fh:
            for pool in self.pools:
                fh.write(json.dumps({"kind": "pool", **pool}) + "\n")
            for span in self.spans:
                fh.write(json.dumps({"kind": "span", **span}) + "\n")


def install() -> Recorder:
    """Wrap every target function at its definition and its import sites."""
    import hlab  # noqa: F401  (imports every module of the package)

    rec = Recorder()
    modules = [m for name, m in sys.modules.items() if name == "hlab" or name.startswith("hlab.")]
    for module_name, layer, names in TARGETS:
        home = sys.modules[f"hlab.{module_name}"]
        for name in names:
            original = getattr(home, name)
            wrapped = rec.wrap(layer, name, original, ATTRS.get(name))
            for module in modules:
                if name == "eval_bulk" and module is home:
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
    finitemodels = sys.modules["hlab.finitemodels"]
    for family, maker in list(finitemodels._MAKERS.items()):
        finitemodels._MAKERS[family] = getattr(finitemodels, maker.__name__)
    for module_name in POOL_MODULES:
        sys.modules[f"hlab.{module_name}"].ThreadPoolExecutor = rec.pool_class
    return rec

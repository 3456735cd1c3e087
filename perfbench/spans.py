"""Per-layer metrics from the span files that traced command processes
write (see tracer.py).

A layer's busy time is the summed duration of its spans that were not
called from the same layer; its self time is, over all its spans, each
span's duration minus the part of that interval its child spans cover.
Children of one span can run on several pool threads at once, so coverage
is the length of the union of their intervals.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter, defaultdict

NS = 1e9
LAYERS = ("finitemodels", "folang", "asymptotics", "hgreedy", "hsequence", "haxioms", "lovelypair", "cli")
WRITES = {"atomic_write_text", "dump_json", "_write_csv"}
STRUCTURE_MAKERS = {
    "make_prime_field",
    "make_extension_field",
    "make_cyclic_group",
    "make_f2_vector_space",
}

# exact counts: they repeat identically for the same workload and seed
COUNTS = (
    "finitemodels.structures_built",
    "finitemodels.table_mb",
    "folang.cells",
    "asymptotics.profile_calls",
    "hgreedy.steps",
    "hgreedy.h_total",
    "hsequence.closure_calls",
    "lovelypair.reports",
    "cli.report_bytes",
)


def covered(start: int, end: int, intervals) -> int:
    """Length of the union of `intervals`, clipped to [start, end]."""
    total = 0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the coverage of its children."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    return {
        s["id"]: s["end"] - s["start"] - covered(s["start"], s["end"], children[s["id"]])
        for s in spans
    }


def read_trace(path) -> tuple[list[dict], list[dict]]:
    spans, pools = [], []
    with open(path) as fh:
        for line in fh:
            record = json.loads(line)
            (spans if record.pop("kind") == "span" else pools).append(record)
    return spans, pools


def percentile(values, q: int) -> float:
    """The q-th percentile (inclusive method); 0 without samples."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class SessionLayers:
    """Accumulates the spans of one session's command processes."""

    def __init__(self):
        self.busy = Counter()
        self.self_ns = Counter()
        self.layer_calls = Counter()
        self.calls = Counter()
        self.time = Counter()
        self.structure_keys: list[str] = []
        self.profile_keys: list[str] = []
        self.table_bytes = 0
        self.cells = 0
        self.h_total = 0
        self.build_ns: list[int] = []
        self.report_bytes = 0
        self.write_ns = 0
        self.pool_busy = 0
        self.pool_capacity = 0

    def add_process(self, spans, pools):
        by_id = {s["id"]: s for s in spans}
        own = self_times(spans)
        for s in spans:
            dur = s["end"] - s["start"]
            layer, name = s["layer"], s["name"]
            parent = by_id.get(s["parent"])
            self.self_ns[layer] += own[s["id"]]
            if parent is None or parent["layer"] != layer:
                self.busy[layer] += dur
                self.layer_calls[layer] += 1
            self.calls[name] += 1
            self.time[name] += dur
            if name in STRUCTURE_MAKERS:
                self.structure_keys.append(json.dumps(s["key"]))
                self.table_bytes += s["table_bytes"]
            elif name == "solution_mask_matrix":
                self.cells += s.get("cells", 0)
            elif name == "profile_family":
                self.profile_keys.append(json.dumps(s["key"]))
            elif name == "build_h":
                self.h_total += s.get("h", 0)
                self.build_ns.append(dur)
            elif name == "atomic_write_text":
                self.report_bytes += s.get("bytes", 0)
            if name in WRITES and (parent is None or parent["name"] not in WRITES):
                self.write_ns += dur
            if "pool" in s:
                self.pool_busy += dur
        for pool in pools:
            if pool["end"] is not None:
                self.pool_capacity += pool["workers"] * (pool["end"] - pool["start"])

    def metrics(self) -> dict[str, float]:
        m = {}
        for layer in LAYERS:
            m[f"{layer}.busy_s"] = self.busy[layer] / NS
            m[f"{layer}.self_s"] = self.self_ns[layer] / NS
        built = len(self.structure_keys)
        m["finitemodels.structures_built"] = built
        m["finitemodels.distinct_ratio"] = len(set(self.structure_keys)) / built if built else 0.0
        m["finitemodels.table_mb"] = self.table_bytes / 2**20
        m["folang.calls"] = self.layer_calls["folang"]
        m["folang.cells"] = self.cells
        m["folang.ns_per_cell"] = self.time["solution_mask_matrix"] / self.cells if self.cells else 0.0
        profiles = len(self.profile_keys)
        m["asymptotics.profile_calls"] = profiles
        m["asymptotics.distinct_ratio"] = len(set(self.profile_keys)) / profiles if profiles else 0.0
        m["hgreedy.builds"] = self.calls["build_h"]
        m["hgreedy.steps"] = self.calls["greedy_step"]
        m["hgreedy.step_s"] = self.time["greedy_step"] / NS
        m["hgreedy.verify_s"] = (self.time["verify_cover"] + self.time["verify_avoid"]) / NS
        m["hgreedy.h_total"] = self.h_total
        m["hgreedy.build_p50_ms"] = percentile(self.build_ns, 50) / 1e6
        m["hgreedy.build_p90_ms"] = percentile(self.build_ns, 90) / 1e6
        m["hsequence.closure_calls"] = self.calls["closure"]
        m["haxioms.extension_s"] = self.time["check_extension"] / NS
        m["haxioms.density_s"] = self.time["check_density"] / NS
        m["haxioms.independence_s"] = self.time["check_independence"] / NS
        m["haxioms.checks"] = self.calls["run_axiom_checks"]
        m["lovelypair.reports"] = self.calls["make_report"]
        m["cli.write_s"] = self.write_ns / NS
        m["cli.report_bytes"] = self.report_bytes
        m["cli.pool_util"] = self.pool_busy / self.pool_capacity if self.pool_capacity else 0.0
        return m

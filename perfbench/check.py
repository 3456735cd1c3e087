"""Output check: the semantic results of each command, their invariants, and
the failure count the benchmark reports.

Results are read from the report files and reduced to the fields that
carry meaning (H elements, certificate verdicts with their method and
checked counts, coarse-dim rows, lovely-pair counts), so that a report
that gains new fields still compares equal. At the reference seed the
results must equal the stored reference; at every seed the invariants
below must hold.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field


class OutputError(Exception):
    """A report is missing or has an unexpected shape."""


def _load(out_dir: str, name: str):
    path = os.path.join(out_dir, name)
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise OutputError(f"cannot read {name}: {exc}") from exc


def _cover(certs):
    return [[c["formula"], c["method"], c["checked"], c["passed"]] for c in certs]


def _avoid(certs):
    return [[c["formula"], c["checked"], c["passed"]] for c in certs]


def _build(report):
    return {
        "size": report["size"],
        "h": report["h"],
        "cover": _cover(report["cover"]),
        "avoid": _avoid(report["avoid"]),
        "passed": report["all_passed"],
    }


def _profile_result(out_dir):
    return {
        "profiles": [
            {
                "formula": p["formula"],
                "E": p["E"],
                "C": p["C"],
                "B": p["B"],
                "structures": [
                    [s["size"], s["n_large"], s["n_algebraic"], s["enumerated"]]
                    for s in p["per_structure"]
                ],
            }
            for p in _load(out_dir, "profiles.json")
        ]
    }


def _build_result(out_dir):
    data = _load(out_dir, "build.json")
    return {"skipped": data["skipped_sizes"], "builds": [_build(r) for r in data["builds"]]}


def _sequence_result(out_dir):
    plan = _load(out_dir, "plan.json")
    series = _load(out_dir, "coarse_dim.json")
    return {
        "entries": [
            {
                "size": e["size"],
                "level": e["level"],
                "build": None if e["report"] is None else _build(e["report"]),
            }
            for e in plan["entries"]
        ],
        "rows": series["rows"],
        "window": series["window"],
    }


def _axioms_result(out_dir):
    data = _load(out_dir, "axioms.json")
    return {
        "skipped": data["skipped_sizes"],
        "reports": [
            {
                "size": r["size"],
                "independence": _avoid(r["independence"]["order_restricted"]["per_formula"]),
                "density": _cover(r["density"]["per_formula"]),
                "extension": [
                    r["extension"]["passed"],
                    r["extension"]["n_samples"],
                    len(r["extension"]["failures"]),
                ],
                "passed": r["passed"],
            }
            for r in data["reports"]
        ],
    }


def _lovely_pair_result(out_dir):
    data = _load(out_dir, "lovely_pair.json")
    return {
        "reports": [
            [r["p"], r["q"], r["a1"], r["a2"], r["phi_count"], r["subfield_violations"]]
            for r in data["reports"]
        ],
        "witnessed": data["summary"]["witnessed"],
    }


EXTRACT = {
    "profile": _profile_result,
    "build": _build_result,
    "sequence": _sequence_result,
    "axioms": _axioms_result,
    "lovely-pair": _lovely_pair_result,
}


def extract(command: str, out_dir: str) -> dict:
    """The command's semantic result, normalised through JSON."""
    try:
        result = EXTRACT[command](out_dir)
    except (KeyError, TypeError, IndexError) as exc:
        raise OutputError(f"unexpected report layout: {exc!r}") from exc
    return json.loads(json.dumps(result))


def failed_structures(command: str, result: dict) -> int:
    """Structures whose certificate or check failed."""
    if command == "build":
        return sum(not b["passed"] for b in result["builds"])
    if command == "sequence":
        return sum(e["build"] is not None and not e["build"]["passed"] for e in result["entries"])
    if command == "axioms":
        return sum(not r["passed"] for r in result["reports"])
    if command == "lovely-pair":
        return sum(v != 0 or 8 * phi < q for _, q, _, _, phi, v in result["reports"])
    return 0


def _falling(rows, window: int) -> bool:
    ratios = [ratio for _, h_size, ratio in rows if h_size >= 1]
    if not ratios:
        return False
    w = min(window, len(ratios))
    return sum(ratios[-w:]) / w <= sum(ratios[:w]) / w


def invariants(command: str, result: dict, operations: int) -> list[str]:
    """Seed-independent facts every run must show; each entry is a problem."""
    problems = []
    if command == "profile":
        reported = {len(p["structures"]) for p in result["profiles"]}
        if reported != {operations}:
            problems.append(f"profiles cover {sorted(reported)} structures, expected {operations}")
        return problems
    if command == "lovely-pair":
        if len(result["reports"]) != operations:
            problems.append(f"{len(result['reports'])} reports, expected {operations}")
        if not result["witnessed"]:
            problems.append("lovely pair not witnessed")
        return problems
    if command == "build":
        count = len(result["builds"]) + len(result["skipped"])
        covers = [c for b in result["builds"] for c in b["cover"]]
    elif command == "sequence":
        count = len(result["entries"])
        covers = [c for e in result["entries"] if e["build"] for c in e["build"]["cover"]]
        if not _falling(result["rows"], result["window"]):
            problems.append("coarse-dimension trend is not falling")
    else:
        count = len(result["reports"]) + len(result["skipped"])
        covers = [c for r in result["reports"] for c in r["density"]]
    if count != operations:
        problems.append(f"{count} structures reported, expected {operations}")
    inexact = [c[0] for c in covers if c[1] != "exhaustive"]
    if inexact:
        problems.append(f"cover check not exhaustive for {sorted(set(inexact))}")
    return problems


@dataclass
class Outcome:
    operations: int
    failed: int
    problems: list[str] = field(default_factory=list)
    result: dict | None = None


def assess(command: str, out_dir: str, rc: int, operations: int, reference=None) -> Outcome:
    """Check one command's outputs. A non-zero exit, unreadable reports, a
    broken invariant or a reference mismatch fails every structure of the
    command; otherwise each structure with a failed certificate fails."""
    if rc != 0:
        return Outcome(operations, operations, [f"exit code {rc}"])
    try:
        result = extract(command, out_dir)
    except OutputError as exc:
        return Outcome(operations, operations, [str(exc)])
    problems = invariants(command, result, operations)
    if reference is not None and result != reference:
        problems.append("result differs from the reference")
    failed = operations if problems else failed_structures(command, result)
    return Outcome(operations, failed, problems, result)

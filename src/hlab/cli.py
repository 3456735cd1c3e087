"""Batch front end: every experiment is a JSON config file plus a command.

Commands: profile, build, sequence, axioms, lovely-pair. Exit codes: 0 when
every certificate and check passes, 1 when a certificate failed (reports are
still written), 2 on configuration or construction errors. Reports are
written atomically and contain no timestamps, so a rerun with the same config
and seed is byte-identical at any thread count.
"""

from __future__ import annotations

import argparse
import csv
import gc
import glob
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields, replace
from functools import partial

import numpy as np

from ._util import _lex_tuples, atomic_write_text, dump_json, remove_stale
from .asymptotics import (
    DEFAULT_CEILING,
    DEFAULT_GAP,
    DEFAULT_SAMPLES,
    MeasureProfile,
    enumerated_counts,
    profile_family,
)
from .errors import (
    EmptyFamilyError,
    ExperimentConfigError,
    FormulaSyntaxError,
    FreeVariableError,
    LabError,
    SignatureMismatchError,
    where,
)
from .finitemodels import (
    CYCLIC_GROUP,
    EXTENSION_FIELD,
    F2_VECTOR_SPACE,
    FamilySpec,
    FAMILIES,
    enumerate_family,
    signature_for_family,
)
from .folang import BUDGET, ParamFormula, parse_formula, within_budget
from .hgreedy import BEST_EFFORT, STRICT, require_threshold
from .haxioms import DEFAULT_BASE_MAX, DEFAULT_EXTENSION_SAMPLES, run_axiom_checks
from .hsequence import COARSE_DIM, SequencePlan, build_sequence, coarse_dimension_series, schedule_in
from .lovelypair import csv_rows, experiment_summary, run_experiment

MODES = (STRICT, BEST_EFFORT, COARSE_DIM)
COMMANDS = ("profile", "build", "sequence", "axioms", "lovely-pair")

_FAMILY_KEYS = {"family", "lo", "hi", "values"}
# the least parameter each family builds from: a cyclic group's order, an F2
# space's dimension; the fields keep the primes of their range and drop the
# rest, and refuse a listed value that is none
_LEAST_PARAMETER = {CYCLIC_GROUP: 1, F2_VECTOR_SPACE: 1}
_FORMULA_KEYS = {"text", "object", "params"}


@dataclass
class ExperimentConfig:
    family: FamilySpec
    cover: list[ParamFormula] = field(default_factory=list)
    avoid: list[ParamFormula] = field(default_factory=list)
    mu: float | None = None
    gap: float = DEFAULT_GAP
    ceiling: float = DEFAULT_CEILING
    seed: int = 0
    mode: str = STRICT
    threads: int | None = None
    out_dir: str = "reports"
    profile_samples: int = DEFAULT_SAMPLES
    extension_samples: int = DEFAULT_EXTENSION_SAMPLES
    base_max: int = DEFAULT_BASE_MAX
    emit_counts: bool = False
    window: int = 3
    sweep_a1: bool = False


def _as_int(value) -> int:
    """A JSON integer, or a number with no fractional part; booleans,
    strings and fractions are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value != int(value):
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value)


def _as_float(value) -> float:
    """A JSON number, integers included; booleans and strings are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _is(kind: type, what: str):
    def check(value):
        if not isinstance(value, kind):
            raise TypeError(f"expected {what}, got {value!r}")
        return value

    return check


_TOP_KEYS = {f.name for f in fields(ExperimentConfig)}
# the most values one structure's sample draws hold: the budget's value at
# import, so lowering folang.BUDGET narrows evaluation blocks, never refuses a config
_MAX_DRAWS = BUDGET
# each scalar field is checked by its annotation; an `X | None` field takes null
_SCALARS = {"int": _as_int, "float": _as_float, "str": _is(str, "a string"), "bool": _is(bool, "true or false")}


def _reject_unknown(d: dict, allowed: set, place: str):
    unknown = set(d) - allowed
    if unknown:
        raise ExperimentConfigError(f"unknown key(s) {sorted(unknown)} in {place}")


def _parse_family(raw) -> FamilySpec:
    if not isinstance(raw, dict):
        raise ExperimentConfigError("'family' must be an object")
    _reject_unknown(raw, _FAMILY_KEYS, "family")
    if "family" not in raw:
        raise ExperimentConfigError("'family' needs a family tag")
    if raw["family"] not in FAMILIES:
        raise ExperimentConfigError(
            f"unknown family {raw['family']!r}; choose one of {list(FAMILIES)}"
        )
    values, lo, hi = raw.get("values"), raw.get("lo"), raw.get("hi")
    if values is not None and (lo is not None or hi is not None):
        raise ExperimentConfigError("family.values and family.lo/hi are both given; give one of them")
    spec = FamilySpec(
        family=raw["family"],
        lo=None if lo is None else _as_int(lo),
        hi=None if hi is None else _as_int(hi),
        values=None if values is None else tuple(_as_int(v) for v in values),
    )
    least = _LEAST_PARAMETER.get(spec.family)
    named = [] if spec.values is not None or spec.lo is None else [("family.lo", spec.lo)]
    named += [(f"family.values[{i}]", v) for i, v in enumerate(spec.values or ())]
    for key, value in named:
        if least is not None and value < least:
            raise ExperimentConfigError(f"{key} = {value} is below {least}, the least {spec.family} parameter")
    # every value is listed, and each one tested or built, before anything is
    # filtered, so the budget bounds how many values there are, how large,
    # and the universe of the largest; a value within the budget is small
    # enough to raise 2 to
    counts, tops = [], []
    if spec.values is not None:
        counts.append(len(spec.values))
        tops.append(max(spec.values, default=0))
    if spec.lo is not None and spec.hi is not None:
        counts.append(spec.hi - spec.lo + 1)
        tops.append(spec.hi)
    if not all(map(within_budget, counts + tops)) or not all(within_budget(spec.universe(v)) for v in tops):
        raise ExperimentConfigError(
            f"family lo={spec.lo}, hi={spec.hi} with {len(spec.values or ())} listed values: "
            "more values, or a larger universe, than the evaluation budget"
        )
    if spec.values is not None:  # a range drops what is no parameter; a list may hold none
        kept = set(spec.parameters())
        for i, value in enumerate(spec.values):
            if value not in kept:
                raise ExperimentConfigError(f"family.values[{i}] = {value} is not a {spec.family} parameter")
    return spec


def _parse_formula_entry(raw, sig, place: str) -> ParamFormula:
    """The formula at `place` of the config; a formula that does not parse
    names its place and text."""
    if isinstance(raw, str):
        text, options = raw, {}
    elif isinstance(raw, dict):
        _reject_unknown(raw, _FORMULA_KEYS, place)
        if "text" not in raw:
            raise ExperimentConfigError(f"{place}: formula object needs 'text'")
        object_var, params = raw.get("object", "x"), raw.get("params")
        if not isinstance(object_var, str):
            raise ExperimentConfigError(f"{place}: 'object' must be a string, got {object_var!r}")
        if params is not None and not (isinstance(params, list) and all(isinstance(v, str) for v in params)):
            raise ExperimentConfigError(f"{place}: 'params' must be a list of strings, got {params!r}")
        text = raw["text"]
        options = {"object_var": object_var, "params": None if params is None else tuple(params)}
    else:
        raise ExperimentConfigError(f"{place}: formula must be a string or an object")
    try:
        return parse_formula(text, sig, **options)
    except (FormulaSyntaxError, SignatureMismatchError, FreeVariableError) as exc:
        shown = text if len(text) <= 40 else text[:40] + "..."
        raise ExperimentConfigError(f"{exc}, in {place} {shown!r}") from exc


def _parse_formula_list(raw, sig, key: str) -> list[ParamFormula]:
    if not isinstance(raw, list):
        raise ExperimentConfigError(f"{key!r} must be a list of formulas")
    return [_parse_formula_entry(entry, sig, f"{key}[{i}]") for i, entry in enumerate(raw)]


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate the whole config before any work starts."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ExperimentConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ExperimentConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ExperimentConfigError("config must be a JSON object")
    _reject_unknown(raw, _TOP_KEYS, "config")
    if "family" not in raw:
        raise ExperimentConfigError("config needs a 'family' entry")
    if raw.get("mode", STRICT) not in MODES:
        raise ExperimentConfigError(f"mode must be one of {MODES}, got {raw['mode']!r}")
    try:
        family = _parse_family(raw["family"])
        sig = signature_for_family(family.family)
        cover = _parse_formula_list(raw.get("cover", []), sig, "cover")
        avoid = _parse_formula_list(raw.get("avoid", []), sig, "avoid")
        scalars = {}
        for f in fields(ExperimentConfig):
            kind, _, optional = f.type.partition(" | ")
            if f.name in raw and kind in _SCALARS:
                value = raw[f.name]
                scalars[f.name] = None if optional and value is None else _SCALARS[kind](value)
        cfg = ExperimentConfig(family=family, cover=cover, avoid=avoid, **scalars)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ExperimentConfigError(f"bad value in config: {exc}") from exc
    return _check_ranges(cfg)


def _check_ranges(cfg: ExperimentConfig) -> ExperimentConfig:
    """Reject a numeric setting outside its range, also after an override."""
    for name, value in (("mu", cfg.mu), ("gap", cfg.gap)):
        if value is not None and not 0.0 < value < 1.0:
            raise ExperimentConfigError(f"{name} must lie strictly between 0 and 1, got {value}")
    if not 0.0 < cfg.ceiling < math.inf:
        raise ExperimentConfigError(f"ceiling must be positive and finite, got {cfg.ceiling}")
    if cfg.threads is not None and cfg.threads < 1:
        raise ExperimentConfigError(f"threads must be null or at least 1, got {cfg.threads}")
    lows = {"profile_samples": 1, "extension_samples": 0, "base_max": 0, "window": 1, "seed": 0}
    for name, low in lows.items():
        value = getattr(cfg, name)
        if value < low:
            raise ExperimentConfigError(f"{name} must be at least {low}, got {value}")
    # a profile's sample of tuples, and the extension check's 10 tuples per
    # sample (past the budget) and base, ell the largest cover arity
    ell = max((pf.arity for pf in cfg.cover), default=0)
    draws = {
        "profile_samples": cfg.profile_samples * max((pf.arity for pf in cfg.cover + cfg.avoid), default=0),
        "extension_samples": cfg.extension_samples * (10 * ell + cfg.base_max),
    }
    for name, values in draws.items():
        if values > _MAX_DRAWS:
            raise ExperimentConfigError(f"{name} = {getattr(cfg, name)} draws {values} values, over {_MAX_DRAWS}")
    return cfg


def _csv_text(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _write_csv(path: str, rows):
    atomic_write_text(path, _csv_text(rows))


def _require(cfg: ExperimentConfig, cover: bool, avoid: bool, command: str):
    if cover and not cfg.cover:
        raise ExperimentConfigError(f"{command!r} needs at least one cover formula")
    if avoid and not cfg.avoid:
        raise ExperimentConfigError(f"{command!r} needs at least one avoid formula")


def _profiles(cfg: ExperimentConfig, family, formulas) -> list[MeasureProfile]:
    """One profile per formula over the family, with the config's options."""
    return [
        profile_family(
            family, pf, cfg.gap, ceiling=cfg.ceiling, samples=cfg.profile_samples, seed=cfg.seed
        )
        for pf in formulas
    ]


def _counts_csv(profiles: list[MeasureProfile], family) -> str:
    """counts.csv: a header, then one row per parameter tuple of each
    structure a profile counted exhaustively, joined one block per
    (formula, structure) and then once as a whole."""
    blocks = ["formula,size,params,count,class\n"]
    classes = ("algebraic\n", "large\n")
    for prof in profiles:
        formula = _csv_text([(prof.formula,)])[:-1]  # quoted as csv quotes it
        for M in family:
            stored = enumerated_counts(prof, M)
            if stored is None:
                continue
            counts, large = stored
            head = f"{formula},{M.size},"
            cols = _lex_tuples(np.arange(len(counts)), M.size, prof.pf.arity).tolist()
            params = map(" ".join, zip(*[map(str, c) for c in cols])) if cols else [""]
            rows = zip(params, counts.tolist(), large.tolist())
            blocks.append("".join([f"{head}{p},{c},{classes[g]}" for p, c, g in rows]))
    return "".join(blocks)


def cmd_profile(cfg: ExperimentConfig, out_dir: str) -> int:
    _require(cfg, cover=True, avoid=False, command="profile")
    family = enumerate_family(cfg.family)
    profiles = _profiles(cfg, family, cfg.cover + cfg.avoid)
    atomic_write_text(
        os.path.join(out_dir, "profiles.json"),
        dump_json([p.to_json_dict() for p in profiles]),
    )
    counts = os.path.join(out_dir, "counts.csv")
    if cfg.emit_counts:
        atomic_write_text(counts, _counts_csv(profiles, family))
    else:
        remove_stale(counts)
    return 0


def _schedule(cfg: ExperimentConfig) -> SequencePlan:
    """The config's schedule: the family enumerated, both formula lists
    profiled over it once, and every structure given its level."""
    family = enumerate_family(cfg.family)
    cover, avoid = _profiles(cfg, family, cfg.cover), _profiles(cfg, family, cfg.avoid)
    return schedule_in(family, cover, avoid, cfg.mu, mode=cfg.mode)


def _build_family(cfg: ExperimentConfig, threads: int, check=None):
    """Build the top level of the config's schedule (every structure in
    best_effort mode); check(M, report, config), when given, runs in the
    job that built H. Returns the top level's config, its built entries,
    and the sizes of the other entries."""
    if cfg.mode == COARSE_DIM:
        raise ExperimentConfigError("mode 'coarse-dim' applies to the sequence command")
    plan = _schedule(cfg)
    top = len(plan.configs) - 1
    built = [e for e in plan.entries if e.level == top]
    build_sequence(replace(plan, entries=built), threads, check)
    return plan.configs[top], built, [e.size for e in plan.entries if e.level != top]


def cmd_build(cfg: ExperimentConfig, out_dir: str, threads: int) -> int:
    _require(cfg, cover=True, avoid=True, command="build")
    gcfg, built, skipped = _build_family(cfg, threads)
    payload = {
        "config": gcfg.summary(),
        "mode": cfg.mode,
        "skipped_sizes": skipped,
        "builds": [e.report.to_json_dict() for e in built],
    }
    atomic_write_text(os.path.join(out_dir, "build.json"), dump_json(payload))
    hsets = {os.path.join(out_dir, "hsets", f"h_{e.size}.txt"): e.report.h_elements for e in built}
    for path, h in hsets.items():
        atomic_write_text(path, "".join(f"{e}\n" for e in h))
    for path in glob.glob(os.path.join(glob.escape(out_dir), "hsets", "h_[0-9]*.txt")):
        if path not in hsets:
            remove_stale(path)
    return 0 if all(e.report.all_passed for e in built) else 1


def cmd_sequence(cfg: ExperimentConfig, out_dir: str, threads: int) -> int:
    _require(cfg, cover=True, avoid=True, command="sequence")
    if cfg.mode == BEST_EFFORT:
        raise ExperimentConfigError(
            "sequence schedules by threshold; use mode 'strict' or 'coarse-dim'"
        )
    plan = _schedule(cfg)
    if all(e.level is None for e in plan.entries):
        # every structure fails every level, so the largest fails level 0
        largest = plan.entries[-1].structure
        with where(structure=largest.describe()):
            require_threshold(plan.configs[0], largest)
    build_sequence(plan, threads=threads)
    series = coarse_dimension_series(plan, window=cfg.window)
    atomic_write_text(os.path.join(out_dir, "plan.json"), dump_json(plan.to_json_dict()))
    _write_csv(os.path.join(out_dir, "coarse_dim.csv"), series.csv_rows())
    atomic_write_text(
        os.path.join(out_dir, "coarse_dim.json"), dump_json(series.to_json_dict())
    )
    reports = [e.report for e in plan.entries if e.report is not None]
    return 0 if all(r.all_passed for r in reports) else 1


def cmd_axioms(cfg: ExperimentConfig, out_dir: str, threads: int) -> int:
    _require(cfg, cover=True, avoid=True, command="axioms")

    check = partial(run_axiom_checks, extension_samples=cfg.extension_samples, base_max=cfg.base_max, seed=cfg.seed)
    gcfg, built, skipped = _build_family(cfg, threads, check)
    reports = [e.check_result for e in built]
    payload = {
        "config": gcfg.summary(),
        "skipped_sizes": skipped,
        "reports": [r.to_json_dict() for r in reports],
    }
    atomic_write_text(os.path.join(out_dir, "axioms.json"), dump_json(payload))
    failure_rows = [("size", "kind", "formula", "witness")]
    for r in reports:
        failure_rows.extend(r.failure_csv_rows())
    failures = os.path.join(out_dir, "failures.csv")
    if len(failure_rows) > 1:
        _write_csv(failures, failure_rows)
    else:
        remove_stale(failures)
    build_ok = all(e.report.all_passed for e in built)
    return 0 if build_ok and all(r.passed for r in reports) else 1


def cmd_lovely_pair(cfg: ExperimentConfig, out_dir: str) -> int:
    spec = cfg.family
    if spec.family != EXTENSION_FIELD:
        raise ExperimentConfigError("lovely-pair needs a quadratic-extension-field family")
    p_list = spec.parameters()
    if not p_list:
        raise EmptyFamilyError(f"lovely-pair family {spec} has no odd prime")
    reports = run_experiment(p_list, sweep_a1=cfg.sweep_a1)
    summary = experiment_summary(reports)
    _write_csv(os.path.join(out_dir, "lovely_pair.csv"), csv_rows(reports))
    atomic_write_text(
        os.path.join(out_dir, "lovely_pair.json"),
        dump_json({"summary": summary, "reports": [r.to_json_dict() for r in reports]}),
    )
    return 0 if summary["witnessed"] else 1


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hlab",
        description="Greedy generic-witness sets over finite structure families",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="experiment config (JSON)")
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument("--seed", type=int, default=None, help="seed override")
    parser.add_argument("--threads", type=int, default=None, help="worker process cap (forked; serial where fork is unavailable)")
    parser.add_argument("--mode", choices=MODES, default=None, help="mode override")
    return parser


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if not gc.get_freeze_count():
            # the import-time heap lives until exit: keep it out of every
            # later collection, the ones at interpreter exit included
            gc.freeze()
        if args.seed is not None:
            cfg.seed = args.seed
        if args.threads is not None:
            cfg.threads = args.threads
        _check_ranges(cfg)
        if args.mode is not None:
            cfg.mode = args.mode
        out_dir = args.out if args.out is not None else cfg.out_dir
        threads = cfg.threads or os.cpu_count() or 1
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise ExperimentConfigError(f"cannot create output directory {out_dir!r}: {exc}") from exc
        if args.command == "profile":
            return cmd_profile(cfg, out_dir)
        if args.command == "build":
            return cmd_build(cfg, out_dir, threads)
        if args.command == "sequence":
            return cmd_sequence(cfg, out_dir, threads)
        if args.command == "axioms":
            return cmd_axioms(cfg, out_dir, threads)
        return cmd_lovely_pair(cfg, out_dir)
    except LabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Empirical measure profiles for parametrized formulas over a family.

For each structure we count solutions over all parameter tuples (or a seeded
uniform sample when the tuple space is large). Counts are explained by a
finite set of measures E plus an error envelope of width C * sqrt(size), or
by a uniform algebraicity bound B. Measure discovery runs from the largest
structure downward: the largest structure's normalized counts are clustered
by a gap threshold; observations from smaller structures join the nearest
measure when their residual stays under the ceiling, and otherwise establish
a new measure. Cluster measures are size-weighted means, so large structures
dominate the estimate.

The large set Ψ of a formula, its parameter tuples classified large, is
named by the formula's profile alone, which carries the formula as `pf`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._util import _lex_tuples
from .errors import (
    ClassificationGapError,
    EmptyFamilyError,
    EnumerationBudgetError,
    NotOneDimensionalError,
)
from .finitemodels import FiniteStructure
from .folang import (
    ParamFormula,
    count_columns,
    solution_count,
    solution_counts_all,
    within_budget,
)

DEFAULT_GAP = 0.05
DEFAULT_CEILING = 2.0
DEFAULT_SAMPLES = 10_000
MAX_MEASURES = 8


@dataclass
class StructureStats:
    size: int
    max_residual: float
    n_algebraic: int
    n_large: int
    enumerated: bool


@dataclass
class MeasureProfile:
    """The empirical (E, C) data for one formula over one family."""

    formula: str
    E: list[float]
    C: float
    B: int | None
    per_structure: list[StructureStats]
    gap: float
    ceiling: float
    seed: int
    pf: ParamFormula = field(repr=False)
    _counts: dict = field(default_factory=dict, repr=False)
    # (structure key, large tuples, their counts): psi_columns' last result
    _psi: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def uniformly_algebraic(self) -> bool:
        return not self.E

    def min_measure(self) -> float:
        if not self.E:
            raise ValueError(f"formula {self.formula!r} has no measures")
        return min(self.E)

    def to_json_dict(self) -> dict:
        return {
            "formula": self.formula,
            "E": [float(m) for m in self.E],
            "C": float(self.C),
            "B": None if self.B is None else int(self.B),
            "per_structure": [
                {
                    "size": s.size,
                    "max_residual": float(s.max_residual),
                    "n_algebraic": s.n_algebraic,
                    "n_large": s.n_large,
                    "enumerated": s.enumerated,
                }
                for s in self.per_structure
            ],
            "gap": float(self.gap),
            "seed": int(self.seed),
        }


@dataclass(frozen=True)
class ParamClass:
    """Verdict for one parameter tuple: algebraic with its count, or large
    with the measure it sits on."""

    kind: str  # "algebraic" | "large"
    count: int
    measure: float | None = None

    @property
    def is_large(self) -> bool:
        return self.kind == "large"


def _structure_key(M: FiniteStructure):
    return (M.family, M.size, tuple(sorted(M.params.items())))


def sample_columns(M: FiniteStructure, pf: ParamFormula, rng, samples: int):
    """Draw `samples` parameter tuples from `rng` (a numpy Generator, or a
    seed for a new one) and drop repeats. Returns the unique tuples as an
    (arity, m) index array in lexicographic order and their solution counts."""
    rng = np.random.default_rng(rng)
    cols = np.unique(rng.integers(0, M.size, size=(samples, pf.arity)), axis=0).T
    return cols, count_columns(M, pf, cols)


def _observe(M: FiniteStructure, pf: ParamFormula, samples: int, seed: int):
    """Counts for every parameter tuple (enumerated) or a deduplicated seeded
    sample. Returns (counts, enumerated)."""
    if within_budget(M.size**pf.arity):
        return solution_counts_all(M, pf), True
    return sample_columns(M, pf, [seed, M.size], max(samples, 1))[1], False


def profile_family(
    family: list[FiniteStructure],
    pf: ParamFormula,
    gap: float = DEFAULT_GAP,
    *,
    ceiling: float = DEFAULT_CEILING,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> MeasureProfile:
    """Fit (E, C, B) to the observed counts of one formula over a family."""
    if len(family) < 2:
        members = ", ".join(M.describe() for M in family) or "none"
        raise EmptyFamilyError(
            f"formula {pf.text!r}: profiling needs at least two structures, "
            f"the family has {len(family)} ({members})"
        )
    by_size = sorted(family, key=lambda m: m.size, reverse=True)

    observed = []  # (structure, counts array, enumerated flag)
    for M in by_size:
        counts, enumerated = _observe(M, pf, samples, seed)
        observed.append((M, counts, enumerated))

    # per measure: the summed counts and the summed universe sizes of its
    # members; both are integers below 2**53, so float64 sums are exact in
    # any order and each measure is their quotient
    sum_counts = np.zeros(0)
    sum_sizes = np.zeros(0)
    B: int | None = None

    def first_stray_cluster(indices: np.ndarray, normalized: np.ndarray) -> np.ndarray:
        """Indices of the lowest gap-cluster among the given normalized values."""
        order = np.argsort(normalized, kind="stable")
        svals = normalized[order]
        splits = np.flatnonzero(np.diff(svals) > gap)
        end = (splits[0] + 1) if len(splits) else len(svals)
        return indices[order[:end]]

    # Pass 1: the largest structure fixes the initial picture.
    M0, counts0, _ = observed[0]
    counts0 = np.asarray(counts0, dtype=np.int64)
    norm0 = counts0 / M0.size
    order = np.argsort(norm0, kind="stable")
    splits = np.flatnonzero(np.diff(norm0[order]) > gap)
    for seg in np.split(order, splits + 1):
        if norm0[seg].max() < gap:
            top = int(counts0[seg].max())
            B = top if B is None else max(B, top)
        else:
            sum_counts = np.append(sum_counts, counts0[seg].sum())
            sum_sizes = np.append(sum_sizes, len(seg) * M0.size)

    # Pass 2: remaining structures join measures, extend B, or open new ones.
    for M, counts, _ in observed[1:]:
        n = M.size
        sqrt_n = math.sqrt(n)
        counts = np.asarray(counts, dtype=np.int64)
        todo = np.ones(len(counts), dtype=bool)
        if B is not None:
            todo &= counts > B
        while todo.any():
            rest = np.flatnonzero(todo)
            if len(sum_counts):
                mus = sum_counts / sum_sizes
                resid = np.abs(counts[rest, None] - mus[None, :] * n) / sqrt_n
                arg = resid.argmin(axis=1)
                join = resid.min(axis=1) <= ceiling
                sum_counts += np.bincount(arg[join], counts[rest[join]], len(mus))
                sum_sizes += np.bincount(arg[join], minlength=len(mus)) * n
                todo[rest[join]] = False
                rest = rest[~join]
            if not len(rest):
                break
            normalized = counts[rest] / n
            small = normalized < gap
            if small.any():
                new_b = int(counts[rest[small]].max())
                B = new_b if B is None else max(B, new_b)
                todo[rest[small]] = False
                rest = rest[~small]
                normalized = normalized[~small]
            if not len(rest):
                continue
            if len(sum_counts) >= MAX_MEASURES:
                raise NotOneDimensionalError(
                    f"formula {pf.text!r}: more than {MAX_MEASURES} measures needed "
                    f"at size {n}; not asymptotically one-dimensional at this scale",
                    offenders=[(n, int(c)) for c in counts[rest][:10]],
                )
            # open one new measure from the lowest unexplained cluster; its
            # founders are assigned to it so the loop always makes progress
            members = first_stray_cluster(rest, normalized)
            sum_counts = np.append(sum_counts, counts[members].sum())
            sum_sizes = np.append(sum_sizes, len(members) * n)
            todo[members] = False

    E = sorted(sum_counts / sum_sizes)
    merged: list[float] = []
    for m in E:
        if merged and abs(m - merged[-1]) < 1e-9:
            continue
        merged.append(m)
    E = merged

    # Fit C: smallest envelope constant explaining every large observation.
    max_residual = 0.0
    worst = []
    stats = []
    mus = np.array(E) if E else np.empty(0)
    for M, counts, enumerated in observed:
        n = M.size
        counts = np.asarray(counts, dtype=np.int64)
        sqrt_n = math.sqrt(n)
        if B is not None:
            alg_mask = counts <= B
        else:
            alg_mask = np.zeros(len(counts), dtype=bool)
        lg = ~alg_mask
        struct_max = 0.0
        if lg.any():
            if not len(mus):
                raise NotOneDimensionalError(
                    f"formula {pf.text!r}: counts above the algebraic bound with no measures",
                    offenders=[(n, int(c)) for c in counts[lg][:10]],
                )
            resid = np.abs(counts[lg, None] - mus[None, :] * n).min(axis=1) / sqrt_n
            struct_max = float(resid.max())
            if struct_max > max_residual:
                max_residual = struct_max
            worst.append((struct_max, n))
        stats.append(
            StructureStats(
                size=n,
                max_residual=struct_max,
                n_algebraic=int(alg_mask.sum()),
                n_large=int(lg.sum()),
                enumerated=enumerated,
            )
        )

    C = (math.floor(max_residual * 100) + 1) / 100.0
    if max_residual > ceiling:
        worst.sort(reverse=True)
        raise NotOneDimensionalError(
            f"formula {pf.text!r}: envelope needs C = {max_residual:.3f} > ceiling "
            f"{ceiling}; not asymptotically one-dimensional at this scale",
            offenders=worst[:5],
        )
    if B is not None and E:
        smallest = min(m.size for m in family)
        if B >= min(E) * smallest:
            raise NotOneDimensionalError(
                f"formula {pf.text!r}: algebraic bound {B} overlaps the measure "
                f"envelope at size {smallest}"
            )

    stats.sort(key=lambda s: s.size)
    profile = MeasureProfile(
        formula=pf.key(),
        E=[float(m) for m in E],
        C=C,
        B=B,
        per_structure=stats,
        gap=gap,
        ceiling=ceiling,
        seed=seed,
        pf=pf,
    )
    for M, counts, enumerated in observed:
        if enumerated:
            profile._counts[_structure_key(M)] = np.asarray(counts, dtype=np.int64)
    return profile


def _classify_counts(profile: MeasureProfile, size: int, counts: np.ndarray):
    """Vectorized classification. Returns (large mask, measure indices).
    Raises on counts in the forbidden gap."""
    counts = np.asarray(counts, dtype=np.int64)
    alg = counts <= profile.B if profile.B is not None else np.zeros(len(counts), bool)
    if profile.E:
        mus = np.array(profile.E)
        resid = np.abs(counts[:, None] - mus[None, :] * size)
        nearest = resid.argmin(axis=1)
        within = resid.min(axis=1) < profile.C * math.sqrt(size)
    else:
        nearest = np.zeros(len(counts), dtype=np.int64)
        within = np.zeros(len(counts), bool)
    large = within & ~alg
    gap_mask = ~alg & ~large
    if gap_mask.any():
        i = int(np.flatnonzero(gap_mask)[0])
        raise ClassificationGapError(
            f"count {int(counts[i])} at size {size} falls outside both the "
            f"algebraic bound (B={profile.B}) and every measure envelope "
            f"(E={profile.E}, C={profile.C}); the profile is defective here"
        )
    return large, nearest


def classify(profile: MeasureProfile, M: FiniteStructure, params=()) -> ParamClass:
    """Classify one parameter tuple by counting."""
    count = solution_count(M, profile.pf, params)
    large, nearest = _classify_counts(profile, M.size, np.array([count]))
    if large[0]:
        return ParamClass("large", count, float(profile.E[int(nearest[0])]))
    return ParamClass("algebraic", count)


def psi_set(M: FiniteStructure, profile: MeasureProfile) -> list[tuple[int, ...]]:
    """All parameter tuples classified large, in lexicographic order: the
    columns of psi_columns as tuples."""
    return [tuple(int(v) for v in col) for col in psi_columns(M, profile)[0].T]


def enumerated_counts(profile: MeasureProfile, M: FiniteStructure):
    """The solution count of every parameter tuple of M in lexicographic
    order, as profiling counted them, and the mask of those classified large;
    None when profiling sampled M or did not see it."""
    counts = profile._counts.get(_structure_key(M))
    return None if counts is None else (counts, _classify_counts(profile, M.size, counts)[0])


def psi_columns(M: FiniteStructure, profile: MeasureProfile):
    """Every parameter tuple of the profiled formula classified large, as an
    (arity, m) index array in lexicographic order, and the solution count of
    each. Raises EnumerationBudgetError when the tuple space exceeds the one
    evaluation budget.

    The profile keeps the result for the last structure it was asked about,
    as read-only arrays, so a build and the checks after it classify and
    decode Ψ once; memory holds at most one Ψ per profile."""
    n, k = M.size, profile.pf.arity
    if not within_budget(n**k):
        raise EnumerationBudgetError(f"psi enumeration needs {n**k} tuples, over the budget")
    key = _structure_key(M)
    if profile._psi is not None and profile._psi[0] == key:
        return profile._psi[1:]
    profile._psi = None  # drop the last structure's Ψ before computing this one
    counts = profile._counts.get(key)
    if counts is None:
        counts = solution_counts_all(M, profile.pf)
    flats = np.flatnonzero(_classify_counts(profile, n, counts)[0])
    cols, large = _lex_tuples(flats, n, k), counts[flats]
    cols.flags.writeable = large.flags.writeable = False
    profile._psi = (key, cols, large)
    return cols, large


def large_columns(M: FiniteStructure, profile: MeasureProfile, rng, samples: int):
    """The large parameter tuples an extension check draws from, with their
    solution counts: psi_columns when the tuple space fits the budget,
    otherwise the large tuples among `samples` drawn by sample_columns from
    `rng`."""
    try:
        return psi_columns(M, profile)
    except EnumerationBudgetError:
        cols, counts = sample_columns(M, profile.pf, rng, samples)
        large, _ = _classify_counts(profile, M.size, counts)
        return cols[:, large], counts[large]

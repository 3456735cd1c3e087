"""Empirical measure profiles for parametrized formulas over a family.

For each structure we count solutions over all parameter tuples (or a seeded
uniform sample when the tuple space is large) and keep the count histogram:
each distinct count with its number of tuples. A translation kernel has |G|
solutions at every tuple, so its histogram is {|G|: n^k} from its
folang.kernel record alone (its sample, past the budget, is drawn but not
evaluated), and its profile keeps that one count per structure. Counts are
explained by a finite set of measures E plus an error envelope of width
C * sqrt(size), or by a uniform algebraicity bound B. Measure discovery runs
from the largest structure downward: the largest structure's normalized
counts are clustered by a gap threshold; observations from smaller
structures join the nearest measure when their residual stays under the
ceiling, and otherwise establish a new measure. Cluster measures are
size-weighted means, so large structures dominate the estimate. Every
decision reads a count alone, so the histogram fit equals the fit over one
count per tuple.

The large set Ψ of a formula, its parameter tuples classified large, is
named by the formula's profile alone, which carries the formula as `pf`,
and psi_columns is the one routine that names it. A kernel's Ψ is all of
M^k or empty; all of it is named by the formula's folang.Kernel record,
exact at every size, since a tuple t is covered by h exactly when u(t) lies
in the record's reach(h) = h - G. Any other formula's Ψ is enumerated tuple
by tuple within the budget.
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
    Kernel,
    ParamFormula,
    count_columns,
    kernel,
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
    # structure key -> every tuple's count, or |G| alone for a kernel; only
    # for the structures counted exhaustively
    _counts: dict = field(default_factory=dict, repr=False)
    # (structure key, large tuples, their counts): psi_columns' last result,
    # for a formula off the kernel rule
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
    """The count histogram of one structure over every parameter tuple
    (enumerated) or a deduplicated seeded sample: (counts, tuples,
    enumerated, kept), the distinct counts ascending, the number of tuples
    with each, and what enumerated_counts expands (None when sampled). A
    translation kernel has |G| solutions at every tuple, so it keeps |G|
    alone, and count_columns gives its sample |G| without evaluating it;
    any other formula keeps its enumerated counts."""
    n, k = M.size, pf.arity
    enumerated = within_budget(n**k)
    record = kernel(M, pf)
    if record is not None and enumerated:
        return np.array([len(record.base)]), np.array([n**k]), True, len(record.base)
    if enumerated:
        counts = solution_counts_all(M, pf)
    else:
        counts = sample_columns(M, pf, [seed, n], max(samples, 1))[1]
    return (*np.unique(counts, return_counts=True), enumerated, counts if enumerated else None)


def _fit(text: str, observed, gap: float, ceiling: float):
    """Fit (E, C, B) to count histograms, one per structure, largest first:
    (size, counts, tuples, enumerated), with the distinct counts ascending
    and the number of parameter tuples with each. Returns E, C, B and the
    per-structure stats in size order. Every decision reads a count alone,
    so a distinct count decides for all of its tuples; sums weight it by
    their number. tests/profile_oracle.py keeps the same fit over one count
    per tuple."""
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
    n0, counts0, tuples0, _ = observed[0]
    norm0 = counts0 / n0
    for seg in np.split(np.arange(len(counts0)), np.flatnonzero(np.diff(norm0) > gap) + 1):
        if norm0[seg].max() < gap:
            top = int(counts0[seg].max())
            B = top if B is None else max(B, top)
        else:
            sum_counts = np.append(sum_counts, (counts0[seg] * tuples0[seg]).sum())
            sum_sizes = np.append(sum_sizes, tuples0[seg].sum() * n0)

    # Pass 2: remaining structures join measures, extend B, or open new ones.
    for n, counts, tuples, _ in observed[1:]:
        sqrt_n = math.sqrt(n)
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
                joined = rest[join]
                sum_counts += np.bincount(arg[join], counts[joined] * tuples[joined], len(mus))
                sum_sizes += np.bincount(arg[join], tuples[joined], len(mus)) * n
                todo[joined] = False
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
                    f"formula {text!r}: more than {MAX_MEASURES} measures needed "
                    f"at size {n}; not asymptotically one-dimensional at this scale",
                    offenders=[(n, int(c)) for c in counts[rest][:10]],
                )
            # open one new measure from the lowest unexplained cluster; its
            # founders are assigned to it so the loop always makes progress
            members = first_stray_cluster(rest, normalized)
            sum_counts = np.append(sum_counts, (counts[members] * tuples[members]).sum())
            sum_sizes = np.append(sum_sizes, tuples[members].sum() * n)
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
    for n, counts, tuples, enumerated in observed:
        sqrt_n = math.sqrt(n)
        alg_mask = counts <= B if B is not None else np.zeros(len(counts), dtype=bool)
        lg = ~alg_mask
        struct_max = 0.0
        if lg.any():
            if not len(mus):
                raise NotOneDimensionalError(
                    f"formula {text!r}: counts above the algebraic bound with no measures",
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
                n_algebraic=int(tuples[alg_mask].sum()),
                n_large=int(tuples[lg].sum()),
                enumerated=enumerated,
            )
        )

    C = (math.floor(max_residual * 100) + 1) / 100.0
    if max_residual > ceiling:
        worst.sort(reverse=True)
        raise NotOneDimensionalError(
            f"formula {text!r}: envelope needs C = {max_residual:.3f} > ceiling "
            f"{ceiling}; not asymptotically one-dimensional at this scale",
            offenders=worst[:5],
        )
    if B is not None and E:
        smallest = min(n for n, *_ in observed)
        if B >= min(E) * smallest:
            raise NotOneDimensionalError(
                f"formula {text!r}: algebraic bound {B} overlaps the measure "
                f"envelope at size {smallest}"
            )
    stats.sort(key=lambda s: s.size)
    return E, C, B, stats


def profile_family(
    family: list[FiniteStructure],
    pf: ParamFormula,
    gap: float = DEFAULT_GAP,
    *,
    ceiling: float = DEFAULT_CEILING,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> MeasureProfile:
    """Fit (E, C, B) to the observed count histograms of one formula over a
    family."""
    if len(family) < 2:
        members = ", ".join(M.describe() for M in family) or "none"
        raise EmptyFamilyError(
            f"formula {pf.text!r}: profiling needs at least two structures, "
            f"the family has {len(family)} ({members})"
        )
    kept = {}
    observed = []
    for M in sorted(family, key=lambda m: m.size, reverse=True):
        counts, tuples, enumerated, keep = _observe(M, pf, samples, seed)
        observed.append((M.size, counts, tuples, enumerated))
        if keep is not None:
            kept[_structure_key(M)] = keep
    E, C, B, stats = _fit(pf.text, observed, gap, ceiling)
    return MeasureProfile(
        formula=pf.key(),
        E=[float(m) for m in E],
        C=C,
        B=B,
        per_structure=stats,
        gap=gap,
        ceiling=ceiling,
        seed=seed,
        pf=pf,
        _counts=kept,
    )


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
    columns of psi_columns as tuples, a kernel's all of M^k."""
    n, k = M.size, profile.pf.arity
    psi = psi_columns(M, profile)
    cols = _lex_tuples(np.arange(n**k), n, k) if isinstance(psi, Kernel) else psi[0]
    return [tuple(int(v) for v in col) for col in cols.T]


def enumerated_counts(profile: MeasureProfile, M: FiniteStructure):
    """The solution count of every parameter tuple of M in lexicographic
    order, as profiling counted them, and the mask of those classified large;
    None when profiling sampled M or did not see it. A kernel's one count is
    expanded here."""
    counts = profile._counts.get(_structure_key(M))
    if counts is None:
        return None
    if isinstance(counts, int):
        counts = np.full(M.size**profile.pf.arity, counts, dtype=np.int64)
    return counts, _classify_counts(profile, M.size, counts)[0]


def psi_columns(M: FiniteStructure, profile: MeasureProfile):
    """Ψ, the parameter tuples of the profiled formula classified large.

    A translation kernel has |G| solutions at every tuple, so its Ψ is all
    of M^k or none of it: the formula's folang.Kernel record when |G|
    classifies large, exact at every size and never over the budget, and an
    empty (arity, 0) Ψ otherwise. Any other formula's Ψ is an (arity, m)
    index array of its tuples in lexicographic order and the solution count
    of each; EnumerationBudgetError when the tuple space exceeds the one
    evaluation budget. The profile keeps that result for the last structure
    it was asked about, as read-only arrays, so a build and the checks after
    it classify and decode Ψ once; memory holds at most one Ψ per profile."""
    n, k = M.size, profile.pf.arity
    record = kernel(M, profile.pf)
    if record is not None:
        if _classify_counts(profile, n, np.array([len(record.base)]))[0][0]:
            return record
        return np.empty((k, 0), dtype=np.intp), np.empty(0, dtype=np.int64)
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
    """The large parameter tuples an extension check draws from, as (width,
    low, take): their number, their smallest solution count, and take(j),
    the tuples at positions j of their lexicographic order as an (arity,
    len(j)) index array. Within the budget they are psi_columns', a kernel's
    all n^k tuples, decoded from j through _lex_tuples; past it they are the
    large tuples among `samples` drawn by sample_columns from `rng`, as they
    are for a kernel too, whose draws then keep their tuples."""
    n, k = M.size, profile.pf.arity
    if within_budget(n**k):
        psi = psi_columns(M, profile)
        if isinstance(psi, Kernel):
            return n**k, len(psi.base), lambda j: _lex_tuples(j, n, k)
        cols, counts = psi
    else:
        cols, counts = sample_columns(M, profile.pf, rng, samples)
        large, _ = _classify_counts(profile, n, counts)
        cols, counts = cols[:, large], counts[large]
    return cols.shape[1], int(counts.min()) if len(counts) else None, lambda j: cols[:, j]

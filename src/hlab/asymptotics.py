"""Empirical measure profiles for parametrized formulas over a family.

For each structure we keep the count histogram, each distinct count with its
number of tuples, exact wherever folang.count_histogram gives one: a
translation kernel's {|G|: n^k} at every size, one count at the zero tuple
with no Kernel record built, and any other formula's counts over every
parameter tuple within the budget. Only past the budget, off the kernel
rule, is a seeded uniform sample of tuples counted instead. A profile keeps
only its fit: enumerated counts stay cached on the structure by
folang.solution_counts_all. Counts are explained by a
finite set of measures E plus an error envelope of width C * sqrt(size), or
by a uniform algebraicity bound B. Measure discovery runs from the largest
structure downward: the largest structure's normalized counts are clustered
by a gap threshold; observations from smaller structures join the nearest
measure when their residual stays under the ceiling, and otherwise
establish a new measure. Cluster measures are size-weighted means, so large
structures dominate the estimate, and their sums are exact integers.
Every decision reads a count alone, so the histogram fit equals the fit
over one count per tuple.

The large set Ψ of a formula, its parameter tuples classified large, is
named by the formula's profile alone, which carries the formula as `pf`,
and psi_columns is the one routine that turns counts into Ψ: a kernel's Ψ
is its Kernel record (all of M^k, exact at every size) or empty, any other
formula's the Columns decoded, within the budget, from the solution counts
of every tuple. large_columns gives the extension check that record, or
past the budget Columns of a seeded sample: one protocol for either.

One rule classifies a count, _classify_count; an array of counts is
decided one distinct count at a time through it (_large_mask).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._util import _lex_tuples
from .errors import ClassificationGapError, EmptyFamilyError, EnumerationBudgetError, NotOneDimensionalError, where
from .finitemodels import FiniteStructure
from .folang import (
    Columns,
    Kernel,
    ParamFormula,
    count_columns,
    count_histogram,
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
            "per_structure": [dict(vars(s), max_residual=float(s.max_residual)) for s in self.per_structure],
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


def sample_columns(M: FiniteStructure, pf: ParamFormula, rng, samples: int):
    """Draw `samples` parameter tuples from `rng` (a numpy Generator, or a
    seed for a new one) and drop repeats. Returns the unique tuples as an
    (arity, m) index array in lexicographic order and their solution counts."""
    rng = np.random.default_rng(rng)
    cols = np.unique(rng.integers(0, M.size, size=(samples, pf.arity)), axis=0).T
    return cols, count_columns(M, pf, cols)


def _observe(M: FiniteStructure, pf: ParamFormula, samples: int, seed: int):
    """The count histogram of one structure over every parameter tuple
    (enumerated), or over a deduplicated seeded sample where count_histogram
    has no exact one: (counts, tuples, enumerated), the distinct counts
    ascending and the number of tuples with each."""
    exact = count_histogram(M, pf)
    if exact is not None:
        return (*exact, True)
    counts = sample_columns(M, pf, [seed, M.size], max(samples, 1))[1]
    return (*np.unique(counts, return_counts=True), False)


def _runs(pairs, n: int, gap: float) -> list[list[tuple[int, int]]]:
    """The (count, tuples) pairs, counts ascending, cut into gap-clusters:
    runs whose normalized counts count / n rise by at most gap per step."""
    runs = []
    for c, t in pairs:
        if not runs or c / n - runs[-1][-1][0] / n > gap:
            runs.append([])
        runs[-1].append((c, t))
    return runs


def _fit(observed, gap: float, ceiling: float):
    """Fit (E, C, B) to count histograms, one per structure, largest first:
    (size, counts, tuples, enumerated), with the distinct counts ascending
    and the number of parameter tuples with each. Returns E, C, B and the
    per-structure stats in size order. Every decision reads a count alone,
    so a distinct count decides for all of its tuples; sums weight it by
    their number. The sums are Python ints, so each measure is the
    correctly rounded quotient of exact sums at any size.
    tests/profile_oracle.py keeps the same fit over one count per tuple."""
    observed = [(n, list(zip(map(int, counts), map(int, tuples))), e) for n, counts, tuples, e in observed]
    sums = []  # per measure: [summed counts, summed universe sizes] of its members
    B: int | None = None

    def open_measure(members, n):
        sums.append([sum(c * t for c, t in members), n * sum(t for _, t in members)])

    # Pass 1: the largest structure fixes the initial picture.
    n0, pairs0, _ = observed[0]
    for run in _runs(pairs0, n0, gap):
        if run[-1][0] / n0 < gap:
            B = max(B or 0, run[-1][0])
        else:
            open_measure(run, n0)

    # Pass 2: remaining structures join measures, extend B, or open new ones.
    for n, pairs, _ in observed[1:]:
        sqrt_n = math.sqrt(n)
        todo = [(c, t) for c, t in pairs if B is None or c > B]
        while todo:
            mus, rest = [s / z for s, z in sums], []  # each pair joins its nearest measure as they stand
            for c, t in todo:
                resid = [abs(c - mu * n) / sqrt_n for mu in mus]
                nearest = min(resid, default=math.inf)
                if nearest <= ceiling:
                    i = resid.index(nearest)
                    sums[i] = [sums[i][0] + c * t, sums[i][1] + t * n]
                else:
                    rest.append((c, t))
            small = [c for c, _ in rest if c / n < gap]  # a prefix, as the counts ascend
            if small:
                B = max(B or 0, small[-1])
            todo = rest[len(small) :]
            if not todo:
                break
            if len(sums) >= MAX_MEASURES:
                raise NotOneDimensionalError(
                    f"more than {MAX_MEASURES} measures needed "
                    f"at size {n}; not asymptotically one-dimensional at this scale",
                    offenders=[(n, c) for c, _ in todo[:10]],
                )
            # open one new measure from the lowest unexplained cluster; its
            # founders are assigned to it so the loop always makes progress
            founders = _runs(todo, n, gap)[0]
            open_measure(founders, n)
            todo = todo[len(founders) :]

    E: list[float] = []
    for m in sorted(s / z for s, z in sums):
        if not (E and abs(m - E[-1]) < 1e-9):
            E.append(m)

    # Fit C: smallest envelope constant explaining every large observation.
    max_residual, worst, stats = 0.0, [], []
    for n, pairs, enumerated in observed:
        large = [(c, t) for c, t in pairs if B is None or c > B]
        struct_max = 0.0
        if large and not E:
            raise NotOneDimensionalError(
                "counts above the algebraic bound with no measures", offenders=[(n, c) for c, _ in large[:10]]
            )
        if large:
            struct_max = max(min(abs(c - mu * n) for mu in E) for c, _ in large) / math.sqrt(n)
            max_residual = max(max_residual, struct_max)
            worst.append((struct_max, n))
        n_large = sum(t for _, t in large)
        n_algebraic = sum(t for _, t in pairs) - n_large
        stats.append(StructureStats(n, struct_max, n_algebraic, n_large, enumerated))

    C = (math.floor(max_residual * 100) + 1) / 100.0
    if max_residual > ceiling:
        worst.sort(reverse=True)
        raise NotOneDimensionalError(
            f"envelope needs C = {max_residual:.3f} > ceiling "
            f"{ceiling}; not asymptotically one-dimensional at this scale",
            offenders=worst[:5],
        )
    if B is not None and E:
        smallest = min(n for n, *_ in observed)
        if B >= min(E) * smallest:
            raise NotOneDimensionalError(f"algebraic bound {B} overlaps the measure envelope at size {smallest}")
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
    family; a LabError names the formula."""
    with where(formula=pf.text):
        if len(family) < 2:
            members = ", ".join(M.describe() for M in family) or "none"
            raise EmptyFamilyError(
                f"profiling needs at least two structures, the family has {len(family)} ({members})"
            )
        observed = [
            (M.size, *_observe(M, pf, samples, seed))
            for M in sorted(family, key=lambda m: m.size, reverse=True)
        ]
        E, C, B, stats = _fit(observed, gap, ceiling)
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
    )


def _gap_error(profile: MeasureProfile, size: int, count: int) -> ClassificationGapError:
    return ClassificationGapError(
        f"count {count} at size {size} falls outside both the "
        f"algebraic bound (B={profile.B}) and every measure envelope "
        f"(E={profile.E}, C={profile.C}); the profile is defective here"
    )


def _classify_count(profile: MeasureProfile, size: int, count: int) -> tuple[bool, int]:
    """The classification rule: (large, index of the nearest measure) for
    one count, in Python floats, which round as float64 does. A count at
    most B is algebraic, one within C * sqrt(size) of some measure's
    mu * size large, and any other raises ClassificationGapError."""
    resid = [abs(count - mu * size) for mu in profile.E]
    nearest = resid.index(min(resid)) if resid else 0
    if profile.B is not None and count <= profile.B:
        return False, nearest
    if resid and resid[nearest] < profile.C * math.sqrt(size):
        return True, nearest
    raise _gap_error(profile, size, count)


def _large_mask(profile: MeasureProfile, size: int, counts: np.ndarray) -> np.ndarray:
    """Which of `counts` classify large, each distinct count decided once
    by _classify_count. Counts lie in 0..size, so np.bincount lists the
    distinct ones (np.unique would import numpy.ma, see hgreedy._distinct)."""
    counts = np.asarray(counts, dtype=np.intp)
    seen = np.bincount(counts)
    large = np.zeros(len(seen), dtype=bool)
    for count in np.flatnonzero(seen).tolist():
        large[count] = _classify_count(profile, size, count)[0]
    return large[counts]


def classify(profile: MeasureProfile, M: FiniteStructure, params=()) -> ParamClass:
    """Classify one parameter tuple by counting."""
    count = solution_count(M, profile.pf, params)
    large, nearest = _classify_count(profile, M.size, count)
    if large:
        return ParamClass("large", count, float(profile.E[nearest]))
    return ParamClass("algebraic", count)


def psi_set(M: FiniteStructure, profile: MeasureProfile) -> list[tuple[int, ...]]:
    """All parameter tuples classified large, in lexicographic order: the
    tuples of psi_columns, a kernel's all of M^k."""
    psi = psi_columns(M, profile)
    return [tuple(int(v) for v in col) for col in psi.take(np.arange(psi.width))[0].T]


def enumerated_counts(profile: MeasureProfile, M: FiniteStructure):
    """The solution count of every parameter tuple of M in lexicographic
    order, as solution_counts_all gives them, and the mask of those
    classified large; None when the n^k tuples exceed the budget."""
    if not within_budget(M.size**profile.pf.arity):
        return None
    counts = solution_counts_all(M, profile.pf)
    return counts, _large_mask(profile, M.size, counts)


def psi_columns(M: FiniteStructure, profile: MeasureProfile) -> Kernel | Columns:
    """Ψ, the parameter tuples of the profiled formula classified large. A
    kernel's tuples all have |G| solutions, so its Ψ is its Kernel record
    (all of M^k, exact at every size) when |G| classifies large, else empty
    Columns. Any other formula's Ψ is Columns of the large tuples in
    lexicographic order with their solution counts, decoded on each call
    from the counts cached on the structure; EnumerationBudgetError when its
    n^k tuples exceed the budget."""
    pf, n, k = profile.pf, M.size, profile.pf.arity
    record = kernel(M, pf)
    if record is not None:
        if _classify_count(profile, n, record.low)[0]:
            return record
        return Columns(M, pf, np.empty((k, 0), dtype=np.intp), np.empty(0, dtype=np.int64))
    if not within_budget(n**k):
        raise EnumerationBudgetError(f"psi enumeration needs {n**k} tuples, over the budget")
    counts = solution_counts_all(M, pf)
    flats = np.flatnonzero(_large_mask(profile, n, counts))
    return Columns(M, pf, _lex_tuples(flats, n, k), counts[flats])


def large_columns(M: FiniteStructure, profile: MeasureProfile, rng, samples: int) -> Kernel | Columns:
    """The large parameter tuples an extension check draws from, as a Ψ
    record: psi_columns' within the budget (a kernel decodes them from
    their positions), past it Columns of the large tuples among `samples`
    drawn by sample_columns from `rng`, as they are for a kernel too, whose
    draws then keep their tuples and counts."""
    if within_budget(M.size**profile.pf.arity):
        return psi_columns(M, profile)
    cols, counts = sample_columns(M, profile.pf, rng, samples)
    large = _large_mask(profile, M.size, counts)
    return Columns(M, profile.pf, cols[:, large], counts[large])

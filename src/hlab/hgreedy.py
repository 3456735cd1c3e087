"""Greedy construction of an ordered set H that covers the large parameters
of every cover formula and avoids every algebraic formula, with a logarithmic
size bound.

The builder walks the cover formulas in order. For the current formula it
keeps the set Y of still-uncovered large parameter tuples, and among the
eligible elements X = M minus (H union L), L the forbidden set clos(H) (all
solutions of avoid formulas over parameters drawn from the current H, plus
solutions of parameterless avoid formulas), appends the element covering
the most tuples of Y, smallest index winning ties. Under the size threshold
each step shrinks Y by a factor of at least (1 - mu/2), which forces
|H| <= n_formulas * h_M <= C * ln|M|.

Each step costs what it changes. Coverage, the number of tuples of Y each
element would cover, is one incremental count (Minoux 1978) over the index
space of Ψ's folang record: a translation kernel's shifts, weighted by its
pushforward(), or the columns of any other formula's Ψ. A step zeroes the
weights of what it covers, and the next count subtracts their row sums, or
recounts what is left when that is less. A kernel's row sums are the
convolution 1_G * w over M's additive group, by shifted sums when G or its
complement has a few elements and by one real FFT pair otherwise, checked
exact, so no array holds a tuple; any other formula's are read from its
grid. H union L is build state, one mask over the universe kept across
every step and phase: build_h seeds it with clos of the empty H, the
solutions of the parameterless avoid formulas, and a step adds its element
and the solutions at the avoid tuples that use it (_block), never
recomputing L.

The forbidden set from scratch is the same kind of mask (_forbidden), which
forbidden_set lists. Every truncated closure clos(H union A) is a member
list: folang.solution_pairs lists the solutions of each avoid tuple, and
closures() keeps them as sorted distinct codes set * |M| + element, each
closure's length checked against its union bound at the caller's B, which
GreedyConfig derives from its avoid profiles.

Every build returns certificates: an exhaustive cover check per cover
formula (for a kernel over its shifts, which checks every tuple), an
exhaustive order-restricted avoid check per avoid formula, which also keeps
the symmetric witnesses its grid finds, the size bound, and the per-step
shrink factors.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ._util import tuple_columns
from .asymptotics import MeasureProfile, psi_columns
from .errors import (
    ConfigRejectedError,
    InvariantError,
    StructureTooSmallError,
    ThresholdNotMetError,
    where,
)
from .finitemodels import FiniteStructure
from .folang import (
    ParamFormula,
    column_blocks,
    solution_mask_matrix,
    solution_pairs,
)

STRICT = "strict"
BEST_EFFORT = "best_effort"


@dataclass
class GreedyConfig:
    """The cover and avoid profiles and the measure floor; every other
    constant is derived from them. Logs are natural throughout."""

    mu: float
    delta_profiles: tuple[MeasureProfile, ...]
    gamma_profiles: tuple[MeasureProfile, ...]

    @property
    def delta(self) -> tuple[ParamFormula, ...]:
        return tuple(prof.pf for prof in self.delta_profiles)

    @property
    def gamma(self) -> tuple[ParamFormula, ...]:
        return tuple(prof.pf for prof in self.gamma_profiles)

    @property
    def n_formulas(self) -> int:
        return len(self.delta_profiles)

    @property
    def ell0(self) -> int:
        return max(pf.arity for pf in self.delta)

    @property
    def k0(self) -> int:
        return max(pf.arity for pf in self.gamma)

    @property
    def gamma_max_solutions(self) -> int:
        """B: the largest solution count of any avoid formula over any
        parameter tuple, counted exactly on every structure profiled. It
        bounds every closure the build and the checks form."""
        return max(prof.B or 0 for prof in self.gamma_profiles)

    @property
    def c_gamma(self) -> int:
        return self.gamma_max_solutions * len(self.gamma_profiles)

    @property
    def c_delta_gamma(self) -> int:
        return self.n_formulas * (math.ceil(self.ell0 / self.decay) + 1)

    @property
    def decay(self) -> float:
        return -math.log(1.0 - self.mu / 2.0)

    def h_m(self, size: int) -> int:
        """Phase step bound: ceil(ell0 * ln(size) / -ln(1 - mu/2)) + 1."""
        return math.ceil(self.ell0 * math.log(size) / self.decay) + 1

    def summary(self) -> dict:
        return {
            "cover": [pf.text for pf in self.delta],
            "avoid": [pf.text for pf in self.gamma],
            "mu": self.mu,
            "ell0": self.ell0,
            "k0": self.k0,
            "gamma_max_solutions": self.gamma_max_solutions,
            "c_gamma": self.c_gamma,
            "c_delta_gamma": self.c_delta_gamma,
        }


def derive_config(delta_profiles, gamma_profiles, mu: float | None) -> GreedyConfig:
    """Validate the profiles of the cover list (delta) and the avoid list
    (gamma), each profiled over the same family, and pick mu; the formulas
    are the profiles' own, in list order.

    Rejected when mu is not below every profiled measure of the cover list,
    or when an avoid formula is not uniformly algebraic on the family, or
    was counted on a sample of its tuples somewhere: a sample's B bounds
    only the tuples drawn.
    """
    delta_profiles = tuple(delta_profiles)
    gamma_profiles = tuple(gamma_profiles)
    if not delta_profiles or not gamma_profiles:
        raise ConfigRejectedError("need at least one cover and one avoid formula")
    for prof in delta_profiles:
        if prof.pf.arity == 0:
            raise ConfigRejectedError(f"cover formula {prof.pf.text!r} has no parameters")
    for prof in gamma_profiles:
        if not prof.uniformly_algebraic:
            raise ConfigRejectedError(
                f"avoid formula {prof.pf.text!r} is classified large somewhere "
                f"(measures {prof.E}); it must be uniformly algebraic"
            )
        sampled = [s.size for s in prof.per_structure if not s.enumerated]
        if sampled:
            raise ConfigRejectedError(
                f"avoid formula {prof.pf.text!r} was counted on a sample of its tuples at size "
                f"{sampled[0]}: its largest solution count B = {prof.B} bounds only the tuples drawn"
            )
    if mu is None:
        mu = default_mu(delta_profiles)
    if not 0.0 < mu < 1.0:
        raise ConfigRejectedError(f"measure floor mu={mu} must lie in (0, 1)")
    for prof in delta_profiles:
        if prof.E and mu >= prof.min_measure():
            raise ConfigRejectedError(
                f"mu={mu} is not below the smallest measure {prof.min_measure():.4f} "
                f"of cover formula {prof.pf.text!r}"
            )
    return GreedyConfig(mu=mu, delta_profiles=delta_profiles, gamma_profiles=gamma_profiles)


def default_mu(profiles) -> float:
    """The measure floor used when none is configured: half the smallest
    measure of any cover formula."""
    measures = [prof.min_measure() for prof in profiles if prof.E]
    if not measures:
        raise ConfigRejectedError("no cover formula has a measure; cannot pick mu")
    return min(measures) / 2.0


@dataclass
class ThresholdCheck:
    """Both threshold inequalities with their concrete sides."""

    ok: bool
    size: int
    h_m: int
    forbidden_bound: float  # c_gamma * (n*h_m + ell0)^k0
    mass_allowance: float  # (mu/2) * size
    headroom: float  # (1 - mu/2) * size
    h_budget: int  # n * h_m

    def to_json_dict(self) -> dict:
        return dict(vars(self))


def size_threshold_ok(cfg: GreedyConfig, M) -> ThresholdCheck:
    """True iff c_gamma*(n*h_M + ell0)^k0 <= (mu/2)*|M| and
    (1 - mu/2)*|M| > n*h_M."""
    size = getattr(M, "size", M)
    h = cfg.h_m(size)
    budget = cfg.n_formulas * h
    lhs = cfg.c_gamma * (budget + cfg.ell0) ** cfg.k0
    rhs = (cfg.mu / 2.0) * size
    headroom = (1.0 - cfg.mu / 2.0) * size
    ok = lhs <= rhs and headroom > budget
    return ThresholdCheck(
        ok=ok,
        size=size,
        h_m=h,
        forbidden_bound=float(lhs),
        mass_allowance=float(rhs),
        headroom=float(headroom),
        h_budget=budget,
    )


def require_threshold(cfg: GreedyConfig, M: FiniteStructure) -> ThresholdCheck:
    """size_threshold_ok, raising ThresholdNotMetError with mu and both inequalities below the threshold."""
    threshold = size_threshold_ok(cfg, M)
    if not threshold.ok:
        raise ThresholdNotMetError(
            f"size {M.size} is below the strict size threshold at mu = {cfg.mu}: forbidden bound "
            f"{threshold.forbidden_bound:.6g} vs allowance {threshold.mass_allowance:.6g}, "
            f"headroom {threshold.headroom:.6g} vs budget {threshold.h_budget}"
        )
    return threshold


def _distinct(parts) -> np.ndarray:
    """The sorted distinct values of the concatenated int arrays `parts`, by a
    sort and a neighbour mask: np.unique's first call imports numpy.ma,
    about 2 MiB resident, and its hash path on ints is slower than a sort."""
    codes = np.sort(np.concatenate([np.empty(0, dtype=np.intp), *parts]))
    keep = np.ones(len(codes), dtype=bool)
    keep[1:] = codes[1:] != codes[:-1]
    return codes[keep]


def _forbidden(M: FiniteStructure, gamma, h_elements) -> np.ndarray:
    """clos(H) as a mask over the universe: every element that solves some
    avoid formula with parameters drawn from h_elements (parameterless
    formulas always contribute: their one tuple is the empty one). The
    definition from scratch; a build grows its mask step by step, see _block."""
    mask = np.zeros(M.size, dtype=bool)
    for xi in gamma:
        cols = tuple_columns(h_elements, xi.arity)
        if cols.shape[1]:  # none when H is empty and xi has parameters
            mask[solution_pairs(M, xi, cols, np.zeros(cols.shape[1], dtype=np.intp))] = True
    return mask


# cached: a serial in-process `axioms` on configs/square_shift.json took a median
# 0.384 s with the cache and 0.415 s without it (5 alternating runs, 2 CPUs)
@functools.lru_cache(maxsize=1024)
def _fresh_layout(fresh: int, pool: int, arity: int) -> np.ndarray:
    """The tuples of length `arity` over positions range(pool) that use one
    of the first `fresh` positions, as a read-only (arity, m) array in
    lexicographic order: pool^arity - (pool - fresh)^arity of them."""
    grid = tuple_columns(range(pool), arity)
    layout = grid[:, (grid < fresh).any(axis=0)]
    layout.flags.writeable = False
    return layout


def _block(M: FiniteStructure, gamma, h_elements, mask: np.ndarray):
    """Grow `mask` from H union clos(H) for H = h_elements[:-1] to the same
    for all of h_elements: add the last element h and the solutions at the
    tuples over H that use h, |H|^k - (|H| - 1)^k at arity k. A
    parameterless formula has no such tuple: build_h's seed, clos of the
    empty H, holds its solutions."""
    pool = np.array([h_elements[-1], *h_elements[:-1]], dtype=np.intp)
    mask[pool[0]] = True
    for xi in gamma:
        if xi.arity:
            cols = pool[_fresh_layout(1, len(pool), xi.arity)]
            mask[solution_pairs(M, xi, cols, np.zeros(cols.shape[1], dtype=np.intp))] = True


def _union_bound(gamma, base_size, max_solutions: int):
    """max_solutions * |gamma| * (base_size + [some formula is parameterless])^k0,
    elementwise over an array of base sizes. No closure of a base of
    base_size elements is larger when no avoid formula has more than
    max_solutions solutions at any tuple."""
    k0 = max((pf.arity for pf in gamma), default=0)
    return max_solutions * len(gamma) * (base_size + any(pf.arity == 0 for pf in gamma)) ** k0


def closures(M: FiniteStructure, h_elements, a_sets, gamma, *, max_solutions: int) -> np.ndarray:
    """Every clos(H union A_i) under the avoid list, the finite stand-in for
    algebraic closure, as member lists: one sorted array of the distinct
    codes i * |M| + e, e a member of the i-th closure. a_sets is a
    (sets, width) index array, each row padded with -1. clos(H) is found
    once and listed for every set; the rest of each closure is the solutions
    outside clos(H) at the tuples that use an element of A_i minus H. Pool i
    lists those m_i fresh elements first, padded to the largest m_i, then H,
    so one layout of tuple positions serves every set: a tuple is emitted
    for set i when the last fresh position it uses is below m_i, for groups
    of sets of at most one evaluation block of parameters. Every closure's
    length is checked against _union_bound at max_solutions, the caller's
    bound on any avoid formula's solution count (GreedyConfig's B)."""
    gamma, n = list(gamma), M.size
    h = np.array(sorted({int(v) for v in h_elements}), dtype=np.intp)
    given = np.asarray(a_sets, dtype=np.intp)
    # sort each row and move padding, members of H and repeats to its end:
    # the first fresh[i] entries of row i are then A_i minus H, ascending
    rows = np.sort(given, axis=1)
    drop = (rows < 0) | np.isin(rows, h)
    drop[:, 1:] |= rows[:, 1:] == rows[:, :-1]
    fresh = rows.shape[1] - drop.sum(axis=1)
    rows[drop] = n
    rows.sort(axis=1)
    width = int(fresh.max(initial=0))
    pools = np.concatenate([rows[:, :width], np.broadcast_to(h, (len(rows), len(h)))], axis=1)
    blocked = _forbidden(M, gamma, h)
    core, outside = np.flatnonzero(blocked), ~blocked
    found = []
    for xi in gamma:
        layout = _fresh_layout(width, width + len(h), xi.arity)
        if not layout.size:
            continue  # a parameterless formula has no such tuple
        last = np.where(layout < width, layout, -1).max(axis=0)  # the last fresh position of each tuple
        for group in column_blocks(len(rows), layout.size):
            owner, at = np.nonzero(last < fresh[group, None])
            owner += group.start
            codes = solution_pairs(M, xi, pools[owner, layout[:, at]], owner)
            found.append(codes[outside[codes % n]])
    extra = _distinct(found)
    sizes = len(h) + fresh
    bounds = _union_bound(gamma, sizes, max_solutions)
    lengths = len(core) + np.bincount(extra // n, minlength=len(rows))
    over = np.flatnonzero(lengths > bounds)
    if len(over):
        i = over[0]
        raise InvariantError(
            f"avoid formulas {[pf.text for pf in gamma]}, closure of H plus "
            f"{sorted({int(v) for v in given[i] if v >= 0})} (a base of {sizes[i]}): "
            f"{lengths[i]} elements exceed the union bound {bounds[i]}"
        )
    listed = (np.arange(len(rows))[:, None] * n + core).ravel()
    return np.sort(np.concatenate([listed, extra]), kind="stable")  # two sorted runs, merged


def forbidden_set(h_elements, gamma, M: FiniteStructure) -> list[int]:
    """The forbidden set clos(H) in index order: the set greedy_step
    excludes besides H itself, listed from _forbidden's mask."""
    return np.flatnonzero(_forbidden(M, gamma, h_elements)).tolist()


class Coverage:
    """How many still-uncovered tuples Y of Ψ each element covers, for a Ψ
    from asymptotics.psi_columns. Y is a weight vector over Ψ's index space,
    starting as psi.pushforward(), and |Y| is unit times its sum, exact past
    2**63. A step zeroes the weights of the live positions that psi.solved
    finds h solves; the next counts() subtracts psi.counter()'s count of
    them, or recounts the weights left when those are fewer. Counting waits
    for counts(), so a convolution that is not exact fails in the step that
    reads it. For Columns this reads each column over the universe at most
    twice per phase, one block at a time, plus a row over Y per step."""

    def __init__(self, psi):
        self.psi, self.count = psi, psi.counter()
        self.unit, self.weights = psi.pushforward()
        self.live = np.flatnonzero(self.weights)  # the positions Y still weighs
        self.remaining = self.unit * int(self.weights.sum())
        self.totals, self.removed = None, None  # the counts, and the weights dropped since

    def counts(self) -> np.ndarray:
        """Each element's count in units of `unit`."""
        if self.totals is None:
            self.totals = self.count(self.weights)
        elif self.removed is not None:
            self.totals -= self.count(self.removed)
        self.removed = None
        return self.totals.copy()

    def cover(self, h: int):
        """Drop the tuples h covers."""
        hit = self.psi.solved([h], self.live)
        gone = self.live[hit]
        dropped = self.weights[gone]
        self.remaining -= self.unit * int(dropped.sum())
        if 2 * len(gone) > len(self.live):  # fewer positions left than covered
            self.totals = None
        elif self.totals is not None:
            if self.removed is None:
                self.removed = np.zeros_like(self.weights)
            self.removed[gone] = dropped
        self.weights[gone] = 0
        self.live = self.live[~hit]


@dataclass
class GreedyState:
    """One step of the construction: the current formula phase and the
    ordered H so far. `coverage` holds the phase's still-uncovered tuples Y
    and counts how many of them each element covers. `remaining` is |Y|.
    `blocked` is H union clos(H), the elements no step may append, as a
    mask over the universe: build_h seeds it once, with clos of the empty
    H, and hands it from phase to phase, and greedy_step grows it by each
    element it appends."""

    config: GreedyConfig
    formula_index: int
    step: int
    h_elements: list[int]
    provenance: list[tuple[int, int]]
    coverage: Coverage = field(repr=False)
    blocked: np.ndarray = field(repr=False)
    shrink_factors: list[float] = field(default_factory=list)

    @property
    def remaining(self) -> int:
        return self.coverage.remaining


def _phase_state(cfg: GreedyConfig, M: FiniteStructure, index: int, h, prov, blocked: np.ndarray) -> GreedyState:
    coverage = Coverage(psi_columns(M, cfg.delta_profiles[index]))
    return GreedyState(
        config=cfg, formula_index=index, step=0, h_elements=h, provenance=prov, coverage=coverage, blocked=blocked
    )


def greedy_step(state: GreedyState, M: FiniteStructure) -> GreedyState:
    """Append the argmax-coverage eligible element and drop what it covers.

    Ties break to the smallest canonical index, making the build
    deterministic regardless of how the coverage scan is partitioned.
    """
    if not state.remaining:
        raise ValueError("greedy_step called with no uncovered tuples")
    if state.blocked.all():
        raise StructureTooSmallError(f"no eligible element left at size {M.size}")
    counts = state.coverage.counts()
    counts[state.blocked] = -1
    h = int(np.argmax(counts))
    if counts[h] <= 0:
        raise StructureTooSmallError(f"no eligible element covers any remaining tuple at size {M.size}")
    before = state.remaining
    state.coverage.cover(h)
    state.shrink_factors.append(state.remaining / before)
    state.h_elements.append(h)
    _block(M, state.config.gamma, state.h_elements, state.blocked)
    state.provenance.append((state.formula_index, state.step))
    state.step += 1
    return state


@dataclass
class HSet:
    """The ordered output; order is construction order, provenance records
    the (formula phase, step) that appended each element."""

    elements: list[int]
    provenance: list[tuple[int, int]]

    def __len__(self):
        return len(self.elements)


@dataclass
class CoverCertificate:
    formula: str
    method: str  # always "exhaustive"; kept so reports keep their bytes
    checked: int
    failures: list[tuple]
    passed: bool

    def to_json_dict(self) -> dict:
        return dict(vars(self))


@dataclass
class AvoidCertificate:
    formula: str
    checked: int
    violations: list[tuple]
    passed: bool
    witnesses: list[tuple] = field(default_factory=list, repr=False)  # symmetric (h, *params); never serialised

    def to_json_dict(self) -> dict:
        return {key: value for key, value in vars(self).items() if key != "witnesses"}


@dataclass
class BuildReport:
    size: int
    structure: str
    mode: str
    mu: float
    threshold: ThresholdCheck
    phases: list[dict]
    cover: list[CoverCertificate]
    avoid: list[AvoidCertificate]
    h_elements: list[int]
    provenance: list[tuple[int, int]]
    h_size: int
    size_bound_limit: float
    size_bound_ok: bool
    h_budget: int
    shrink_ok: bool

    @property
    def all_passed(self) -> bool:
        return (
            all(c.passed for c in self.cover)
            and all(c.passed for c in self.avoid)
            and self.size_bound_ok
            and self.shrink_ok
        )

    def to_json_dict(self) -> dict:
        out = dict(vars(self), threshold=self.threshold.to_json_dict(), all_passed=self.all_passed)
        out.update(cover=[c.to_json_dict() for c in self.cover], avoid=[c.to_json_dict() for c in self.avoid])
        out["h"], out["provenance"] = out.pop("h_elements"), [list(p) for p in self.provenance]
        return out


def build_h(M: FiniteStructure, cfg: GreedyConfig, mode: str = STRICT):
    """Run the full construction and verify it. Returns (HSet, BuildReport).

    Strict mode refuses structures below the size threshold and asserts the
    shrink inequality live; best-effort runs anywhere and relies on the
    certificates alone. A LabError names the structure, formula and step.
    """
    if mode not in (STRICT, BEST_EFFORT):
        raise ValueError(f"unknown mode {mode!r}")
    with where(structure=M.describe()):
        threshold = require_threshold(cfg, M) if mode == STRICT else size_threshold_ok(cfg, M)
        if M.size <= 1:
            raise StructureTooSmallError("degenerate universe of size <= 1")

        h_elements: list[int] = []
        provenance: list[tuple[int, int]] = []
        phases = []
        shrink_ok = True
        bound = 1.0 - cfg.mu / 2.0
        blocked = _forbidden(M, cfg.gamma, [])  # H union clos(H), kept across every step and phase
        for index, pf in enumerate(cfg.delta):
            with where(formula=pf.text):
                state = _phase_state(cfg, M, index, h_elements, provenance, blocked)
                psi_size = state.remaining
                while state.remaining:
                    with where(step=state.step):
                        h_before = len(state.h_elements)
                        greedy_step(state, M)
                        shrink = state.shrink_factors[-1]
                        if threshold.ok and h_before <= threshold.h_budget and shrink > bound + 1e-12:
                            shrink_ok = False
                            if mode == STRICT:
                                raise InvariantError(f"shrink factor {shrink:.6f} exceeded {bound:.6f}")
                        if mode == STRICT and len(state.h_elements) > threshold.h_budget:
                            raise InvariantError(f"|H| exceeded the budget {threshold.h_budget}")
            phases.append(
                {
                    "formula": pf.text,
                    "psi_size": psi_size,
                    "steps": state.step,
                    "shrink_factors": [float(s) for s in state.shrink_factors],
                }
            )

        h_set = HSet(elements=list(h_elements), provenance=list(provenance))
        cover = [verify_cover(M, h_set.elements, prof) for prof in cfg.delta_profiles]
        avoid = [verify_avoid(M, h_set.elements, xi) for xi in cfg.gamma]
    limit = cfg.c_delta_gamma * math.log(M.size)
    report = BuildReport(
        size=M.size,
        structure=M.describe(),
        mode=mode,
        mu=cfg.mu,
        threshold=threshold,
        phases=phases,
        cover=cover,
        avoid=avoid,
        h_elements=list(h_set.elements),
        provenance=list(h_set.provenance),
        h_size=len(h_set),
        size_bound_limit=float(limit),
        size_bound_ok=len(h_set) <= limit,
        h_budget=threshold.h_budget,
        shrink_ok=shrink_ok,
    )
    return h_set, report


def verify_cover(M: FiniteStructure, elements, profile: MeasureProfile) -> CoverCertificate:
    """Check that every large parameter tuple of the profiled formula has a
    witness in H, exhaustively over psi_columns: the positions of Ψ's index
    space that no element of H solves are listed as failures. A translation
    kernel's tuple is covered exactly when its shift lies in H - G, so its
    shifts check all n^k tuples at any size. Any other formula is read from
    its enumerated Ψ, and raises EnumerationBudgetError when the tuple space
    exceeds the budget; a build has already enumerated the same set."""
    psi = psi_columns(M, profile)
    left = psi.pushforward()[1] > 0
    live = np.flatnonzero(left)
    left[live[psi.solved(elements, live)]] = False
    failures = [tuple(int(v) for v in col) for col in psi.tuples(left).T]
    return CoverCertificate(profile.pf.text, "exhaustive", psi.width, failures, not failures)


def verify_avoid(M: FiniteStructure, elements, pf: ParamFormula) -> AvoidCertificate:
    """Exhaustive order-restricted check: no element of H satisfies the
    formula with parameters strictly earlier in the H order. It reads the
    |H| x |H|^k grid over H, one block at a time, through two masks on the H
    positions of the parameters: all before the row's own position gives the
    violations, none equal to it the symmetric witnesses (h, *params), which
    the certificate keeps. A parameterless formula's one tuple passes both
    masks, so it is checked against every element."""
    h = np.asarray(elements, dtype=np.intp)
    positions = tuple_columns(range(len(h)), pf.arity)
    own = np.arange(len(h))[:, None, None]
    checked, found = 0, ([], [])  # (row, column) of each violation and witness
    for block in column_blocks(positions.shape[1], len(h)):
        part = positions[:, block]
        grid = solution_mask_matrix(M, pf, h[part], rows=h)
        earlier = (part[None] < own).all(axis=1)
        checked += int(earlier.sum())
        for hits, mask in zip(found, (earlier, (part[None] != own).all(axis=1))):
            rows, cols = np.nonzero(grid & mask)
            hits.extend(zip(rows.tolist(), (cols + block.start).tolist()))

    def listed(hits):
        return [(int(h[i]), *map(int, h[positions[:, j]])) for i, j in sorted(hits)]

    violations = listed(found[0])
    return AvoidCertificate(pf.text, checked, violations, not violations, listed(found[1]))

"""Greedy construction of an ordered set H that covers the large parameters
of every cover formula and avoids every algebraic formula, with a logarithmic
size bound.

The builder walks the cover formulas in order. For the current formula it
keeps the set Y of still-uncovered large parameter tuples, recomputes the
forbidden set L (all solutions of avoid formulas over parameters drawn from
the current H, plus solutions of parameterless avoid formulas), and among the
eligible elements X = M minus (H union L) appends the element covering the
most tuples of Y, smallest index winning ties. Under the size threshold each
step shrinks Y by a factor of at least (1 - mu/2), which forces
|H| <= n_formulas * h_M <= C * ln|M|.

Coverage, the number of tuples of Y each element would cover, has two
routes. A translation kernel has the solutions G + u(t) at tuple t, so its
coverage is the convolution 1_G * mu over M's additive group, mu the
histogram of the shifts of Y: one real FFT pair per step, rounded and
checked exact. Its Ψ comes as its folang.Kernel record, mu starts as the
record's pushforward() of the shifts, and a step zeroes mu on reach(h) =
h - G, so no array holds a tuple. Any other formula keeps its counts
incrementally: the grid's row sums once, block by block, then at each step
minus the solution counts of the columns just covered, or a recount of the
columns left when those are fewer.

Every build returns certificates: an exhaustive cover check per cover
formula (for a kernel, support() within H - G, which checks every tuple), an
exhaustive order-restricted avoid check per avoid formula, the size bound,
and the per-step shrink factors.
"""

from __future__ import annotations

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
)
from .finitemodels import FiniteStructure
from .folang import (
    Kernel,
    ParamFormula,
    column_blocks,
    kernel,
    max_solution_count,
    solution_mask_matrix,
)

STRICT = "strict"
BEST_EFFORT = "best_effort"


@dataclass
class GreedyConfig:
    """The cover and avoid profiles, the measure floor, and every derived
    constant. Logs are natural throughout."""

    mu: float
    delta_profiles: tuple[MeasureProfile, ...]
    gamma_profiles: tuple[MeasureProfile, ...]
    ell0: int
    k0: int
    gamma_max_solutions: int
    c_gamma: int
    c_delta_gamma: int

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
    """Fix the constants from the profiles of the cover list (delta) and the
    avoid list (gamma), each profiled over the same family; the formulas are
    the profiles' own, in list order.

    Rejected when mu is not below every profiled measure of the cover list,
    or when an avoid formula is not uniformly algebraic on the family.
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
    ell0 = max(prof.pf.arity for prof in delta_profiles)
    k0 = max(prof.pf.arity for prof in gamma_profiles)
    gamma_max = max((prof.B or 0) for prof in gamma_profiles)
    c_gamma = gamma_max * len(gamma_profiles)
    decay = -math.log(1.0 - mu / 2.0)
    c_delta_gamma = len(delta_profiles) * (math.ceil(ell0 / decay) + 1)
    return GreedyConfig(
        mu=mu,
        delta_profiles=delta_profiles,
        gamma_profiles=gamma_profiles,
        ell0=ell0,
        k0=k0,
        gamma_max_solutions=gamma_max,
        c_gamma=c_gamma,
        c_delta_gamma=c_delta_gamma,
    )


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
    """size_threshold_ok, raising ThresholdNotMetError (naming the structure,
    mu and both inequalities) when M is below the threshold."""
    threshold = size_threshold_ok(cfg, M)
    if not threshold.ok:
        raise ThresholdNotMetError(
            f"{M.describe()} of size {M.size} is below the strict size threshold at "
            f"mu = {cfg.mu}: forbidden bound {threshold.forbidden_bound:.6g} vs allowance "
            f"{threshold.mass_allowance:.6g}, headroom {threshold.headroom:.6g} vs budget "
            f"{threshold.h_budget}"
        )
    return threshold


def _mark_solutions(out: np.ndarray, M: FiniteStructure, xi: ParamFormula, cols, owner):
    """Set out[e, owner[j]] for every solution e of xi at the j-th of the
    parameter columns, owner non-decreasing. A translation kernel scatters
    its |G| points per column; any other formula is read off its grid."""
    record = kernel(M, xi)
    if record is not None:
        points = record.points(cols)
        out[points.ravel(), np.tile(owner, len(points))] = True
        return
    heads = np.flatnonzero(np.r_[True, owner[1:] != owner[:-1]])
    hit = solution_mask_matrix(M, xi, cols)
    out[:, owner[heads]] |= np.logical_or.reduceat(hit, heads, axis=1)


def _forbidden_mask(M: FiniteStructure, gamma, h_elements) -> np.ndarray:
    """Mask over the universe of every element that solves some avoid formula
    with parameters drawn from h_elements (parameterless formulas always
    contribute: their one tuple is the empty one)."""
    mask = np.zeros((M.size, 1), dtype=bool)
    for xi in gamma:
        cols = tuple_columns(h_elements, xi.arity)
        for block in column_blocks(cols.shape[1], M.size):
            owner = np.zeros(block.stop - block.start, dtype=np.intp)
            _mark_solutions(mask, M, xi, cols[:, block], owner)
    return mask[:, 0]


def _union_bound(gamma, base_size, max_solutions):
    """max_solutions * |gamma| * (base_size + [some formula is parameterless])^k0,
    elementwise over an array of base sizes; None when max_solutions is
    unknown. No closure of a base of base_size elements is larger."""
    if max_solutions is None:
        return None
    k0 = max((pf.arity for pf in gamma), default=0)
    return max_solutions * len(gamma) * (base_size + any(pf.arity == 0 for pf in gamma)) ** k0


def closure_masks(
    M: FiniteStructure, h_elements, a_sets, gamma, *, max_solutions: int | None = None
) -> np.ndarray:
    """Boolean (size, len(a_sets)) matrix whose column i is clos(H union A_i)
    under the avoid list, the finite stand-in for algebraic closure: clos(H)
    plus the solutions over the tuples that use an element of A_i minus H.
    a_sets is a (sets, width) index array, each row padded with -1. Each
    pool lists the fresh elements of A_i first, so tuple positions depend
    only on their count m, and the tuples of all sets with the same m are
    gathered at once, in groups of at most one evaluation block. Every
    column is checked against _union_bound; max_solutions None is recounted
    when that is cheap."""
    gamma = list(gamma)
    h = np.array(sorted({int(v) for v in h_elements}), dtype=np.intp)
    given = np.asarray(a_sets, dtype=np.intp)
    # sort each row and move padding, members of H and repeats to its end:
    # the first fresh[i] entries of row i are then A_i minus H, ascending
    rows = np.sort(given, axis=1)
    drop = (rows < 0) | np.isin(rows, h)
    drop[:, 1:] |= rows[:, 1:] == rows[:, :-1]
    fresh = rows.shape[1] - drop.sum(axis=1)
    rows[drop] = M.size
    rows.sort(axis=1)
    # column-major, so each closure is contiguous and its sum is one pass
    out = np.tile(_forbidden_mask(M, gamma, h), (len(rows), 1)).T
    for m in sorted(set(fresh.tolist()) - {0}):
        members = np.flatnonzero(fresh == m)
        pools = np.concatenate([rows[members, :m], np.tile(h, (len(members), 1))], axis=1)
        for xi in gamma:
            grid = tuple_columns(range(m + len(h)), xi.arity)
            layout = grid[:, (grid < m).any(axis=0)]  # the tuples that use a fresh element
            if not layout.size:
                continue  # a parameterless formula has no such tuple
            # groups of B // (n L) = (B // n) // L sets of L tuples, B the budget
            for group in column_blocks(len(members), M.size * layout.shape[1]):
                cols = pools[group][:, layout].transpose(1, 0, 2).reshape(xi.arity, -1)
                owner = np.repeat(members[group], layout.shape[1])
                for block in column_blocks(cols.shape[1], M.size):
                    _mark_solutions(out, M, xi, cols[:, block], owner[block])
    if max_solutions is None:
        max_solutions = max_solution_count(M, gamma)
    sizes = len(h) + fresh
    bounds = _union_bound(gamma, sizes, max_solutions)
    over = [] if bounds is None else np.flatnonzero(out.sum(axis=0) > bounds)
    if len(over):
        i = over[0]
        raise InvariantError(
            f"{M.describe()}, avoid formulas {[pf.text for pf in gamma]}, closure of H plus "
            f"{sorted({int(v) for v in given[i] if v >= 0})} (a base of {sizes[i]}): "
            f"{out[:, i].sum()} elements exceed the union bound {bounds[i]}"
        )
    return out


def forbidden_set(h_elements, gamma, M: FiniteStructure) -> list[int]:
    """Public view of the forbidden set clos(H), in index order, checked
    against the union bound by closure_masks."""
    no_set = np.empty((1, 0), dtype=np.intp)
    return [int(v) for v in np.flatnonzero(closure_masks(M, h_elements, no_set, gamma)[:, 0])]


def _smooth(length: int) -> bool:
    """Whether length has no prime factor above 5."""
    for f in (2, 3, 5):
        while length % f == 0:
            length //= f
    return length == 1


def _transform_length(d: int) -> int:
    """The FFT length for a cyclic axis of length d: d itself when it is
    5-smooth, else the smallest 5-smooth length >= 2d - 1, which holds the
    linear convolution that is then folded back modulo d. On a prime length
    pocketfft falls back to Bluestein's algorithm, several times slower."""
    if _smooth(d):
        return d
    length = 2 * d - 1
    while not _smooth(length):
        length += 1
    return length


def _fold(values: np.ndarray, shape) -> np.ndarray:
    """A linear convolution folded back onto the group of array shape
    `shape`: position k of an axis of length d is coordinate k mod d, so a
    padded axis becomes the sum of its d-long slices."""
    for axis, d in enumerate(shape):
        if values.shape[axis] > d:
            values = values.swapaxes(0, axis)
            folded = values[:d].copy()
            for start in range(d, len(values), d):
                folded[: len(values) - start] += values[start : start + d]
            values = folded.swapaxes(0, axis)
    return values


class KernelCoverage:
    """The coverage of a translation kernel's Ψ from its folang.Kernel
    record, with no per-tuple array. Element h covers tuple t exactly when
    u(t) lies in h - G, so h covers (1_G * mu)(h) remaining tuples: the
    convolution over M's additive group of 1_G with mu, the histogram of the
    remaining tuples' shifts, which starts as the record's pushforward() and
    loses h - G at each step. A real FFT over the group's array shape
    (Terras, Fourier Analysis on Finite Groups, 1999) computes it in the
    pushforward's histogram units, small whatever n^k is."""

    def __init__(self, M: FiniteStructure, record: Kernel):
        self.kernel = record
        in_base = np.zeros(M.size, dtype=bool)  # 1_G over the universe
        in_base[record.base] = True
        self.unit, self.histogram = record.pushforward()  # mu is unit * histogram
        self.remaining = self.unit * int(self.histogram.sum())  # |Y|, the tuples mu counts
        self.shape = M.group_shape  # M's additive group
        self.lengths = tuple(_transform_length(d) for d in self.shape)  # transform length per axis
        axes = range(len(self.shape))
        self.base_hat = np.fft.rfftn(in_base.reshape(self.shape), self.lengths, axes)

    def counts(self) -> np.ndarray:
        """(1_G * mu) in histogram units, rounded and checked exact: each within
        0.25 of its integer, and summing to |G| * |Y|. greedy_step names the step."""
        axes = range(len(self.shape))
        hat = np.fft.rfftn(self.histogram.reshape(self.shape), self.lengths, axes)
        out = _fold(np.fft.irfftn(self.base_hat * hat, self.lengths, axes), self.shape).ravel()
        counts = np.rint(out)
        residual = float(np.abs(out - counts).max(initial=0.0))
        total = int(counts.sum()) * self.unit if residual < 0.25 else None  # None for a NaN
        expected = len(self.kernel.base) * self.remaining
        if not residual < 0.25 or total != expected:
            raise InvariantError(
                f"convolution coverage is not exact (rounding residual {residual:.3g}, "
                f"total {total} against |G| * |Y| = {expected})"
            )
        return counts.astype(np.int64)

    def cover(self, M: FiniteStructure, h: int):
        """Drop the tuples h covers: mu loses h - G."""
        reached = self.kernel.reach(h)
        self.remaining -= int(self.histogram[reached].sum()) * self.unit
        self.histogram[reached] = 0


class GridCoverage:
    """The coverage of any other cover formula, kept incrementally (Minoux
    1978): the row sums of its n x |Ψ| grid are counted once, and each step
    subtracts the solution counts of the columns it covers, or recounts the
    columns left when those are fewer. The grid is read one block at a time
    and never held: a phase costs at most 2 n |Ψ| cells plus a row per step."""

    def __init__(self, M: FiniteStructure, pf: ParamFormula, cols: np.ndarray):
        self.pf, self.cols = pf, cols
        self.left = np.arange(cols.shape[1], dtype=np.intp)  # the columns of Y
        self.totals = self._row_sums(M, cols)  # remaining columns each element solves

    @property
    def remaining(self) -> int:
        return len(self.left)

    def _row_sums(self, M: FiniteStructure, cols: np.ndarray) -> np.ndarray:
        sums = np.zeros(M.size, dtype=np.int64)
        for block in column_blocks(cols.shape[1], M.size):
            sums += solution_mask_matrix(M, self.pf, cols[:, block]).sum(axis=1)
        return sums

    def counts(self) -> np.ndarray:
        return self.totals.copy()

    def cover(self, M: FiniteStructure, h: int):
        """Drop the columns h covers; their solutions leave the totals."""
        cols = self.cols[:, self.left]
        covered = solution_mask_matrix(M, self.pf, cols, rows=[h])[0]
        if 2 * covered.sum() > len(covered):  # fewer columns left than covered
            self.totals = self._row_sums(M, cols[:, ~covered])
        else:
            self.totals -= self._row_sums(M, cols[:, covered])
        self.left = self.left[~covered]


@dataclass
class GreedyState:
    """One step of the construction: the current formula phase and the
    ordered H so far. `coverage` holds the phase's still-uncovered tuples Y
    and counts how many of them each element covers: a KernelCoverage, Y as
    the histogram of its shifts, for a translation kernel, else a
    GridCoverage, Y as Ψ's columns. `remaining` is |Y|."""

    config: GreedyConfig
    formula_index: int
    step: int
    h_elements: list[int]
    provenance: list[tuple[int, int]]
    coverage: KernelCoverage | GridCoverage = field(repr=False)
    shrink_factors: list[float] = field(default_factory=list)

    @property
    def remaining(self) -> int:
        return self.coverage.remaining


def _phase_state(cfg: GreedyConfig, M: FiniteStructure, index: int, h, prov) -> GreedyState:
    psi = psi_columns(M, cfg.delta_profiles[index])
    if isinstance(psi, Kernel):
        coverage = KernelCoverage(M, psi)
    else:
        coverage = GridCoverage(M, cfg.delta[index], psi[0])
    return GreedyState(
        config=cfg, formula_index=index, step=0, h_elements=h, provenance=prov, coverage=coverage
    )


def greedy_step(state: GreedyState, M: FiniteStructure) -> GreedyState:
    """Append the argmax-coverage eligible element and drop what it covers.

    Ties break to the smallest canonical index, making the build
    deterministic regardless of how the coverage scan is partitioned.
    """
    if not state.remaining:
        raise ValueError("greedy_step called with no uncovered tuples")
    cfg = state.config
    in_h = np.zeros(M.size, dtype=bool)
    if state.h_elements:
        in_h[np.asarray(state.h_elements, dtype=np.intp)] = True
    eligible = ~(in_h | _forbidden_mask(M, cfg.gamma, state.h_elements))
    if not eligible.any():
        raise StructureTooSmallError(
            f"no eligible element left at size {M.size} "
            f"(formula {state.formula_index}, step {state.step})"
        )
    try:
        counts = state.coverage.counts()
    except InvariantError as err:
        where = f"{M.describe()}, formula {cfg.delta[state.formula_index].text!r}"
        raise InvariantError(f"{where}, step {state.step}: {err}") from None
    counts[~eligible] = -1
    h = int(np.argmax(counts))
    if counts[h] <= 0:
        raise StructureTooSmallError(
            f"no eligible element covers any remaining tuple at size {M.size} "
            f"(formula {state.formula_index}, step {state.step})"
        )
    before = state.remaining
    state.coverage.cover(M, h)
    state.shrink_factors.append(state.remaining / before)
    state.h_elements.append(h)
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

    def to_json_dict(self) -> dict:
        return dict(vars(self))


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
    certificates alone.
    """
    if mode not in (STRICT, BEST_EFFORT):
        raise ValueError(f"unknown mode {mode!r}")
    threshold = require_threshold(cfg, M) if mode == STRICT else size_threshold_ok(cfg, M)
    if M.size <= 1:
        raise StructureTooSmallError("degenerate universe of size <= 1")

    h_elements: list[int] = []
    provenance: list[tuple[int, int]] = []
    phases = []
    shrink_ok = True
    bound = 1.0 - cfg.mu / 2.0
    for index in range(cfg.n_formulas):
        state = _phase_state(cfg, M, index, h_elements, provenance)
        psi_size = state.remaining
        while state.remaining:
            h_before = len(state.h_elements)
            greedy_step(state, M)
            if threshold.ok and h_before <= threshold.h_budget:
                if state.shrink_factors[-1] > bound + 1e-12:
                    shrink_ok = False
                    if mode == STRICT:
                        raise InvariantError(
                            f"{M.describe()}, formula {cfg.delta[index].text!r}, "
                            f"step {state.step - 1}: shrink factor "
                            f"{state.shrink_factors[-1]:.6f} exceeded {bound:.6f}"
                        )
            if mode == STRICT and len(state.h_elements) > threshold.h_budget:
                raise InvariantError(
                    f"{M.describe()}, formula {cfg.delta[index].text!r}, "
                    f"step {state.step - 1}: |H| exceeded the budget {threshold.h_budget}"
                )
        phases.append(
            {
                "formula": cfg.delta[index].text,
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
    witness in H, exhaustively over psi_columns. A translation kernel's
    tuple t is covered exactly when u(t) lies in H - G, so the support of
    its shifts must lie in H - G, which checks all n^k tuples at any size;
    the tuples behind any shift outside are listed as failures. Any
    other formula is read from its enumerated Ψ, one |H| x block grid at a
    time, and raises EnumerationBudgetError when the tuple space exceeds
    the budget; a build has already enumerated the same set."""
    pf = profile.pf
    psi = psi_columns(M, profile)
    if isinstance(psi, Kernel):
        h = np.asarray(elements, dtype=np.intp)
        reached = np.zeros(M.size, dtype=bool)  # H - G
        for block in column_blocks(len(h), len(psi.base)):
            reached[psi.reach(h[block, None])] = True
        failed = psi.tuples(psi.support() & ~reached)
        checked = M.size**pf.arity
    else:
        cols, _ = psi
        covered = np.zeros(cols.shape[1], dtype=bool)
        for block in column_blocks(cols.shape[1], len(elements)):
            covered[block] = solution_mask_matrix(M, pf, cols[:, block], rows=elements).any(axis=0)
        failed, checked = cols[:, ~covered], cols.shape[1]
    failures = [tuple(int(v) for v in col) for col in failed.T]
    return CoverCertificate(pf.text, "exhaustive", checked, failures, not failures)


def independence_checks(M: FiniteStructure, elements, pf: ParamFormula):
    """Both independence checks of an avoid formula, read from the
    |H| x |H|^k grid over H, one block at a time, through two masks on the H
    positions of the parameters: all before the row's own position gives the
    order-restricted certificate, none equal to it the symmetric witnesses
    (h, *params). A parameterless formula's one tuple passes both masks."""
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
    return AvoidCertificate(pf.text, checked, violations, not violations), listed(found[1])


def verify_avoid(M: FiniteStructure, elements, pf: ParamFormula) -> AvoidCertificate:
    """Exhaustive order-restricted check: no element of H satisfies the
    formula with parameters strictly earlier in the H order. Parameterless
    formulas are checked against every element."""
    return independence_checks(M, elements, pf)[0]

"""Finite-scale checks of the expansion axioms against a built (M, H) pair.

Scope note carried in every report: these are finite surrogates. Density is
the build's own exhaustive cover certificates, over the large parameter
tuples of the supplied cover formulas (for a translation kernel all n^k,
through the pushforward of its shifts). Independence is the build's own
avoid certificates: exact in its order-restricted form (the construction's
guarantee), while the symmetric witnesses the same grids found are an
informational count, because nothing at finite scale stands in for the
exchange argument that closes the gap in the limit. Only extension runs
here, over enumerated or seeded-sampled tuples, with algebraic closure
truncated to the supplied avoid list (hgreedy.closures lists its members).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .asymptotics import large_columns
from .errors import InvariantError, StructureTooSmallError, where
from .finitemodels import FiniteStructure
from .folang import column_blocks, solves
from .hgreedy import AvoidCertificate, BuildReport, CoverCertificate, _union_bound, closures

SCOPE_NOTE = (
    "finite-scale surrogate: density/extension checked over enumerated or "
    "sampled parameter tuples of the listed cover formulas; closure truncated "
    "to the listed avoid formulas; symmetric independence is informational"
)
DEFAULT_EXTENSION_SAMPLES = 1000
DEFAULT_BASE_MAX = 3


@dataclass
class AxiomReport:
    scope: str
    size: int
    structure: str
    independence: dict
    density: dict
    extension: dict
    seed: int

    @property
    def passed(self) -> bool:
        return (
            self.independence["order_restricted"]["passed"]
            and self.density["passed"]
            and self.extension["passed"]
        )

    def to_json_dict(self) -> dict:
        return dict(vars(self), passed=self.passed)

    def failure_csv_rows(self):
        for cert in self.density["per_formula"]:
            for tup in cert["failures"]:
                yield (self.size, "density", cert["formula"], " ".join(map(str, tup)))
        for item in self.extension["failures"]:
            yield (
                self.size,
                "extension",
                item["formula"],
                " ".join(map(str, item["params"])) + " | " + " ".join(map(str, item["base"])),
            )
        for cert in self.independence["order_restricted"]["per_formula"]:
            for tup in cert["violations"]:
                yield (self.size, "independence", cert["formula"], " ".join(map(str, tup)))


def check_independence(certs: list[AvoidCertificate]) -> dict:
    """The build's order-restricted avoid certificates (they must pass: they
    are the construction's own guarantee) and the symmetric witnesses their
    grid passes found (informational)."""
    symmetric_witnesses = [(c.formula, *w) for c in certs for w in c.witnesses]
    return {
        "order_restricted": {
            "passed": all(c.passed for c in certs),
            "per_formula": [c.to_json_dict() for c in certs],
        },
        "symmetric": {
            "witness_count": len(symmetric_witnesses),
            "witnesses": [list(w) for w in symmetric_witnesses[:100]],
        },
    }


def check_density(certs: list[CoverCertificate]) -> dict:
    """The build's cover certificates: every large parameter tuple of every
    profiled cover formula must have a witness in H, exhaustively; algebraic
    tuples are skipped."""
    return {
        "passed": all(c.passed for c in certs),
        "n_failures": sum(len(c.failures) for c in certs),
        "per_formula": [c.to_json_dict() for c in certs],
    }


def _draw_samples(rng, widths, n: int, samples: int, base_max: int):
    """Every extension sample's draws, in 3 + base_max array calls on `rng`.

    Returns (formula, column, base_n, base): sample j reads large tuple
    column[j] < widths[formula[j]] of cover formula formula[j], and its base
    is the first base_n[j] <= base_max entries of row j of `base`, the rest
    -1. Each formula, column and base size is uniform. Base round i draws
    one of the n - i elements not yet picked: the draw is bumped past the
    earlier picks in sorted order. So a row's elements are distinct and
    every prefix is a uniform subset of its length.
    """
    formula = rng.integers(len(widths), size=samples)
    column = rng.integers(widths[formula])
    base_n = rng.integers(0, base_max + 1, size=samples)
    base = np.empty((samples, base_max), dtype=np.intp)
    for i in range(base_max):
        pick = rng.integers(n - i, size=samples)
        for earlier in np.sort(base[:, :i], axis=1).T:
            pick += pick >= earlier
        base[:, i] = pick
    base[np.arange(base_max) >= base_n[:, None]] = -1
    return formula, column, base_n, base


def check_extension(
    M: FiniteStructure,
    elements,
    profiles,
    gamma_trunc,
    *,
    samples: int = DEFAULT_EXTENSION_SAMPLES,
    base_max: int = DEFAULT_BASE_MAX,
    seed: int = 0,
    gamma_max_solutions: int,
) -> dict:
    """Sampled check that large solution sets are not swallowed by the
    truncated closure of H plus a small parameter base.

    Each sample draws a cover formula, a large parameter tuple, and up to
    base_max distinct extra base elements; it fails if every solution lies
    inside clos(H + params + base). The tuple is drawn as a position among
    asymptotics.large_columns' tuples, which a kernel within the budget
    decodes without listing them, and comes with its exact solution count.
    _draw_samples draws all samples first; then the samples, grouped by
    cover formula, are checked one block at a time. One closures call lists
    the members of the block's closures and checks them against their union
    bound, and the formula is evaluated at each (member, tuple) pair: a
    sample is swallowed exactly when the members that solve it number its
    solution count. The union bound is read from gamma_max_solutions, the
    config's B. A block holds BUDGET // bound samples, and no grid over the
    universe is held for a sample.
    When the smallest large count strictly exceeds the closure union bound
    the check cannot fail; that sufficient condition is recorded and
    enforced.
    """
    if base_max > M.size:
        raise StructureTooSmallError(f"size {M.size} is too small for an extension base of {base_max} elements")
    gamma = list(gamma_trunc)
    rng = np.random.default_rng([seed, M.size, 3])

    drawn = [(prof.pf, large_columns(M, prof, rng, 10 * samples)) for prof in profiles]
    usable = [(pf, psi) for pf, psi in drawn if psi.width]  # (formula, the Ψ record drawn from)
    if not usable:
        return {
            "passed": True,
            "n_samples": 0,
            "failures": [],
            "sufficient_bound_ok": None,
            "min_large_count": None,
            "closure_bound": None,
            "seed": seed,
        }

    # no closure of H plus a sample's parameters and base is larger
    ell = max(pf.arity for pf, _ in usable)
    closure_bound = _union_bound(gamma, len(elements) + base_max + ell, gamma_max_solutions)
    min_large_count = min(psi.low for _, psi in usable)
    sufficient = min_large_count > closure_bound

    # row j of `sets` holds the sample's parameters in its first ell places
    # and its base after them, padded with -1; need[j] is the parameters'
    # solution count
    widths = np.array([psi.width for _, psi in usable], dtype=np.intp)
    formula, column, base_n, base = _draw_samples(rng, widths, M.size, samples, base_max)
    sets = np.full((samples, ell + base_max), -1, dtype=np.intp)
    sets[:, ell:] = base
    need = np.zeros(samples, dtype=np.int64)
    for f_i, (pf, psi) in enumerate(usable):
        picked = formula == f_i
        cols, counts = psi.take(column[picked])
        sets[picked, : pf.arity] = cols.T
        need[picked] = counts
    swallowed = np.zeros(samples, dtype=bool)
    order = np.argsort(formula, kind="stable")  # a block spans few formulas
    for block in column_blocks(samples, closure_bound):
        part = order[block]
        codes = closures(M, elements, sets[part], gamma, max_solutions=gamma_max_solutions)
        owner, member = np.divmod(codes, M.size)  # the sample's place in `part`, a closure member
        sample = part[owner]
        inside = np.zeros(len(codes), dtype=bool)  # the member solves its sample's formula
        for f_i, (pf, _) in enumerate(usable):
            mine = formula[sample] == f_i
            inside[mine] = solves(M, pf, member[mine], sets[sample[mine], : pf.arity].T)
        swallowed[part] = np.bincount(owner[inside], minlength=len(part)) == need[part]
    failures = []
    for j in np.flatnonzero(swallowed):
        pf = usable[formula[j]][0]
        failures.append(
            {
                "formula": pf.text,
                "params": [int(v) for v in sets[j, : pf.arity]],
                "base": [int(v) for v in sets[j, ell : ell + base_n[j]]],
            }
        )
    if sufficient and failures:
        with where(formula=failures[0]["formula"]):
            raise InvariantError(
                f"extension sample with params {failures[0]['params']}: failed although the "
                f"closure bound {closure_bound} is below the smallest large count {min_large_count}"
            )
    return {
        "passed": not failures,
        "n_samples": samples,
        "failures": failures,
        "sufficient_bound_ok": sufficient,
        "min_large_count": min_large_count,
        "closure_bound": closure_bound,
        "seed": seed,
    }


def run_axiom_checks(
    M: FiniteStructure,
    report: BuildReport,
    cfg,
    *,
    extension_samples: int = DEFAULT_EXTENSION_SAMPLES,
    base_max: int = DEFAULT_BASE_MAX,
    seed: int = 0,
) -> AxiomReport:
    """The axioms of the build `report` of M under cfg: its cover and avoid
    certificates, and the extension check over report.h_elements, whose
    LabError names the structure and the extension step."""
    structure = M.describe()
    with where(structure=structure, step="extension"):
        extension = check_extension(
            M,
            report.h_elements,
            cfg.delta_profiles,
            cfg.gamma,
            samples=extension_samples,
            base_max=base_max,
            seed=seed,
            gamma_max_solutions=cfg.gamma_max_solutions,
        )
    return AxiomReport(
        scope=SCOPE_NOTE,
        size=M.size,
        structure=structure,
        independence=check_independence(report.avoid),
        density=check_density(report.cover),
        extension=extension,
        seed=seed,
    )

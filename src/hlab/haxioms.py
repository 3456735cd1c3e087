"""Finite-scale checks of the expansion axioms against a built (M, H) pair.

Scope note carried in every report: these are finite surrogates. Density and
extension quantify over enumerated or seeded-sampled parameter tuples of the
supplied cover formulas only, and algebraic closure is truncated to the
supplied avoid list. Independence is checked exactly in its order-restricted
form (the construction's guarantee); the symmetric form is reported as an
informational count because nothing at finite scale stands in for the
exchange argument that closes the gap in the limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import tuple_columns
from .asymptotics import large_columns
from .errors import EnumerationBudgetError, InvariantError
from .finitemodels import FiniteStructure
from .folang import eval_bulk, solution_mask_matrix
from .hgreedy import (
    AVOID_BUDGET,
    _forbidden_mask,
    max_solution_count,
    verify_avoid,
    verify_cover,
)
from .hsequence import closure

SCOPE_NOTE = (
    "finite-scale surrogate: density/extension checked over enumerated or "
    "sampled parameter tuples of the listed cover formulas; closure truncated "
    "to the listed avoid formulas; symmetric independence is informational"
)


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
        return {
            "scope": self.scope,
            "size": self.size,
            "structure": self.structure,
            "independence": self.independence,
            "density": self.density,
            "extension": self.extension,
            "seed": self.seed,
            "passed": self.passed,
        }

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


def check_independence(M: FiniteStructure, h_set, gamma_trunc) -> dict:
    """Order-restricted check (must pass: it is the construction's own
    guarantee) plus the symmetric witness count (informational)."""
    elements = list(getattr(h_set, "elements", h_set))
    order_certs = [verify_avoid(M, elements, xi) for xi in gamma_trunc]
    symmetric_witnesses = []
    for xi in gamma_trunc:
        k = xi.arity
        if len(elements) ** max(k, 1) * max(len(elements), 1) > AVOID_BUDGET:
            raise EnumerationBudgetError("symmetric independence check too large")
        for h in elements:
            others = [e for e in elements if e != h]
            if k == 0:
                sat = eval_bulk(M, xi.formula, {xi.object_var: np.asarray([h], dtype=np.intp)})
                if bool(sat[0]):
                    symmetric_witnesses.append((xi.text, h))
                continue
            if not others:
                continue
            cols = tuple_columns(others, k)
            env = {xi.object_var: np.intp(h)}
            env.update({name: row for name, row in zip(xi.params, cols)})
            sat = np.atleast_1d(eval_bulk(M, xi.formula, env))
            for j in np.flatnonzero(sat):
                symmetric_witnesses.append((xi.text, h, *(int(v) for v in cols[:, j])))
    return {
        "order_restricted": {
            "passed": all(c.passed for c in order_certs),
            "per_formula": [c.to_json_dict() for c in order_certs],
        },
        "symmetric": {
            "witness_count": len(symmetric_witnesses),
            "witnesses": [list(w) for w in symmetric_witnesses[:100]],
        },
    }


def check_density(
    M: FiniteStructure,
    h_set,
    delta,
    profiles,
    sample_budget: int = 1_000_000,
    seed: int = 0,
) -> dict:
    """Every large parameter tuple of every cover formula must have a witness
    in H; algebraic tuples are skipped."""
    certs = [
        verify_cover(M, h_set, pf, prof, budget=sample_budget, seed=seed)
        for pf, prof in zip(delta, profiles)
    ]
    return {
        "passed": all(c.passed for c in certs),
        "n_failures": sum(len(c.failures) for c in certs),
        "per_formula": [c.to_json_dict() for c in certs],
    }


def check_extension(
    M: FiniteStructure,
    h_set,
    delta,
    profiles,
    gamma_trunc,
    *,
    samples: int = 1000,
    base_max: int = 3,
    seed: int = 0,
    gamma_max_solutions: int | None = None,
) -> dict:
    """Sampled check that large solution sets are not swallowed by the
    truncated closure of H plus a small parameter base.

    Each sample draws a cover formula, a large parameter tuple, and up to
    base_max extra base elements; it fails if every solution lies inside
    clos(H + params + base). When the smallest large count strictly exceeds
    the closure union bound the check cannot fail; that sufficient condition
    is recorded and enforced.
    """
    elements = list(getattr(h_set, "elements", h_set))
    gamma = list(gamma_trunc)
    rng = np.random.default_rng([seed, M.size, 3])

    usable = []  # (formula, psi columns, counts of large tuples)
    min_large_count = None
    for pf, prof in zip(delta, profiles):
        cols, counts, _ = large_columns(M, pf, prof, rng, 10 * samples)
        if cols.shape[1] == 0:
            continue
        low = int(counts.min())
        min_large_count = low if min_large_count is None else min(min_large_count, low)
        usable.append((pf, cols))
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

    k0 = max((pf.arity for pf in gamma), default=0)
    if gamma_max_solutions is None:
        gamma_max_solutions = max_solution_count(M, gamma)
    closure_bound = None
    sufficient = None
    if gamma_max_solutions is not None:
        ell = max(pf.arity for pf, _ in usable)
        slots = len(elements) + base_max + ell + (1 if any(pf.arity == 0 for pf in gamma) else 0)
        closure_bound = gamma_max_solutions * len(gamma) * slots**k0
        sufficient = min_large_count > closure_bound

    unary = all(pf.arity <= 1 for pf in gamma)
    clos_h = _forbidden_mask(M, gamma, elements)
    element_mask = None
    if unary:
        element_mask = np.zeros((M.size, M.size), dtype=bool)
        universe = np.arange(M.size, dtype=np.intp)
        for xi in gamma:
            if xi.arity == 1:
                element_mask |= solution_mask_matrix(M, xi, universe[None, :])

    failures = []
    for _ in range(samples):
        f_i = int(rng.integers(len(usable)))
        pf, cols = usable[f_i]
        a_i = int(rng.integers(cols.shape[1]))
        params = tuple(int(v) for v in cols[:, a_i])
        base_n = int(rng.integers(0, base_max + 1))
        base = [int(v) for v in rng.choice(M.size, size=base_n, replace=False)]
        extra = sorted(set(params) | set(base))
        sol = solution_mask_matrix(M, pf, cols[:, a_i : a_i + 1])[:, 0]
        if unary:
            clos_mask = clos_h.copy()
            if extra:
                clos_mask |= element_mask[:, extra].any(axis=1)
        else:
            clos = closure(M, elements, extra, gamma, max_solutions=gamma_max_solutions)
            clos_mask = np.zeros(M.size, dtype=bool)
            clos_mask[clos.elements] = True
        if not (sol & ~clos_mask).any():
            failures.append({"formula": pf.text, "params": list(params), "base": base})
    if sufficient and failures:
        raise InvariantError(
            f"{M.describe()}, formula {failures[0]['formula']!r}, extension sample with "
            f"params {failures[0]['params']}: failed although the closure bound "
            f"{closure_bound} is below the smallest large count {min_large_count}"
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
    h_set,
    cfg,
    *,
    density_budget: int = 1_000_000,
    extension_samples: int = 1000,
    base_max: int = 3,
    seed: int = 0,
) -> AxiomReport:
    """All three checks against a build configuration."""
    independence = check_independence(M, h_set, cfg.gamma)
    density = check_density(
        M, h_set, cfg.delta, cfg.delta_profiles, sample_budget=density_budget, seed=seed
    )
    extension = check_extension(
        M,
        h_set,
        cfg.delta,
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
        structure=M.describe(),
        independence=independence,
        density=density,
        extension=extension,
        seed=seed,
    )

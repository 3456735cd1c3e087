"""Quadratic-character counting over GF(p^2) against its prime subfield.

For an odd prime p, pick the first element a1 outside the subfield and its
conjugate a2 = frob(a1). The set PHI of x with x - a1 a square but x - a2
not a square has about a quarter of the field's size (squares include 0),
yet no subfield element can belong to it: the subfield is fixed by frob,
frob is an automorphism, and squares map to squares, so both differences
have the same character for subfield x. The experiment certifies both facts
exhaustively per prime, counting through folang, and reports the deviation
from q/4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SignatureMismatchError, where
from .finitemodels import EXTENSION_SIGNATURE, FiniteStructure, make_extension_field
from .folang import column_blocks, parse_formula, solution_mask_matrix

PHI = "(exists z. z*z = x - y1) & !(exists z. z*z = x - y2)"
# both existentials bind z, so folang caches one square image per field
_PHI = parse_formula(PHI, EXTENSION_SIGNATURE, params=("y1", "y2"))


@dataclass
class QuadraticPairReport:
    p: int
    q: int
    a1: int
    a2: int
    phi_count: int
    subfield_violations: int
    deviation: float

    def to_json_dict(self) -> dict:
        return dict(vars(self))


def build_quadratic_pair(p: int):
    """GF(p^2) plus the chosen conjugate pair (a1, a2 = frob(a1))."""
    K = make_extension_field(p)  # rejects p = 2 and non-primes
    insub = K.relations["insub"]
    a1 = int(np.flatnonzero(~insub)[0])
    a2 = int(K.functions["frob"][a1])
    return K, a1, a2


def _pair_counts(K: FiniteStructure, columns: np.ndarray) -> np.ndarray:
    """A (2, m) array: at each (a1, a2) column, the number of elements x with
    x - a1 a square and x - a2 not, and the number of those in the subfield.
    Both are column sums of one PHI mask per evaluation block, over every row
    and over the subfield rows."""
    counts = np.empty((2, columns.shape[1]), dtype=np.int64)
    for block in column_blocks(columns.shape[1], K.size):
        mask = solution_mask_matrix(K, _PHI, columns[:, block])
        counts[:, block] = mask.sum(axis=0), mask[K.relations["insub"]].sum(axis=0)
    return counts


def phi_count(K: FiniteStructure, a1: int, a2: int) -> int:
    """|{x : x - a1 is a square and x - a2 is not}|."""
    return int(_pair_counts(K, np.array([[a1], [a2]]))[0, 0])


def subfield_violations(K: FiniteStructure, a1: int, a2: int) -> int:
    """How many subfield elements satisfy the square/non-square split;
    exhaustive over the subfield."""
    return int(_pair_counts(K, np.array([[a1], [a2]]))[1, 0])


def _reports(K: FiniteStructure, a1s: np.ndarray) -> list[QuadraticPairReport]:
    """One report per non-subfield a1 in a1s, PHI evaluated once over every
    column (a1, frob(a1))."""
    columns = np.stack([a1s, K.functions["frob"][a1s]])
    counts, violations = _pair_counts(K, columns).tolist()
    p, q = K.params["p"], K.size
    return [
        QuadraticPairReport(p, q, a1, a2, count, v, abs(count - q / 4.0))
        for (a1, a2), count, v in zip(columns.T.tolist(), counts, violations)
    ]


def make_report(K: FiniteStructure, a1: int) -> QuadraticPairReport:
    """The counts for a1 and its conjugate frob(a1) in the field K = GF(p^2)."""
    if K.relations["insub"][a1]:
        raise SignatureMismatchError(f"a1={a1} lies in the subfield")
    return _reports(K, np.array([a1]))[0]


def run_experiment(p_list, sweep_a1: bool = False) -> list[QuadraticPairReport]:
    """One report per prime, ordered by p. With sweep_a1, every non-subfield
    choice of a1 is reported (robustness runs); each field is built once and
    all its choices are counted together; a LabError names the field."""
    reports = []
    for p in sorted(set(int(v) for v in p_list)):
        K, a1, _ = build_quadratic_pair(p)
        with where(structure=K.describe()):
            choices = np.flatnonzero(~K.relations["insub"]) if sweep_a1 else np.array([a1])
            reports.extend(_reports(K, choices))
    return reports


def experiment_summary(reports) -> dict:
    """The two flags that witness the refutation pattern: a non-algebraic
    count on every prime with not a single subfield witness."""
    all_zero = all(r.subfield_violations == 0 for r in reports)
    all_large = all(r.phi_count >= r.q / 8.0 for r in reports)
    return {
        "n_reports": len(reports),
        "all_violations_zero": all_zero,
        "all_counts_large": all_large,
        "witnessed": all_zero and all_large,
    }


def csv_rows(reports):
    yield ("p", "q", "phi_count", "q_over_4", "deviation", "violations")
    for r in reports:
        yield (r.p, r.q, r.phi_count, repr(r.q / 4.0), repr(r.deviation), r.subfield_violations)

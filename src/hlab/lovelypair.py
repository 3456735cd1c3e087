"""Quadratic-character counting over GF(p^2) against its prime subfield.

For an odd prime p, pick the first element a1 outside the subfield and its
conjugate a2 = frob(a1). The set of x with x - a1 a square but x - a2 not a
square has about a quarter of the field's size (squares include 0), yet no
subfield element can belong to it: the subfield is fixed by frob, frob is an
automorphism, and squares map to squares, so both differences have the same
character for subfield x. The experiment certifies both facts exhaustively
per prime and reports the deviation from q/4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantError, SignatureMismatchError
from .finitemodels import FiniteStructure, make_extension_field


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
        return {
            "p": self.p,
            "q": self.q,
            "a1": self.a1,
            "a2": self.a2,
            "phi_count": self.phi_count,
            "subfield_violations": self.subfield_violations,
            "deviation": self.deviation,
        }


def build_quadratic_pair(p: int):
    """GF(p^2) plus the chosen conjugate pair (a1, a2 = frob(a1))."""
    K = make_extension_field(p)  # rejects p = 2 and non-primes
    insub = K.relations["insub"]
    a1 = int(np.flatnonzero(~insub)[0])
    a2 = int(K.functions["frob"][a1])
    if a1 == a2:
        raise InvariantError(
            f"{K.describe()}, conjugate pair for the character split, choice of a1: "
            f"frob fixes a1={a1}, which lies outside the subfield"
        )
    return K, a1, a2


def square_mask(K: FiniteStructure) -> np.ndarray:
    """Which elements are squares; 0 counts as a square. Cached per structure."""
    mask = K._cache.get("squares")
    if mask is None:
        x = np.arange(K.size)
        mask = np.zeros(K.size, dtype=bool)
        mask[K.functions["mul"][x, x]] = True
        mask.flags.writeable = False
        # threads that raced past the get all return the first one stored
        mask = K._cache.setdefault("squares", mask)
    return mask


def _character_masks(K: FiniteStructure, a1: int, a2: int):
    sq = square_mask(K)
    sub = K.functions["sub"]
    x = np.arange(K.size, dtype=np.intp)
    first = sq[sub[x, a1]]
    second = sq[sub[x, a2]]
    return first, second


def phi_count(K: FiniteStructure, a1: int, a2: int) -> int:
    """|{x : x - a1 is a square and x - a2 is not}|."""
    first, second = _character_masks(K, a1, a2)
    return int((first & ~second).sum())


def pattern_counts(K: FiniteStructure, a1: int, a2: int) -> dict[str, int]:
    """The four character patterns (square/square, square/non, non/square,
    non/non); they partition the universe."""
    first, second = _character_masks(K, a1, a2)
    return {
        "SS": int((first & second).sum()),
        "SN": int((first & ~second).sum()),
        "NS": int((~first & second).sum()),
        "NN": int((~first & ~second).sum()),
    }


def subfield_violations(K: FiniteStructure, a1: int, a2: int) -> int:
    """How many subfield elements satisfy the square/non-square split;
    exhaustive over the subfield."""
    first, second = _character_masks(K, a1, a2)
    insub = K.relations["insub"]
    return int((insub & first & ~second).sum())


def make_report(K: FiniteStructure, a1: int) -> QuadraticPairReport:
    """The counts for a1 and its conjugate frob(a1) in the field K = GF(p^2)."""
    if K.relations["insub"][a1]:
        raise SignatureMismatchError(f"a1={a1} lies in the subfield")
    a2 = int(K.functions["frob"][a1])
    q = K.size
    count = phi_count(K, a1, a2)
    return QuadraticPairReport(
        p=K.params["p"],
        q=q,
        a1=a1,
        a2=a2,
        phi_count=count,
        subfield_violations=subfield_violations(K, a1, a2),
        deviation=float(abs(count - q / 4.0)),
    )


def run_experiment(p_list, sweep_a1: bool = False) -> list[QuadraticPairReport]:
    """One report per prime, ordered by p. With sweep_a1, every non-subfield
    choice of a1 is reported (robustness runs); each field is built once."""
    reports = []
    for p in sorted(set(int(v) for v in p_list)):
        K, a1, _ = build_quadratic_pair(p)
        choices = np.flatnonzero(~K.relations["insub"]) if sweep_a1 else [a1]
        reports.extend(make_report(K, int(a)) for a in choices)
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

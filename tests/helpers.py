"""Helpers shared by several test modules."""

import hashlib
import itertools
import os
from types import SimpleNamespace

from hlab.folang import And, Eq, Exists, Not, Num, Or, Rel, Var, parse_formula
from hlab.errors import EvaluationError
from hlab.hgreedy import verify_avoid, verify_cover


def digest_tree(out_dir):
    """sha256 of every file under out_dir, keyed by its relative path."""
    found = {}
    for root, _, files in os.walk(out_dir):
        for f in files:
            path = os.path.join(root, f)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, out_dir)] = hashlib.sha256(fh.read()).hexdigest()
    return found


def minimum_cover_size(M, pf, psi):
    """Exhaustive minimum-cover oracle over bitmask coverage sets."""
    if not psi:
        return 0
    full = (1 << len(psi)) - 1
    masks = set()
    for a in range(M.size):
        m = 0
        for j, tup in enumerate(psi):
            assignment = {pf.object_var: a}
            assignment.update(zip(pf.params, tup))
            if evaluate(M, pf.formula, assignment):
                m |= 1 << j
        if m:
            masks.add(m)
    # dropping dominated coverage sets keeps at least one optimal cover
    kept = [m for m in masks if not any(m != o and m | o == o for o in masks)]
    for k in range(1, len(kept) + 1):
        for combo in itertools.combinations(kept, k):
            u = 0
            for m in combo:
                u |= m
            if u == full:
                return k
    raise AssertionError("psi not coverable")


def eval_term(M, t, a: dict) -> int:
    if isinstance(t, Var):
        try:
            return a[t.name]
        except KeyError:
            raise EvaluationError(f"no binding for variable {t.name!r}") from None
    if isinstance(t, Num):
        return M.numeral(t.value)
    table = M.functions[t.func]
    if not t.args:
        return int(table)
    idx = tuple(eval_term(M, arg, a) for arg in t.args)
    return int(table[idx])


def evaluate(M, f, a: dict) -> bool:
    """Tarskian truth value by nested loops over the whole universe, with no
    image cache: the naive reference that eval_bulk is tested against."""
    if isinstance(f, Eq):
        return eval_term(M, f.left, a) == eval_term(M, f.right, a)
    if isinstance(f, Rel):
        idx = tuple(eval_term(M, arg, a) for arg in f.args)
        return bool(M.relations[f.name][idx])
    if isinstance(f, Not):
        return not evaluate(M, f.body, a)
    if isinstance(f, And):
        return evaluate(M, f.left, a) and evaluate(M, f.right, a)
    if isinstance(f, Or):
        return evaluate(M, f.left, a) or evaluate(M, f.right, a)
    if isinstance(f, Exists):
        return any(evaluate(M, f.body, {**a, f.var: c}) for c in range(M.size))
    raise TypeError(f"not a formula: {f!r}")


def certified(M, elements, cover_profiles=(), gamma=()):
    """A hand-picked H with the certificates a build of it carries: the
    production cover certificate of each cover profile and avoid certificate
    of each avoid formula, as the h_elements, cover and avoid of a
    BuildReport, the three fields that run_axiom_checks reads."""
    return SimpleNamespace(
        h_elements=list(elements),
        cover=[verify_cover(M, elements, prof) for prof in cover_profiles],
        avoid=[verify_avoid(M, elements, pf) for pf in gamma],
    )


def avoid_with_a_closure_element(M, h):
    """H with one element of clos(H) \\ H appended: z + 1 for the first z in
    H whose successor is outside H. Returns the production avoid certificate
    of x = z + 1 on it, the pairs of an element and an earlier one that the
    naive evaluator finds to satisfy x = z + 1, and the one pair expected,
    (z + 1, z)."""
    pf = parse_formula("x = z + 1", M.sig)
    successor = pf.formula.right
    z = next(e for e in h if eval_term(M, successor, {"z": e}) not in h)
    x = eval_term(M, successor, {"z": z})
    extended = [*h, x]
    naive = [
        (a, b) for i, a in enumerate(extended) for b in extended[:i] if evaluate(M, pf.formula, {"x": a, "z": b})
    ]
    return verify_avoid(M, extended, pf), naive, (x, z)

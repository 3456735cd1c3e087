"""A bound name shadows by scope: a formula whose binder reuses a free or an
enclosing name is planned, evaluated and bound to a Kernel record exactly
as its twin with every binder renamed apart, on each of the four families.
The one exception is the shape the kernel rule refuses, an atom that holds
a free x and reads a parameter's name under a binder of that name: it takes
the grid, with the same solutions as its twin."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from hlab._util import tuple_columns
from hlab.finitemodels import make_cyclic_group, make_extension_field, make_f2_vector_space, make_prime_field
from hlab.folang import (
    And,
    Apply,
    Eq,
    Exists,
    Not,
    Num,
    Or,
    Rel,
    Var,
    free_vars,
    kernel,
    parse_formula,
    plan,
    pretty,
    solution_mask_matrix,
    term_vars,
)

STRUCTURES = {
    "Z_12": make_cyclic_group(12),
    "GF(7)": make_prime_field(7),
    "GF(3^2)": make_extension_field(3),
    "F2^3": make_f2_vector_space(3),
}

# (shadowing text, its twin with the binders renamed apart) per signature
_GROUP_PAIRS = [
    ("x = y & (exists y. y + y = zero)", "x = y & (exists v. v + v = zero)"),
    ("x = y + 1 | (exists x. x = y)", "x = y + 1 | (exists v. v = y)"),
    ("(exists z. z + z = x - y) & (forall y. y = y)", "(exists z. z + z = x - y) & (forall v. v = v)"),
    ("exists z. x = y + z & (exists z. z + z = z)", "exists z. x = y + z & (exists v. v + v = v)"),
    ("(forall x. x = x) -> x = y + y", "(forall v. v = v) -> x = y + y"),
]
_RING_PAIRS = [
    ("x = y & (exists y. y*y = one)", "x = y & (exists v. v*v = one)"),
    ("x = y + 1 | (exists x. x = y)", "x = y + 1 | (exists v. v = y)"),
    ("(exists z. z*z = x - y) & (forall y. y = y)", "(exists z. z*z = x - y) & (forall v. v = v)"),
    ("exists z. z*z = x - y & !(exists z. z = z*z + one)", "exists z. z*z = x - y & !(exists v. v = v*v + one)"),
    ("(forall x. x*x = x) -> x = y * y", "(forall v. v*v = v) -> x = y * y"),
]
PAIRS = {
    "Z_12": _GROUP_PAIRS,
    "GF(7)": _RING_PAIRS,
    "GF(3^2)": _RING_PAIRS + [("insub(x - y) & (exists y. insub(y))", "insub(x - y) & (exists v. insub(v))")],
    "F2^3": _GROUP_PAIRS,
}
# the refused shape: the twin is a kernel, the shadowing formula takes the grid
REFUSED = ("(exists y. x = y + w) & y = y", "(exists v. x = v + w) & y = y")


def _atoms(f, bound=frozenset()):
    """(atom, names bound around it) for every atom of f."""
    if isinstance(f, (Eq, Rel)):
        yield f, bound
    elif isinstance(f, Not):
        yield from _atoms(f.body, bound)
    elif isinstance(f, (And, Or)):
        yield from _atoms(f.left, bound)
        yield from _atoms(f.right, bound)
    elif isinstance(f, Exists):
        yield from _atoms(f.body, bound | {f.var})


def _names(atom):
    terms = (atom.left, atom.right) if isinstance(atom, Eq) else atom.args
    return set().union(*map(term_vars, terms))


def refused_shape(pf):
    """Whether some atom holds a free x and reads a parameter's name under a
    binder of that name."""
    return any(
        pf.object_var in names and pf.object_var not in bound and bound & set(pf.params) & names
        for names, bound in ((_names(atom), bound) for atom, bound in _atoms(pf.formula))
    )


def assert_same_as_twin(M, pf, twin):
    """The same parameters, solution masks at every tuple and, when both are
    kernels, the same Kernel base, c and images; the plan kinds differ only
    where pf has the refused shape and the twin is a kernel."""
    assert pf.params == twin.params
    cols = tuple_columns(range(M.size), pf.arity)
    assert np.array_equal(solution_mask_matrix(M, pf, cols), solution_mask_matrix(M, twin, cols)), pf.text
    kinds = plan(pf).kind, plan(twin).kind
    if kinds[0] != kinds[1]:
        assert kinds[1] == "kernel" and refused_shape(pf), (pf.text, kinds)
        return kinds
    if kinds[0] == "kernel":
        record, twin_record = kernel(M, pf), kernel(M, twin)
        assert np.array_equal(record.base, twin_record.base), pf.text
        assert (record.c, record.images) == (twin_record.c, twin_record.images), pf.text
    return kinds


class TestShadowing:
    @pytest.mark.parametrize("family", sorted(STRUCTURES))
    def test_shadowing_formula_matches_its_twin(self, family):
        M = STRUCTURES[family]
        kinds = set()
        for text, renamed in PAIRS[family]:
            pf, twin = parse_formula(text, M.sig), parse_formula(renamed, M.sig)
            assert not refused_shape(pf)
            kind, twin_kind = assert_same_as_twin(M, pf, twin)
            assert kind == twin_kind
            kinds.add(kind)
        assert "kernel" in kinds

    @pytest.mark.parametrize("family", sorted(STRUCTURES))
    def test_refused_shape_evaluates_like_its_twin(self, family):
        M = STRUCTURES[family]
        pf, twin = (parse_formula(text, M.sig) for text in REFUSED)
        assert refused_shape(pf) and pf.params == ("w", "y")
        assert plan(pf).kind != "kernel" and kernel(M, pf) is None
        assert plan(twin).kind == "kernel"
        assert_same_as_twin(M, pf, twin)


# --- random formulas with shadowed binders, against their renamed twins ----

_NAMES = ("x", "y1", "y2", "z", "w")
_BINDERS = ("x", "y1", "y1", "y2", "z", "w")  # y1 twice: the refused shape binds a parameter


def renamed_apart(f, env=None, counter=None):
    """f with each binder renamed to a fresh b0, b1, ..., so that no bound
    name shadows another or a free one."""
    env, counter = env or {}, counter if counter is not None else [0]

    def term(t):
        if isinstance(t, Var):
            return Var(env.get(t.name, t.name))
        if isinstance(t, Apply):
            return Apply(t.func, tuple(map(term, t.args)))
        return t

    if isinstance(f, Eq):
        return Eq(term(f.left), term(f.right))
    if isinstance(f, Rel):
        return Rel(f.name, tuple(map(term, f.args)))
    if isinstance(f, Not):
        return Not(renamed_apart(f.body, env, counter))
    if isinstance(f, (And, Or)):
        return type(f)(renamed_apart(f.left, env, counter), renamed_apart(f.right, env, counter))
    fresh = f"b{counter[0]}"
    counter[0] += 1
    return Exists(fresh, renamed_apart(f.body, {**env, f.var: fresh}, counter))


@st.composite
def _summand(draw, sig):
    """A name, a numeral or constant, or in rings a product of two of them."""
    leaves = [Var(v) for v in _NAMES] + [Num(draw(st.integers(0, 3)))]
    leaves += [Apply("one", ())] if "one" in sig.functions else []
    leaf = draw(st.sampled_from(leaves))
    if "mul" in sig.functions and draw(st.integers(0, 3)) == 0:
        return Apply("mul", (leaf, draw(st.sampled_from(leaves))))
    return leaf


@st.composite
def _atom(draw, sig):
    """Mostly x = y1 (+ y2) + a summand, a kernel's atom, else an equation
    between two summands or a name equal to itself, which reads a parameter
    that cancels; in GF(p^2) now and then inside insub."""
    kind = draw(st.integers(0, 3))
    if kind == 0:
        v = Var(draw(st.sampled_from(_NAMES)))
        return Eq(v, v)
    if kind > 1:
        shift = Var("y1") if draw(st.booleans()) else Apply("add", (Var("y1"), Var("y2")))
        right = Apply(draw(st.sampled_from(["add", "sub"])), (shift, draw(_summand(sig))))
        if "insub" in sig.relations and draw(st.integers(0, 3)) == 0:
            return Rel("insub", (Apply("sub", (Var("x"), right)),))
        return Eq(Var("x"), right)
    return Eq(draw(_summand(sig)), draw(_summand(sig)))


@st.composite
def _shadowing_formula(draw, sig, depth=3):
    """!, &, | and exists over the atoms, each binder any of the five names:
    the object, a parameter, or a name an enclosing binder took."""
    kind = draw(st.integers(0, 4)) if depth else 0
    if kind == 0:
        return draw(_atom(sig))
    if kind == 1:
        return Not(draw(_shadowing_formula(sig, depth - 1)))
    if kind == 2:
        return Exists(draw(st.sampled_from(_BINDERS)), draw(_shadowing_formula(sig, depth - 1)))
    parts = [draw(_shadowing_formula(sig, depth - 1)) for _ in range(2)]
    return And(*parts) if kind == 3 else Or(*parts)


class TestShadowingAtRandom:
    @settings(max_examples=150)
    @given(st.sampled_from(sorted(STRUCTURES)), st.data())
    def test_matches_the_renamed_twin(self, family, data):
        M = STRUCTURES[family]
        f = data.draw(_shadowing_formula(M.sig))
        assume("x" in free_vars(f))
        pf, twin = (parse_formula(pretty(g), M.sig) for g in (f, renamed_apart(f)))
        assert_same_as_twin(M, pf, twin)

import collections
import functools
import itertools
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hlab import folang
from hlab.errors import (
    EvaluationError,
    FormulaSyntaxError,
    FreeVariableError,
    SignatureMismatchError,
    where,
)
from hlab._util import _lex_tuples, tuple_columns
from hlab.finitemodels import (
    FiniteStructure,
    Signature,
    make_cyclic_group,
    make_extension_field,
    make_f2_vector_space,
    make_prime_field,
)
from hlab.folang import (
    And,
    Apply,
    Eq,
    Exists,
    Not,
    Num,
    Or,
    Rel,
    ParamFormula,
    Var,
    _exists_plan,
    _image_mask,
    _polynomial,
    count_histogram,
    eval_bulk,
    free_vars,
    free_vars_in_order,
    kernel,
    parse,
    parse_formula,
    plan,
    pretty,
    solution_count,
    solution_counts_all,
    solution_mask_matrix,
    solution_set,
    term_vars,
)

from helpers import eval_term, evaluate

LEMMA_TEXT = "exists z. z*z = x - y1 & !(exists z. z*z = x - y2)"


def _grammar_in_readme() -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("## Formula language") :]
    return section.split("```\n")[1]


def _grammar_in_docstring() -> str:
    block = folang.__doc__.split("\n\n")[2]
    return textwrap.dedent(block) + "\n"


class TestGrammar:
    def test_readme_and_module_docstring_agree(self):
        # the grammar is written twice; the two copies are one text
        readme, docstring = _grammar_in_readme(), _grammar_in_docstring()
        assert readme.startswith("formula := ") and docstring.startswith("formula := ")
        assert readme == docstring


class TestParsing:
    def test_square_shift(self, gf7):
        pf = parse_formula("exists z. z*z = x - y", gf7.sig)
        assert pf.object_var == "x"
        assert pf.params == ("y",)
        assert isinstance(pf.formula, Exists)
        assert free_vars(pf.formula) == {"x", "y"}

    def test_contradiction_parses(self, gf7):
        pf = parse_formula("x = y & !(x = y)", gf7.sig)
        for x in range(7):
            for y in range(7):
                assert not evaluate(gf7, pf.formula, {"x": x, "y": y})

    def test_character_split_formula(self, gf7):
        pf = parse_formula(LEMMA_TEXT, gf7.sig)
        assert pf.params == ("y1", "y2")
        assert free_vars(pf.formula) == {"x", "y1", "y2"}
        # quantifier scope extends maximally right: the conjunction sits
        # inside the first exists, so the whole formula is one quantifier
        assert isinstance(pf.formula, Exists)

    def test_parenthesized_term_equation(self, gf7):
        f = parse("(x + y) = z", gf7.sig)
        assert f == Eq(Apply("add", (Var("x"), Var("y"))), Var("z"))

    def test_precedence(self, gf7):
        f = parse("x = x & y = y | x = y", gf7.sig)
        assert isinstance(f, Or)
        assert isinstance(f.left, And)

    def test_implies_right_assoc(self, gf7):
        # a -> b -> c is a -> (b -> c), and the parser reads a -> b as !a | b
        f = parse("x = x -> y = y -> x = y", gf7.sig)
        xx, yy, xy = Eq(Var("x"), Var("x")), Eq(Var("y"), Var("y")), Eq(Var("x"), Var("y"))
        assert f is Or(Not(xx), Or(Not(yy), xy))

    def test_mul_binds_tighter(self, gf7):
        f = parse("x + y * y = z", gf7.sig)
        assert f == Eq(Apply("add", (Var("x"), Apply("mul", (Var("y"), Var("y"))))), Var("z"))

    def test_relation_atom(self):
        K = make_extension_field(3)
        f = parse("insub(x)", K.sig)
        assert f.name == "insub"

    def test_syntax_error_position(self, gf7):
        with pytest.raises(FormulaSyntaxError) as err:
            parse("x = ", gf7.sig)
        assert err.value.position == 4

    def test_unknown_symbol(self, gf7):
        with pytest.raises(SignatureMismatchError):
            parse("foo(x) = y", gf7.sig)

    def test_relation_inside_term(self):
        K = make_extension_field(3)
        with pytest.raises(FormulaSyntaxError):
            parse("insub(x) = y", K.sig)

    def test_arity_mismatch(self):
        K = make_extension_field(3)
        with pytest.raises(FormulaSyntaxError):
            parse("frob(x, y) = x", K.sig)

    @pytest.mark.parametrize("read", [parse, parse_formula], ids=["parse", "parse_formula"])
    def test_operator_needs_its_function(self, read):
        # Z_7 has add and sub but no mul; the parser itself refuses x * y
        with pytest.raises(SignatureMismatchError, match="'mul'"):
            read("x * y = x", make_cyclic_group(7).sig)

    def test_operator_needs_a_binary_function(self):
        sig = Signature(functions={"add": 1}, relations={})
        assert parse("add(x) = x", sig) == Eq(Apply("add", (Var("x"),)), Var("x"))
        with pytest.raises(SignatureMismatchError, match="binary function 'add'"):
            parse("x + y = x", sig)

    def test_free_variable_mismatch(self, gf7):
        with pytest.raises(FreeVariableError):
            parse_formula("y = z", gf7.sig)  # object x not free
        with pytest.raises(FreeVariableError):
            parse_formula("x = y", gf7.sig, params=("y", "w"))

    def test_trailing_garbage(self, gf7):
        with pytest.raises(FormulaSyntaxError):
            parse("x = y )", gf7.sig)

    def test_quantifier_cannot_bind_symbol(self, gf7):
        with pytest.raises(FormulaSyntaxError):
            parse("exists add. x = add", gf7.sig)


class TestFreeVariables:
    @pytest.mark.parametrize(
        "text, order",
        [
            # y is bound in the first conjunct and free in the last
            ("(exists y. y*y = x - w) & z = y", ["x", "w", "z", "y"]),
            # free y first, then a binder that shadows it
            ("y = x & (exists y. y = z) & w = y", ["y", "x", "z", "w"]),
            # nested binders of one name; the inner one shadows the outer
            ("(exists z. (exists z. z = y) & z = x) & z = w", ["y", "x", "z", "w"]),
            ("forall x. x = y -> (exists y. y = x + z)", ["y", "z"]),
        ],
        ids=["bound-then-free", "free-then-shadowed", "nested-binders", "forall-implies"],
    )
    def test_order_of_first_free_appearance(self, gf7, text, order):
        f = parse(text, gf7.sig)
        assert free_vars_in_order(f) == order
        assert free_vars(f) == set(order)
        if "x" in order:  # the parameters keep that order
            assert parse_formula(text, gf7.sig).params == tuple(v for v in order if v != "x")


class TestNormalization:
    def test_implies_rewritten(self, gf7):
        pf = parse_formula("x = y -> x = y", gf7.sig)
        assert isinstance(pf.formula, Or)

    def test_forall_rewritten(self, gf7):
        pf = parse_formula("forall z. z = z | x = y", gf7.sig)
        assert isinstance(pf.formula, Not)
        assert isinstance(pf.formula.body, Exists)

    def test_shadowed_binder_keeps_its_name(self, gf7):
        # the inner z shadows the outer one by scope; nothing is renamed
        pf = parse_formula("exists z. z = x & (exists z. z = z + z)", gf7.sig)
        outer = pf.formula
        assert isinstance(outer, Exists)
        inner = outer.body.right
        assert isinstance(inner, Exists)
        assert inner.var == outer.var == "z"
        twin = parse_formula("exists z. z = x & (exists w. w = w + w)", gf7.sig)
        assert solution_set(gf7, pf) == solution_set(gf7, twin) == list(range(7))

    def test_binder_colliding_with_free_var_keeps_its_name(self, gf7):
        # the bound x is another variable than the free object x
        pf = parse_formula("x = y & (exists x. x = y)", gf7.sig)
        inner = pf.formula.right
        assert isinstance(inner, Exists)
        assert inner.var == "x"
        assert free_vars(pf.formula) == {"x", "y"} and pf.params == ("y",)
        twin = parse_formula("x = y & (exists v. v = y)", gf7.sig)
        for y in range(7):
            assert solution_set(gf7, pf, (y,)) == solution_set(gf7, twin, (y,)) == [y]

    def test_sibling_binders_keep_names(self, gf7):
        pf = parse_formula(LEMMA_TEXT, gf7.sig)
        assert "z" in pretty(pf.formula)


class TestEvaluation:
    def test_equality(self, gf7):
        assert evaluate(gf7, parse("x = y", gf7.sig), {"x": 2, "y": 2})
        assert not evaluate(gf7, parse("x = y", gf7.sig), {"x": 2, "y": 3})

    def test_square_witness(self, gf7):
        f = parse("exists z. z*z = x - y", gf7.sig)
        assert evaluate(gf7, f, {"x": 4, "y": 3})  # 1 is a square

    def test_cyclic(self, z13):
        f = parse("x = y + z + z", z13.sig)
        assert evaluate(z13, f, {"x": 0, "y": 0, "z": 0})

    def test_missing_binding(self, gf7):
        with pytest.raises(EvaluationError):
            evaluate(gf7, parse("x = y", gf7.sig), {"x": 1})

    def test_closed_formula_ignores_irrelevant_entries(self, gf7):
        f = parse("exists z. z = 0", gf7.sig)
        assert evaluate(gf7, f, {}) == evaluate(gf7, f, {"q": 3, "x": 5})

    def test_numerals(self, z13):
        f = parse("x = z + 1", z13.sig)
        assert evaluate(z13, f, {"x": 6, "z": 5})

    def test_numerals_in_extension_field(self):
        K = make_extension_field(3)
        pf = parse_formula("x = 1", K.sig)
        assert solution_set(K, pf) == [K.constant("one")]
        pf2 = parse_formula("x = 1 + 1", K.sig)
        one = K.constant("one")
        assert solution_set(K, pf2) == [int(K.functions["add"][one, one])]


def brute_square_shift_set(p, y):
    squares = {(z * z) % p for z in range(p)}
    return sorted(x for x in range(p) if (x - y) % p in squares)


class TestCounting:
    def test_count_gf7(self, gf7):
        pf = parse_formula("exists z. z*z = x - y", gf7.sig)
        assert solution_count(gf7, pf, (3,)) == 4
        assert solution_set(gf7, pf, (0,)) == [0, 1, 2, 4]

    def test_count_gf11(self, gf11):
        pf = parse_formula("exists z. z*z = x - y", gf11.sig)
        assert solution_count(gf11, pf, (0,)) == 6

    def test_equality_is_algebraic(self, gf11):
        pf = parse_formula("x = y", gf11.sig)
        assert solution_count(gf11, pf, (5,)) == 1
        assert solution_set(gf11, pf, (5,)) == [5]

    def test_negated_equality(self, z13):
        pf = parse_formula("!(x = y)", z13.sig)
        assert solution_set(z13, pf, (0,)) == list(range(1, 13))

    def test_against_brute_force(self, gf11):
        pf = parse_formula("exists z. z*z = x - y", gf11.sig)
        for y in range(11):
            assert solution_set(gf11, pf, (y,)) == brute_square_shift_set(11, y)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 61, 199])
    def test_half_measure_exact(self, p):
        M = make_prime_field(p)
        pf = parse_formula("exists z. z*z = x - y", M.sig)
        counts = solution_counts_all(M, pf)
        assert counts.shape == (p,)
        assert set(counts.tolist()) == {(p + 1) // 2}

    def test_half_measure_past_table_scale(self):
        # GF(100003) stores nothing of size p^2, so counting stays O(p)
        p = 100003
        M = make_prime_field(p)
        pf = parse_formula("exists z. z*z = x - y", M.sig)
        for y in (0, 1, p - 4):
            assert solution_count(M, pf, (y,)) == (p + 1) // 2

    def test_nonzero_square_shift_past_table_scale(self):
        # the domain conjunct keeps the plan O(p); the per-element loop
        # would be O(p^2) per call here, so a silent fallback fails fast
        p = 100003
        M = make_prime_field(p)
        pf = parse_formula("exists z. z*z = x - y & !(z = 0)", M.sig)
        assert _exists_plan(pf.formula) is not None
        for y in (0, 1, p - 4):
            assert solution_count(M, pf, (y,)) == (p - 1) // 2

    def test_counts_all_two_params(self, gf7):
        pf = parse_formula(LEMMA_TEXT, gf7.sig)
        counts = solution_counts_all(gf7, pf)
        assert counts.shape == (49,)
        for flat in (0, 8, 13, 48):
            y1, y2 = divmod(flat, 7)
            assert counts[flat] == solution_count(gf7, pf, (y1, y2))

    def test_arity_mismatch(self, gf7):
        pf = parse_formula("x = y", gf7.sig)
        with pytest.raises(EvaluationError):
            solution_count(gf7, pf, (1, 2))

    @pytest.mark.parametrize(
        "make, text, kind",
        [
            (lambda: make_prime_field(7), "x = y", "kernel"),
            (lambda: make_prime_field(7), "x*y = 1", "image"),
            (lambda: make_extension_field(3), "x = frob(y)", "kernel"),
            (lambda: make_extension_field(3), "frob(x) = y", "image"),
        ],
    )
    def test_parameter_outside_the_universe(self, make, text, kind):
        # a kernel would answer |G| and a grid would wrap or index past the
        # table: both refuse a value that is no element
        M = make()
        pf = parse_formula(text, M.sig)
        assert plan(pf).kind == kind
        for y in (-1, M.size):
            for call in (solution_count, solution_set):
                with pytest.raises(EvaluationError, match=f"parameters in 0..{M.size - 1}, got {y}$"):
                    call(M, pf, (y,))

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda M, pf: eval_bulk(M, pf.formula, {"x": np.arange(M.size)}), "no binding for variable 'y'"),
            (lambda M, pf: solution_mask_matrix(M, pf, np.zeros((2, 1))), "expected 1 parameter rows"),
        ],
        ids=["binding", "rows"],
    )
    def test_evaluation_error_names_its_context(self, gf7, call, message):
        # the evaluator names nothing itself; a caller's context names the rest
        pf = parse_formula("x = y", gf7.sig)
        with pytest.raises(EvaluationError) as info:
            with where(structure=gf7.describe(), formula=pf.text, step=2):
                call(gf7, pf)
        assert str(info.value) == f"prime-field(p=7), formula 'x = y', step 2: {message}"

    @given(st.integers(0, 12))
    def test_count_equals_set_size(self, y):
        M = make_cyclic_group(13)
        pf = parse_formula("exists z. x = y + z + z", M.sig)
        assert solution_count(M, pf, (y,)) == len(solution_set(M, pf, (y,)))


def assert_bulk_matches_naive(M, f):
    """eval_bulk on every assignment of the free variables, one broadcast
    grid per variable, with the image cache cold and then warm, against the
    naive scalar oracle."""
    names = sorted(free_vars(f))
    grids = np.meshgrid(*[np.arange(M.size)] * len(names), indexing="ij")
    env = dict(zip(names, grids))
    cold, warm = eval_bulk(M, f, env), eval_bulk(M, f, env)
    assert cold.shape == warm.shape == (M.size,) * len(names)
    for point in np.ndindex(cold.shape):
        a = {v: int(c) for v, c in zip(names, point)}
        assert bool(cold[point]) == bool(warm[point]) == evaluate(M, f, a)


# --- random conjunctive existentials for the query planner ---------------

PLANNER_STRUCTURES = {
    make_prime_field: (2, 3, 5, 7, 11, 13),
    make_cyclic_group: tuple(range(1, 13)),
    make_extension_field: (3, 5),
}


@functools.cache
def _planner_structure(make, size):
    return make(size)


@st.composite
def _planner_term(draw, sig, names, must=(), depth=2):
    """A term over `names` and numerals that contains every name in `must`."""
    binary = [f for f in ("add", "sub", "mul") if f in sig.functions]
    leaves = [Var(v) for v in names] or [Num(0)]
    if depth == 0 or draw(st.booleans()):
        t = draw(st.sampled_from(leaves) | st.integers(0, 4).map(Num))
    elif "frob" in sig.functions and draw(st.integers(0, 3)) == 0:
        t = Apply("frob", (draw(_planner_term(sig, names, depth=depth - 1)),))
    else:
        a = draw(_planner_term(sig, names, depth=depth - 1))
        b = draw(_planner_term(sig, names, depth=depth - 1))
        t = Apply(draw(st.sampled_from(binary)), (a, b))
    for v in must:
        if v not in term_vars(t):
            pair = (Var(v), t) if draw(st.booleans()) else (t, Var(v))
            t = Apply(draw(st.sampled_from(binary)), pair)
    return t


@st.composite
def _planner_conjunct(draw, sig, var, outer, budget, kind):
    """One conjunct of `exists var. ...`: the isolated equation, one in `var`
    alone, one without `var`, or one mixing `var` with `outer` (which the
    planner must leave to the per-element loop); all but the isolated
    equation may be negated."""
    if kind == "isolated":
        image = draw(_planner_term(sig, (var,), must=(var,)))
        other = draw(_planner_term(sig, outer))
        return Eq(image, other) if draw(st.booleans()) else Eq(other, image)
    if kind == "mixed":
        mixed = draw(_planner_term(sig, (var, *outer), must=(var, draw(st.sampled_from(outer)))))
        c = Eq(mixed, draw(_planner_term(sig, outer)))
    else:
        names = (var,) if kind == "domain" else outer
        if budget > 0 and draw(st.booleans()):  # its binder may shadow `var`
            c = draw(_planner_quantified(sig, draw(st.sampled_from(["w", var])), names, budget - 1))
        elif kind == "domain" and "insub" in sig.relations and draw(st.booleans()):
            c = Rel("insub", (draw(_planner_term(sig, names, must=(var,))),))
        else:
            c = Eq(draw(_planner_term(sig, names)), draw(_planner_term(sig, names)))
    return Not(c) if draw(st.integers(0, 2)) == 0 else c


def _forall(var, body):
    """`forall var. body` as the parser reads it: !exists var. !body."""
    return Not(Exists(var, Not(body)))


@st.composite
def _planner_quantified(draw, sig, var, outer, budget):
    """`exists var.` or `forall var. !` over an And chain of conjuncts,
    sometimes negated; `budget` more quantifiers may nest inside. Most
    chains hold an isolated equation; some hold a mixed conjunct too."""
    rest = ["domain", "hoisted", "isolated"] + (["mixed"] if outer else [])
    kinds = [draw(st.sampled_from(["isolated", "isolated", "isolated", "domain"]))]
    kinds += draw(st.lists(st.sampled_from(rest), max_size=3))
    parts = [draw(_planner_conjunct(sig, var, outer, budget, k)) for k in kinds]
    parts = draw(st.permutations(parts))
    body = parts[0]
    for c in parts[1:]:
        body = And(body, c) if draw(st.booleans()) else And(c, body)
    quantified = [Exists(var, body), Exists(var, body), _forall(var, Not(body)), _forall(var, body)]
    f = draw(st.sampled_from(quantified))
    return Not(f) if draw(st.integers(0, 3)) == 0 else f


@st.composite
def _planner_cases(draw):
    make = draw(st.sampled_from(list(PLANNER_STRUCTURES)))
    size = draw(st.sampled_from(PLANNER_STRUCTURES[make]))
    outer = draw(st.sampled_from([("x",), ("x", "y")]))
    sig = _planner_structure(make, size).sig
    return make, size, draw(_planner_quantified(sig, "z", outer, budget=1))


# per family: one structure and, per plan kind, a formula at arity 0, 1 and 2
_GROUP_SOLVES = {
    "kernel": ["x = zero", "exists z. z + z = x - y", "x = y1 + y2"],
    "image": ["x + x = zero", "x + x = y", "!(x + x = y1 - y2)"],
    "loop": ["exists z. z + z = x + x + z", "exists z. z = y & x + x = z", "exists z. z = y1 & x + x = z + y2"],
}
_RING_SOLVES = {
    "kernel": ["exists z. z * z = x", "x = y * y", "exists z. z*z = x - y1 * y2"],
    "image": ["x * x = one", "exists z. z*z = x * y", "exists z. z*z = x * y1 + y2"],
    "loop": ["exists z. z * z = x * z + one", "exists z. z * z = x * z + y", "exists z. z * z = x * z + y1 * y2"],
}
SOLVES_CASES = {
    "Z_12": (make_cyclic_group(12), _GROUP_SOLVES),
    "GF(13)": (make_prime_field(13), _RING_SOLVES),
    "GF(5^2)": (
        make_extension_field(5),
        {**_RING_SOLVES, "kernel": ["insub(x)", "exists z. frob(z) = x - y", "x = y1 * y2"]},
    ),
    "F2^4": (make_f2_vector_space(4), _GROUP_SOLVES),
}


class TestSolves:
    def test_cases_cover_every_plan_and_arity(self):
        for M, by_kind in SOLVES_CASES.values():
            for kind, texts in by_kind.items():
                pfs = [parse_formula(text, M.sig) for text in texts]
                assert [plan(pf).kind for pf in pfs] == [kind] * 3
                assert [pf.arity for pf in pfs] == [0, 1, 2]

    @settings(max_examples=200)
    @given(st.sampled_from(list(SOLVES_CASES)), st.sampled_from(["kernel", "image", "loop"]), st.integers(0, 2), st.data())
    def test_matches_naive(self, family, kind, arity, data):
        # solves evaluates m (element, tuple) pairs with no grid; at arity 0
        # the one empty tuple is broadcast over every element
        M, by_kind = SOLVES_CASES[family]
        pf = parse_formula(by_kind[kind][arity], M.sig)
        element = st.integers(0, M.size - 1)
        pairs = data.draw(st.lists(st.tuples(element, st.tuples(*[element] * arity)), max_size=8))
        elements = np.array([e for e, _ in pairs], dtype=np.intp)
        cols = np.array([t for _, t in pairs], dtype=np.intp).reshape(len(pairs), arity).T
        got = folang.solves(M, pf, elements, cols)
        assert got.dtype == np.bool_ and got.shape == (len(pairs),)
        expected = [evaluate(M, pf.formula, {"x": e, **dict(zip(pf.params, t))}) for e, t in pairs]
        assert got.tolist() == expected


class TestEvaluatorAgreement:
    FORMULAS = [
        "exists z. z*z = x - y",
        "!(exists z. z*z = x - y)",
        "exists z. z*z = x - y1 & !(exists z. z*z = x - y2)",
        "forall z. !(z*z = x - y) | x = y",
        "x = y -> (exists z. z + z = x)",
        "exists z. exists w. z * w = x & !(w = y)",
    ]

    @pytest.mark.parametrize("text", FORMULAS)
    @pytest.mark.parametrize("p", [5, 7, 11])
    def test_memoized_matches_naive_spot_checks(self, text, p):
        # eval_bulk against the naive scalar oracle, once with the fresh
        # structure's image cache cold and once with it warm
        M = make_prime_field(p)
        f = parse(text, M.sig)
        names = sorted(free_vars(f))
        rng = np.random.default_rng([p, len(text)])
        arrays = {v: rng.integers(0, p, size=50) for v in names}
        cold = eval_bulk(M, f, arrays)
        warm = eval_bulk(M, f, arrays)
        for i in range(50):
            a = {v: int(arrays[v][i]) for v in names}
            assert bool(cold[i]) == bool(warm[i]) == evaluate(M, f, a)

    @pytest.mark.parametrize("text", FORMULAS)
    def test_bulk_matches_scalar(self, text):
        M = make_prime_field(7)
        assert_bulk_matches_naive(M, parse(text, M.sig))

    def test_image_cache_keyed_by_domain(self):
        # the two formulas share an image term and differ at x = 0, so an
        # image cached without its domain answers the second one wrongly
        plain = "exists z. z*z = x"
        nonzero = "exists z. z*z = x & !(z = 0)"
        for order in ((plain, nonzero), (nonzero, plain)):
            M = make_prime_field(7)
            for text in order:
                assert_bulk_matches_naive(M, parse(text, M.sig))
        M = make_prime_field(7)
        grid = {"x": np.arange(7)}
        assert eval_bulk(M, parse(plain, M.sig), grid)[0]
        assert not eval_bulk(M, parse(nonzero, M.sig), grid)[0]

    def test_empty_domain_image_is_empty(self, gf7):
        # the image term has no z, so only the empty domain makes it false
        f = parse("exists z. x = 0 & !(z = z)", gf7.sig)
        assert _exists_plan(f) is not None
        assert not eval_bulk(gf7, f, {"x": np.arange(7)}).any()

    def test_mixed_conjunct_falls_back(self, gf7):
        f = parse("exists z. z*z = x - y & !(z = y)", gf7.sig)
        assert _exists_plan(f) is None
        assert_bulk_matches_naive(gf7, f)

    def test_forall_of_negated_conjunction_is_planned(self, gf7):
        f = parse("forall z. !(z*z = x & !(z = 0))", gf7.sig)
        assert _exists_plan(f.body) is not None
        assert_bulk_matches_naive(gf7, f)

    @settings(max_examples=300)
    @given(_planner_cases())
    def test_planner_matches_naive(self, case):
        # one structure per size for the whole run, so images cached for
        # earlier formulas are in place when later ones look them up
        make, size, f = case
        assert_bulk_matches_naive(_planner_structure(make, size), f)

    def test_raw_formula_evaluates_like_normalized(self, gf7):
        # forall and -> are read as !exists ! and !| as the text is parsed
        raw = parse("forall z. z = x -> (exists w. w + w = z + y)", gf7.sig)
        assert raw is parse("!(exists z. !(!(z = x) | (exists w. w + w = z + y)))", gf7.sig)
        for x in range(7):
            for y in range(7):
                expected = all(z != x or any((w + w) % 7 == (z + y) % 7 for w in range(7)) for z in range(7))
                assert evaluate(gf7, raw, {"x": x, "y": y}) == expected



# --- pretty-printing round trips ----------------------------------------

_vars = st.sampled_from(["x", "y"])


def _terms():
    base = _vars.map(Var) | st.integers(0, 9).map(Num)
    return st.recursive(
        base,
        lambda children: st.tuples(
            st.sampled_from(["add", "sub", "mul"]), children, children
        ).map(lambda t: Apply(t[0], (t[1], t[2]))),
        max_leaves=6,
    )


def _formulas():
    atoms = st.tuples(_terms(), _terms()).map(lambda t: Eq(t[0], t[1]))
    return st.recursive(
        atoms,
        lambda children: st.one_of(
            children.map(Not),
            st.tuples(children, children).map(lambda t: And(*t)),
            st.tuples(children, children).map(lambda t: Or(*t)),
            st.tuples(st.sampled_from(["z", "w"]), children).map(lambda t: Exists(*t)),
        ),
        max_leaves=8,
    )


# formula texts over these names, any of which a binder may shadow, and the
# value of each name where it is free
_TEXT_NAMES = ("x", "y", "z", "w")
_ASSIGNMENT = {"x": 2, "y": 4, "z": 1, "w": 3}
_CONNECTIVES = {"&": lambda p, q: p and q, "|": lambda p, q: p or q, "->": lambda p, q: not p or q}


def _binary_text(case):
    op, (p, p_truth), (q, q_truth) = case
    return f"({p}) {op} ({q})", lambda M, a: _CONNECTIVES[op](p_truth(M, a), q_truth(M, a))


def _quantified_text(case):
    word, v, (p, truth) = case
    over = any if word == "exists" else all
    return f"({word} {v}. {p})", lambda M, a: over(truth(M, {**a, v: c}) for c in range(M.size))


def _texts():
    """(text, truth) pairs: texts with !, &, |, ->, exists and forall, and
    truth(M, a) their value at assignment a, read the way the text says it:
    Python's not, and, or, any and all over atoms that tests.helpers.evaluate
    decides. No text is parsed to make its truth."""
    terms = st.recursive(
        st.sampled_from(_TEXT_NAMES).map(Var) | st.integers(0, 9).map(Num),
        lambda children: st.tuples(st.sampled_from(["add", "sub", "mul"]), children, children).map(
            lambda t: Apply(t[0], (t[1], t[2]))
        ),
        max_leaves=3,
    )
    atoms = st.tuples(terms, terms).map(lambda t: Eq(*t))
    return st.recursive(
        atoms.map(lambda eq: (pretty(eq), lambda M, a: evaluate(M, eq, a))),
        lambda children: st.one_of(
            children.map(lambda p: (f"!({p[0]})", lambda M, a: not p[1](M, a))),
            st.tuples(st.sampled_from(list(_CONNECTIVES)), children, children).map(_binary_text),
            st.tuples(st.sampled_from(["exists", "forall"]), st.sampled_from(_TEXT_NAMES), children).map(
                _quantified_text
            ),
        ),
        max_leaves=4,
    )


class TestPretty:
    @given(_formulas())
    def test_round_trip(self, f):
        M = make_prime_field(5)
        assert parse(pretty(f), M.sig) == f

    @given(_texts())
    def test_normalized_round_trip(self, case):
        # the tree read from a text with -> and forall prints and reparses to itself
        M = make_prime_field(5)
        f = parse(case[0], M.sig)
        assert parse(pretty(f), M.sig) is f

    @given(_texts())
    def test_normalize_preserves_truth(self, case):
        # the parser's reading of ->, forall and shadowed binders against
        # the connectives and quantifiers the text names
        M = make_prime_field(5)
        text, truth = case
        assert evaluate(M, parse(text, M.sig), _ASSIGNMENT) == truth(M, _ASSIGNMENT)

    def test_param_formula_round_trip(self, gf7):
        pf = parse_formula(LEMMA_TEXT, gf7.sig)
        assert parse(pretty(pf.formula), gf7.sig) == pf.formula


class TestDesugaring:
    @settings(max_examples=60)
    @given(_texts().map(lambda case: case[0]), _texts().map(lambda case: case[0]), st.sampled_from(_TEXT_NAMES))
    def test_implies_and_forall_match_the_oracle(self, p, q, v):
        # p -> q and forall v. p against not p or q and all(...) over v,
        # with p and q decided by the one naive oracle, at every value of
        # their free names
        M = make_prime_field(5)
        fp, fq = parse(p, M.sig), parse(q, M.sig)
        implies, forall = parse(f"({p}) -> ({q})", M.sig), parse(f"forall {v}. {p}", M.sig)
        names = sorted(free_vars(fp) | free_vars(fq))
        for values in itertools.product(range(M.size), repeat=len(names)):
            a = {**_ASSIGNMENT, **dict(zip(names, values))}
            assert evaluate(M, implies, a) == (not evaluate(M, fp, a) or evaluate(M, fq, a))
            assert evaluate(M, forall, a) == all(evaluate(M, fp, {**a, v: c}) for c in range(M.size))


# formulas of arities 0 to 3 for each signature, planned and looped alike
BLOCK_FORMULAS = {
    "group": [
        "x + x = zero", "exists z. z + z = x - y", "x = y1 + y2 | x = y1", "!(x = y1 + y2 - y3)"
    ],
    "ring": ["x * x = one", "exists z. z*z = x - y", "x * y1 = y2 + one", "x + y1 = y2 * y3"],
    "extension": [
        "insub(x)", "exists z. z*z = x - y", "frob(x) = y1 * y2", "x + y1 = y2 * frob(y3)"
    ],
}
BLOCK_STRUCTURES = [
    (make_cyclic_group(6), "group"),
    (make_prime_field(5), "ring"),
    (make_extension_field(3), "extension"),
    (make_f2_vector_space(3), "group"),
]


class TestBlockedEvaluator:
    @pytest.mark.parametrize("budget", [None, 1, 7])
    @pytest.mark.parametrize("M, kind", BLOCK_STRUCTURES, ids=["Z6", "GF5", "GF9", "F2^3"])
    def test_matches_naive(self, M, kind, budget, shrink_budget):
        # budgets of 1 and 7 cells split every call into one-column blocks
        if budget is not None:
            shrink_budget(budget)
        for text in BLOCK_FORMULAS[kind]:
            pf = parse_formula(text, M.sig)
            cols = tuple_columns(range(M.size), pf.arity)
            for rows in ([M.size - 1, 0, 2, 2], None):
                got = solution_mask_matrix(M, pf, cols, rows=rows)
                xs = range(M.size) if rows is None else rows
                expected = [
                    [evaluate(M, pf.formula, {"x": x, **dict(zip(pf.params, map(int, col)))})
                     for col in cols.T]
                    for x in xs
                ]
                expected = np.array(expected, dtype=bool)
                assert np.array_equal(got, expected), text
            # tuple_columns and solution_counts_all share lexicographic order
            assert np.array_equal(solution_counts_all(M, pf), expected.sum(axis=0)), text

    def test_no_columns(self, gf7):
        for text in ("x * x = one", "x * y1 = y2"):
            pf = parse_formula(text, gf7.sig)
            assert solution_mask_matrix(gf7, pf, np.empty((pf.arity, 0), int)).shape == (7, 0)


class TestLexTuples:
    @pytest.mark.parametrize("arity", [0, 1, 2, 3])
    @pytest.mark.parametrize(
        "values", [[0], [0, 1], [0, 1, 2, 3, 4], [], [3, 0, 3]], ids=["1", "2", "5", "empty", "repeated"]
    )
    def test_matches_product_order(self, values, arity):
        # positions of range(n)^arity, and tuple_columns over the values
        # themselves, none or repeated ones included
        n, expected = len(values), list(itertools.product(values, repeat=arity))
        for positions in (np.arange(n**arity), np.arange(n**arity)[1::3]):
            got = _lex_tuples(positions, n, arity)
            assert got.shape == (arity, len(positions)) and got.dtype == np.intp
            assert [tuple(values[i] for i in col) for col in got.T.tolist()] == [expected[i] for i in positions]
        got = tuple_columns(values, arity)
        assert got.shape == (arity, len(expected)) and got.dtype == np.intp
        assert [tuple(col) for col in got.T.tolist()] == expected


class TestImageCacheRace:
    def test_cold_structure_stores_one_mask(self, race):
        # eight threads on a cold structure: each must get the one stored mask
        f = parse("exists z. z*z = x - y & !(z = 0)", make_prime_field(5).sig)
        image_term, _, domain, _ = _exists_plan(f)
        reference = _image_mask(make_prime_field(10007), image_term, "z", domain)
        M = make_prime_field(10007)
        masks = race(lambda: _image_mask(M, image_term, "z", domain))
        assert all(mask is masks[0] for mask in masks)
        assert np.array_equal(masks[0], reference)

    def test_cold_structure_stores_one_counts_array(self, race):
        # off the kernel rule (x enters with coefficient 2), so counted: each
        # of eight threads must get the one stored read-only array
        pf = parse_formula("exists z. z*z = x + x - y", make_prime_field(5).sig)
        reference = solution_counts_all(make_prime_field(10007), pf)
        M = make_prime_field(10007)
        assert kernel(M, pf) is None
        counts = race(lambda: solution_counts_all(M, pf))
        assert all(c is counts[0] for c in counts) and not counts[0].flags.writeable
        assert np.array_equal(counts[0], reference)


# --- translation kernels ---------------------------------------------------

def naive_solutions(M, pf, params):
    a = dict(zip(pf.params, map(int, params)))
    return {x for x in range(M.size) if evaluate(M, pf.formula, {pf.object_var: x, **a})}


def assert_kernel_matches_naive(M, pf, cols):
    """Counts and scattered points of an accepted formula at each (arity, m)
    parameter column against the naive oracle."""
    record = kernel(M, pf)
    points = record.points(cols)
    counts = solution_counts_all(M, pf)
    assert points.shape == (len(record.base), cols.shape[1])
    for j, col in enumerate(cols.T):
        expected = naive_solutions(M, pf, col)
        flat = int(np.ravel_multi_index(tuple(col), (M.size,) * pf.arity)) if pf.arity else 0
        assert counts[flat] == solution_count(M, pf, col) == len(expected), (pf.text, col)
        assert sorted(points[:, j].tolist()) == sorted(expected), (pf.text, col)


def is_kernel(pf):
    return plan(pf).kind == "kernel"


KERNEL_STRUCTURES = {
    make_cyclic_group: tuple(range(1, 13)),
    make_prime_field: (2, 3, 5, 7, 11, 13),
    make_extension_field: (3, 5),
    make_f2_vector_space: (1, 2, 3, 4),
}


class TestTranslationKernel:
    @pytest.mark.parametrize(
        "make, size, text",
        [
            (make_prime_field, 13, "exists z. z*z = x - y"),
            (make_prime_field, 13, "!(x = y)"),
            (make_prime_field, 13, "x = z"),
            (make_prime_field, 13, "x = z + 1"),
            (make_extension_field, 5, "insub(x - y)"),
            (make_f2_vector_space, 3, "x = y + 3"),
            (make_cyclic_group, 12, "exists z. x = y + z + z"),
            (make_prime_field, 7, "x = 0 | (exists z. z*z = x)"),
        ],
        ids=["square-shift", "inequality", "x=z", "x=z+1", "insub", "F2-numeral", "doubling",
             "parameterless"],
    )
    def test_accepted(self, make, size, text):
        M = make(size)
        pf = parse_formula(text, M.sig)
        assert is_kernel(pf)
        # the histogram is |G| on all n^k tuples, counted with no record built
        naive = collections.Counter(
            len(naive_solutions(M, pf, col)) for col in tuple_columns(range(M.size), pf.arity).T
        )
        assert count_histogram(M, pf) == ([*naive], [*naive.values()])
        assert not [key for key in M._cache if key[0] == "kernel"]
        assert_kernel_matches_naive(M, pf, tuple_columns(range(M.size), pf.arity))

    @pytest.mark.parametrize(
        "make, size, text",
        [
            (make_prime_field, 7, "x*y = 1"),
            (make_prime_field, 7, "x + x = y"),
            (make_extension_field, 3, "frob(x) = y"),
            (make_extension_field, 3, "x = y & insub(y)"),
            (make_prime_field, 7, "exists z. y*z = x"),
            (make_prime_field, 7, "x = y | x = y*y"),
            (make_prime_field, 7, "x*x = y"),
        ],
        ids=["xy=1", "coefficient-2", "frob", "parameter-only-atom", "param-times-bound",
             "two-shifts", "square"],
    )
    def test_rejected(self, make, size, text):
        # none reads x only through x - u(params); on some structure each
        # count varies with the parameters (2x = y has 0 or 2 roots on Z_12)
        M = make(size)
        pf = parse_formula(text, M.sig)
        assert not is_kernel(pf)
        assert kernel(M, pf) is None

    def test_numerals_stay_opaque(self):
        # 1 + 1 is 0 on F2^2 and 2 is not; a normaliser that read numerals
        # as integers would call the two equal
        M = make_f2_vector_space(2)
        one_plus_one, two = Apply("add", (Num(1), Num(1))), Num(2)
        assert eval_term(M, one_plus_one, {}) != eval_term(M, two, {})
        assert _polynomial(one_plus_one) != _polynomial(two)

    def test_second_parameter_is_a_shift(self, gf7):
        # with z a parameter, y*z is part of the shift: x = y*z is one point
        pf = parse_formula("y*z = x", gf7.sig)
        assert is_kernel(pf)
        assert_kernel_matches_naive(gf7, pf, tuple_columns(range(7), 2))

    def test_outside_the_families_takes_the_grid(self, gf7):
        # the kernel rule relies on the ring laws of the four families
        M = FiniteStructure(gf7.sig, 7, "custom", {}, dict(gf7.functions), {})
        pf = parse_formula("x = y", M.sig)
        assert is_kernel(pf) and kernel(M, pf) is None
        assert solution_counts_all(M, pf).tolist() == [1] * 7

    def test_counts_once_per_structure(self, monkeypatch):
        # a kernel counts its zero tuple and nothing else, however many
        # tuples are asked for
        M = make_prime_field(101)
        pf = parse_formula("exists z. z*z = x - y", M.sig)
        columns = []

        def counted(M, pf, cols, rows=None):
            columns.append(np.shape(cols)[1])
            return solution_mask_matrix(M, pf, cols, rows)

        monkeypatch.setattr(folang, "solution_mask_matrix", counted)
        assert solution_counts_all(M, pf).tolist() == [51] * 101
        assert solution_count(M, pf, (17,)) == 51
        assert columns == [1]

    def test_cold_structure_stores_one_base(self, race):
        # eight threads on a cold structure: each must get the one stored record and G
        pf = parse_formula("exists z. z*z = x - y", make_prime_field(5).sig)
        reference = kernel(make_prime_field(10007), pf)
        M = make_prime_field(10007)
        records = race(lambda: kernel(M, pf))
        assert all(record is records[0] for record in records)
        assert np.array_equal(records[0].base, reference.base)
        assert (records[0].c, records[0].images) == (reference.c, reference.images)

    @settings(max_examples=200)
    @given(st.data())
    def test_matches_naive(self, data):
        make = data.draw(st.sampled_from(list(KERNEL_STRUCTURES)))
        M = _planner_structure(make, data.draw(st.sampled_from(KERNEL_STRUCTURES[make])))
        params = data.draw(st.sampled_from([("y1",), ("y1", "y2")]))
        shift = data.draw(_kernel_shift_term(M.sig, params))
        f = data.draw(_kernel_formula(M.sig, params, shift))
        present = tuple(v for v in params if v in free_vars(f))
        pf = ParamFormula(f, "x", present, pretty(f))
        tuples = st.tuples(*[st.integers(0, M.size - 1)] * len(present))
        cols = np.array(data.draw(st.lists(tuples, min_size=1, max_size=6)), dtype=np.intp)
        cols = cols.reshape(len(cols), len(present)).T
        if is_kernel(pf):
            assert_kernel_matches_naive(M, pf, cols)
        else:
            assert kernel(M, pf) is None
            for j, col in enumerate(cols.T):
                assert solution_count(M, pf, col) == len(naive_solutions(M, pf, col))


@st.composite
def _kernel_piece(draw, sig, names):
    """A variable, a numeral or constant, or (in rings) a product of two of
    them or frob of one."""
    leaves = [Var(v) for v in names] + [Num(draw(st.integers(0, 4)))]
    leaves += [Apply(c, ()) for c in ("zero", "one") if c in sig.functions]
    leaf = draw(st.sampled_from(leaves))
    kind = draw(st.integers(0, 5))
    if kind == 0 and "mul" in sig.functions:
        return Apply("mul", (leaf, draw(st.sampled_from(leaves))))
    if kind == 1 and "frob" in sig.functions:
        return Apply("frob", (leaf,))
    return leaf


def _signed_sum(pieces):
    """The term for a list of (sign, term) summands; a leading minus is
    taken from the numeral 0."""
    (sign, t), rest = pieces[0], pieces[1:]
    if sign < 0:
        t = Apply("sub", (Num(0), t))
    for sign, p in rest:
        t = Apply("add" if sign > 0 else "sub", (t, p))
    return t


@st.composite
def _kernel_atom(draw, sig, params, shift, bound):
    """Mostly x - shift (now and then 2x - shift) plus summands in the bound
    variables and constants, spread over both sides of an equation or put in
    insub; otherwise an equation between two random sums over every name."""
    if draw(st.integers(0, 3)) == 0:
        names = ("x", *params, *bound)
        sums = [[(draw(st.sampled_from([1, -1])), draw(_kernel_piece(sig, names)))
                 for _ in range(draw(st.integers(1, 3)))] for _ in range(2)]
        return Eq(_signed_sum(sums[0]), _signed_sum(sums[1]))
    sign = draw(st.sampled_from([1, -1]))
    pieces = [(sign, Var("x")), (-sign, shift)]
    if draw(st.integers(0, 7)) == 0:
        pieces.append((sign, Var("x")))  # x + x: the rule must refuse it
    pieces += [(draw(st.sampled_from([1, -1])), draw(_kernel_piece(sig, bound)))
               for _ in range(draw(st.integers(0, 2)))]
    pieces = draw(st.permutations(pieces))
    if "insub" in sig.relations and draw(st.integers(0, 3)) == 0:
        return Rel("insub", (_signed_sum(pieces),))
    cut = draw(st.integers(1, len(pieces)))
    right = [(-sign, t) for sign, t in pieces[cut:]] or [(1, Num(0))]
    return Eq(_signed_sum(pieces[:cut]), _signed_sum(right))


@st.composite
def _kernel_formula(draw, sig, params, shift, bound=(), depth=2):
    """Random formulas over x, the parameters, bound z (and w inside it) and
    numerals, with !, &, | and exists, most of whose atoms read x through
    x - shift, so that the kernel rule accepts a good share of them."""
    kind = draw(st.integers(0, 5)) if depth else 0
    if kind <= 1:
        return draw(_kernel_atom(sig, params, shift, bound))
    if kind == 2:
        return Not(draw(_kernel_formula(sig, params, shift, bound, depth - 1)))
    if kind == 3:
        var = "w" if bound else "z"
        return Exists(var, draw(_kernel_formula(sig, params, shift, (*bound, var), depth - 1)))
    parts = [draw(_kernel_formula(sig, params, shift, bound, depth - 1)) for _ in range(2)]
    return And(*parts) if kind == 4 else Or(*parts)


@st.composite
def _kernel_shift_term(draw, sig, params):
    """The shift a random kernel reads x through: a sum of summands in the
    parameters and constants, each parameter among them."""
    pieces = [(draw(st.sampled_from([1, -1])), draw(_kernel_piece(sig, params)))
              for _ in range(draw(st.integers(0, 2)))]
    pieces += [(draw(st.sampled_from([1, -1])), Var(v)) for v in params]
    return _signed_sum(draw(st.permutations(pieces)))

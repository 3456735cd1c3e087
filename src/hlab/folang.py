"""First-order formulas over finite structures: parsing, evaluation, counting.

Grammar (precedence ! > & > | > ->, quantifier scope extends maximally right):

    formula := quant | impl
    quant   := ("exists" | "forall") IDENT "." formula
    impl    := disj [ "->" impl ]
    disj    := conj { "|" conj }
    conj    := neg { "&" neg }
    neg     := "!" neg | atom
    atom    := "(" formula ")" | term "=" term | IDENT "(" term {"," term} ")"
    term    := factor { ("+"|"-") factor }
    factor  := prim { "*" prim }
    prim    := IDENT | NUMERAL | "(" term ")" | IDENT "(" term {"," term} ")"

The operators +, -, * map to the signature functions add, sub, mul. The
parser alone checks the signature, node by node: each named function and
relation exists with its arity, and each operator's function is binary.
Before evaluation, implications and universal quantifiers are rewritten away
and shadowed bound variables are renamed, so a single evaluation path handles
every formula. Free and term variables and the kernel rule's atom terms are
all read from one traversal, _walk.

Evaluation (eval_bulk) works over numpy index arrays; solution_mask_matrix,
the one entry point that binds an object variable and parameter tuples,
evaluates in column blocks of at most BUDGET cells. An existential is
planned as a conjunctive query when its body is an And chain holding one
equation with the bound variable alone on one side, conjuncts in the bound
variable alone, and conjuncts without it (for example
`exists z. z*z = x - y & !(z = 0)`): the answer is membership in the image of
that side over the domain the bound-variable conjuncts allow, cached per
structure, and-ed with the other conjuncts. Any other existential loops over
the universe. The scalar `evaluate` is a naive reference for tests: nested
loops over the universe, no cache.

A translation kernel is a formula that reads x only through x - u(params):
normalised to integer-coefficient polynomials (numerals and other closed
terms stay opaque constants), every atom that holds x holds it as exactly +x
or -x with the same parameter part u, and no atom without x holds a
parameter. Its solutions at any tuple are G + u(tuple) for one set G, so
every count is |G|. kernel(M, pf) owns that rule: it returns one Kernel
record per formula and structure, cached, built from one evaluation at the
zero tuple, and the record answers everything else: points(cols), the
|G| * m solutions at m tuples; reach(h), the shifts h - G of the tuples
that h solves; support(), the shifts that occur; pushforward(), the number
of tuples per shift, exact as (unit, histogram), in O(k n) when u is linear
in the parameters and by a blocked bincount otherwise; and tuples(mask),
the tuples whose shift a mask holds. Any other formula is counted on the
grid.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field

import numpy as np

from ._util import _lex_tuples
from .errors import (
    EvaluationError,
    FormulaSyntaxError,
    FreeVariableError,
    SignatureMismatchError,
)
from .finitemodels import FAMILIES, FiniteStructure, Signature

# ---------------------------------------------------------------------------
# Syntax trees

@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Num:
    value: int


@dataclass(frozen=True)
class Apply:
    func: str
    args: tuple


Term = Var | Num | Apply


@dataclass(frozen=True)
class Eq:
    left: Term
    right: Term


@dataclass(frozen=True)
class Rel:
    name: str
    args: tuple


@dataclass(frozen=True)
class Not:
    body: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Exists:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Forall:
    var: str
    body: "Formula"


Formula = Eq | Rel | Not | And | Or | Implies | Exists | Forall

# Assignments map variable names to element indices.
Assignment = dict[str, int]


def _walk(node, bound=frozenset()):
    """Every formula and term node under `node`, itself first, pre-order and
    left to right, each with the names bound around it: the one traversal
    that variable and atom discovery read."""
    yield node, bound
    if isinstance(node, (Exists, Forall)):
        yield from _walk(node.body, bound | {node.var})
    elif isinstance(node, Not):
        yield from _walk(node.body, bound)
    elif isinstance(node, (Eq, And, Or, Implies)):
        yield from _walk(node.left, bound)
        yield from _walk(node.right, bound)
    elif isinstance(node, (Apply, Rel)):
        for a in node.args:
            yield from _walk(a, bound)


def term_vars(t: Term) -> set[str]:
    return {node.name for node, _ in _walk(t) if isinstance(node, Var)}


def free_vars_in_order(f: Formula) -> list[str]:
    """Free variables in order of first appearance, reading left to right."""
    free = (n.name for n, bound in _walk(f) if isinstance(n, Var) and n.name not in bound)
    return list(dict.fromkeys(free))


def free_vars(f: Formula) -> set[str]:
    return set(free_vars_in_order(f))


# ---------------------------------------------------------------------------
# Lexer / parser

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<arrow>->)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)|(?P<num>\d+)|(?P<sym>[()=+\-*!&|.,]))"
)

_KEYWORDS = {"exists", "forall"}

_OPERATORS = {"+": "add", "-": "sub", "*": "mul"}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", pos)
            break
        if m.group("arrow"):
            tokens.append(("arrow", "->", m.start("arrow")))
        elif m.group("ident"):
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        elif m.group("num"):
            tokens.append(("num", m.group("num"), m.start("num")))
        else:
            tokens.append(("sym", m.group("sym"), m.start("sym")))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str, sig: Signature):
        self.text = text
        self.sig = sig
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        if self.i < len(self.tokens):
            return self.tokens[self.i]
        return ("eof", "", len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, value):
        kind, val, pos = self.next()
        if val != value:
            raise FormulaSyntaxError(f"expected {value!r}, found {val or 'end of input'!r}", pos)

    def at(self, value):
        return self.peek()[1] == value

    # formula := quant | impl
    def formula(self) -> Formula:
        kind, val, pos = self.peek()
        if kind == "ident" and val in _KEYWORDS:
            self.next()
            vkind, vname, vpos = self.next()
            if vkind != "ident" or vname in _KEYWORDS:
                raise FormulaSyntaxError("expected a variable after quantifier", vpos)
            if vname in self.sig.functions or vname in self.sig.relations:
                raise FormulaSyntaxError(f"cannot bind signature symbol {vname!r}", vpos)
            self.expect(".")
            body = self.formula()
            return Exists(vname, body) if val == "exists" else Forall(vname, body)
        return self.impl()

    def impl(self) -> Formula:
        left = self.disj()
        if self.at("->"):
            self.next()
            return Implies(left, self.impl())
        return left

    def disj(self) -> Formula:
        f = self.conj()
        while self.at("|"):
            self.next()
            f = Or(f, self.conj())
        return f

    def conj(self) -> Formula:
        f = self.neg()
        while self.at("&"):
            self.next()
            f = And(f, self.neg())
        return f

    def neg(self) -> Formula:
        if self.at("!"):
            self.next()
            return Not(self.neg())
        return self.atom()

    def atom(self) -> Formula:
        kind, val, pos = self.peek()
        if val == "(":
            # Could be a parenthesized formula or a parenthesized term on the
            # left of an equation; try the formula reading, then backtrack.
            mark = self.i
            try:
                self.next()
                f = self.formula()
                self.expect(")")
                return f
            except FormulaSyntaxError:
                self.i = mark
        if kind == "ident" and val in self.sig.relations:
            self.next()
            args = self.arg_list(val, self.sig.relations[val], pos)
            return Rel(val, tuple(args))
        left = self.term()
        self.expect("=")
        right = self.term()
        return Eq(left, right)

    def arg_list(self, name, arity, pos):
        self.expect("(")
        args = [self.term()]
        while self.at(","):
            self.next()
            args.append(self.term())
        self.expect(")")
        if len(args) != arity:
            raise FormulaSyntaxError(
                f"{name!r} expects {arity} argument(s), got {len(args)}", pos
            )
        return args

    def operator(self) -> str:
        """Consume an infix operator; its function must be binary."""
        op = self.next()[1]
        func = _OPERATORS[op]
        if self.sig.functions.get(func) != 2:
            raise SignatureMismatchError(f"{op} in {self.text!r} needs a binary function {func!r}")
        return func

    def term(self) -> Term:
        t = self.factor()
        while self.peek()[1] in ("+", "-"):
            t = Apply(self.operator(), (t, self.factor()))
        return t

    def factor(self) -> Term:
        t = self.prim()
        while self.at("*"):
            t = Apply(self.operator(), (t, self.prim()))
        return t

    def prim(self) -> Term:
        kind, val, pos = self.next()
        if kind == "num":
            return Num(int(val))
        if val == "(":
            t = self.term()
            self.expect(")")
            return t
        if kind != "ident" or val in _KEYWORDS:
            raise FormulaSyntaxError(f"expected a term, found {val or 'end of input'!r}", pos)
        if val in self.sig.relations:
            raise FormulaSyntaxError(f"relation {val!r} used inside a term", pos)
        if val in self.sig.functions:
            arity = self.sig.functions[val]
            if arity == 0:
                return Apply(val, ())
            if not self.at("("):
                raise FormulaSyntaxError(f"function {val!r} needs {arity} argument(s)", pos)
            args = self.arg_list(val, arity, pos)
            return Apply(val, tuple(args))
        if self.at("("):
            raise SignatureMismatchError(f"unknown symbol {val!r}")
        return Var(val)

    def parse(self) -> Formula:
        f = self.formula()
        kind, val, pos = self.peek()
        if kind != "eof":
            raise FormulaSyntaxError(f"trailing input {val!r}", pos)
        return f


def parse(text: str, sig: Signature) -> Formula:
    """Parse a formula without the object/parameter split."""
    return _Parser(text, sig).parse()


# ---------------------------------------------------------------------------
# Normalization: drop -> and forall, rename shadowed bound variables.

def _rename_term(t: Term, env: dict[str, str]) -> Term:
    if isinstance(t, Var):
        return Var(env.get(t.name, t.name))
    if isinstance(t, Apply):
        return Apply(t.func, tuple(_rename_term(a, env) for a in t.args))
    return t


def normalize(f: Formula) -> Formula:
    """One evaluation path: -> rewritten to !|, forall to !exists!, and any
    bound variable that collides with an enclosing binder or a free variable
    renamed to a fresh name."""
    free = free_vars(f)
    taken = set(free)

    def fresh(name):
        k = 1
        while f"{name}_{k}" in taken:
            k += 1
        return f"{name}_{k}"

    def walk(g, env, active):
        if isinstance(g, Eq):
            return Eq(_rename_term(g.left, env), _rename_term(g.right, env))
        if isinstance(g, Rel):
            return Rel(g.name, tuple(_rename_term(a, env) for a in g.args))
        if isinstance(g, Not):
            return Not(walk(g.body, env, active))
        if isinstance(g, And):
            return And(walk(g.left, env, active), walk(g.right, env, active))
        if isinstance(g, Or):
            return Or(walk(g.left, env, active), walk(g.right, env, active))
        if isinstance(g, Implies):
            return Or(Not(walk(g.left, env, active)), walk(g.right, env, active))
        if isinstance(g, (Exists, Forall)):
            name = g.var
            if name in active or name in free:
                name = fresh(g.var)
                taken.add(name)
            body = walk(g.body, {**env, g.var: name}, active | {name})
            if isinstance(g, Exists):
                return Exists(name, body)
            return Not(Exists(name, Not(body)))
        raise TypeError(f"not a formula: {g!r}")

    return walk(f, {}, frozenset())


# ---------------------------------------------------------------------------
# Pretty printing (reparses to the same tree)

_FORMULA_LEVEL = {Implies: 1, Or: 2, And: 3, Not: 4, Eq: 5, Rel: 5}


def _pp_term(t: Term, level: int = 0) -> str:
    # term levels: add/sub chain 1, mul chain 2, prim 3
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Num):
        return str(t.value)
    if t.func in ("add", "sub") and len(t.args) == 2:
        op = "+" if t.func == "add" else "-"
        s = f"{_pp_term(t.args[0], 1)} {op} {_pp_term(t.args[1], 2)}"
        return f"({s})" if level > 1 else s
    if t.func == "mul" and len(t.args) == 2:
        s = f"{_pp_term(t.args[0], 2)} * {_pp_term(t.args[1], 3)}"
        return f"({s})" if level > 2 else s
    if not t.args:
        return t.func
    return f"{t.func}({', '.join(_pp_term(a) for a in t.args)})"


def pretty(f: Formula, level: int = 0) -> str:
    if isinstance(f, (Exists, Forall)):
        word = "exists" if isinstance(f, Exists) else "forall"
        s = f"{word} {f.var}. {pretty(f.body)}"
        return f"({s})" if level > 0 else s
    if isinstance(f, Implies):
        s = f"{pretty(f.left, 2)} -> {pretty(f.right, 1)}"
        return f"({s})" if level > 1 else s
    if isinstance(f, Or):
        s = f"{pretty(f.left, 2)} | {pretty(f.right, 3)}"
        return f"({s})" if level > 2 else s
    if isinstance(f, And):
        s = f"{pretty(f.left, 3)} & {pretty(f.right, 4)}"
        return f"({s})" if level > 3 else s
    if isinstance(f, Not):
        body = pretty(f.body, 4)
        if isinstance(f.body, (Eq, Rel)):
            body = f"({pretty(f.body)})"
        return f"!{body}"
    if isinstance(f, Eq):
        return f"{_pp_term(f.left, 1)} = {_pp_term(f.right, 1)}"
    if isinstance(f, Rel):
        return f"{f.name}({', '.join(_pp_term(a) for a in f.args)})"
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Parametrized formulas

@dataclass(frozen=True)
class ParamFormula:
    """A formula with one distinguished object variable and an ordered
    parameter tuple; the free variables are exactly {object} + params."""

    formula: Formula
    object_var: str
    params: tuple[str, ...]
    text: str

    @property
    def arity(self) -> int:
        return len(self.params)

    def key(self) -> str:
        return pretty(self.formula)

    def __str__(self):
        return self.text


def parse_formula(
    text: str,
    sig: Signature,
    object_var: str = "x",
    params: tuple[str, ...] | None = None,
) -> ParamFormula:
    """Parse and normalize a parametrized formula.

    When `params` is omitted, the parameters are the free variables other
    than the object variable, in order of first appearance.
    """
    norm = normalize(parse(text, sig))
    order = free_vars_in_order(norm)
    if object_var not in order:
        raise FreeVariableError(f"object variable {object_var!r} is not free in {text!r}")
    inferred = tuple(v for v in order if v != object_var)
    if params is None:
        params = inferred
    elif set(params) != set(inferred) or len(params) != len(inferred):
        raise FreeVariableError(
            f"declared parameters {params!r} do not match free variables {inferred!r}"
        )
    return ParamFormula(norm, object_var, tuple(params), text)


# ---------------------------------------------------------------------------
# Scalar evaluation

def eval_term(M: FiniteStructure, t: Term, a: Assignment) -> int:
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


def evaluate(M: FiniteStructure, f: Formula, a: Assignment) -> bool:
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
    if isinstance(f, Implies):
        return (not evaluate(M, f.left, a)) or evaluate(M, f.right, a)
    if isinstance(f, Forall):
        return all(evaluate(M, f.body, {**a, f.var: c}) for c in range(M.size))
    if isinstance(f, Exists):
        return any(evaluate(M, f.body, {**a, f.var: c}) for c in range(M.size))
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Vectorized evaluation

# The one memory budget, in grid cells or parameter tuples, for evaluation
# blocks, stored matrices, enumerations and exhaustive checks; read at call time.
BUDGET = 10_000_000


def within_budget(count: int) -> bool:
    """Whether `count` cells or tuples fit BUDGET."""
    return count <= BUDGET


def column_blocks(columns: int, rows: int):
    """Consecutive slices of range(columns), each of at most BUDGET // rows
    columns (at least one): the one way a grid over `rows` rows is cut into
    blocks of at most BUDGET cells."""
    width = max(1, BUDGET // max(rows, 1))
    return (slice(start, min(start + width, columns)) for start in range(0, columns, width))


def _image_mask(M: FiniteStructure, term: Term, var: str, domain: tuple) -> np.ndarray:
    """Boolean mask over the universe: which values the term attains as the
    variable ranges over the elements that satisfy every formula in `domain`
    (formulas in that variable alone). Cached on the structure."""
    key = ("image", term, var, domain)
    mask = M._cache.get(key)
    if mask is None:
        points = np.arange(M.size)
        for g in domain:
            points = points[np.broadcast_to(eval_bulk(M, g, {var: points}), points.shape)]
        vals = np.broadcast_to(_bulk_term(M, term, {var: points}), points.shape)
        mask = np.zeros(M.size, dtype=bool)
        mask[np.asarray(vals, dtype=np.intp)] = True
        mask.flags.writeable = False
        # threads that raced past the get all return the first one stored
        mask = M._cache.setdefault(key, mask)
    return mask


def _conjuncts(f: Formula) -> tuple:
    """The And chain of f as a flat tuple; a double negation (which
    normalize makes of `forall z. !body`) is read through."""
    if isinstance(f, And):
        return _conjuncts(f.left) + _conjuncts(f.right)
    if isinstance(f, Not) and isinstance(f.body, Not):
        return _conjuncts(f.body.body)
    return (f,)


def _isolated(f: Formula, var: str):
    """(image_term, other_term) if f is an equation with `var` confined to
    one side and that side in `var` alone; else None."""
    if not isinstance(f, Eq):
        return None
    lv, rv = term_vars(f.left), term_vars(f.right)
    if lv <= {var} and var not in rv:
        return f.left, f.right
    if rv <= {var} and var not in lv:
        return f.right, f.left
    return None


# formula nodes are frozen and hashable, so each node is planned once
@functools.lru_cache(maxsize=4096)
def _exists_plan(f: Exists):
    """Plan `exists z. body` as a domain-restricted image. The body's
    conjuncts must be one isolated equation t(z) = s, conjuncts in z alone
    (the domain of the image) and conjuncts without z (hoisted out). Returns
    (image_term, other_term, domain, hoisted), or None when the body has no
    isolated equation or a conjunct mixes z with other variables."""
    conjuncts = _conjuncts(f.body)
    for i, c in enumerate(conjuncts):
        split = _isolated(c, f.var)
        if split is None:
            continue
        domain, hoisted = [], []
        for g in conjuncts[:i] + conjuncts[i + 1 :]:
            fv = free_vars(g)
            if fv <= {f.var}:
                domain.append(g)
            elif f.var not in fv:
                hoisted.append(g)
            else:
                break
        else:
            return (*split, tuple(domain), tuple(hoisted))
    return None


def _polynomial(t: Term) -> dict:
    """t as an integer-coefficient polynomial: {monomial: coefficient}, each
    monomial a sorted tuple of atoms, no coefficient zero. add, sub and mul
    are the ring operations; every other term is an atom: variables, and
    opaque constants such as numerals, `zero`, `one` and `frob(y)`. A
    numeral is no integer multiple of anything on F2^n, where it is a
    bitmask, so 1 + 1 and 2 stay distinct."""
    if not (isinstance(t, Apply) and t.func in ("add", "sub", "mul") and len(t.args) == 2):
        return {(t,): 1}
    a, b = _polynomial(t.args[0]), _polynomial(t.args[1])
    out: dict = {}
    if t.func == "mul":
        for ma, ca in a.items():
            for mb, cb in b.items():
                m = tuple(sorted(ma + mb, key=repr))
                out[m] = out.get(m, 0) + ca * cb
    else:
        sign = 1 if t.func == "add" else -1
        out = dict(a)
        for m, c in b.items():
            out[m] = out.get(m, 0) + sign * c
    return {m: c for m, c in out.items() if c}


def _atom_terms(f: Formula):
    """(term, names bound around it) for every atom argument of f: left -
    right for an equation, each argument of a relation."""
    for node, bound in _walk(f):
        if isinstance(node, Eq):
            yield Apply("sub", (node.left, node.right)), bound
        elif isinstance(node, Rel):
            yield from ((a, bound) for a in node.args)


@functools.lru_cache(maxsize=4096)
def _kernel_shift(f: Formula, x: str, params: tuple):
    """The shift term of a translation kernel, or None. f is a kernel when
    it reads x only through x - u(params) for one u: every atom polynomial
    that holds x holds it as exactly +x or -x, its parameter monomials (in
    parameters and constants alone; a parameter times a bound variable is
    refused) give the same u in every such atom, and no atom polynomial
    without x holds a parameter. Its solutions at a tuple are then
    G + u(tuple) for one set G. The shift term's value, with x and the bound
    variables at any fixed element, is u plus a constant: -t for an atom
    term t = x + ..., t itself for t = -x + ...; Num(0) when no atom holds x.
    Returns (shift term, the names it reads, whether u is linear): u is
    linear when each of its monomials is one parameter, once, times
    constants, and is then a sum of additive homomorphisms y -> c*y, one
    per parameter, in the four families' rings."""
    shift, u = Num(0), None
    for t, bound in _atom_terms(f):
        if x in bound or bound.intersection(params):
            return None
        sign, part = 0, {}
        for mono, c in _polynomial(t).items():
            names = set().union(*map(term_vars, mono))
            if x in names:
                if mono != (Var(x),) or abs(c) != 1:
                    return None
                sign = c
            elif names.intersection(params):
                if not names.issubset(params):
                    return None
                part[mono] = c
        if not sign:
            if part:
                return None
            continue
        atom_u = {m: -sign * c for m, c in part.items()}
        if u is None:
            u, shift = atom_u, (t if sign == -1 else Apply("sub", (Num(0), t)))
        elif atom_u != u:
            return None
    held = [[a for a in mono if term_vars(a)] for mono in u or ()]  # each monomial's non-constant atoms
    linear = all(len(atoms) == 1 and isinstance(atoms[0], Var) for atoms in held)
    return shift, tuple(term_vars(shift)), linear


def _coset(M: FiniteStructure, values: np.ndarray, c: int) -> np.ndarray:
    """Mask over the universe of c + <values>, the coset of the additive
    subgroup that `values` generate. On one axis index k is k times the
    generator, so the subgroup is gcd(d, values) Z_d. On more axes a value b
    outside the subgroup so far joins by doubling: the coset C and C + b,
    then that union and its shift by 2b, 4b, ... until a shift adds
    nothing, which gives C + <b>; each join at least doubles C."""
    n, shape = M.size, M.group_shape
    if len(shape) == 1:
        return (np.arange(n) - c) % math.gcd(n, *values.tolist()) == 0
    add = M.functions["add"]
    mask = np.zeros(n, dtype=bool)
    mask[c] = True
    members = np.array([c], dtype=np.intp)
    while True:
        outside = values[~mask[np.asarray(add[c, values], dtype=np.intp)]]
        if not len(outside):
            return mask
        step = int(outside[0])
        while True:
            shifted = np.asarray(add[members, step], dtype=np.intp)
            new = shifted[~mask[shifted]]
            if not len(new):
                break
            mask[new] = True
            members = np.concatenate([members, new])
            step = int(add[step, step])


def _shift_values(M: FiniteStructure, shift: Term, names: tuple, params: tuple, cols: np.ndarray):
    """The shift term at each (arity, m) parameter column, every other name
    it reads at 0: u up to one constant. The one place that evaluates it."""
    env = dict.fromkeys(names, 0)
    env.update(zip(params, cols))
    return np.broadcast_to(np.asarray(_bulk_term(M, shift, env), dtype=np.intp), cols.shape[1:])


@dataclass(frozen=True, eq=False)
class Kernel:
    """A translation kernel on one structure, as kernel() builds it: its
    solutions at parameter tuple t are G + u(t), u(t) the shift term's value.
    A linear u is kept as c = u(0) and `images`, u(e) - c at each unit tuple
    e (one parameter at one unit vector of M.group_shape, the others 0): a
    few ints, and no array over the tuples or the universe but G."""

    M: FiniteStructure = field(repr=False)
    params: tuple[str, ...]
    shift: Term
    names: tuple[str, ...]  # the names the shift term reads
    base: np.ndarray  # G, read-only
    c: int
    images: tuple[int, ...] | None  # None when u is not linear

    def shifts(self, param_columns) -> np.ndarray:
        """u, up to one constant, at each of the (arity, m) parameter columns."""
        cols = np.atleast_2d(np.asarray(param_columns, dtype=np.intp))
        return _shift_values(self.M, self.shift, self.names, self.params, cols)

    def points(self, param_columns) -> np.ndarray:
        """The (|G|, m) solutions at the (arity, m) parameter columns: G + u_j in column j."""
        shifts = self.shifts(param_columns)
        return np.asarray(self.M.functions["add"][self.base[:, None], shifts[None, :]], dtype=np.intp)

    def reach(self, h) -> np.ndarray:
        """h - G, broadcast: h solves tuple t exactly when u(t) lies in it."""
        return np.asarray(self.M.functions["sub"][h, self.base], dtype=np.intp)

    def support(self) -> np.ndarray:
        """Mask over the universe of the shifts that occur: for a linear u the
        coset c + im, im the subgroup that `images` generate."""
        if self.images is None:
            return self.pushforward()[1] > 0
        return _coset(self.M, np.array(self.images, dtype=np.intp), self.c)

    def pushforward(self) -> tuple[int, np.ndarray]:
        """w(v) = #{t in M^k : u(t) = v}, exact at any n^k, as (unit,
        histogram): w = unit * histogram, the unit a Python int and the
        histogram int64 over the universe with gcd 1. A linear u = c + sum_i
        phi_i(y_i), phi_i additive homomorphisms, has cosets of its kernel
        as fibres, so w = (n^k / |im|) 1_{im + c}: O(k n). Any other u is
        counted by a bincount over the tuples in blocks: O(n) memory."""
        n = self.M.size
        if self.images is not None:
            support = self.support()
            return n ** len(self.params) // int(support.sum()), support.astype(np.int64)
        weights = np.zeros(n, dtype=np.int64)
        for _, shifts in self._blocks():
            weights += np.bincount(shifts, minlength=n)
        unit = int(np.gcd.reduce(weights))
        return unit, weights // unit

    def tuples(self, shifts: np.ndarray) -> np.ndarray:
        """The parameter tuples whose shift the boolean mask `shifts` over
        the universe holds, (arity, m) in lexicographic order; every tuple
        is scanned, in blocks, only when the mask holds a shift."""
        if not shifts.any():
            return np.empty((len(self.params), 0), dtype=np.intp)
        found = [positions[shifts[s]] for positions, s in self._blocks()]
        return _lex_tuples(np.concatenate(found), self.M.size, len(self.params))

    def _blocks(self):
        """(positions, shifts) of every tuple in lexicographic order, in
        blocks whose tuples and shifts hold at most BUDGET cells."""
        n, k = self.M.size, len(self.params)
        for block in column_blocks(n**k, k + 1):
            positions = np.arange(block.start, block.stop)
            yield positions, self.shifts(_lex_tuples(positions, n, k))


def kernel(M: FiniteStructure, pf: ParamFormula) -> Kernel | None:
    """pf's Kernel record on M, cached on the structure: G is the solution
    set at the zero tuple shifted back by u there, and a linear u is read at
    the unit tuples in the same evaluation. None when pf is no kernel or M
    is outside the four families, whose ring laws the kernel rule uses."""
    rule = _kernel_shift(pf.formula, pf.object_var, pf.params)
    if rule is None or M.family not in FAMILIES:
        return None
    key = ("kernel", pf.formula, pf.object_var, pf.params)
    record = M._cache.get(key)
    if record is None:
        shift, names, linear = rule
        shape, k = M.group_shape, pf.arity
        units = [math.prod(shape[i + 1 :]) % M.size for i in range(len(shape))] if linear else []
        cols = np.zeros((k, 1 + k * len(units)), dtype=np.intp)  # the zero tuple first
        for i in range(k):  # then each parameter at each unit vector
            cols[i, 1 + i * len(units) : 1 + (i + 1) * len(units)] = units
        values = _shift_values(M, shift, names, pf.params, cols)
        c, sub = int(values[0]), M.functions["sub"]
        solutions = np.flatnonzero(solution_mask_matrix(M, pf, cols[:, :1])[:, 0])
        base = np.asarray(sub[solutions, c], dtype=np.intp)
        base.flags.writeable = False
        images = tuple(np.asarray(sub[values[1:], c]).tolist()) if linear else None
        # threads that raced past the get all return the first one stored
        record = M._cache.setdefault(key, Kernel(M, pf.params, shift, names, base, c, images))
    return record


def _bulk_term(M: FiniteStructure, t: Term, env: dict) -> np.ndarray | int:
    if isinstance(t, Var):
        try:
            return env[t.name]
        except KeyError:
            raise EvaluationError(f"no binding for variable {t.name!r}") from None
    if isinstance(t, Num):
        return M.numeral(t.value)
    table = M.functions[t.func]
    if not t.args:
        return int(table)
    args = [_bulk_term(M, arg, env) for arg in t.args]
    return table[tuple(args)]


def eval_bulk(M: FiniteStructure, f: Formula, env: dict) -> np.ndarray:
    """Evaluate a normalized formula (see normalize) over numpy index arrays,
    broadcast together; returns a bool array."""
    if isinstance(f, Eq):
        return np.asarray(_bulk_term(M, f.left, env) == _bulk_term(M, f.right, env))
    if isinstance(f, Rel):
        args = tuple(_bulk_term(M, a, env) for a in f.args)
        return np.asarray(M.relations[f.name][args])
    if isinstance(f, Not):
        return ~eval_bulk(M, f.body, env)
    if isinstance(f, And):
        return eval_bulk(M, f.left, env) & eval_bulk(M, f.right, env)
    if isinstance(f, Or):
        return eval_bulk(M, f.left, env) | eval_bulk(M, f.right, env)
    if isinstance(f, Exists):
        plan = _exists_plan(f)
        if plan is not None:
            image_term, other, domain, hoisted = plan
            out = _image_mask(M, image_term, f.var, domain)[_bulk_term(M, other, env)]
            for g in hoisted:
                out = out & eval_bulk(M, g, env)
            return np.asarray(out)
        out = None
        for c in range(M.size):
            r = eval_bulk(M, f.body, {**env, f.var: c})
            out = r.copy() if out is None else out | r
            if out.all():
                break
        return np.asarray(out)
    raise TypeError(f"not a normalized formula: {f!r}")


def _check_params(pf: ParamFormula, params) -> np.ndarray:
    """The parameter tuple as one (arity, 1) column."""
    params = tuple(int(v) for v in params)
    if len(params) != pf.arity:
        raise EvaluationError(
            f"formula {pf.text!r} takes {pf.arity} parameter(s), got {len(params)}"
        )
    return np.array(params, dtype=np.intp).reshape(pf.arity, 1)


def solution_set(M: FiniteStructure, pf: ParamFormula, params=()) -> list[int]:
    """Elements satisfying the formula at the given parameters, index order."""
    return [int(v) for v in np.flatnonzero(solution_mask_matrix(M, pf, _check_params(pf, params)))]


def solution_count(M: FiniteStructure, pf: ParamFormula, params=()) -> int:
    return int(count_columns(M, pf, _check_params(pf, params))[0])


def solution_mask_matrix(
    M: FiniteStructure, pf: ParamFormula, param_columns: np.ndarray, rows=None
) -> np.ndarray:
    """Boolean matrix of shape (len(rows), m): entry (i, j) says whether
    element rows[i] satisfies the formula at the j-th parameter tuple, for
    `param_columns` of shape (arity, m) and rows by default the universe.
    Evaluated one column_blocks block at a time, so no intermediate grid
    exceeds BUDGET cells."""
    cols = np.atleast_2d(np.asarray(param_columns, dtype=np.intp))
    if cols.shape[0] != pf.arity:
        raise EvaluationError(f"expected {pf.arity} parameter rows")
    x = np.arange(M.size, dtype=np.intp) if rows is None else np.asarray(rows, dtype=np.intp)

    def block(part):  # part: (arity, w) parameter columns
        env = {pf.object_var: x[:, None], **dict(zip(pf.params, part[:, None, :]))}
        out, shape = eval_bulk(M, pf.formula, env), (len(x), part.shape[1])
        return out if out.shape == shape else np.broadcast_to(out, shape)  # arity 0

    blocks = list(column_blocks(cols.shape[1], len(x)))
    if len(blocks) <= 1:
        return block(cols)
    out = np.empty((len(x), cols.shape[1]), dtype=bool)
    for part in blocks:
        out[:, part] = block(cols[:, part])
    return out


def _counts(M: FiniteStructure, pf: ParamFormula, total: int, columns) -> np.ndarray:
    """Solution counts of `total` parameter tuples, columns(block) giving the
    tuples of a slice of range(total) as an (arity, len) array: the one place
    that counts. A translation kernel has |G| solutions at every tuple; any
    other formula is counted one evaluation block at a time."""
    record = kernel(M, pf)
    if record is not None:
        return np.full(total, len(record.base), dtype=np.int64)
    counts = np.empty(total, dtype=np.int64)
    for block in column_blocks(total, M.size):
        counts[block] = solution_mask_matrix(M, pf, columns(block)).sum(axis=0)
    return counts


def count_columns(M: FiniteStructure, pf: ParamFormula, param_columns) -> np.ndarray:
    """Solution counts at each of the (arity, m) parameter columns."""
    cols = np.atleast_2d(np.asarray(param_columns, dtype=np.intp))
    return _counts(M, pf, cols.shape[1], lambda block: cols[:, block])


def solution_counts_all(M: FiniteStructure, pf: ParamFormula) -> np.ndarray:
    """Solution counts for every parameter tuple, flattened in lexicographic
    order (shape (size**arity,)). The tuples are made and counted one block
    at a time, so neither they nor the grid need fit the budget at once."""
    n, k = M.size, pf.arity
    return _counts(M, pf, n**k, lambda block: _lex_tuples(np.arange(block.start, block.stop), n, k))


def max_solution_count(M: FiniteStructure, gamma) -> int | None:
    """The largest solution count of any formula in `gamma` over all of its
    parameter tuples: |G| for a translation kernel, otherwise a recount, or
    None when recounting exceeds the budget."""
    counts = []
    for pf in gamma:
        record = kernel(M, pf)
        if record is not None:
            counts.append(len(record.base))
        elif within_budget(M.size ** (pf.arity + 1)):
            counts.append(int(solution_counts_all(M, pf).max()))
        else:
            return None
    return max(counts, default=0)

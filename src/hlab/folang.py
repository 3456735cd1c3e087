"""First-order formulas over finite structures: parsing, planning, evaluation
and counting.

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
relation exists with its arity, and each operator's function is binary. It
builds the tree the evaluator reads: a -> b is read as !a | b and forall v. b
as !exists v. !b, so one evaluation path handles every formula. A bound name
shadows by scope and is never renamed: eval_bulk's environment, _walk's bound
sets and the image plans each read a name as the innermost binder of it, or
as free. Free and term variables and the kernel rule's atom terms are
all read from one traversal, _walk. Formula and term nodes are interned
(hash-consing, Filliatre and Conchon 2006): equal nodes are one object and
compare and hash by identity, so every formula-keyed cache keys by identity.

plan(pf) is the one place that decides how a formula is evaluated: one Plan
per formula, made once and free of any structure. Its kind is "kernel" when
the formula reads x only through x - u(params) (_kernel_shift): its solutions
at any tuple are G + u(tuple) for one set G, every count is |G|, and
kernel(M, pf) binds the plan to M as a Kernel record. Any other formula is
evaluated on the grid by eval_bulk, its kind "image" when every existential
is answered by a lookup in the image of one side of an equation
(_exists_plan, made once per Exists node), and "loop" when some existential
loops over the universe.

Callers never ask for the kind: count_columns (the one counter),
solution_counts_all, count_histogram and solution_pairs answer from |G| or
the grid. Ψ (see asymptotics.psi_columns) is a Kernel record or Columns,
which answer one protocol: width, low, take(j) and tuples(mask), and over
an index space (a kernel's shifts, Columns' own tuples) pushforward(),
solved(elements, live) and counter().
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field

import numpy as np

from ._util import _lex_tuples, convolver, shifted_sums
from .errors import (
    EvaluationError,
    FormulaSyntaxError,
    FreeVariableError,
    SignatureMismatchError,
)
from .finitemodels import FiniteStructure, Signature, _index_dtype

# ---------------------------------------------------------------------------
# Syntax trees, interned

_NODES: dict = {}  # (class, *fields) -> the one node with those fields


class _Interned(type):
    """A node class whose call returns the node already made with the same
    fields, if any. dict.setdefault keeps the first node stored when threads
    race, so equal nodes stay one object."""

    def __call__(cls, *fields):
        key = (cls, *fields)
        node = _NODES.get(key)
        if node is None:
            node = _NODES.setdefault(key, super().__call__(*fields))
        return node


class _Node(metaclass=_Interned):
    def __reduce__(self):  # pickle and deepcopy rebuild through the intern table
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)


_node = dataclass(frozen=True, eq=False)  # identity equality and hash


@_node
class Var(_Node):
    name: str


@_node
class Num(_Node):
    value: int


@_node
class Apply(_Node):
    func: str
    args: tuple


Term = Var | Num | Apply


@_node
class Eq(_Node):
    left: Term
    right: Term


@_node
class Rel(_Node):
    name: str
    args: tuple


@_node
class Not(_Node):
    body: "Formula"


@_node
class And(_Node):
    left: "Formula"
    right: "Formula"


@_node
class Or(_Node):
    left: "Formula"
    right: "Formula"


@_node
class Exists(_Node):
    var: str
    body: "Formula"


Formula = Eq | Rel | Not | And | Or | Exists


def _walk(node, bound=frozenset()):
    """Every formula and term node under `node`, itself first, pre-order and
    left to right, each with the names bound around it: the one traversal
    that variable and atom discovery read."""
    yield node, bound
    if isinstance(node, Exists):
        yield from _walk(node.body, bound | {node.var})
    elif isinstance(node, Not):
        yield from _walk(node.body, bound)
    elif isinstance(node, (Eq, And, Or)):
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

# the most tokens parse_formula reads: the parser and the walks over a formula
# recurse per nesting level, and must stay within the interpreter's limit
MAX_TOKENS = 256


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
            return Exists(vname, body) if val == "exists" else Not(Exists(vname, Not(body)))
        return self.impl()

    def impl(self) -> Formula:
        left = self.disj()
        if self.at("->"):
            self.next()
            return Or(Not(left), self.impl())
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
# Pretty printing (reparses to the same tree)

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
    if isinstance(f, Exists):
        s = f"exists {f.var}. {pretty(f.body)}"
        return f"({s})" if level > 0 else s
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
    """Parse a parametrized formula into the tree the evaluator reads (see
    the module docstring: -> and forall are read as !, | and exists).

    When `params` is omitted, the parameters are the free variables other
    than the object variable, in order of first appearance. A formula of
    more than MAX_TOKENS tokens is refused.
    """
    parser = _Parser(text, sig)
    if len(parser.tokens) > MAX_TOKENS:  # so the text is longer than 40 characters
        message = f"formula {text[:40] + '...'!r} has {len(parser.tokens)} tokens, over the limit of {MAX_TOKENS}"
        raise FormulaSyntaxError(message, parser.tokens[MAX_TOKENS][2])
    formula = parser.parse()
    order = free_vars_in_order(formula)
    if object_var not in order:
        raise FreeVariableError(f"object variable {object_var!r} is not free in {text!r}")
    inferred = tuple(v for v in order if v != object_var)
    if params is None:
        params = inferred
    elif set(params) != set(inferred) or len(params) != len(inferred):
        raise FreeVariableError(
            f"declared parameters {params!r} do not match free variables {inferred!r}"
        )
    return ParamFormula(formula, object_var, tuple(params), text)


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

    def build():
        points = np.arange(M.size)
        for g in domain:
            points = points[np.broadcast_to(eval_bulk(M, g, {var: points}), points.shape)]
        vals = np.broadcast_to(_bulk_term(M, term, {var: points}), points.shape)
        mask = np.zeros(M.size, dtype=bool)
        mask[np.asarray(vals, dtype=np.intp)] = True
        mask.flags.writeable = False
        return mask

    return M.cached(("image", term, var, domain), build)


def _conjuncts(f: Formula) -> tuple:
    """The And chain of f as a flat tuple; a double negation (which the
    parser makes of `forall z. !body`) is read through."""
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


@functools.cache
def _exists_plan(f: Exists):
    """Plan `exists z. body` as a domain-restricted image, once per interned
    node. The body's conjuncts must be one isolated equation t(z) = s, conjuncts in z alone
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


def _kernel_shift(f: Formula, x: str, params: tuple):
    """The shift term of a translation kernel, or None. f is a kernel when
    it reads x only through x - u(params) for one u: every atom polynomial
    that holds x holds it as exactly +x or -x, its parameter monomials (in
    parameters and constants alone; a parameter times a bound variable is
    refused) give the same u in every such atom, and no atom polynomial
    without x holds a parameter. Its solutions at a tuple are then
    G + u(tuple) for one set G. Each atom reads its names through scope: a
    name bound around it is a bound variable there, and x and each parameter
    are themselves only where they are free. An atom that holds a free x
    and reads a parameter's name under a binder of that name is refused, as
    its shift term would read the bound name as the parameter in
    _shift_values. The shift term's value, with x and the bound
    variables at any fixed element, is u plus a constant: -t for an atom
    term t = x + ..., t itself for t = -x + ...; Num(0) when no atom holds x.
    Returns (shift term, the names it reads, whether u is linear): u is
    linear when each of its monomials is one parameter, once, times
    constants, and is then a sum of additive homomorphisms y -> c*y, one
    per parameter, in the four families' rings."""
    shift, u = Num(0), None
    for t, bound in _atom_terms(f):
        free = set(params) - bound
        sign, part = 0, {}
        for mono, c in _polynomial(t).items():
            names = set().union(*map(term_vars, mono))
            if x in names and x not in bound:
                if mono != (Var(x),) or abs(c) != 1:
                    return None
                sign = c
            elif names & free:
                if not names <= free:
                    return None
                part[mono] = c
        if not sign:
            if part:
                return None
            continue
        if bound.intersection(params, term_vars(t)):
            return None
        atom_u = {m: -sign * c for m, c in part.items()}
        if u is None:
            u, shift = atom_u, (t if sign == -1 else Apply("sub", (Num(0), t)))
        elif atom_u != u:
            return None
    held = [[a for a in mono if term_vars(a)] for mono in u or ()]  # each monomial's non-constant atoms
    linear = all(len(atoms) == 1 and isinstance(atoms[0], Var) for atoms in held)
    return shift, tuple(term_vars(shift)), linear


@dataclass(frozen=True, eq=False)
class Plan:
    """How one formula is evaluated, whatever the structure: "kernel",
    "image" or "loop" (see the module docstring). A kernel plan keeps its
    shift rule: the shift term, u plus a constant, the names it reads, and
    whether u is linear in the parameters."""

    kind: str
    shift: Term | None = None
    names: tuple[str, ...] = ()
    linear: bool = False


_PLANS: dict = {}  # (formula, object variable, parameters) -> its Plan


def plan(pf: ParamFormula) -> Plan:
    """pf's Plan, made on first use: the kernel rule decides first, then
    whether some existential has no image plan and loops."""
    key = (pf.formula, pf.object_var, pf.params)
    made = _PLANS.get(key)
    if made is None:
        rule = _kernel_shift(*key)
        if rule is not None:
            made = Plan("kernel", *rule)
        else:
            loops = any(isinstance(n, Exists) and _exists_plan(n) is None for n, _ in _walk(pf.formula))
            made = Plan("loop" if loops else "image")
        made = _PLANS.setdefault(key, made)
    return made


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
    values = np.asarray(_bulk_term(M, shift, env), dtype=np.intp)
    return values if values.shape == cols.shape[1:] else np.broadcast_to(values, cols.shape[1:])


# the most elements of G, or of its complement, that Kernel.counter counts
# by shifted sums rather than by a transform: measured on GF(101) to
# GF(1201), r = 4 gathers cost 9-31 us against 20-51 us for one FFT pair
SHIFTED_SUMS = 4


@dataclass(frozen=True, eq=False)
class Kernel:
    """A kernel plan bound to one structure, as kernel() builds it: its
    solutions at parameter tuple t are G + u(t), u(t) the shift term's value.
    A linear u is kept as c = u(0) and `images`, u(e) - c at each unit tuple
    e (one parameter at one unit vector of M.group_shape, the others 0): a
    few ints, and no array over the tuples or the universe but G. A
    one-parameter kernel reads its shifts from its vector, u at every
    element, evaluated once and cached on the structure (_shift_vector). As
    Ψ it is all n^k tuples, each with |G| solutions, and its index space is
    the universe, as the shifts."""

    M: FiniteStructure = field(repr=False)
    params: tuple[str, ...]
    shift: Term
    names: tuple[str, ...]  # the names the shift term reads
    base: np.ndarray  # G, read-only
    c: int
    images: tuple[int, ...] | None  # None when u is not linear

    def _shift_vector(self) -> np.ndarray:
        """u at each element, for a one-parameter kernel: _shift_values on
        arange(n) in the narrowest index dtype that holds |M|, read-only,
        cached on the structure under ("vector", shift, params). On GF(1201)
        reading 20 to 1201 shifts from it took 1.3-3.4 us against 10.5-26 us
        for _shift_values at the columns, for x = y * y, !(x = y) and
        exists z. z*z = x - y."""
        n = self.M.size

        def build():
            values = _shift_values(self.M, self.shift, self.names, self.params, np.arange(n)[None, :])
            vector = values.astype(_index_dtype(n, n))
            vector.flags.writeable = False
            return vector

        return self.M.cached(("vector", self.shift, self.params), build)

    def shifts(self, param_columns) -> np.ndarray:
        """u, up to one constant, at each of the (arity, m) parameter
        columns; a one-parameter kernel reads them from its vector."""
        cols = np.atleast_2d(np.asarray(param_columns, dtype=np.intp))
        if len(self.params) == 1:
            return self._shift_vector()[cols[0]]
        return _shift_values(self.M, self.shift, self.names, self.params, cols)

    def points(self, param_columns) -> np.ndarray:
        """The (|G|, m) solutions at the (arity, m) parameter columns: G + u_j in column j."""
        shifts = self.shifts(param_columns)
        return np.asarray(self.M.functions["add"][self.base[:, None], shifts[None, :]], dtype=np.intp)

    @property
    def width(self) -> int:
        return self.M.size ** len(self.params)

    @property
    def low(self) -> int:
        return len(self.base)

    def take(self, j):
        """The tuples at positions j of the lexicographic order, decoded, and
        their solution counts, |G| each."""
        return _lex_tuples(j, self.M.size, len(self.params)), np.full(len(j), self.low, dtype=np.int64)

    def solved(self, elements, live: np.ndarray) -> np.ndarray:
        """Whether some element h of `elements` solves the tuples of each
        shift in `live`: h solves tuple t exactly when u(t) lies in h - G.
        One element reads G's mask at h - v for each live shift v."""
        h, sub = np.asarray(elements, dtype=np.intp), self.M.functions["sub"]
        # every greedy step's route: on GF(1201) at 1201/300/20 live shifts,
        # 17.5/10.5/8.9 us against 17.5/16.5/10.9 us through the blocks for
        # exists z. z*z = x - y, 12.7/8.2/6.0 against 14.5/13.3/12.8 for !(x = y)
        if len(h) == 1:
            in_base = np.zeros(self.M.size, dtype=bool)
            in_base[self.base] = True
            return in_base[sub[h[0], live]]
        reached = np.zeros(self.M.size, dtype=bool)
        for block in column_blocks(len(h), len(self.base)):
            reached[sub[h[block, None], self.base]] = True
        return reached[live]

    def counter(self):
        """count(w), for weights w over the shifts: how many tuples each
        element solves, sum_v w(v) [e - v in G], the convolution 1_G * w
        over M's additive group (Terras, Fourier Analysis on Finite Groups,
        1999), exact. When G or its complement has at most SHIFTED_SUMS
        elements it is their few translates of w, _util.shifted_sums, and
        no transform; otherwise one FFT pair per count, _util.convolver."""
        n, size = self.M.size, len(self.base)
        in_base = np.zeros(n, dtype=np.int64)
        in_base[self.base] = 1
        if min(size, n - size) > SHIFTED_SUMS:
            return convolver(in_base, self.M.group_shape)
        complement = 2 * size > n
        few = np.flatnonzero(in_base == 0) if complement else self.base
        index = self.M.functions["sub"][np.arange(n)[None, :], few[:, None]]  # row i: e - few[i]
        return shifted_sums(index, size, complement)

    def pushforward(self) -> tuple[int, np.ndarray]:
        """w(v) = #{t in M^k : u(t) = v}, exact at any n^k, as (unit,
        histogram): w = unit * histogram, the unit a Python int and the
        histogram int64 over the universe with gcd 1. A linear u = c + sum_i
        phi_i(y_i), phi_i additive homomorphisms, has cosets of its kernel
        as fibres, so w = (n^k / |im|) 1_{im + c}, im the subgroup that
        `images` generate: O(k n). Any other u is counted by a bincount over
        the tuples in blocks: O(n) memory."""
        n = self.M.size
        if self.images is not None:
            support = _coset(self.M, np.array(self.images, dtype=np.intp), self.c)
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


def _kernel_rule(M: FiniteStructure, pf: ParamFormula) -> Plan | None:
    """pf's kernel plan when it holds on M: None when the plan is no kernel
    or M has no group shape, which only the families' members have, whose
    ring laws the kernel rule uses."""
    rule = plan(pf)
    return rule if rule.kind == "kernel" and M.group_shape is not None else None


def kernel(M: FiniteStructure, pf: ParamFormula) -> Kernel | None:
    """pf's kernel plan bound to M, cached on the structure under the plan:
    G is the solution set at the zero tuple shifted back by u there, and a
    linear u is read at the unit tuples in the same evaluation. None when
    _kernel_rule finds no kernel."""
    rule = _kernel_rule(M, pf)
    if rule is None:
        return None

    def build():
        shape, k = M.group_shape, pf.arity
        units = [math.prod(shape[i + 1 :]) % M.size for i in range(len(shape))] if rule.linear else []
        cols = np.zeros((k, 1 + k * len(units)), dtype=np.intp)  # the zero tuple first
        for i in range(k):  # then each parameter at each unit vector
            cols[i, 1 + i * len(units) : 1 + (i + 1) * len(units)] = units
        values = _shift_values(M, rule.shift, rule.names, pf.params, cols)
        c, sub = int(values[0]), M.functions["sub"]
        solutions = np.flatnonzero(solution_mask_matrix(M, pf, cols[:, :1])[:, 0])
        if c:  # index 0 is the zero of the four families' groups: v - 0 = v
            solutions, values = np.asarray(sub[solutions, c], dtype=np.intp), np.asarray(sub[values, c])
        base = solutions
        base.flags.writeable = False
        images = tuple(values[1:].tolist()) if rule.linear else None
        return Kernel(M, pf.params, rule.shift, rule.names, base, c, images)

    return M.cached(("kernel", rule), build)


@dataclass(frozen=True, eq=False)
class Columns:
    """Ψ listed: its tuples as the (arity, m) index array `cols` in
    lexicographic order, with the solution count of each. Its index space
    is its own columns, one tuple each, so its weights are 0 or 1."""

    M: FiniteStructure = field(repr=False)
    pf: ParamFormula
    cols: np.ndarray
    counts: np.ndarray

    @property
    def width(self) -> int:
        return self.cols.shape[1]

    @property
    def low(self) -> int | None:
        return int(self.counts.min()) if len(self.counts) else None

    def take(self, j):
        return self.cols[:, j], self.counts[j]

    def tuples(self, mask: np.ndarray) -> np.ndarray:
        return self.cols[:, mask]

    def pushforward(self) -> tuple[int, np.ndarray]:
        return 1, np.ones(self.width, dtype=np.int64)

    def solved(self, elements, live: np.ndarray) -> np.ndarray:
        cols, hit = self.cols[:, live], np.zeros(len(live), dtype=bool)
        for block in column_blocks(cols.shape[1], len(elements)):
            hit[block] = solution_mask_matrix(self.M, self.pf, cols[:, block], rows=elements).any(axis=0)
        return hit

    def counter(self):
        """count(w): how many of the columns that w weighs each element
        solves, read from the grid one block at a time."""

        def count(weights: np.ndarray) -> np.ndarray:
            cols, sums = self.cols[:, weights > 0], np.zeros(self.M.size, dtype=np.int64)
            for block in column_blocks(cols.shape[1], self.M.size):
                sums += solution_mask_matrix(self.M, self.pf, cols[:, block]).sum(axis=1)
            return sums

        return count


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
    """Evaluate a formula over numpy index arrays, broadcast together;
    returns a bool array. Each Exists binds its name in a copy of `env`, so
    a bound name shadows an outer one by scope."""
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
        image = _exists_plan(f)
        if image is not None:
            image_term, other, domain, hoisted = image
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
    raise TypeError(f"not a formula: {f!r}")


def _check_params(M: FiniteStructure, pf: ParamFormula, params) -> np.ndarray:
    """The parameter tuple as one (arity, 1) column of elements of M."""
    params = tuple(int(v) for v in params)
    if len(params) != pf.arity:
        raise EvaluationError(f"formula {pf.text!r} takes {pf.arity} parameter(s), got {len(params)}")
    for v in params:
        if not 0 <= v < M.size:
            raise EvaluationError(f"formula {pf.text!r} takes parameters in 0..{M.size - 1}, got {v}")
    return np.array(params, dtype=np.intp).reshape(pf.arity, 1)


def solution_set(M: FiniteStructure, pf: ParamFormula, params=()) -> list[int]:
    """Elements satisfying the formula at the given parameters, index order."""
    return [int(v) for v in np.flatnonzero(solution_mask_matrix(M, pf, _check_params(M, pf, params)))]


def solution_count(M: FiniteStructure, pf: ParamFormula, params=()) -> int:
    return int(count_columns(M, pf, _check_params(M, pf, params))[0])


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


def solves(M: FiniteStructure, pf: ParamFormula, elements, param_columns) -> np.ndarray:
    """Boolean array whose entry j says whether elements[j] satisfies the
    formula at the j-th of the (arity, m) parameter columns: the formula
    evaluated at m (element, tuple) pairs, with no grid over the universe."""
    x = np.asarray(elements, dtype=np.intp)
    cols = np.asarray(param_columns, dtype=np.intp).reshape(pf.arity, len(x))
    env = {pf.object_var: x, **dict(zip(pf.params, cols))}
    return np.broadcast_to(eval_bulk(M, pf.formula, env), x.shape)


def count_columns(M: FiniteStructure, pf: ParamFormula, param_columns) -> np.ndarray:
    """Solution counts at each of the (arity, m) parameter columns: the one
    place that counts. A translation kernel has |G| solutions at every
    tuple; any other formula is counted one evaluation block at a time."""
    cols = np.atleast_2d(np.asarray(param_columns, dtype=np.intp))
    record = kernel(M, pf)
    if record is not None:
        return np.full(cols.shape[1], record.low, dtype=np.int64)
    counts = np.empty(cols.shape[1], dtype=np.int64)
    for block in column_blocks(cols.shape[1], M.size):
        counts[block] = solution_mask_matrix(M, pf, cols[:, block]).sum(axis=0)
    return counts


def solution_counts_all(M: FiniteStructure, pf: ParamFormula) -> np.ndarray:
    """Solution counts for every parameter tuple, flattened in lexicographic
    order (shape (size**arity,)). The tuples are made and counted one block
    at a time, so neither they nor the grid need fit the budget at once. A
    formula off the kernel rule is counted once per structure: its counts
    are cached on the structure, read-only."""
    n, k = M.size, pf.arity

    def build():
        counts = np.empty(n**k, dtype=np.int64)
        for block in column_blocks(n**k, n):
            counts[block] = count_columns(M, pf, _lex_tuples(np.arange(block.start, block.stop), n, k))
        counts.flags.writeable = False
        return counts

    record = kernel(M, pf)
    if record is not None:  # |G| everywhere, made without evaluating: not worth keeping
        return np.full(n**k, record.low, dtype=np.int64)
    return M.cached(("counts", pf.formula, pf.object_var, pf.params), build)


def count_histogram(M: FiniteStructure, pf: ParamFormula):
    """The distinct solution counts over all n^k parameter tuples, ascending,
    and the number of tuples with each, as lists of Python ints, or None when
    they are not known exactly. A kernel's is {|G|: n^k} at every n^k, |G|
    counted at the zero tuple with no Kernel record built; any other
    formula's comes from solution_counts_all, and is None past the budget."""
    if _kernel_rule(M, pf) is not None:
        zero = np.zeros((pf.arity, 1), dtype=np.intp)
        return [int(solution_mask_matrix(M, pf, zero).sum())], [M.size**pf.arity]
    if not within_budget(M.size**pf.arity):
        return None
    counts, tuples = np.unique(solution_counts_all(M, pf), return_counts=True)
    return counts.tolist(), tuples.tolist()


def solution_pairs(M: FiniteStructure, pf: ParamFormula, cols, owner) -> np.ndarray:
    """The codes owner[j] * |M| + e of every solution e of pf at the j-th of
    the (arity, m) parameter columns: a kernel's points(), |G| per column;
    any other formula's nonzero grid entries, one evaluation block at a time."""
    record = kernel(M, pf)
    if record is not None:
        return (owner * M.size + record.points(cols)).ravel()
    found = [np.empty(0, dtype=np.intp)]
    for block in column_blocks(cols.shape[1], M.size):
        rows, at = np.nonzero(solution_mask_matrix(M, pf, cols[:, block]))
        found.append(owner[block][at] * M.size + rows)
    return np.concatenate(found)

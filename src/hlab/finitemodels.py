"""Finite structures whose operations are computed from their arithmetic.

Four families are supported: prime fields GF(p), quadratic extension fields
GF(p^2) with a named Frobenius function and a subfield predicate, cyclic
groups Z_n, and vector spaces over F2. Elements are dense indices 0..n-1 and
the canonical linear order is index order. Binary operations are Operation
objects that compute their values on demand, so nothing of size n^2 is
stored; unary functions and relations are length-n arrays, checked
exhaustively at construction like any table a caller passes explicitly.
FAMILIES holds one row per family with every fact about it but its maker:
its signature, which integers are its parameters, a member's universe size,
and its additive group as an array shape (group_shape), over which hgreedy
transforms its convolution coverage. _MAKERS holds the one maker of each.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyFamilyError, InvariantError, SignatureMismatchError

PRIME_FIELD = "prime-field"
EXTENSION_FIELD = "quadratic-extension-field"
CYCLIC_GROUP = "cyclic-group"
F2_VECTOR_SPACE = "f2-vector-space"


@dataclass(frozen=True)
class Signature:
    """Function and relation symbols with arities; constants are arity-0 functions."""

    functions: dict[str, int]
    relations: dict[str, int]

    def __post_init__(self):
        names = list(self.functions) + list(self.relations)
        if len(set(names)) != len(names):
            raise SignatureMismatchError("duplicate symbol names in signature")
        for name, arity in {**self.functions, **self.relations}.items():
            if arity < 0:
                raise SignatureMismatchError(f"negative arity for {name!r}")


RING_SIGNATURE = Signature(
    functions={"add": 2, "sub": 2, "mul": 2, "zero": 0, "one": 0},
    relations={},
)

EXTENSION_SIGNATURE = Signature(
    functions={"add": 2, "sub": 2, "mul": 2, "zero": 0, "one": 0, "frob": 1},
    relations={"insub": 1},
)

GROUP_SIGNATURE = Signature(
    functions={"add": 2, "sub": 2, "zero": 0},
    relations={},
)


@dataclass(frozen=True)
class Operation:
    """A binary operation on 0..size-1 computed from its arithmetic.

    `op[a, b]` converts both index arguments (ints or arrays) to `dtype`
    and returns fn(a, b), what indexing a dense size-by-size table would
    give: one fresh array of their broadcast shape (a scalar for scalars),
    which fn's first ufunc allocates and its later steps update in place.
    `dtype` must hold every intermediate value of fn, because numpy integers
    wrap on overflow.
    """

    size: int
    fn: Callable
    dtype: type

    nbytes = 0  # nothing is stored per pair of elements

    def __getitem__(self, index):
        a, b = index
        return self.fn(np.asarray(a, dtype=self.dtype), np.asarray(b, dtype=self.dtype))


def _index_dtype(largest: int, size: int):
    """The narrowest of int16, int32 and int64 that holds the largest
    intermediate value: narrow grids cost less memory and run faster."""
    for t in (np.int16, np.int32, np.int64):
        if largest <= np.iinfo(t).max:
            return t
    raise SignatureMismatchError(f"size {size} needs integers up to {largest}, past int64")


@dataclass(eq=False)
class FiniteStructure:
    """A finite universe 0..size-1 with interpreted functions and relations.

    Immutable after construction (arrays are marked read-only, operations are
    frozen); safe to share across concurrent readers. `params` records family
    parameters such as the prime p, the modulus n, the dimension, or the
    extension's non-residue r. Facts derived from the structure and one
    formula (folang's kernel records, one-parameter kernels' shift vectors,
    image masks and off-kernel solution counts) live in one cache that
    `cached` alone reads and writes; threads that build the same entry at
    once all get the first value stored.
    """

    sig: Signature
    size: int
    family: str
    params: dict
    functions: dict[str, np.ndarray | Operation]
    relations: dict[str, np.ndarray]
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        n = self.size
        if n < 1:
            raise SignatureMismatchError("universe must have at least one element")
        if set(self.functions) != set(self.sig.functions):
            raise SignatureMismatchError("function tables do not match signature")
        if set(self.relations) != set(self.sig.relations):
            raise SignatureMismatchError("relation tables do not match signature")
        for name, arity in self.sig.functions.items():
            table = self.functions[name]
            if isinstance(table, Operation):
                # closed by its arithmetic; a range scan would be the n^2 work
                # that computing instead of storing avoids
                if arity != 2 or table.size != n:
                    raise SignatureMismatchError(f"operation {name!r} has wrong shape")
                continue
            table = np.asarray(table)
            if table.shape != (n,) * arity:
                raise SignatureMismatchError(f"table for {name!r} has wrong shape")
            if arity == 0:
                value = int(table)
                if not 0 <= value < n:
                    raise SignatureMismatchError(f"constant {name!r} out of range")
            elif table.size and (int(table.min()) < 0 or int(table.max()) >= n):
                raise SignatureMismatchError(f"table for {name!r} is not closed over the universe")
            table.flags.writeable = False
            self.functions[name] = table
        for name, arity in self.sig.relations.items():
            table = np.asarray(self.relations[name])
            if table.shape != (n,) * arity or table.dtype != np.bool_:
                raise SignatureMismatchError(f"relation {name!r} must be a boolean table over the universe")
            table.flags.writeable = False
            self.relations[name] = table
        if self.family == EXTENSION_FIELD:
            self._check_extension()

    def _check_extension(self):
        frob = self.functions["frob"]
        insub = self.relations["insub"]
        if not np.array_equal(frob[frob], np.arange(self.size)):
            raise SignatureMismatchError("frob must be an involution")
        fixed = frob == np.arange(self.size)
        if not np.array_equal(fixed, insub):
            raise SignatureMismatchError("insub must be exactly the fixed points of frob")
        root = round(self.size ** 0.5)
        if root * root != self.size or int(insub.sum()) != root:
            raise SignatureMismatchError("insub must have exactly sqrt(size) elements")

    @property
    def group_shape(self) -> tuple[int, ...] | None:
        """The additive group as an array shape, or None outside the four
        families: an element's index is the C-order flat index of its
        coordinates, and add adds them coordinatewise, each modulo its axis
        length."""
        family = FAMILIES.get(self.family)
        return None if family is None else family.group_shape(self.params)

    def cached(self, key, build: Callable):
        """The value cached under `key`, made by build() on first use."""
        value = self._cache.get(key)
        if value is None:
            # threads that raced past the get all return the first one stored
            value = self._cache.setdefault(key, build())
        return value

    def constant(self, name: str) -> int:
        return int(self.functions[name])

    def numeral(self, k: int) -> int:
        """Interpret a numeral literal as an element index.

        For modular families the numeral is the residue; for the quadratic
        extension it is k times the field's one (a subfield element); for F2
        spaces it is the bitmask k reduced mod the universe size.
        """
        if self.family == EXTENSION_FIELD:
            p = self.params["p"]
            return (k % p) * p
        return k % self.size

    def describe(self) -> str:
        detail = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.family}({detail})"


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def primes_in(lo: int, hi: int) -> list[int]:
    return [v for v in range(lo, hi + 1) if is_prime(v)]


def _residue_operations(n: int) -> dict[str, Operation]:
    """add, sub and mul on the residues 0..n-1, each in the narrowest dtype
    that holds n and a + b, a - b or a * b before reduction."""

    def reduced(step):
        def fn(a, b):
            out = step(a, b)
            out %= n
            return out

        return fn

    return {
        "add": Operation(n, reduced(np.add), _index_dtype(2 * (n - 1), n)),
        "sub": Operation(n, reduced(np.subtract), _index_dtype(n, n)),
        "mul": Operation(n, reduced(np.multiply), _index_dtype((n - 1) ** 2, n)),
    }


def make_prime_field(p: int) -> FiniteStructure:
    """GF(p) in the ring signature; element i is the residue i."""
    if not is_prime(p):
        raise SignatureMismatchError(f"{p} is not prime")
    functions = {**_residue_operations(p), "zero": np.int64(0), "one": np.int64(1 % p)}
    return FiniteStructure(RING_SIGNATURE, p, PRIME_FIELD, {"p": p}, functions, {})


def least_nonresidue(p: int) -> int:
    squares = set(int(z * z % p) for z in range(p))
    for r in range(2, p):
        if r not in squares:
            return r
    raise SignatureMismatchError(f"no quadratic non-residue mod {p}")


def make_extension_field(p: int) -> FiniteStructure:
    """GF(p^2) built as GF(p)[t]/(t^2 - r) with r the least non-residue.

    The pair (a, b), standing for a + b*t, is enumerated row-major, so the
    element index is a*p + b; each operation splits its arguments into their
    coordinates, computes mod p and re-encodes. frob is x -> x^p and insub
    names the prime subfield, which is exactly the fixed-point set of frob.
    """
    if p == 2:
        raise SignatureMismatchError("characteristic 2 extensions are not supported")
    if not is_prime(p):
        raise SignatureMismatchError(f"{p} is not prime")
    r = least_nonresidue(p)
    n = p * p

    def coordinatewise(step):
        # coordinates add (subtract) independently
        def fn(x, y):
            out = step(x // p, y // p)
            out %= p
            out *= p
            t = step(x, y)  # its residue mod p is the t coordinate
            t %= p
            out += t
            return out

        return fn

    def mul(x, y):
        # (a1 + b1 t)(a2 + b2 t) = a1 a2 + r b1 b2 + (a1 b2 + a2 b1) t
        (xa, xb), (ya, yb) = np.divmod(x, p), np.divmod(y, p)
        out = xb * yb
        out %= p
        out *= r
        out += xa * ya
        out %= p
        out *= p
        t = xa * yb
        t += xb * ya
        t %= p
        out += t
        return out

    # no intermediate exceeds 2n: x + y, and a1 a2 + r (b1 b2 % p) < 2 p^2
    dtype = _index_dtype(2 * n, n)
    # x^p = a - b t in GF(p^2) because t^p = -t when t^2 is a non-residue
    a, b = np.divmod(np.arange(n, dtype=dtype), p)
    functions = {
        "add": Operation(n, coordinatewise(np.add), dtype),
        "sub": Operation(n, coordinatewise(np.subtract), dtype),
        "mul": Operation(n, mul, dtype),
        "zero": np.int64(0),
        "one": np.int64(p),
        "frob": a * p + (-b) % p,
    }
    return FiniteStructure(
        EXTENSION_SIGNATURE, n, EXTENSION_FIELD, {"p": p, "r": r}, functions, {"insub": b == 0}
    )


def make_cyclic_group(n: int) -> FiniteStructure:
    if n < 1:
        raise SignatureMismatchError("cyclic group order must be >= 1")
    ops = _residue_operations(n)
    functions = {"add": ops["add"], "sub": ops["sub"], "zero": np.int64(0)}
    return FiniteStructure(GROUP_SIGNATURE, n, CYCLIC_GROUP, {"n": n}, functions, {})


def make_f2_vector_space(dim: int) -> FiniteStructure:
    if dim < 1:
        raise SignatureMismatchError("dimension must be >= 1")
    if dim >= np.iinfo(np.int64).bits - 1:  # checked before 1 << dim is built
        raise SignatureMismatchError(f"dimension {dim} gives 2**{dim} elements, past int64")
    n = 1 << dim
    # over F2, subtraction is addition: both are bitwise xor of the indices
    xor = Operation(n, np.bitwise_xor, _index_dtype(n, n))
    functions = {"add": xor, "sub": xor, "zero": np.int64(0)}
    return FiniteStructure(GROUP_SIGNATURE, n, F2_VECTOR_SPACE, {"dim": dim}, functions, {})


@dataclass(frozen=True)
class Family:
    """Every fact about one family but its maker: its members' signature, the
    least parameter, whether the parameters are the primes from it on or
    every integer from it on, the universe size of the member with parameter
    v, and a member's additive group shape, read from its params."""

    signature: Signature
    least: int
    primes: bool
    universe: Callable[[int], int]
    group_shape: Callable[[dict], tuple[int, ...]]

    def admits(self, value: int) -> bool:
        """Whether `value` is the parameter of a member."""
        return value >= self.least and (not self.primes or is_prime(value))


# one row per family: Family(signature, least, primes, universe, group_shape). An
# extension element a + b*t has index a*p + b, the flat index of (a, b). An F2 index's bits
# are its coordinates; its universe is 2**dim, since the config check evaluates it for any
# dim up to 10**7, where a product over the dim-long shape would hang
FAMILIES = {
    PRIME_FIELD: Family(RING_SIGNATURE, 2, True, lambda p: p, lambda m: (m["p"],)),
    EXTENSION_FIELD: Family(EXTENSION_SIGNATURE, 3, True, lambda p: p * p, lambda m: (m["p"],) * 2),
    CYCLIC_GROUP: Family(GROUP_SIGNATURE, 1, False, lambda n: n, lambda m: (m["n"],)),
    F2_VECTOR_SPACE: Family(GROUP_SIGNATURE, 1, False, lambda dim: 2**dim, lambda m: (2,) * m["dim"]),
}
# the one maker of each family: enumerate_family builds through this dict,
# whose entries a tracer may swap
_MAKERS = {
    PRIME_FIELD: make_prime_field,
    EXTENSION_FIELD: make_extension_field,
    CYCLIC_GROUP: make_cyclic_group,
    F2_VECTOR_SPACE: make_f2_vector_space,
}


def _row(family: str) -> Family:
    if family not in FAMILIES:
        raise SignatureMismatchError(f"unknown family {family!r}")
    return FAMILIES[family]


def signature_for_family(family: str) -> Signature:
    return _row(family).signature


@dataclass(frozen=True)
class FamilySpec:
    """Which structures to build: a family tag plus either an explicit list of
    family parameters or an inclusive [lo, hi] interval over them, of which
    the family's row admits the parameters of its members."""

    family: str
    lo: int | None = None
    hi: int | None = None
    values: tuple[int, ...] | None = None

    def parameters(self) -> list[int]:
        admits = _row(self.family).admits
        if self.values is not None:
            vals = sorted(set(int(v) for v in self.values))
        elif self.lo is not None and self.hi is not None:
            vals = range(int(self.lo), int(self.hi) + 1)
        else:
            raise EmptyFamilyError("family spec needs either values or a [lo, hi] interval")
        return [v for v in vals if admits(v)]


def enumerate_family(spec: FamilySpec) -> list[FiniteStructure]:
    """Materialize the family in strictly increasing universe size."""
    params = spec.parameters()
    if not params:
        raise EmptyFamilyError(f"size filter for {spec.family!r} matches nothing")
    structures = [_MAKERS[spec.family](v) for v in params]
    sizes = [m.size for m in structures]
    if sizes != sorted(set(sizes)):
        raise InvariantError(
            f"{spec.family} family over parameters {params}, enumeration: "
            f"universe sizes {sizes} are not strictly increasing"
        )
    return structures

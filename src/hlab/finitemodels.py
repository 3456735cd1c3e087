"""Finite structures with total interpretation tables.

Four families are supported: prime fields GF(p), quadratic extension fields
GF(p^2) with a named Frobenius function and a subfield predicate, cyclic
groups Z_n, and vector spaces over F2. Elements are dense indices 0..n-1 and
the canonical linear order is index order. Every interpretation table is a
numpy array over the full universe and is checked exhaustively at
construction time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyFamilyError, InvariantError, SignatureMismatchError

PRIME_FIELD = "prime-field"
EXTENSION_FIELD = "quadratic-extension-field"
CYCLIC_GROUP = "cyclic-group"
F2_VECTOR_SPACE = "f2-vector-space"

FAMILIES = (PRIME_FIELD, EXTENSION_FIELD, CYCLIC_GROUP, F2_VECTOR_SPACE)


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


@dataclass(eq=False)
class FiniteStructure:
    """A finite universe 0..size-1 with interpreted tables.

    Immutable after construction (tables are marked read-only); safe to share
    across concurrent readers. `params` records family parameters such as the
    prime p, the modulus n, the dimension, or the extension's non-residue r.
    """

    sig: Signature
    size: int
    family: str
    params: dict
    functions: dict[str, np.ndarray]
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
            table = np.asarray(self.functions[name])
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

    def elements(self) -> np.ndarray:
        return np.arange(self.size)

    def describe(self) -> str:
        detail = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.family}({detail})"


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def primes_in(lo: int, hi: int) -> list[int]:
    if hi < 2:
        return []
    sieve = np.ones(hi + 1, dtype=bool)
    sieve[:2] = False
    for i in range(2, int(hi**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = False
    return [int(p) for p in np.flatnonzero(sieve) if p >= lo]


def make_prime_field(p: int) -> FiniteStructure:
    """GF(p) in the ring signature; element i is the residue i."""
    if not is_prime(p):
        raise SignatureMismatchError(f"{p} is not prime")
    # int32 intermediates: products stay below 2^31 for any p < 2^15.5
    i = np.arange(p, dtype=np.int32 if p < 2**15 else np.int64)
    dtype = np.uint16 if p < 2**16 else np.int64
    functions = {
        "add": ((i[:, None] + i[None, :]) % p).astype(dtype),
        "sub": ((i[:, None] - i[None, :]) % p).astype(dtype),
        "mul": ((i[:, None] * i[None, :]) % p).astype(dtype),
        "zero": np.int64(0),
        "one": np.int64(1 % p),
    }
    return FiniteStructure(RING_SIGNATURE, p, PRIME_FIELD, {"p": p}, functions, {})


def least_nonresidue(p: int) -> int:
    squares = set(int(z * z % p) for z in range(p))
    for r in range(2, p):
        if r not in squares:
            return r
    raise SignatureMismatchError(f"no quadratic non-residue mod {p}")


def pack_idx(coord_a, coord_b, p):
    """Flat index coord_a * p + coord_b, reusing coord_a's buffer."""
    coord_a *= p
    coord_a += coord_b
    return coord_a


def make_extension_field(p: int) -> FiniteStructure:
    """GF(p^2) built as GF(p)[t]/(t^2 - r) with r the least non-residue.

    The pair (a, b), standing for a + b*t, is enumerated row-major, so the
    element index is a*p + b. frob is x -> x^p and insub names the prime
    subfield, which is exactly the fixed-point set of frob.
    """
    if p == 2:
        raise SignatureMismatchError("characteristic 2 extensions are not supported")
    if not is_prime(p):
        raise SignatureMismatchError(f"{p} is not prime")
    r = least_nonresidue(p)
    n = p * p
    # arithmetic happens in small p-by-p coordinate tables; the n-by-n tables
    # are assembled from them with block repeats, tiles, and small lookups,
    # never with a modulo over the full n-by-n grid
    i = np.arange(p, dtype=np.int32)
    addp = ((i[:, None] + i[None, :]) % p).astype(np.int32)
    subp = ((i[:, None] - i[None, :]) % p).astype(np.int32)
    mulp = ((i[:, None].astype(np.int64) * i[None, :]) % p).astype(np.int32)
    rtimes = ((r * i.astype(np.int64)) % p).astype(np.int32)
    negp = ((-i) % p).astype(np.int32)

    # index = a*p + b; along an axis the a coordinate repeats in blocks of p
    # while the b coordinate cycles, so T[a1, a2] and friends are pure block
    # expansions of the small table T; expanding columns while the array is
    # still small keeps the big copies row-sized
    def on_aa(T):
        return np.repeat(np.repeat(T, p, axis=1), p, axis=0)

    def on_bb(T):
        return np.tile(np.tile(T, (1, p)), (p, 1))

    def on_ab(T):
        return np.repeat(np.tile(T, (1, p)), p, axis=0)

    def on_ba(T):
        return np.tile(np.repeat(T, p, axis=1), (p, 1))

    dtype = np.uint16 if n < 2**16 else np.int64
    addp_flat = addp.ravel()

    def pack(coord_a, coord_b):
        coord_a *= p
        coord_a += coord_b
        return coord_a.astype(dtype)

    add = pack(on_aa(addp), on_bb(addp))
    sub = pack(on_aa(subp), on_bb(subp))
    # (a1 + b1 t)(a2 + b2 t) = a1 a2 + r b1 b2 + (a1 b2 + a2 b1) t
    mul = pack(
        addp_flat[pack_idx(on_aa(mulp), rtimes[on_bb(mulp)], p)],
        addp_flat[pack_idx(on_ab(mulp), on_ba(mulp), p)],
    )
    # x^p = a - b t in GF(p^2) because t^p = -t when t^2 is a non-residue
    idx = np.arange(n, dtype=np.int64)
    a, b = idx // p, (idx % p).astype(np.intp)
    frob = (a * p + negp[b]).astype(dtype)
    insub = b == 0
    functions = {
        "add": add,
        "sub": sub,
        "mul": mul,
        "zero": np.int64(0),
        "one": np.int64(p),
        "frob": frob,
    }
    return FiniteStructure(
        EXTENSION_SIGNATURE, n, EXTENSION_FIELD, {"p": p, "r": r}, functions, {"insub": insub}
    )


def make_cyclic_group(n: int) -> FiniteStructure:
    if n < 1:
        raise SignatureMismatchError("cyclic group order must be >= 1")
    i = np.arange(n, dtype=np.int32 if n < 2**15 else np.int64)
    dtype = np.uint16 if n < 2**16 else np.int64
    functions = {
        "add": ((i[:, None] + i[None, :]) % n).astype(dtype),
        "sub": ((i[:, None] - i[None, :]) % n).astype(dtype),
        "zero": np.int64(0),
    }
    return FiniteStructure(GROUP_SIGNATURE, n, CYCLIC_GROUP, {"n": n}, functions, {})


def make_f2_vector_space(dim: int) -> FiniteStructure:
    if dim < 1:
        raise SignatureMismatchError("dimension must be >= 1")
    n = 1 << dim
    i = np.arange(n, dtype=np.int64)
    xor = np.bitwise_xor(i[:, None], i[None, :])
    dtype = np.uint16 if n < 2**16 else np.int64
    functions = {"add": xor.astype(dtype), "sub": xor.astype(dtype), "zero": np.int64(0)}
    return FiniteStructure(GROUP_SIGNATURE, n, F2_VECTOR_SPACE, {"dim": dim}, functions, {})


def signature_for_family(family: str) -> Signature:
    if family == PRIME_FIELD:
        return RING_SIGNATURE
    if family == EXTENSION_FIELD:
        return EXTENSION_SIGNATURE
    if family in (CYCLIC_GROUP, F2_VECTOR_SPACE):
        return GROUP_SIGNATURE
    raise SignatureMismatchError(f"unknown family {family!r}")


@dataclass(frozen=True)
class FamilySpec:
    """Which structures to build: a family tag plus either an explicit list of
    family parameters or an inclusive [lo, hi] interval over them.

    For prime fields the parameters are primes, for quadratic extensions odd
    primes, for cyclic groups the order, for F2 spaces the dimension.
    """

    family: str
    lo: int | None = None
    hi: int | None = None
    values: tuple[int, ...] | None = None

    def parameters(self) -> list[int]:
        if self.values is not None:
            vals = sorted(set(int(v) for v in self.values))
        elif self.lo is not None and self.hi is not None:
            vals = list(range(int(self.lo), int(self.hi) + 1))
        else:
            raise EmptyFamilyError("family spec needs either values or a [lo, hi] interval")
        if self.family == PRIME_FIELD:
            vals = [v for v in vals if is_prime(v)]
        elif self.family == EXTENSION_FIELD:
            vals = [v for v in vals if v != 2 and is_prime(v)]
        return vals


_MAKERS = {
    PRIME_FIELD: make_prime_field,
    EXTENSION_FIELD: make_extension_field,
    CYCLIC_GROUP: make_cyclic_group,
    F2_VECTOR_SPACE: make_f2_vector_space,
}


def enumerate_family(spec: FamilySpec) -> list[FiniteStructure]:
    """Materialize the family in strictly increasing universe size."""
    if spec.family not in _MAKERS:
        raise SignatureMismatchError(f"unknown family {spec.family!r}")
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

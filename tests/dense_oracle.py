"""Dense n-by-n operation tables: the oracle for hlab's computed operations.

The structures in hlab.finitemodels compute add, sub and mul from their
arithmetic. The builders below materialize the same operations as full
tables, the way structures used to store them. GF(p^2) tables are assembled
from p-by-p coordinate tables by block repeats, an algorithm that shares
nothing with the operations' decode, compute and re-encode.
"""

import numpy as np

from hlab.finitemodels import (
    CYCLIC_GROUP,
    EXTENSION_FIELD,
    F2_VECTOR_SPACE,
    PRIME_FIELD,
    Operation,
)


def residue_tables(n):
    i = np.arange(n, dtype=np.int64)
    return {
        "add": (i[:, None] + i[None, :]) % n,
        "sub": (i[:, None] - i[None, :]) % n,
        "mul": (i[:, None] * i[None, :]) % n,
    }


def extension_tables(p, r):
    """add, sub and mul of GF(p)[t]/(t^2 - r), element a + b t at index a*p + b."""
    i = np.arange(p, dtype=np.int64)
    addp = (i[:, None] + i[None, :]) % p
    subp = (i[:, None] - i[None, :]) % p
    mulp = (i[:, None] * i[None, :]) % p
    rtimes = (r * i) % p

    # along an axis of the n-by-n grid the a coordinate repeats in blocks of
    # p while the b coordinate cycles, so T[a1, a2] and friends are block
    # expansions of the small table T
    def on_aa(T):
        return np.repeat(np.repeat(T, p, axis=1), p, axis=0)

    def on_bb(T):
        return np.tile(T, (p, p))

    def on_ab(T):
        return np.repeat(np.tile(T, (1, p)), p, axis=0)

    def on_ba(T):
        return np.tile(np.repeat(T, p, axis=1), (p, 1))

    def pack(coord_a, coord_b):
        return coord_a * p + coord_b

    addp_flat = addp.ravel()
    return {
        "add": pack(on_aa(addp), on_bb(addp)),
        "sub": pack(on_aa(subp), on_bb(subp)),
        # (a1 + b1 t)(a2 + b2 t) = a1 a2 + r b1 b2 + (a1 b2 + a2 b1) t
        "mul": pack(
            addp_flat[pack(on_aa(mulp), rtimes[on_bb(mulp)])],
            addp_flat[pack(on_ab(mulp), on_ba(mulp))],
        ),
    }


def f2_tables(dim):
    i = np.arange(1 << dim, dtype=np.int64)
    xor = i[:, None] ^ i[None, :]
    return {"add": xor, "sub": xor}


def dense_tables(M):
    """The oracle's table for every binary operation of M."""
    if M.family == PRIME_FIELD:
        return residue_tables(M.params["p"])
    if M.family == CYCLIC_GROUP:
        tables = residue_tables(M.params["n"])
        return {"add": tables["add"], "sub": tables["sub"]}
    if M.family == EXTENSION_FIELD:
        return extension_tables(M.params["p"], M.params["r"])
    if M.family == F2_VECTOR_SPACE:
        return f2_tables(M.params["dim"])
    raise ValueError(f"no oracle for family {M.family!r}")


def grid(table):
    """Every value of a function: an Operation evaluated on the full
    size-by-size grid, or an array as it is stored."""
    if isinstance(table, Operation):
        i = np.arange(table.size)
        return np.asarray(table[i[:, None], i[None, :]])
    return np.asarray(table)

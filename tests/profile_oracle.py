"""Per-tuple oracles for hlab.asymptotics.

fit_counts is the measure fit over one count per parameter tuple, the way
profile_family fitted before it kept count histograms; asymptotics._fit must
agree with it on every input. tuple_psi is Ψ enumerated tuple by tuple,
each tuple counted on the grid, the way psi_columns named a translation
kernel's Ψ before it took the pushforward of the shifts; columns_psi is the
same Ψ as folang.Columns, the grid route's Ψ, to put in psi_columns' place.
"""

import math

import numpy as np

from hlab._util import _lex_tuples, tuple_columns
from hlab.asymptotics import MAX_MEASURES, StructureStats, _large_mask
from hlab.errors import NotOneDimensionalError
from hlab.folang import Columns, solution_mask_matrix


def fit_counts(observed, gap, ceiling):
    """(E, C, B, stats in size order) for observed = (size, counts,
    enumerated) per structure, largest first, counts one per tuple."""
    sum_counts = np.zeros(0)
    sum_sizes = np.zeros(0)
    B = None

    def first_stray_cluster(indices, normalized):
        order = np.argsort(normalized, kind="stable")
        svals = normalized[order]
        splits = np.flatnonzero(np.diff(svals) > gap)
        end = (splits[0] + 1) if len(splits) else len(svals)
        return indices[order[:end]]

    n0, counts0, _ = observed[0]
    counts0 = np.asarray(counts0, dtype=np.int64)
    norm0 = counts0 / n0
    order = np.argsort(norm0, kind="stable")
    splits = np.flatnonzero(np.diff(norm0[order]) > gap)
    for seg in np.split(order, splits + 1):
        if norm0[seg].max() < gap:
            top = int(counts0[seg].max())
            B = top if B is None else max(B, top)
        else:
            sum_counts = np.append(sum_counts, counts0[seg].sum())
            sum_sizes = np.append(sum_sizes, len(seg) * n0)

    for n, counts, _ in observed[1:]:
        sqrt_n = math.sqrt(n)
        counts = np.asarray(counts, dtype=np.int64)
        todo = np.ones(len(counts), dtype=bool)
        if B is not None:
            todo &= counts > B
        while todo.any():
            rest = np.flatnonzero(todo)
            if len(sum_counts):
                mus = sum_counts / sum_sizes
                resid = np.abs(counts[rest, None] - mus[None, :] * n) / sqrt_n
                arg = resid.argmin(axis=1)
                join = resid.min(axis=1) <= ceiling
                sum_counts += np.bincount(arg[join], counts[rest[join]], len(mus))
                sum_sizes += np.bincount(arg[join], minlength=len(mus)) * n
                todo[rest[join]] = False
                rest = rest[~join]
            if not len(rest):
                break
            normalized = counts[rest] / n
            small = normalized < gap
            if small.any():
                new_b = int(counts[rest[small]].max())
                B = new_b if B is None else max(B, new_b)
                todo[rest[small]] = False
                rest = rest[~small]
                normalized = normalized[~small]
            if not len(rest):
                continue
            if len(sum_counts) >= MAX_MEASURES:
                raise NotOneDimensionalError(
                    f"more than {MAX_MEASURES} measures needed "
                    f"at size {n}; not asymptotically one-dimensional at this scale"
                )
            members = first_stray_cluster(rest, normalized)
            sum_counts = np.append(sum_counts, counts[members].sum())
            sum_sizes = np.append(sum_sizes, len(members) * n)
            todo[members] = False

    E = []
    for m in sorted(sum_counts / sum_sizes):
        if not (E and abs(m - E[-1]) < 1e-9):
            E.append(m)

    max_residual = 0.0
    stats = []
    mus = np.array(E) if E else np.empty(0)
    for n, counts, enumerated in observed:
        counts = np.asarray(counts, dtype=np.int64)
        alg_mask = counts <= B if B is not None else np.zeros(len(counts), dtype=bool)
        lg = ~alg_mask
        struct_max = 0.0
        if lg.any():
            if not len(mus):
                raise NotOneDimensionalError(
                    "counts above the algebraic bound with no measures"
                )
            resid = np.abs(counts[lg, None] - mus[None, :] * n).min(axis=1) / math.sqrt(n)
            struct_max = float(resid.max())
            max_residual = max(max_residual, struct_max)
        stats.append(StructureStats(n, struct_max, int(alg_mask.sum()), int(lg.sum()), enumerated))

    C = (math.floor(max_residual * 100) + 1) / 100.0
    if max_residual > ceiling:
        raise NotOneDimensionalError(
            f"envelope needs C = {max_residual:.3f} > ceiling "
            f"{ceiling}; not asymptotically one-dimensional at this scale"
        )
    if B is not None and E:
        smallest = min(n for n, _, _ in observed)
        if B >= min(E) * smallest:
            raise NotOneDimensionalError(f"algebraic bound {B} overlaps the measure envelope at size {smallest}")
    stats.sort(key=lambda s: s.size)
    return E, C, B, stats


def tuple_psi(M, profile):
    """Every large parameter tuple as an (arity, m) index array in
    lexicographic order and the solution count of each, counted on the grid
    over all n^k tuples."""
    n, k = M.size, profile.pf.arity
    counts = solution_mask_matrix(M, profile.pf, tuple_columns(range(n), k)).sum(axis=0)
    flats = np.flatnonzero(_large_mask(profile, n, counts))
    return _lex_tuples(flats, n, k), counts[flats]


def columns_psi(M, profile):
    """tuple_psi as folang.Columns: any formula's Ψ on the grid route."""
    return Columns(M, profile.pf, *tuple_psi(M, profile))

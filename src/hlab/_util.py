"""Small shared helpers: tuple grids, flat tuple indices, JSON sanitizing, atomic writes."""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np


def tuple_columns(values, arity: int) -> np.ndarray:
    """All tuples over `values` of length `arity`, as an (arity, len**arity)
    index array in lexicographic order."""
    vals = np.asarray(list(values), dtype=np.intp)
    if arity == 0:
        return np.empty((0, 1), dtype=np.intp)
    if not len(vals):
        return np.empty((arity, 0), dtype=np.intp)
    grids = np.meshgrid(*([vals] * arity), indexing="ij")
    return np.stack([g.ravel() for g in grids])


def _lex_tuples(positions, n: int, arity: int) -> np.ndarray:
    """The tuples over 0..n-1 of length `arity` at the given positions of
    their lexicographic order, as an (arity, len(positions)) intp array:
    the one place that decodes a flat tuple index."""
    if arity == 0:
        return np.empty((0, len(positions)), dtype=np.intp)
    return np.array(np.unravel_index(positions, (n,) * arity), dtype=np.intp)


def _plain(obj):
    """json.dumps fallback: a numpy array as a list, a numpy integer, float or
    bool as the Python value."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer, np.floating, np.bool_)):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, default=_plain) + "\n"


def atomic_write_text(path: str, text: str):
    """Write via a temp file in the target directory plus rename, so a failed
    run never leaves a partial report. A file that already holds exactly
    these bytes is left alone: reruns are byte-identical, and on some
    filesystems a rename over a recently written file is slow."""
    data = text.encode()
    try:
        with open(path, "rb") as fh:
            if os.fstat(fh.fileno()).st_size == len(data) and fh.read() == data:
                return
    except OSError:
        pass
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise

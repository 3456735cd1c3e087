"""Small shared helpers: tuple grids, JSON sanitizing, atomic file writes."""

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


def jsonable(obj):
    """Recursively convert numpy scalars/arrays so json.dumps accepts them."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def dump_json(obj) -> str:
    return json.dumps(jsonable(obj), indent=2, sort_keys=True) + "\n"


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

"""Small shared helpers: tuple grids, flat tuple indices, cyclic
convolution, the JSON report writer, atomic writes and stale-report removal,
each of which names a report path it cannot write or remove.

dump_json writes the bytes of json.dumps(obj, indent=2, sort_keys=True,
default=_plain) through the C encoder, which json.dumps skips when `indent`
is set. Indented JSON has raw newlines only in separators, as strings escape
theirs, so one C call whose item separator carries the newline and indent
writes a container of leaves, or a list of such containers cut between them.
A long list goes GROUP rows per call, and each container's pieces are joined
once, so the writer never holds a token per row of the whole output.
"""

from __future__ import annotations

import functools
import json
import os
import tempfile
from collections.abc import Callable
from itertools import chain

import numpy as np

from .errors import ExperimentConfigError, InvariantError


def tuple_columns(values, arity: int) -> np.ndarray:
    """All tuples over `values` of length `arity`, as an (arity, len**arity)
    index array in lexicographic order."""
    vals = np.asarray(list(values), dtype=np.intp)
    return vals[_lex_tuples(np.arange(len(vals) ** arity), len(vals), arity)]


def _lex_tuples(positions, n: int, arity: int) -> np.ndarray:
    """The tuples over 0..n-1 of length `arity` at the given positions of
    their lexicographic order, as an (arity, len(positions)) intp array:
    the one place that decodes a flat tuple index."""
    if arity == 0:
        return np.empty((0, len(positions)), dtype=np.intp)
    return np.array(np.unravel_index(positions, (n,) * arity), dtype=np.intp)


def _least_smooth(target: int) -> int:
    """The least 5-smooth integer 2^a 3^b 5^c >= target, built rather than
    searched for: for each 3^b 5^c below the best so far, the least power
    of two that lifts it to target."""
    best = 1 << (target - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-target // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


@functools.lru_cache(maxsize=None)
def _transform_length(d: int) -> int:
    """The FFT length for a cyclic axis of length d: d itself when it is
    5-smooth, else the smallest 5-smooth length >= 2d - 1, which holds the
    linear convolution that is then folded back modulo d. On a prime length
    pocketfft falls back to Bluestein's algorithm, several times slower."""
    return d if _least_smooth(d) == d else _least_smooth(2 * d - 1)


def _fold(values: np.ndarray, shape) -> np.ndarray:
    """A linear convolution folded back onto the group of array shape
    `shape`: position k of an axis of length d is coordinate k mod d, so a
    padded axis becomes the sum of its d-long slices."""
    for axis, d in enumerate(shape):
        if values.shape[axis] > d:
            values = values.swapaxes(0, axis)
            folded = values[:d].copy()
            for start in range(d, len(values), d):
                folded[: len(values) - start] += values[start : start + d]
            values = folded.swapaxes(0, axis)
    return values


def convolver(values: np.ndarray, shape) -> Callable:
    """convolve(w): the cyclic convolution values * w over the group of array
    shape `shape`, both flattened, for integer arrays, by one real FFT pair
    per call: rfft and irfft on one axis, rfftn and irfftn on more. values'
    transform is taken once, the product is formed in place, and axes that
    are not 5-smooth are padded and the product folded back. Each result is
    rounded and checked exact: within 0.25 of its integer, and summing to
    sum(values) * sum(w), which the greedy's coverage reads as |G| * |Y|;
    InvariantError otherwise."""
    lengths = tuple(_transform_length(d) for d in shape)  # transform length per axis
    axes = range(len(shape))
    if len(shape) == 1:
        forward, inverse = (lambda a: np.fft.rfft(a, lengths[0])), (lambda a: np.fft.irfft(a, lengths[0]))
    else:
        forward, inverse = (lambda a: np.fft.rfftn(a.reshape(shape), lengths, axes)), (
            lambda a: np.fft.irfftn(a, lengths, axes)
        )
    values_hat = forward(values)
    size = int(values.sum())

    def convolve(w: np.ndarray) -> np.ndarray:
        hat = forward(w)
        hat *= values_hat
        out = _fold(inverse(hat), shape).ravel()
        counts = np.rint(out)
        residual = np.abs(np.subtract(out, counts, out=out), out=out).max(initial=0.0)
        total = int(counts.sum()) if residual < 0.25 else None  # None for a NaN
        expected = size * int(w.sum())
        if not residual < 0.25 or total != expected:
            raise InvariantError(
                f"convolution coverage is not exact (rounding residual {float(residual):.3g}, "
                f"total {total} against |G| * |Y| = {expected})"
            )
        return counts.astype(np.int64)

    return convolve


def shifted_sums(index: np.ndarray, size: int, complement: bool) -> Callable:
    """count(w): the convolution 1_G * w of convolver, for a set G of `size`
    elements given by few translations, without a transform. Row i of the
    (r, n) `index` lists e - g_i at each element e, for the r elements g_i
    of G, or of its complement when `complement` is set; the count is the
    sum of w[index[i]] over the rows, or w.sum() less that sum. The total
    is checked against size * sum(w), as the transform's is; InvariantError
    when it is off, which a corrupted translation makes it."""

    def count(w: np.ndarray) -> np.ndarray:
        out = np.zeros(index.shape[1], dtype=np.int64)
        for row in index:
            out += w[row]
        if complement:
            np.subtract(int(w.sum()), out, out=out)
        total, expected = int(out.sum()), size * int(w.sum())
        if total != expected:
            raise InvariantError(
                f"convolution coverage is not exact (shifted sums total {total} against |G| * |Y| = {expected})"
            )
        return out

    return count


def _plain(obj):
    """json.dumps fallback: a numpy array as a list, a numpy integer, float or
    bool as the Python value."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer, np.floating, np.bool_)):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


_KEYS = frozenset({str, int, float, bool, type(None)})
# exact types json writes alike with and without indent; numpy scalars pass through _plain
_LEAVES = _KEYS | {np.dtype(c).type for c in "?bhilqBHILQefd"}
# rows, or leaves of a flat list, per C-encoder call: the encoder holds each
# token as its own string until it returns, so a call is kept to one group
GROUP = 64
# characters atomic_write_text encodes, compares and writes at a time
SLICE = 1 << 14


@functools.cache
def _encoder(depth: int):
    """The C encoder, keys sorted, whose item separator opens a line at `depth`."""
    # markers (None: its inputs hold no cycles), default, string encoder, indent,
    # key and item separators, sort_keys, skipkeys, allow_nan
    encode = json.encoder.c_make_encoder(
        None, _plain, json.encoder.encode_basestring_ascii, None, ": ", ",\n" + "  " * depth, True, False, True
    )
    return lambda obj: "".join(encode(obj, 0))


def _key(key) -> str:
    if isinstance(key, str):
        return json.encoder.encode_basestring_ascii(key)
    if isinstance(key, (int, float)) or key is None:
        return f'"{_encoder(0)(key)}"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _flat(values, keys=()) -> bool:
    """Keys and values that json writes alike with and without indent."""
    kinds = set(map(type, values))
    return set(map(type, keys)) <= _KEYS and (
        kinds <= _LEAVES
        or kinds <= _LEAVES | {dict, list, tuple} and not any(v for v in values if type(v) not in _LEAVES)
    )


def _joined(head: str, bodies: list, sep: str, tail: str) -> str:
    """head + sep.join(bodies) + tail in one join of the bodies, so at most
    the bodies and the result are held at once; bodies is non-empty."""
    bodies[0] = head + bodies[0]
    bodies[-1] += tail
    return sep.join(bodies)


def _dump(obj, depth: int) -> str:
    """obj as indent-2 json writes it when it opens at indent level `depth`."""
    if isinstance(obj, (str, int, float)) or obj is None:
        return _encoder(0)(obj)
    if not isinstance(obj, (dict, list, tuple)):
        return _dump(_plain(obj), depth)
    is_dict = isinstance(obj, dict)
    opening, closing = "{}" if is_dict else "[]"
    if not obj:
        return opening + closing
    pad = "\n" + "  " * (depth + 1)
    if _flat(obj.values(), obj) if is_dict else _flat(obj):
        encode = _encoder(depth + 1)
        if is_dict:  # report dicts hold a few keys: one call
            return opening + pad + encode(obj)[1:-1] + pad[:-2] + closing
        bodies = [encode(obj[i : i + GROUP])[1:-1] for i in range(0, len(obj), GROUP)]
        return _joined(opening + pad, bodies, "," + pad, pad[:-2] + closing)
    # rows: non-empty flat dicts, or lists of leaves alone (an empty list in
    # a list row followed by a list would read as a row boundary)
    kinds = set(map(type, obj))
    if not is_dict and (
        kinds == {dict} and all(obj) and _flat([*chain(*map(dict.values, obj))], chain(*obj))
        or kinds <= {list, tuple} and all(obj) and set(map(type, chain(*obj))) <= _LEAVES
    ):
        start, end = "{}" if kinds == {dict} else "[]"
        inner = pad + "  "
        boundary = pad + end + "," + pad + start + inner
        encode = _encoder(depth + 2)
        bodies = [
            encode(obj[i : i + GROUP])[2:-2].replace(end + "," + inner + start, boundary)
            for i in range(0, len(obj), GROUP)
        ]
        return _joined(opening + pad + start + inner, bodies, boundary, pad + end + pad[:-2] + closing)
    if is_dict:
        parts = [_key(k) + ": " + _dump(v, depth + 1) for k, v in sorted(obj.items())]
    else:
        parts = [_dump(v, depth + 1) for v in obj]
    return _joined(opening + pad, parts, "," + pad, pad[:-2] + closing)


def dump_json(obj) -> str:
    """The bytes of json.dumps(obj, indent=2, sort_keys=True, default=_plain) + "\n"."""
    return _dump(obj, 0) + "\n"


def _encoded(text: str):
    """The UTF-8 bytes of text, SLICE characters at a time."""
    for i in range(0, len(text), SLICE):
        yield text[i : i + SLICE].encode()


def _holds(path: str, text: str) -> bool:
    """Whether the file at path holds exactly the bytes of text, read one
    slice at a time against the slices of text."""
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            if size != (len(text) if text.isascii() else sum(map(len, _encoded(text)))):
                return False
            return all(fh.read(len(piece)) == piece for piece in _encoded(text))
    except OSError:
        return False


def atomic_write_text(path: str, text: str):
    """Write via a temp file in the target directory plus rename, so a failed
    run never leaves a partial report. A file that already holds exactly
    these bytes is left alone: reruns are byte-identical, and on some
    filesystems a rename over a recently written file is slow. The text is
    encoded, compared and written SLICE characters at a time."""
    if _holds(path, text):
        return
    directory = os.path.dirname(os.path.abspath(path))
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                for piece in _encoded(text):
                    fh.write(piece)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise ExperimentConfigError(f"cannot write report {path!r}: {exc.strerror}") from exc


def remove_stale(path: str):
    """Delete the report an earlier run into the same directory left at
    path, if there is one."""
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    except OSError as exc:
        raise ExperimentConfigError(f"cannot remove stale report {path!r}: {exc.strerror}") from exc

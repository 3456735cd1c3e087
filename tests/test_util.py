"""dump_json against its oracle: json.dumps(indent=2, sort_keys=True) with
the same default. Every byte must match, and an object json.dumps refuses
must raise the same error. The writers' memory: dump_json and
atomic_write_text hold the text and one bounded piece. _transform_length
against a search that tests one integer at a time."""

import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hlab._util import GROUP, SLICE, _plain, _transform_length, atomic_write_text, dump_json


def oracle(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, default=_plain) + "\n"


def assert_same(obj):
    try:
        expected = oracle(obj)
    except Exception as exc:
        with pytest.raises(type(exc)) as got:
            dump_json(obj)
        assert str(got.value) == str(exc)
    else:
        assert dump_json(obj) == expected


# strings that look like the separators and brackets dump_json cuts at
TRICKY = ['"', "\\", "\n", "},\n      {", "],\n    [", "é中\U0001f600", ": ", ""]
FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.1, 1e300]

numpy_scalars = st.one_of(
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(-128, 127).map(np.int8),
    st.integers(0, 2**32 - 1).map(np.uint32),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.floats(width=32).map(np.float32),
    st.booleans().map(np.bool_),
)
leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.just(2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(FLOATS),
    st.text(max_size=8),
    st.sampled_from(TRICKY),
    numpy_scalars,
)
arrays = st.one_of(
    hnp.arrays(
        st.sampled_from([np.int64, np.float64, np.bool_]),
        hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3),
    ),
    st.just(np.array([])),
    st.just(np.array(7)),
)
keys = st.one_of(st.text(max_size=6), st.sampled_from(TRICKY + ["a", "b", "c"]))
flat_dicts = st.dictionaries(st.sampled_from(["a", "b", "c", "d"]) | keys, leaves, min_size=1, max_size=5)


def containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=5),
        st.lists(flat_dicts | st.just({}), max_size=4),  # rows whose key sets differ
        st.lists(st.lists(leaves, min_size=1, max_size=3), max_size=4),
    )


documents = st.recursive(st.one_of(leaves, arrays), containers, max_leaves=40)


@given(documents)
def test_matches_json_dumps(obj):
    assert_same(obj)


@given(st.lists(flat_dicts, min_size=1, max_size=6), st.integers(0, 3))
def test_rows_of_flat_dicts_at_any_depth(rows, depth):
    obj = rows
    for _ in range(depth):
        obj = {"nested": [obj, 1]}
    assert_same(obj)


@pytest.mark.parametrize(
    "obj",
    [
        {},
        [],
        (),
        [[], {}, ()],
        {"a": [], "b": {}, "c": 1},
        [{"a": []}, {"b": {}}],
        [{"a": 1}, {}],
        [{}, {"a": {}}],
        [[[], []], [1]],
        [{"x": "},\n    {"}, {"y": "}"}],
        {1: "int key", 2.5: "float key"},
        {1: [{"a": [1]}], 2.5: {"b": [2, [3]]}, -7: [[]]},
        {True: [[1]], False: {"n": {"m": 1}}},
        {None: [1, [2]]},
        {"k": {math.nan: [[1]], -math.inf: {"a": {}}, 1e300: [[2]]}},
        [1, [2, {"a": np.arange(3)}], "mixed", np.float32(0.5)],
        np.arange(6).reshape(2, 3),
        [np.arange(3), np.arange(2)],
        [np.array([1.5, 2.5]), [1]],
        {"": [[1]], "b": np.zeros((2, 0))},
        np.int64(-3),
        "top level \n string",
        2**70,
        -0.0,
    ],
)
def test_edge_cases(obj):
    assert_same(obj)


@pytest.mark.parametrize(
    "obj",
    [
        {"a": [1, {"b": object()}]},
        [{"a": 1}, {"b": {1, 2}}],
        {"a": 1j},
        [np.datetime64("2020-01-01")],
        {"a": {(1, 2): 3}},
        {"a": {np.int64(1): 3}},
        {"a": [1], 2: "b"},
    ],
)
def test_unserializable_raises_like_json_dumps(obj):
    with pytest.raises(TypeError):
        oracle(obj)
    assert_same(obj)


def row(kind: str, i: int):
    """Row i of a flat row list: each row distinct, with strings that read
    like the separators and brackets dump_json cuts at."""
    text = TRICKY[i % len(TRICKY)]
    if kind == "dict":
        return {"a": i, "b": text, "c": FLOATS[i % len(FLOATS)], text: None}
    if kind == "keys":  # rows whose key sets differ
        return {f"k{i % 3}": i, **({"z": text} if i % 2 else {})}
    if kind == "list":
        return [i, text, i % 2 == 0]
    return text if i % 2 else i  # a leaf of a flat list


@pytest.mark.parametrize("n", sorted({0, 1, GROUP - 1, GROUP, GROUP + 1, 3 * GROUP + 5}))
@pytest.mark.parametrize("kind", ["dict", "keys", "list", "leaf"])
def test_flat_rows_across_group_boundaries(kind, n):
    rows = [row(kind, i) for i in range(n)]
    assert_same(rows)
    assert_same({"nested": [tuple(rows), 1]})


def traced_peak(fn, *args):
    """fn(*args) and the peak of the memory tracemalloc saw it allocate."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dump_json_holds_the_text_and_one_group():
    rows = [
        {"formula": "exists z. z*z = x - y", "size": i, "params": f"{i} {i + 1}", "count": 7 * i, "large": i % 2 == 0}
        for i in range(5000)
    ]
    dump_json(rows[:2])  # the encoder for this depth is made once and cached
    text, peak = traced_peak(dump_json, rows)
    assert peak <= 2.5 * len(text)


# a text of several slices, non-ASCII throughout
LONG = "".join(f"{i},é中\U0001f600,{i * i}\n" for i in range(3 * SLICE // 16))


def test_atomic_write_round_trips_a_multi_slice_text(tmp_path):
    path = tmp_path / "r.txt"
    assert len(LONG) > 2 * SLICE
    atomic_write_text(str(path), LONG)
    assert path.read_bytes() == LONG.encode()


def test_atomic_write_leaves_a_file_with_the_same_bytes_alone(tmp_path):
    path = tmp_path / "r.txt"
    atomic_write_text(str(path), LONG)
    before = path.stat()
    atomic_write_text(str(path), LONG)
    after = path.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    assert os.listdir(tmp_path) == ["r.txt"]


@pytest.mark.parametrize(
    "old",
    [
        LONG[:-2] + "x\n",  # the same length, differing in the last slice
        LONG[: SLICE + 3],  # shorter
        LONG + "more\n",  # longer
    ],
)
def test_atomic_write_replaces_a_file_with_other_bytes(tmp_path, old):
    path = tmp_path / "r.txt"
    path.write_bytes(old.encode())
    inode = path.stat().st_ino
    atomic_write_text(str(path), LONG)
    assert path.read_bytes() == LONG.encode()
    assert path.stat().st_ino != inode
    assert os.listdir(tmp_path) == ["r.txt"]


@pytest.mark.parametrize("existing", [None, "same", "other"])
def test_atomic_write_holds_slices_not_the_text(tmp_path, existing):
    # the text as bytes, or the existing file read whole, would be 32 * SLICE
    # bytes each here
    path = tmp_path / "r.txt"
    text = "0123456789abcde\n" * (2 * SLICE)
    if existing is not None:
        path.write_text(text if existing == "same" else text.upper())
    _, peak = traced_peak(atomic_write_text, str(path), text)
    assert path.read_text() == text
    assert peak < 8 * SLICE


def searched_length(d: int) -> int:
    """d when 5-smooth, else the first 5-smooth integer from 2d - 1 up."""

    def smooth(n):
        for f in (2, 3, 5):
            while n % f == 0:
                n //= f
        return n == 1

    if smooth(d):
        return d
    length = 2 * d - 1
    while not smooth(length):
        length += 1
    return length


def test_transform_length_matches_the_search():
    for d in [*range(1, 10**4 + 1), 999983, 1000003, 1000033, 9999991, 10000019]:
        assert _transform_length(d) == searched_length(d), d

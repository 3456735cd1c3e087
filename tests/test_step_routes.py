"""The per-step routes of the greedy against their from-scratch definitions:
the build's H union clos(H) mask against forbidden_set, a one-parameter
kernel's cached shift vector against _shift_values, and the shifted-sum count
against the transform and the naive evaluator; plus the work each step
does, counted rather than timed."""

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hlab import _util, folang, hgreedy
from hlab.asymptotics import profile_family
from hlab.cli import _schedule, load_config
from hlab.errors import InvariantError
from hlab.finitemodels import (
    _index_dtype,
    make_cyclic_group,
    make_extension_field,
    make_f2_vector_space,
    make_prime_field,
    primes_in,
)
from hlab.folang import _shift_values, kernel, parse_formula, plan
from hlab.hgreedy import BEST_EFFORT, STRICT, build_h, derive_config, forbidden_set, greedy_step
from helpers import evaluate
from test_golden import CONFIGS

# per family: members to profile over (the last one is built, large enough
# that clos(H) under x = z1 + z2 leaves elements to pick), cover formulas,
# and avoid formulas of arity 0, 1 and 2, all kernels but "grid"
FAMILIES = {
    "Z_n": (
        [make_cyclic_group(n) for n in range(200, 206)],
        ["exists z. z + z = x - y", "!(x = y)"],
        {0: "x = 0", 1: "x = z + 1", 2: "x = z1 + z2", "grid": "x + x = z"},
    ),
    "GF(p)": (
        [make_prime_field(p) for p in primes_in(331, 400)],
        ["exists z. z*z = x - y", "!(x = y)"],
        {0: "x = 0", 1: "x = z + 1", 2: "x = z1 + z2", "grid": "x * x = z"},
    ),
    "GF(p^2)": (
        [make_extension_field(p) for p in (11, 13, 17)],
        ["exists z. z*z = x - y", "!(x = y)"],
        {0: "x = 0", 1: "x = z + 1", 2: "x = z1 + z2", "grid": "x * x = z"},
    ),
    "F2^d": (
        [make_f2_vector_space(d) for d in range(6, 10)],
        ["!(x = y)", "!(x = y + 1)"],
        {0: "x = 0", 1: "x = z + 1", 2: "x = z1 + z2", "grid": "x + x = z & x = z"},
    ),
}
AVOID_LISTS = {"arity 0": [0], "arity 1": [1], "arity 2": [2], "all": [0, 1, 2, "grid"]}


def family_config(kind, avoid):
    family, cover, texts = FAMILIES[kind]
    sig = family[0].sig
    covers = [profile_family(family, parse_formula(t, sig)) for t in cover]
    avoids = [profile_family(family, parse_formula(texts[k], sig)) for k in avoid]
    return family[-1], derive_config(covers, avoids, None)


class TestBlockedMask:
    @pytest.mark.parametrize("avoid", AVOID_LISTS.values(), ids=AVOID_LISTS.keys())
    @pytest.mark.parametrize("kind", FAMILIES)
    def test_every_step_holds_h_and_its_closure(self, kind, avoid, monkeypatch):
        M, cfg = family_config(kind, avoid)
        masks, phases = [], set()

        def checked_step(state, M):
            out = greedy_step(state, M)
            expected = np.zeros(M.size, dtype=bool)
            expected[state.h_elements] = True
            expected[forbidden_set(state.h_elements, cfg.gamma, M)] = True
            assert np.array_equal(state.blocked, expected), (state.formula_index, state.step)
            masks.append(state.blocked)
            phases.add(state.formula_index)
            return out

        monkeypatch.setattr(hgreedy, "greedy_step", checked_step)
        h, report = build_h(M, cfg, BEST_EFFORT)
        assert len(masks) == len(h) > 0 and report.all_passed
        # one mask, kept across every step and every phase
        assert phases == {0, 1} and all(mask is masks[0] for mask in masks)


# one-parameter kernels on each family: linear shifts, and on the fields
# shifts that are not linear in the parameter
SHIFT_CASES = [
    (M, text)
    for M, texts in [
        (make_cyclic_group(12), ["x = y + 1", "x = y + y + y", "!(x + y = 0)", "exists z. z + z = x - y"]),
        (make_cyclic_group(13), ["x = y - 5", "x = 0 - y"]),
        (make_prime_field(11), ["x = y * y", "exists z. z*z = x - y * y * y", "x = 3 * y + 1", "x = one - y"]),
        (make_extension_field(5), ["x = frob(y)", "x = y * y + one", "x = y + y", "!(x = frob(y) + y)"]),
        (make_f2_vector_space(4), ["x = y + 1", "!(x = y + 3)", "x = y + y"]),
    ]
    for text in texts
]


class TestShiftVector:
    def test_cases_hold_both_kinds_of_shift(self):
        linear = {plan(parse_formula(text, M.sig)).linear for M, text in SHIFT_CASES}
        assert linear == {True, False}

    @settings(max_examples=60)
    @given(st.sampled_from(SHIFT_CASES), st.data())
    def test_vector_is_the_shift_term_at_every_element(self, case, data):
        M, text = case
        pf = parse_formula(text, M.sig)
        rule = plan(pf)
        fresh = M.__class__(M.sig, M.size, M.family, M.params, dict(M.functions), dict(M.relations))
        record, key = kernel(fresh, pf), ("vector", rule.shift, pf.params)
        assert record is not None and key not in fresh._cache  # made on first use
        every = np.arange(M.size)[None, :]
        expected = _shift_values(M, rule.shift, rule.names, pf.params, every)
        assert np.array_equal(record.shifts(every), expected)
        vector = fresh._cache[key]  # kept in the structure's one cache
        assert np.array_equal(vector, expected)
        assert vector.dtype == _index_dtype(M.size, M.size) and not vector.flags.writeable
        # any columns read the same values, and the points are G + u
        cols = np.array([data.draw(st.lists(st.integers(0, M.size - 1), max_size=6))], dtype=np.intp)
        assert np.array_equal(record.shifts(cols), expected[cols[0]])
        points = record.points(cols)
        for j, t in enumerate(cols[0]):
            naive = [e for e in range(M.size) if evaluate(M, pf.formula, {"x": e, "y": int(t)})]
            assert sorted(points[:, j].tolist()) == naive


# kernels whose G, or its complement, has at most SHIFTED_SUMS elements
FEW = [
    (M, text)
    for M in (make_cyclic_group(14), make_prime_field(13), make_extension_field(3), make_f2_vector_space(4))
    for text in ("!(x = y)", "x = y", "x = y | x = y + 1", "!(x = y) & !(x = y + 1)")
]


class TestShiftedSums:
    def test_cases_take_the_route(self):
        for M, text in FEW:
            record = kernel(M, parse_formula(text, M.sig))
            assert min(record.low, M.size - record.low) <= folang.SHIFTED_SUMS, (M.describe(), text)

    @settings(max_examples=80)
    @given(st.sampled_from(FEW), st.data())
    def test_counts_match_the_transform_and_the_naive_count(self, case, data):
        M, text = case
        pf = parse_formula(text, M.sig)
        record = kernel(M, pf)
        weights = np.array(data.draw(st.lists(st.integers(0, 50), min_size=M.size, max_size=M.size)), dtype=np.int64)
        in_base = np.zeros(M.size, dtype=np.int64)
        in_base[record.base] = 1
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np.fft, "rfft", None)  # the shifted sums take no transform
            patch.setattr(np.fft, "rfftn", None)
            counts = record.counter()(weights)
        assert np.array_equal(counts, _util.convolver(in_base, M.group_shape)(weights))
        # each element solves the tuples y whose shift u(y) it reaches, each
        # weighted by w at that shift
        shifts = record.shifts(np.arange(M.size)[None, :])
        naive = [
            sum(int(weights[shifts[y]]) for y in range(M.size) if evaluate(M, pf.formula, {"x": e, "y": y}))
            for e in range(M.size)
        ]
        assert counts.tolist() == naive

    @pytest.mark.parametrize("row", [0, -1])
    def test_a_corrupted_shift_fails_the_total(self, row, monkeypatch):
        M = make_cyclic_group(13)
        record = kernel(M, parse_formula("x = y | x = y + 1", M.sig))
        shifted_sums = folang.shifted_sums

        def corrupted(index, size, complement):
            index = np.array(index)
            index[row, 0] = index[row, 1]  # one element read twice, another never
            return shifted_sums(index, size, complement)

        monkeypatch.setattr(folang, "shifted_sums", corrupted)
        weights = np.arange(13, dtype=np.int64)
        with pytest.raises(InvariantError, match="convolution coverage is not exact"):
            record.counter()(weights)

    def test_a_corrupted_shift_names_its_step(self, monkeypatch):
        fam = [make_cyclic_group(n) for n in (13, 37, 101)]
        neq, xz = (parse_formula(t, fam[0].sig) for t in ("!(x = y)", "x = z"))
        cfg = derive_config([profile_family(fam, neq)], [profile_family(fam, xz)], 0.9)
        shifted_sums = folang.shifted_sums

        def corrupted(index, size, complement):
            index = np.array(index)
            index[0, 0] = index[0, 1]
            return shifted_sums(index, size, complement)

        monkeypatch.setattr(folang, "shifted_sums", corrupted)
        with pytest.raises(InvariantError) as err:
            build_h(fam[0], cfg, BEST_EFFORT)
        # the first step's weights are all 1, which any translation keeps;
        # the second step's, 1 at the shift 0 alone, are read off by one
        assert str(err.value) == (
            "cyclic-group(n=13), formula '!(x = y)', step 1: convolution coverage is not exact "
            "(shifted sums total 13 against |G| * |Y| = 12)"
        )


def square_shift_at(size):
    """The shipped square-shift schedule's config and structure of `size`."""
    plan_ = _schedule(load_config(os.path.join(CONFIGS, "square_shift.json")))
    entry = next(e for e in plan_.entries if e.size == size)
    return entry.structure, plan_.configs[entry.level]


class TestStepWork:
    def count_columns(self, monkeypatch):
        """The columns each greedy step hands solution_pairs, per avoid formula."""
        columns = {}
        pairs = hgreedy.solution_pairs

        def counted(M, pf, cols, owner):
            columns[pf.text] = columns.get(pf.text, 0) + cols.shape[1]
            return pairs(M, pf, cols, owner)

        monkeypatch.setattr(hgreedy, "solution_pairs", counted)
        return columns

    def test_strict_square_shift_reads_h_once(self, monkeypatch):
        M, cfg = square_shift_at(1009)
        columns = self.count_columns(monkeypatch)
        h, report = build_h(M, cfg, STRICT)
        assert report.all_passed and [pf.arity for pf in cfg.gamma] == [1, 1]
        # sum over the steps of |H|^1 - (|H| - 1)^1, not of |H|
        assert columns == {pf.text: len(h) for pf in cfg.gamma}

    def test_arity_two_avoid_reads_each_pair_once(self, monkeypatch):
        fam = [make_prime_field(p) for p in primes_in(101, 163)]
        sig = fam[0].sig
        cover = [profile_family(fam, parse_formula(t, sig)) for t in ("exists z. z*z = x - y", "!(x = y)")]
        avoid = [profile_family(fam, parse_formula("x = y + z", sig, params=("y", "z")))]
        cfg = derive_config(cover, avoid, None)
        columns = self.count_columns(monkeypatch)
        h, report = build_h(fam[-1], cfg, BEST_EFFORT)
        assert report.all_passed and len(h) > 3
        assert columns == {"x = y + z": len(h) ** 2}  # not the sum of j^2 over the steps

    def test_inequality_phase_takes_no_transform(self, monkeypatch):
        M, cfg = square_shift_at(1009)
        assert [pf.text for pf in cfg.delta] == ["exists z. z*z = x - y", "!(x = y)"]
        phase, transforms = [None], []

        def stepping(state, M):
            phase[0] = state.formula_index
            return greedy_step(state, M)

        def recording(transform):
            def recorded(*args, **kwargs):
                transforms.append(phase[0])
                return transform(*args, **kwargs)

            return recorded

        def phase_state(cfg, M, index, *args):
            phase[0] = index  # the phase's counter takes G's transform here
            return make_phase(cfg, M, index, *args)

        make_phase = hgreedy._phase_state
        monkeypatch.setattr(hgreedy, "_phase_state", phase_state)
        monkeypatch.setattr(hgreedy, "greedy_step", stepping)
        for name in ("rfft", "rfftn"):
            monkeypatch.setattr(np.fft, name, recording(getattr(np.fft, name)))
        h, report = build_h(M, cfg, STRICT)
        assert report.phases[1]["steps"] > 0 and report.all_passed
        assert transforms and set(transforms) == {0}  # the squares' phase alone

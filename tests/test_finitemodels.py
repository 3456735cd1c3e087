import dataclasses
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from dense_oracle import dense_tables, grid

from hlab.errors import EmptyFamilyError, SignatureMismatchError
from hlab.finitemodels import (
    EXTENSION_SIGNATURE,
    F2_VECTOR_SPACE,
    FAMILIES,
    FamilySpec,
    FiniteStructure,
    GROUP_SIGNATURE,
    RING_SIGNATURE,
    Signature,
    enumerate_family,
    least_nonresidue,
    make_cyclic_group,
    make_extension_field,
    make_f2_vector_space,
    make_prime_field,
    primes_in,
    signature_for_family,
    _MAKERS,
)


def brute_mod_table(n, op):
    return [[op(a, b) % n for b in range(n)] for a in range(n)]


class TestPrimeField:
    def test_mul_example(self, gf7):
        assert int(gf7.functions["mul"][3, 5]) == 1  # 15 mod 7

    def test_characteristic_two(self):
        gf2 = make_prime_field(2)
        assert gf2.size == 2
        assert int(gf2.functions["add"][1, 1]) == 0

    def test_squares_mod_11(self, gf11):
        squares = {int(gf11.functions["mul"][z, z]) for z in range(11)}
        assert squares == {0, 1, 3, 4, 5, 9}
        assert len(squares) == 6

    def test_tables_match_modular_arithmetic(self, gf7):
        assert grid(gf7.functions["add"]).tolist() == brute_mod_table(7, lambda a, b: a + b)
        assert grid(gf7.functions["sub"]).tolist() == brute_mod_table(7, lambda a, b: a - b)
        assert grid(gf7.functions["mul"]).tolist() == brute_mod_table(7, lambda a, b: a * b)

    def test_rejects_composite(self):
        with pytest.raises(SignatureMismatchError):
            make_prime_field(9)
        with pytest.raises(SignatureMismatchError):
            make_prime_field(1)

    def test_constants(self, gf7):
        assert gf7.constant("zero") == 0
        assert gf7.constant("one") == 1


class TestExtensionField:
    def test_size_and_subfield(self):
        gf9 = make_extension_field(3)
        assert gf9.size == 9
        assert int(gf9.relations["insub"].sum()) == 3

    def test_frob_involution(self):
        gf9 = make_extension_field(3)
        frob = gf9.functions["frob"]
        for x in range(9):
            assert int(frob[int(frob[x])]) == x

    def test_frob_fixes_exactly_subfield(self):
        gf25 = make_extension_field(5)
        frob = gf25.functions["frob"]
        fixed = {x for x in range(25) if int(frob[x]) == x}
        insub = {x for x in range(25) if bool(gf25.relations["insub"][x])}
        assert fixed == insub
        assert len(insub) == 5

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_frob_is_ring_automorphism(self, p):
        K = make_extension_field(p)
        frob = K.functions["frob"]
        add, mul = grid(K.functions["add"]), grid(K.functions["mul"])
        n = K.size
        assert np.array_equal(frob[add], add[np.ix_(frob, frob)])
        assert np.array_equal(frob[mul], mul[np.ix_(frob, frob)])
        assert n == p * p

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_frob_is_pth_power(self, p):
        K = make_extension_field(p)
        mul = K.functions["mul"]
        for x in range(K.size):
            acc = x
            for _ in range(p - 1):
                acc = int(mul[acc, x])
            assert acc == int(K.functions["frob"][x])

    def test_nonresidue_choice(self):
        assert least_nonresidue(3) == 2
        assert least_nonresidue(5) == 2
        assert least_nonresidue(7) == 3  # squares mod 7 are {0,1,2,4}

    def test_rejects_char_two(self):
        with pytest.raises(SignatureMismatchError):
            make_extension_field(2)


class TestGroups:
    def test_cyclic_example(self, z13):
        assert int(z13.functions["add"][6, 9]) == 2

    def test_f2_space(self):
        v = make_f2_vector_space(3)
        assert v.size == 8
        add = v.functions["add"]
        for x in range(8):
            assert int(add[x, x]) == 0

    def test_f2_space_past_int64_rejected(self):
        # both sizes are refused before 2**dim is computed, so nothing is allocated
        for dim in (64, 10**30):
            with pytest.raises(SignatureMismatchError, match=f"dimension {dim} "):
                make_f2_vector_space(dim)

    def test_trivial_group(self):
        z1 = make_cyclic_group(1)
        assert z1.size == 1
        assert int(z1.functions["add"][0, 0]) == 0
        assert int(z1.functions["sub"][0, 0]) == 0


def python_ops(M):
    """add, sub and mul of a prime field, cyclic group or GF(p^2) in Python
    ints, which never overflow: the sampled oracle for sizes too large for
    dense tables."""
    if M.family in ("prime-field", "cyclic-group"):
        n = M.size
        ops = {
            "add": lambda x, y: (x + y) % n,
            "sub": lambda x, y: (x - y) % n,
            "mul": lambda x, y: x * y % n,
        }
        return {name: op for name, op in ops.items() if name in M.functions}
    p, r = M.params["p"], M.params["r"]

    def coordinates(op):
        def on_indices(x, y):
            (a1, b1), (a2, b2) = divmod(x, p), divmod(y, p)
            a, b = op(a1, b1, a2, b2)
            return a % p * p + b % p

        return on_indices

    return {
        "add": coordinates(lambda a1, b1, a2, b2: (a1 + a2, b1 + b2)),
        "sub": coordinates(lambda a1, b1, a2, b2: (a1 - a2, b1 - b2)),
        "mul": coordinates(lambda a1, b1, a2, b2: (a1 * a2 + r * b1 * b2, a1 * b2 + a2 * b1)),
    }


def assert_matches_python_ints(M, xs, ys):
    for name, op in python_ops(M).items():
        got = M.functions[name][np.asarray(xs), np.asarray(ys)]
        assert got.tolist() == [op(int(x), int(y)) for x, y in zip(xs, ys)], name


class TestOracle:
    @pytest.mark.parametrize(
        "make, params",
        [
            (make_prime_field, primes_in(2, 97)),
            (make_extension_field, primes_in(3, 13)),
            (make_cyclic_group, range(1, 65)),
            (make_f2_vector_space, range(1, 7)),
        ],
        ids=["prime-field", "extension-field", "cyclic-group", "f2-vector-space"],
    )
    def test_exhaustive_against_dense_tables(self, make, params):
        for v in params:
            M = make(v)
            tables = dense_tables(M)
            assert set(tables) == {k for k, a in M.sig.functions.items() if a == 2}
            for name, table in tables.items():
                assert np.array_equal(grid(M.functions[name]), table), (M.describe(), name)

    @pytest.mark.parametrize(
        "M",
        [make_prime_field(1201), make_prime_field(2003), make_extension_field(83)],
        ids=["GF(1201)", "GF(2003)", "GF(83^2)"],
    )
    def test_sampled_against_python_ints(self, M):
        rng = np.random.default_rng(0)
        xs, ys = rng.integers(0, M.size, size=(2, 5000))
        assert_matches_python_ints(M, xs, ys)

    @pytest.mark.parametrize(
        "make, v",
        [
            # int16 holds a + b up to Z_16384, a - b and n up to Z_32767, a * b up
            # to GF(181), and every GF(p^2) intermediate up to p = 127
            (make_cyclic_group, 16384),
            (make_cyclic_group, 16385),
            (make_cyclic_group, 32767),
            (make_cyclic_group, 32768),
            (make_prime_field, 181),
            (make_prime_field, 191),
            (make_extension_field, 127),
            (make_extension_field, 131),
            # int32 holds a * b up to GF(46337)
            (make_prime_field, 46337),
            (make_prime_field, 46349),
        ],
    )
    def test_dtype_boundary(self, make, v):
        # the largest indices give the largest intermediates; a value that
        # wrapped in a too-narrow dtype would still reduce into 0..n-1
        M = make(v)
        top = np.arange(M.size - 40, M.size)
        xs, ys = np.repeat(top, len(top)), np.tile(top, len(top))
        assert_matches_python_ints(M, xs, ys)
        rng = np.random.default_rng(v)
        assert_matches_python_ints(M, *rng.integers(0, M.size, size=(2, 2000)))


class TestValidation:
    def test_table_closure_checked(self):
        bad = {
            "add": np.full((3, 3), 5, dtype=np.int64),
            "sub": np.zeros((3, 3), dtype=np.int64),
            "zero": np.int64(0),
        }
        with pytest.raises(SignatureMismatchError):
            FiniteStructure(GROUP_SIGNATURE, 3, "cyclic-group", {"n": 3}, bad, {})

    def test_wrong_shape_rejected(self):
        bad = {
            "add": np.zeros((3, 2), dtype=np.int64),
            "sub": np.zeros((3, 3), dtype=np.int64),
            "zero": np.int64(0),
        }
        with pytest.raises(SignatureMismatchError):
            FiniteStructure(GROUP_SIGNATURE, 3, "cyclic-group", {"n": 3}, bad, {})
        # a computed operation over another universe is rejected the same way
        wrong_size = dict(make_cyclic_group(3).functions, add=make_cyclic_group(2).functions["add"])
        with pytest.raises(SignatureMismatchError):
            FiniteStructure(GROUP_SIGNATURE, 3, "cyclic-group", {"n": 3}, wrong_size, {})

    def test_corrupt_frob_rejected(self):
        K = make_extension_field(3)
        funcs = dict(K.functions)
        frob = funcs["frob"].copy()
        frob[1], frob[2] = frob[2], frob[1]
        funcs["frob"] = frob
        rels = {"insub": np.array(K.relations["insub"])}
        with pytest.raises(SignatureMismatchError):
            FiniteStructure(
                EXTENSION_SIGNATURE, 9, "quadratic-extension-field", dict(K.params), funcs, rels
            )

    def test_tables_read_only(self, gf7):
        add = gf7.functions["add"]
        with pytest.raises(TypeError):
            add[0, 0] = 3
        with pytest.raises(dataclasses.FrozenInstanceError):
            add.fn = np.maximum
        # a grid handed out is the caller's own copy
        values = grid(add)
        values[0, 0] = 3
        assert np.array_equal(grid(add), dense_tables(gf7)["add"])
        K = make_extension_field(3)
        with pytest.raises(ValueError):
            K.functions["frob"][0] = 1
        with pytest.raises(ValueError):
            K.relations["insub"][1] = True

    def test_universe_beyond_int64_rejected(self):
        with pytest.raises(SignatureMismatchError, match=f"size {10**30} needs"):
            make_cyclic_group(10**30)

    def test_duplicate_symbol_rejected(self):
        with pytest.raises(SignatureMismatchError):
            Signature(functions={"f": 1}, relations={"f": 2})


class TestNumerals:
    def test_prime_field(self, gf7):
        assert gf7.numeral(0) == 0
        assert gf7.numeral(10) == 3

    def test_extension_field(self):
        gf9 = make_extension_field(3)
        assert gf9.numeral(0) == 0
        assert gf9.numeral(1) == gf9.constant("one")
        # 2 = 1 + 1 in the field
        one = gf9.constant("one")
        assert gf9.numeral(2) == int(gf9.functions["add"][one, one])

    def test_cyclic(self, z13):
        assert z13.numeral(14) == 1


class TestEnumerateFamily:
    def test_primes_interval(self):
        fam = enumerate_family(FamilySpec("prime-field", lo=5, hi=13))
        assert [m.size for m in fam] == [5, 7, 11, 13]

    def test_f2_dims(self):
        fam = enumerate_family(FamilySpec("f2-vector-space", lo=2, hi=4))
        assert [m.size for m in fam] == [4, 8, 16]

    def test_extension_values(self):
        fam = enumerate_family(FamilySpec("quadratic-extension-field", values=(3, 5)))
        assert [m.size for m in fam] == [9, 25]

    def test_empty_filter(self):
        with pytest.raises(EmptyFamilyError):
            enumerate_family(FamilySpec("prime-field", lo=24, hi=28))

    def test_missing_filter(self):
        with pytest.raises(EmptyFamilyError):
            enumerate_family(FamilySpec("prime-field"))

    def test_sizes_strictly_increasing(self):
        fam = enumerate_family(FamilySpec("cyclic-group", values=(9, 3, 3, 5)))
        assert [m.size for m in fam] == [3, 5, 9]

    def test_signatures(self):
        assert enumerate_family(FamilySpec("prime-field", values=(5,)))[0].sig == RING_SIGNATURE
        assert (
            enumerate_family(FamilySpec("cyclic-group", values=(5,)))[0].sig == GROUP_SIGNATURE
        )

    def test_unsupported_poly_rule(self):
        # the least quadratic non-residue is the only rule: a spec cannot ask
        # for another, and the family builds exactly make_extension_field
        with pytest.raises(TypeError):
            FamilySpec("quadratic-extension-field", values=(3, 5), poly_rule="conway")
        fam = enumerate_family(FamilySpec("quadratic-extension-field", values=(3, 5)))
        for M, p in zip(fam, (3, 5)):
            ref = make_extension_field(p)
            assert M.params == ref.params
            for name, table in ref.functions.items():
                assert np.array_equal(grid(M.functions[name]), grid(table))


class TestFamilyTable:
    """FAMILIES holds every per-family fact; each must agree with what the
    family's maker builds, and the benchmark's structure counts with what a
    FamilySpec selects."""

    @pytest.mark.parametrize("tag", list(FAMILIES))
    def test_row_agrees_with_the_maker(self, tag):
        family = FAMILIES[tag]
        window = range(0, 21) if tag == F2_VECTOR_SPACE else range(-3, 61)
        for v in window:
            try:
                M = _MAKERS[tag](v)
            except SignatureMismatchError:
                assert not family.admits(v), (tag, v)
                continue
            assert family.admits(v), (tag, v)
            assert family.universe(v) == M.size == math.prod(M.group_shape), (tag, v)
            assert M.sig is family.signature is signature_for_family(tag)
            assert M.family == tag

    def test_unknown_tag_has_no_signature_and_no_shape(self, gf7):
        with pytest.raises(SignatureMismatchError, match="unknown family 'octonions'"):
            signature_for_family("octonions")
        M = FiniteStructure(gf7.sig, 7, "custom", {}, dict(gf7.functions), {})
        assert M.group_shape is None

    @pytest.mark.parametrize(
        "spec", [FamilySpec("octonions", values=(7,)), FamilySpec("octonions", lo=2, hi=9), FamilySpec("octonions")]
    )
    def test_unknown_tag_has_no_parameters(self, spec):
        # the same refusal as signature_for_family's, before the range is read
        for select in (spec.parameters, lambda: enumerate_family(spec)):
            with pytest.raises(SignatureMismatchError, match="unknown family 'octonions'"):
                select()

    def test_spec_selects_the_benchmark_structures(self, monkeypatch):
        # perfbench/workloads.py counts the structures each command certifies
        # with its own prime filter; a FamilySpec must select the same ones
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look the module up
        spec.loader.exec_module(workloads)
        families = [c.config["family"] for w in workloads.WORKLOADS for c in workloads.commands(w, 0, 2)]
        assert families
        for family in families:
            assert FamilySpec(**family).parameters() == workloads.family_parameters(family), family

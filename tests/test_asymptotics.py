import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hlab import asymptotics, folang
from hlab.asymptotics import (
    MeasureProfile,
    classify,
    profile_family,
    psi_columns,
    psi_set,
)
from hlab.errors import (
    ClassificationGapError,
    EmptyFamilyError,
    EnumerationBudgetError,
    NotOneDimensionalError,
)
from hlab.finitemodels import (
    FiniteStructure,
    Signature,
    make_cyclic_group,
    make_prime_field,
    primes_in,
)
from hlab.folang import Kernel, kernel, parse_formula, solution_count, solution_counts_all

from profile_oracle import fit_counts


@pytest.fixture(scope="module")
def square_shift_profile(small_prime_family):
    pf = parse_formula("exists z. z*z = x - y", small_prime_family[0].sig)
    fam = [m for m in small_prime_family if m.size >= 5]
    return fam, pf, profile_family(fam, pf)


class TestProfileFamily:
    def test_square_shift(self, square_shift_profile):
        _, _, prof = square_shift_profile
        assert len(prof.E) == 1
        assert abs(prof.E[0] - 0.5) <= 0.02
        assert prof.C <= 1.0
        assert prof.B is None

    def test_equality_uniformly_algebraic(self, small_prime_family):
        pf = parse_formula("x = y", small_prime_family[0].sig)
        prof = profile_family(small_prime_family, pf)
        assert prof.uniformly_algebraic
        assert prof.B == 1
        assert prof.E == []

    def test_doubling_two_measures(self):
        fam = [make_cyclic_group(n) for n in range(5, 41)]
        pf = parse_formula("exists z. x = y + z + z", fam[0].sig)
        prof = profile_family(fam, pf)
        assert len(prof.E) == 2
        assert abs(prof.E[0] - 0.5) <= 0.02
        assert abs(prof.E[1] - 1.0) <= 0.02

    def test_envelope_soundness(self, square_shift_profile):
        fam, pf, prof = square_shift_profile
        # every observed count either sits under B or inside some envelope
        for M in fam:
            for y in range(M.size):
                count = solution_count(M, pf, (y,))
                if prof.B is not None and count <= prof.B:
                    continue
                assert any(
                    abs(count - mu * M.size) < prof.C * M.size**0.5 for mu in prof.E
                )

    def test_per_structure_stats(self, square_shift_profile):
        fam, _, prof = square_shift_profile
        assert [s.size for s in prof.per_structure] == [m.size for m in fam]
        for s in prof.per_structure:
            assert s.enumerated
            assert s.n_large == s.size
            assert s.n_algebraic == 0
            assert s.max_residual < prof.C

    def test_needs_two_structures(self, gf7):
        pf = parse_formula("x = y", gf7.sig)
        with pytest.raises(EmptyFamilyError, match=r"'x = y'.*has 1 \(prime-field\(p=7\)\)"):
            profile_family([gf7], pf)

    def test_c_strictly_dominates_and_is_positive(self):
        fam = [make_cyclic_group(n) for n in range(5, 20)]
        pf = parse_formula("exists z. x = y + z", fam[0].sig)  # count n everywhere
        prof = profile_family(fam, pf)
        assert prof.E == [1.0]
        assert prof.C == 0.01  # exact data still yields a positive constant

    def test_json_shape(self, square_shift_profile):
        _, _, prof = square_shift_profile
        d = prof.to_json_dict()
        assert set(d) == {"formula", "E", "C", "B", "per_structure", "gap", "seed"}
        assert set(d["per_structure"][0]) == {
            "size",
            "max_residual",
            "n_algebraic",
            "n_large",
            "enumerated",
        }


class TestClassify:
    def test_large_square_shift(self, square_shift_profile):
        _, pf, prof = square_shift_profile
        M = make_prime_field(101)
        verdict = classify(prof, M, (7,))
        assert verdict.is_large
        assert verdict.count == 51
        assert abs(verdict.measure - 0.5) <= 0.02

    def test_algebraic_equality(self, small_prime_family):
        pf = parse_formula("x = y", small_prime_family[0].sig)
        prof = profile_family(small_prime_family, pf)
        verdict = classify(prof, make_prime_field(101), (7,))
        assert verdict.kind == "algebraic"
        assert verdict.count == 1

    def test_doubling_odd_modulus(self):
        fam = [make_cyclic_group(n) for n in range(5, 41)]
        pf = parse_formula("exists z. x = y + z + z", fam[0].sig)
        prof = profile_family(fam, pf)
        verdict = classify(prof, make_cyclic_group(15), (0,))
        assert verdict.is_large
        assert verdict.measure == pytest.approx(1.0, abs=0.02)

    def test_gap_error(self, gf11):
        pf = parse_formula("exists z. z*z = x - y", gf11.sig)
        bogus = MeasureProfile(
            formula=pf.key(),
            E=[0.9],
            C=0.01,
            B=1,
            per_structure=[],
            gap=0.05,
            ceiling=2.0,
            seed=0,
            pf=pf,
        )
        # true count is 6; it is neither <= 1 nor near 0.9 * 11
        with pytest.raises(ClassificationGapError):
            classify(bogus, gf11, (0,))


class TestPsiSet:
    def test_square_shift_all_large(self, square_shift_profile):
        _, _, prof = square_shift_profile
        assert psi_set(make_prime_field(7), prof) == [(y,) for y in range(7)]

    def test_equality_empty(self, small_prime_family):
        pf = parse_formula("x = y", small_prime_family[0].sig)
        prof = profile_family(small_prime_family, pf)
        assert psi_set(make_prime_field(7), prof) == []

    def test_inequality_everything(self):
        fam = [make_cyclic_group(n) for n in (13, 37, 101)]
        pf = parse_formula("!(x = y)", fam[0].sig)
        prof = profile_family(fam, pf)
        assert psi_set(fam[0], prof) == [(y,) for y in range(13)]

    def test_budget(self, square_shift_profile, small_prime_family, shrink_budget):
        # a formula off the kernel rule (x enters twice) is enumerated, so
        # past the budget it refuses; a kernel's Ψ is exact at every size
        pf = parse_formula("exists z. z*z = x + x - y", small_prime_family[0].sig)
        off_kernel = profile_family(small_prime_family, pf)
        _, _, kernel = square_shift_profile
        shrink_budget(50)
        with pytest.raises(EnumerationBudgetError):
            psi_set(make_prime_field(101), off_kernel)
        assert psi_set(make_prime_field(101), kernel) == [(y,) for y in range(101)]

    def test_kernel_psi_is_the_pushforward_and_never_kept(self, square_shift_profile):
        _, _, prof = square_shift_profile
        M = make_prime_field(101)
        psi = psi_columns(M, prof)
        assert isinstance(psi, Kernel) and psi_columns(M, prof) is psi
        unit, histogram = psi.pushforward()
        assert len(psi.base) == 51 and unit == 1 and histogram.tolist() == [1] * 101
        # the record keeps G and a few ints, never the pushforward itself
        assert [name for name, v in vars(psi).items() if isinstance(v, np.ndarray)] == ["base"]
        assert psi.pushforward()[1] is not histogram
        assert prof._psi is None
        # the profile keeps one count per structure it enumerated
        assert all(type(v) is int for v in prof._counts.values())

    def test_psi_columns_kept_for_the_last_structure(self, small_prime_family):
        pf = parse_formula("exists z. z*z = x + x - y", small_prime_family[0].sig)
        prof = profile_family(small_prime_family, pf)
        cols, counts = psi_columns(make_prime_field(7), prof)
        assert not cols.flags.writeable and not counts.flags.writeable
        again = psi_columns(make_prime_field(7), prof)
        assert again[0] is cols and again[1] is counts
        # one entry per profile: another structure replaces it
        psi_columns(make_prime_field(11), prof)
        recomputed = psi_columns(make_prime_field(7), prof)
        assert recomputed[0] is not cols
        np.testing.assert_array_equal(recomputed[0], cols)
        np.testing.assert_array_equal(recomputed[1], counts)

    def test_equivalent_formulas_same_psi(self, small_prime_family):
        sig = small_prime_family[0].sig
        M = make_prime_field(13)
        pf_a = parse_formula("exists z. z*z = x - y", sig)
        pf_b = parse_formula("!(!(exists z. z*z = x - y))", sig)
        # exhaustive truth-table agreement on the structure
        from hlab.folang import evaluate

        for x in range(13):
            for y in range(13):
                a = {"x": x, "y": y}
                assert evaluate(M, pf_a.formula, dict(a)) == evaluate(M, pf_b.formula, dict(a))
        prof_a = profile_family(small_prime_family, pf_a)
        prof_b = profile_family(small_prime_family, pf_b)
        assert psi_set(M, prof_a) == psi_set(M, prof_b)


class TestSampledProfiling:
    def test_wide_parameter_space_falls_back_to_sampling(self):
        # two parameters at size ~5000 give 2.5e7 tuples, past the 1e7 budget
        fam = [make_cyclic_group(n) for n in (4999, 5000)]
        pf = parse_formula("exists z. z + z = x - y1 - y2", fam[0].sig,
                           params=("y1", "y2"))
        prof = profile_family(fam, pf, samples=2000, seed=5)
        assert not any(s.enumerated for s in prof.per_structure)
        assert len(prof.E) == 2
        assert abs(prof.E[0] - 0.5) <= 0.02
        assert abs(prof.E[1] - 1.0) <= 0.02

    def test_kernel_sample_is_drawn_not_evaluated(self, monkeypatch, shrink_budget):
        # a kernel past the budget has |G| solutions at each drawn tuple:
        # its sample is drawn from the same seeded stream, repeats dropped,
        # and never counted (2000 draws from 40^2 tuples repeat many)
        fam = [make_cyclic_group(n) for n in (40, 41)]
        pf = parse_formula("exists z. z + z = x - y1 - y2", fam[0].sig, params=("y1", "y2"))
        for M in fam:
            kernel(M, pf)  # its one evaluation, at the zero tuple
        shrink_budget(100)

        def refuse(*args, **kwargs):
            raise AssertionError("a kernel's sample was evaluated")

        monkeypatch.setattr(folang, "solution_mask_matrix", refuse)
        prof = profile_family(fam, pf, samples=2000, seed=5)
        for M, stats in zip(fam, prof.per_structure):
            draws = np.random.default_rng([5, M.size]).integers(0, M.size, size=(2000, 2))
            assert stats.n_large == len(np.unique(draws, axis=0)) < 2000 and not stats.enumerated
        assert prof._counts == {}

    def test_sampling_is_seeded(self):
        fam = [make_cyclic_group(n) for n in (4999, 5000)]
        pf = parse_formula("exists z. z + z = x - y1 - y2", fam[0].sig,
                           params=("y1", "y2"))
        a = profile_family(fam, pf, samples=500, seed=5)
        b = profile_family(fam, pf, samples=500, seed=5)
        assert a.to_json_dict() == b.to_json_dict()


class TestScaleStability:
    def test_dropping_largest_member_changes_no_classification(self):
        fam = [make_prime_field(p) for p in primes_in(5, 47)]
        pf = parse_formula("exists z. z*z = x - y", fam[0].sig)
        full = profile_family(fam, pf)
        reduced = profile_family(fam[:-1], pf)
        largest = fam[-1]
        for y in range(largest.size):
            a = classify(full, largest, (y,))
            b = classify(reduced, largest, (y,))
            assert a.kind == b.kind
            assert abs(a.measure - b.measure) <= 0.05


def _wild_structure(n: int, seed: int) -> FiniteStructure:
    """Cyclic tables plus a relation whose per-parameter counts spread over
    the whole range; defeats any single-envelope fit."""
    sig = Signature(functions={"add": 2, "sub": 2, "zero": 0}, relations={"wild": 2})
    i = np.arange(n, dtype=np.int64)
    wild = i[:, None] < i[None, :]  # count for parameter y is exactly y
    return FiniteStructure(
        sig,
        n,
        "cyclic-group",
        {"n": n, "seed": seed},
        {"add": (i[:, None] + i[None, :]) % n, "sub": (i[:, None] - i[None, :]) % n,
         "zero": np.int64(0)},
        {"wild": wild},
    )


class TestDiagnostics:
    def test_not_one_dimensional_at_this_scale(self):
        # at sizes 200/300 the sqrt-width envelopes are too narrow for any
        # small measure set to explain a linearly spread count profile
        fam = [_wild_structure(200, 0), _wild_structure(300, 1)]
        pf = parse_formula("wild(x, y)", fam[0].sig)
        with pytest.raises(NotOneDimensionalError) as err:
            profile_family(fam, pf)
        assert err.value.offenders

    def test_small_scale_spread_still_fits(self):
        # the same profile at tiny sizes is honestly coverable by a few
        # measures; the profiler must not reject what the scale cannot refute
        fam = [_wild_structure(30, 0), _wild_structure(40, 1)]
        pf = parse_formula("wild(x, y)", fam[0].sig)
        prof = profile_family(fam, pf)
        assert 1 <= len(prof.E) <= 8

    def test_tiny_ceiling_rejects_honest_family(self, small_prime_family):
        pf = parse_formula("exists z. z*z = x - y", small_prime_family[0].sig)
        with pytest.raises(NotOneDimensionalError):
            profile_family(small_prime_family, pf, ceiling=0.0001)


def _outcome(fit, *args):
    """A fit's (E, C, B, stats), or its error's type and message."""
    try:
        return fit(*args)
    except NotOneDimensionalError as err:
        return type(err), str(err)


def assert_same_fit(observed, gap, ceiling):
    """The histogram fit and the per-tuple oracle agree on observed =
    (size, counts, enumerated) per structure, largest first."""
    hist = [(n, *np.unique(counts, return_counts=True), e) for n, counts, e in observed]
    expected = _outcome(fit_counts, "phi", observed, gap, ceiling)
    assert _outcome(asymptotics._fit, "phi", hist, gap, ceiling) == expected
    return expected


@st.composite
def count_families(draw):
    """Two to four structures, largest first, each with counts near shared
    measure levels, small algebraic counts, and stray counts anywhere."""
    sizes = draw(st.lists(st.integers(2, 400), min_size=2, max_size=4, unique=True))
    levels = draw(
        st.lists(st.sampled_from([0.02, 0.04, 0.06, 0.1, 0.25, 0.33, 0.5, 0.55, 0.75, 0.9, 1.0]), min_size=1)
    )
    observed = []
    for n in sorted(sizes, reverse=True):
        near = st.builds(
            lambda f, e, n=n: min(n, max(0, round(f * n) + e)), st.sampled_from(levels), st.integers(-4, 4)
        )
        value = st.one_of(near, near, st.integers(0, 3), st.integers(0, n))
        counts = np.array(draw(st.lists(value, min_size=1, max_size=40)), dtype=np.int64)
        observed.append((n, counts, draw(st.booleans())))
    return observed


# (observed, gap, ceiling, what the fit gives: the number of measures and B,
# or part of its error message): one case per branch
FIT_CASES = {
    "several measures": (
        [(100, [50] * 5 + [100] * 5, True), (90, [45, 45, 46, 90, 90], True)], 0.05, 2.0, (2, None)
    ),
    "algebraic counts": ([(100, [1, 1, 2, 50, 50], True), (90, [0, 1, 45, 47], False)], 0.05, 2.0, (1, 2)),
    "both sides of the gap": ([(120, [5, 7, 60], True), (100, [4, 6, 50, 3], True)], 0.05, 2.0, (2, None)),
    "residual over the ceiling": (
        [(100, [30, 70], True), (80, [40], True)], 0.5, 1.0, "envelope needs C"
    ),
    "more than MAX_MEASURES": (
        [(1000, list(range(100, 1000, 100)), True), (500, [475], True)], 0.05, 0.5, "more than 8 measures"
    ),
    "B overlaps min(E) |M|": ([(100, [1, 1, 50], True), (2, [1, 1], True)], 0.05, 2.0, "overlaps"),
}


class TestHistogramFit:
    @pytest.mark.parametrize("case", FIT_CASES.values(), ids=FIT_CASES.keys())
    def test_each_branch_matches_the_oracle(self, case):
        observed, gap, ceiling, expected = case
        observed = [(n, np.array(c, dtype=np.int64), e) for n, c, e in observed]
        outcome = assert_same_fit(observed, gap, ceiling)
        if isinstance(expected, str):
            assert outcome[0] is NotOneDimensionalError and expected in outcome[1]
        else:
            assert (len(outcome[0]), outcome[2]) == expected

    @settings(max_examples=300)
    @given(count_families(), st.sampled_from([0.01, 0.05, 0.2]), st.sampled_from([0.05, 0.5, 2.0]))
    def test_matches_the_per_tuple_fit(self, observed, gap, ceiling):
        assert_same_fit(observed, gap, ceiling)

    def test_profile_family_fits_histograms(self, small_prime_family):
        # the oracle over every tuple's count gives the profile's own numbers
        pf = parse_formula("exists z. z*z = x + x - y", small_prime_family[0].sig)
        prof = profile_family(small_prime_family, pf)
        observed = [(M.size, solution_counts_all(M, pf), True) for M in small_prime_family[::-1]]
        E, C, B, stats = fit_counts(pf.text, observed, prof.gap, prof.ceiling)
        assert (prof.E, prof.C, prof.B, prof.per_structure) == (E, C, B, stats)

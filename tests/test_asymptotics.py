import numpy as np
import pytest

from hlab.asymptotics import (
    MeasureProfile,
    classify,
    profile_family,
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
from hlab.folang import parse_formula, solution_count


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

    def test_budget(self, square_shift_profile, shrink_budget):
        _, _, prof = square_shift_profile
        shrink_budget(50)
        with pytest.raises(EnumerationBudgetError):
            psi_set(make_prime_field(101), prof)

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

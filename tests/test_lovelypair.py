import dataclasses

import pytest

from hlab import folang, lovelypair
from hlab.errors import SignatureMismatchError
from hlab.finitemodels import least_nonresidue, make_extension_field, primes_in
from hlab.folang import column_blocks, parse_formula, solution_count
from hlab.lovelypair import (
    build_quadratic_pair,
    csv_rows,
    experiment_summary,
    make_report,
    phi_count,
    run_experiment,
    subfield_violations,
)

from helpers import evaluate

ODD_PRIMES_97 = [p for p in primes_in(3, 97)]


@pytest.fixture(scope="module")
def pair_cache():
    """One construction of GF(p^2) per prime; the larger fields are costly."""
    return {p: build_quadratic_pair(p) for p in ODD_PRIMES_97}


def brute_pair_data(p, a1=1):
    """Independent recomputation in plain integer arithmetic: field elements
    are pairs (a, b) for a + b*t with t*t = r, the least non-residue, and
    element index a*p + b. a1 is the index of a non-subfield element (the
    default, 1, is the first one) and a2 its conjugate; returns the count of
    the character split and its subfield violations."""
    r = least_nonresidue(p)

    def mul(u, v):
        (a, b), (c, d) = u, v
        return ((a * c + r * b * d) % p, (a * d + b * c) % p)

    def sub(u, v):
        return ((u[0] - v[0]) % p, (u[1] - v[1]) % p)

    elems = [(a, b) for a in range(p) for b in range(p)]
    squares = {mul(e, e) for e in elems}
    a, b = divmod(a1, p)
    assert b != 0, "a1 must lie outside the subfield"
    first, second = (a, b), (a, (-b) % p)  # frob(a + b t) = a - b t
    count = sum(
        1 for e in elems if sub(e, first) in squares and sub(e, second) not in squares
    )
    violations = sum(
        1
        for a in range(p)
        if sub((a, 0), first) in squares and sub((a, 0), second) not in squares
    )
    return count, violations


class TestPairConstruction:
    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_conjugate_pair(self, p):
        K, a1, a2 = build_quadratic_pair(p)
        assert not bool(K.relations["insub"][a1])
        assert a2 == int(K.functions["frob"][a1])
        assert a1 != a2

    @pytest.mark.parametrize("p", [3, 5])
    def test_a2_is_pth_power_of_a1(self, p):
        K, a1, a2 = build_quadratic_pair(p)
        mul = K.functions["mul"]
        acc = a1
        for _ in range(p - 1):
            acc = int(mul[acc, a1])
        assert acc == a2

    def test_char_two_rejected(self):
        with pytest.raises(SignatureMismatchError):
            build_quadratic_pair(2)

    def test_a1_deterministic(self):
        first = build_quadratic_pair(13)[1:]
        second = build_quadratic_pair(13)[1:]
        assert first == second


class TestPhiCount:
    @pytest.mark.parametrize("p", [3, 13])
    def test_quarter_envelope(self, p):
        K, a1, a2 = build_quadratic_pair(p)
        q = K.size
        count = phi_count(K, a1, a2)
        assert abs(count - q / 4.0) <= 1.5 * (q**0.5) + 3

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_matches_independent_brute_force(self, p):
        K, a1, a2 = build_quadratic_pair(p)
        brute_count, brute_violations = brute_pair_data(p)
        assert phi_count(K, a1, a2) == brute_count
        assert subfield_violations(K, a1, a2) == brute_violations
        assert brute_violations == 0

    @pytest.mark.parametrize("p", ODD_PRIMES_97)
    def test_partition_identity(self, p, pair_cache):
        K, a1, a2 = pair_cache[p]
        s1, s2 = "(exists z. z*z = x - y1)", "(exists z. z*z = x - y2)"
        patterns = {
            "SS": f"{s1} & {s2}",
            "SN": f"{s1} & !{s2}",
            "NS": f"!{s1} & {s2}",
            "NN": f"!{s1} & !{s2}",
        }
        counts = {
            name: solution_count(K, parse_formula(text, K.sig, params=("y1", "y2")), (a1, a2))
            for name, text in patterns.items()
        }
        assert sum(counts.values()) == K.size
        assert phi_count(K, a1, a2) == counts["SN"]
        # swapping a1 and a2 mirrors the mixed patterns
        assert phi_count(K, a2, a1) == counts["NS"]

    def test_squares_include_zero(self):
        # the naive evaluator: x - a1 = 0 is a square at x = a1
        K, a1, _ = build_quadratic_pair(5)
        square = parse_formula("exists z. z*z = x - y", K.sig)
        assert evaluate(K, square.formula, {"x": a1, "y": a1})


class TestSubfieldViolations:
    @pytest.mark.parametrize("p", ODD_PRIMES_97)
    def test_zero_for_conjugate_parameters(self, p, pair_cache):
        K, a1, a2 = pair_cache[p]
        assert subfield_violations(K, a1, a2) == 0

    @pytest.mark.parametrize("p", ODD_PRIMES_97)
    def test_deviation_envelope(self, p, pair_cache):
        K, a1, a2 = pair_cache[p]
        q = K.size
        assert abs(phi_count(K, a1, a2) - q / 4.0) <= 1.5 * (q**0.5) + 3

    def test_nonconjugate_parameter_breaks_the_pattern(self):
        # with a2 not conjugate to a1, some prime in [5, 23] shows a
        # subfield witness: the conjugation is what kills them
        hits = 0
        for p in primes_in(5, 23):
            K, a1, conj = build_quadratic_pair(p)
            insub = K.relations["insub"]
            found = False
            for b in range(K.size):
                if insub[b] or b == a1 or b == conj:
                    continue
                if subfield_violations(K, a1, b) > 0:
                    found = True
                    break
            hits += found
        assert hits > 0


class TestRunExperiment:
    def test_basic_run(self):
        reports = run_experiment([3, 5, 7, 11, 13])
        assert [r.p for r in reports] == [3, 5, 7, 11, 13]
        assert all(r.subfield_violations == 0 for r in reports)
        summary = experiment_summary(reports)
        assert summary["all_violations_zero"]
        assert summary["witnessed"]

    def test_empty_list(self):
        assert run_experiment([]) == []

    def test_counts_large_from_five_up(self):
        reports = run_experiment(primes_in(5, 31))
        assert all(r.phi_count >= r.q / 8.0 for r in reports)

    def test_sweep_covers_every_nonsubfield_choice(self):
        reports = run_experiment([5], sweep_a1=True)
        assert len(reports) == 25 - 5
        assert all(r.subfield_violations == 0 for r in reports)

    def test_million_element_field(self):
        # q = 997^2; the field stores only length-q arrays
        reports = run_experiment([997])
        assert reports[0].q == 994_009
        assert experiment_summary(reports)["witnessed"]

    def test_csv_shape(self):
        rows = list(csv_rows(run_experiment([3, 5])))
        assert rows[0] == ("p", "q", "phi_count", "q_over_4", "deviation", "violations")
        assert len(rows) == 3
        assert rows[1][0] == 3 and rows[1][1] == 9

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_sweep_matches_independent_brute_force(self, p):
        # every report of the batched sweep against plain integer arithmetic
        K = make_extension_field(p)
        reports = run_experiment([p], sweep_a1=True)
        assert [r.a1 for r in reports] == [a for a in range(p * p) if a % p]
        for r in reports:
            assert r.a2 == int(K.functions["frob"][r.a1])
            assert (r.phi_count, r.subfield_violations) == brute_pair_data(p, r.a1)
            assert r.deviation == abs(r.phi_count - r.q / 4.0)

    def test_sweep_identical_in_small_blocks(self, shrink_budget):
        whole = [r.to_json_dict() for r in run_experiment([3, 5, 7], sweep_a1=True)]
        shrink_budget(50)  # one or a few columns per evaluation block
        blocked = [r.to_json_dict() for r in run_experiment([3, 5, 7], sweep_a1=True)]
        assert blocked == whole

    def test_make_report_is_one_column_of_the_sweep(self):
        K, _, _ = build_quadratic_pair(5)
        for r in run_experiment([5], sweep_a1=True):
            assert make_report(K, r.a1) == r

    def test_make_report_rejects_subfield_a1(self):
        K, _, _ = build_quadratic_pair(5)
        with pytest.raises(SignatureMismatchError):
            make_report(K, 5)  # the element 1 of the subfield

    def test_json_dict_matches_asdict(self):
        # plain Python numbers, so the report writer never meets a numpy scalar
        for r in run_experiment([3, 7], sweep_a1=True):
            d = r.to_json_dict()
            assert d == dataclasses.asdict(r)
            assert {type(v) for v in d.values()} <= {int, float}
            d["p"] = None
            assert r.p == r.q ** 0.5

    def test_report_deterministic(self):
        K, a1, _ = build_quadratic_pair(7)
        a = make_report(K, a1)
        b = make_report(*build_quadratic_pair(7)[:2])
        assert a.to_json_dict() == b.to_json_dict()


def test_square_mask_cold_race(race):
    # eight threads on a cold field: each gets the same count, and both
    # existentials of PHI share the one square image stored on the field
    reference = phi_count(*build_quadratic_pair(101))
    K, a1, a2 = build_quadratic_pair(101)
    counts = race(lambda: phi_count(K, a1, a2))
    assert counts == [reference] * 8
    images = [key for key in K._cache if key[0] == "image"]
    assert len(images) == 1


def test_phi_evaluated_once_per_block(monkeypatch, shrink_budget):
    # phi_count and subfield_violations are the column sums of one PHI mask
    # per evaluation block, over every row and over the subfield rows
    calls = []
    real = folang.solution_mask_matrix

    def counted(*args, **kwargs):
        calls.append(args[1].text)
        return real(*args, **kwargs)

    monkeypatch.setattr(folang, "solution_mask_matrix", counted)
    monkeypatch.setattr(lovelypair, "solution_mask_matrix", counted, raising=False)
    shrink_budget(121 * 25)  # 25 of the 110 columns of GF(11^2) per block
    reports = run_experiment([11], sweep_a1=True)
    assert len(reports) == 110
    assert calls == [lovelypair.PHI] * len(list(column_blocks(110, 121))) == [lovelypair.PHI] * 5
    assert all(
        (r.phi_count, r.subfield_violations) == brute_pair_data(11, r.a1) for r in reports[::17]
    )

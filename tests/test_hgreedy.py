import dataclasses
import functools
import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hlab import hgreedy
from hlab.errors import (
    ConfigRejectedError,
    EnumerationBudgetError,
    InvariantError,
    StructureTooSmallError,
    ThresholdNotMetError,
)
from hlab._util import tuple_columns
from hlab.finitemodels import (
    make_cyclic_group,
    make_extension_field,
    make_f2_vector_space,
    make_prime_field,
    primes_in,
)
from hlab.folang import (
    evaluate,
    kernel,
    max_solution_count,
    parse_formula,
    solution_counts_all,
    solution_mask_matrix,
)
from hlab.asymptotics import profile_family, psi_set, sample_columns
from hlab.hsequence import closure
from hlab.hgreedy import (
    BEST_EFFORT,
    STRICT,
    GreedyState,
    GridCoverage,
    KernelCoverage,
    _phase_state,
    build_h,
    closure_masks,
    derive_config,
    forbidden_set,
    greedy_step,
    independence_checks,
    size_threshold_ok,
    verify_avoid,
    verify_cover,
)

from helpers import minimum_cover_size
from profile_oracle import tuple_psi

DECAY_09 = -math.log(1 - 0.45)  # mu = 0.9
DECAY_04 = -math.log(0.8)  # mu = 0.4


@pytest.fixture(scope="module")
def neq_family():
    """Cyclic family whose inequality measure stays above 0.9."""
    return [make_cyclic_group(n) for n in (13, 37, 101)]


@pytest.fixture(scope="module")
def neq_config(neq_family, profiled):
    sig = neq_family[0].sig
    neq = parse_formula("!(x = y)", sig)
    xz = parse_formula("x = z", sig)
    return derive_config(profiled(neq_family, [neq]), profiled(neq_family, [xz]), 0.9)


@pytest.fixture(scope="module")
def square_shift_config(profiled):
    fam = [make_prime_field(p) for p in primes_in(61, 151)]
    sig = fam[0].sig
    sq = parse_formula("exists z. z*z = x - y", sig)
    xz = parse_formula("x = z", sig)
    return fam, derive_config(profiled(fam, [sq]), profiled(fam, [xz]), 0.49)


@pytest.fixture(scope="module")
def blocker_config(profiled):
    """Inequality cover with two blocking avoid formulas, profiled at a scale
    where count-1 formulas read as algebraic."""
    fam = [make_cyclic_group(n) for n in range(21, 41)]
    sig = fam[0].sig
    neq = parse_formula("!(x = y)", sig)
    xz = parse_formula("x = z", sig)
    xz1 = parse_formula("x = z + 1", sig)
    return derive_config(profiled(fam, [neq]), profiled(fam, [xz, xz1]), 0.4)


@pytest.fixture(scope="module")
def cyclic_family_30():
    return [make_cyclic_group(n) for n in range(5, 31)]


class TestDeriveConfig:
    def test_example_mu_09(self, neq_config):
        cfg = neq_config
        assert cfg.ell0 == 1
        assert cfg.k0 == 1
        assert cfg.c_gamma == 1
        assert cfg.h_m(13) == 6
        assert cfg.h_m(101) == 9
        assert cfg.c_delta_gamma == 3

    def test_example_two_params(self, profiled):
        fam = [make_cyclic_group(n) for n in (101, 148)]
        sig = fam[0].sig
        pair = parse_formula("!(x = y1) | !(x = y2)", sig, params=("y1", "y2"))
        xz = parse_formula("x = z", sig)
        cfg = derive_config(profiled(fam, [pair]), profiled(fam, [xz]), 0.4)
        assert cfg.ell0 == 2
        assert cfg.h_m(148) == 46

    def test_mu_not_below_measure(self, neq_family, profiled):
        sig = neq_family[0].sig
        neq = parse_formula("!(x = y)", sig)
        xz = parse_formula("x = z", sig)
        with pytest.raises(ConfigRejectedError):
            derive_config(profiled(neq_family, [neq]), profiled(neq_family, [xz]), 0.999)

    def test_large_avoid_formula_rejected(self, profiled):
        fam = [make_prime_field(p) for p in primes_in(11, 31)]
        sig = fam[0].sig
        sq = parse_formula("exists z. z*z = x - y", sig)
        also_sq = parse_formula("exists w. w*w = x - z", sig)  # large, not algebraic
        with pytest.raises(ConfigRejectedError):
            derive_config(profiled(fam, [sq]), profiled(fam, [also_sq]), 0.4)

    def test_parameterless_cover_rejected(self, neq_family, profiled):
        sig = neq_family[0].sig
        closed = parse_formula("x = 0", sig)
        xz = parse_formula("x = z", sig)
        with pytest.raises(ConfigRejectedError):
            derive_config(profiled(neq_family, [closed]), profiled(neq_family, [xz]), 0.4)

    def test_default_mu_is_half_the_smallest_measure(self, square_shift_config, profiled):
        fam, _ = square_shift_config
        sig = fam[0].sig
        sq = parse_formula("exists z. z*z = x - y", sig)
        xz = parse_formula("x = z", sig)
        cfg = derive_config(profiled(fam, [sq]), profiled(fam, [xz]), None)
        assert 0.2 < cfg.mu < 0.3


class TestSizeThreshold:
    def test_example_13_false(self, neq_config):
        check = size_threshold_ok(neq_config, 13)
        assert not check.ok
        assert check.forbidden_bound == 7.0
        assert check.mass_allowance == pytest.approx(5.85)

    def test_example_101_true(self, neq_config):
        check = size_threshold_ok(neq_config, 101)
        assert check.ok
        assert check.forbidden_bound == 10.0
        assert check.mass_allowance == pytest.approx(45.45)
        assert check.headroom == pytest.approx(55.55)
        assert check.h_budget == 9

    def test_eventually_true(self, neq_config):
        assert all(size_threshold_ok(neq_config, s).ok for s in (10**4, 10**6, 10**9))


class TestForbiddenSet:
    def test_single_match(self, z13):
        xz = parse_formula("x = z", z13.sig)
        assert forbidden_set([4], [xz], z13) == [4]

    def test_shift(self, z13):
        xz1 = parse_formula("x = z + 1", z13.sig)
        assert forbidden_set([0, 5], [xz1], z13) == [1, 6]

    def test_parameterless_with_empty_h(self, z13):
        x0 = parse_formula("x = 0", z13.sig)
        assert forbidden_set([], [x0], z13) == [0]

    def test_empty_h_no_parameterless(self, z13):
        xz = parse_formula("x = z", z13.sig)
        assert forbidden_set([], [xz], z13) == []

    def test_kernel_bound_known_at_every_size(self):
        # a recount of x = z over GF(10007) would be 10007^2 cells, past the
        # budget; as a translation kernel its count is |G| = 1 at any size,
        # so closures keep their union bound
        M = make_prime_field(10007)
        xz, xz1 = parse_formula("x = z", M.sig), parse_formula("x = z + 1", M.sig)
        assert max_solution_count(M, [xz]) == 1
        assert max_solution_count(M, [xz, xz1]) == 1
        clos = closure(M, [4, 10006], [9], [xz, xz1])
        assert clos.elements == [0, 4, 5, 9, 10, 10006] and clos.bound == 6


def naive_closure(M, base, gamma):
    """clos(base) by the naive evaluator: every element that solves some
    avoid formula at some parameter tuple drawn from the base."""
    found = set()
    for xi in gamma:
        for params in itertools.product(sorted(set(base)), repeat=xi.arity):
            for x in range(M.size):
                if evaluate(M, xi.formula, {xi.object_var: x, **dict(zip(xi.params, params))}):
                    found.add(x)
    return found


# avoid lists of arities 0 to 3 for structures of each signature
CLOSURE_AVOID = {
    "cyclic": ["x = 0", "x = z + 1", "x = z1 + z2", "x = z1 + z2 - z3"],
    "field": ["x * x = 1", "x * z = 1", "x * z1 = z2 + 1", "x + z1 = z2 * z3"],
    # x enters with coefficient 2: no translation kernel, so the grid route
    "doubled": ["x + x = 1", "x + x = z", "x + x = z1 + z2", "x + x = z1 + z2 - z3"],
}
# base sets A_i as rows padded with -1, one with a repeated member
CLOSURE_SETS = np.array(
    [[-1, -1, -1], [4, -1, -1], [4, 9, -1], [0, 2, 11], [9, 9, 1], [5, -1, -1]], dtype=np.intp
)


class TestClosureMasks:
    @pytest.mark.parametrize("budget", [None, 20, 60])
    @pytest.mark.parametrize(
        "M, kind",
        [
            (make_cyclic_group(12), "cyclic"),
            (make_cyclic_group(13), "cyclic"),
            (make_prime_field(11), "field"),
            (make_prime_field(13), "field"),
        ],
        ids=["Z12", "Z13", "GF11", "GF13"],
    )
    def test_matches_naive_oracle(self, M, kind, budget, shrink_budget):
        # budgets of 20 and 60 cells split blocks of sets and single sets alike
        if budget is not None:
            shrink_budget(budget)
        texts = CLOSURE_AVOID[kind]
        for arities in ([0], [1], [2], [3], [0, 1, 2, 3]):
            gamma = [parse_formula(texts[k], M.sig) for k in arities]
            for h in ([], [1, 4, 7]):
                masks = closure_masks(M, h, CLOSURE_SETS, gamma, max_solutions=M.size)
                assert masks.shape == (M.size, len(CLOSURE_SETS))
                for i, row in enumerate(CLOSURE_SETS):
                    a = [int(v) for v in row if v >= 0]
                    expected = naive_closure(M, [*h, *a], gamma)
                    assert set(np.flatnonzero(masks[:, i]).tolist()) == expected, (arities, h, a)

    def test_no_sets(self, z13):
        xz = parse_formula("x = z", z13.sig)
        no_sets = np.empty((0, 0), dtype=np.intp)
        assert closure_masks(z13, [1, 2], no_sets, [xz]).shape == (13, 0)

    def test_union_bound_names_the_set(self, z13):
        xz1 = parse_formula("x = z + 1", z13.sig)
        with pytest.raises(InvariantError, match=r"H plus \[3, 9\] .*union bound 0"):
            closure_masks(z13, [], np.array([[-1, -1], [3, 9]]), [xz1], max_solutions=0)


class TestGreedyStep:
    def test_hand_trace(self, neq_config, z13):
        state = _phase_state(neq_config, z13, 0, [], [])
        assert state.remaining == 13
        greedy_step(state, z13)
        assert state.h_elements == [0]  # all 13 candidates tie at 12; index wins
        # the shift of !(x = y) at y is y: only the tuple (0,) is left
        assert state.remaining == 1 and np.flatnonzero(state.coverage.histogram).tolist() == [0]
        greedy_step(state, z13)
        assert state.h_elements == [0, 1]
        assert state.remaining == 0
        # the forbidden set the second step saw, before it appended 1
        assert forbidden_set(state.h_elements[:-1], neq_config.gamma, z13) == [0]

    def test_empty_y_rejected(self, neq_config, z13):
        state = _phase_state(neq_config, z13, 0, [], [])
        state.coverage.remaining = 0
        with pytest.raises(ValueError):
            greedy_step(state, z13)

    def test_exhausted_eligible_set(self, blocker_config):
        # on Z_2 the two avoid formulas forbid everything once H = [0]
        z2 = make_cyclic_group(2)
        cols = np.arange(2, dtype=np.intp)[None, :]
        state = GreedyState(
            config=blocker_config,
            formula_index=0,
            step=0,
            h_elements=[],
            provenance=[],
            coverage=GridCoverage(z2, blocker_config.delta[0], cols),
        )
        greedy_step(state, z2)
        assert state.h_elements == [0]
        with pytest.raises(StructureTooSmallError):
            greedy_step(state, z2)


class TestBuildH:
    def test_z13_best_effort(self, neq_config, z13):
        h, report = build_h(z13, neq_config, BEST_EFFORT)
        assert h.elements == [0, 1]
        assert h.provenance == [(0, 0), (0, 1)]
        assert report.all_passed
        assert report.h_size == 2
        assert report.size_bound_limit == pytest.approx(3 * math.log(13))
        assert 2 <= report.size_bound_limit

    def test_strict_square_shift(self, square_shift_config):
        fam, cfg = square_shift_config
        M = [m for m in fam if m.size == 101][0]
        assert size_threshold_ok(cfg, M).ok
        h, report = build_h(M, cfg, STRICT)
        assert report.all_passed
        assert all(c.method == "exhaustive" for c in report.cover)
        assert len(h) <= cfg.c_delta_gamma * math.log(101)
        assert len(h) <= report.h_budget

    def test_strict_below_threshold_raises(self, profiled):
        fam = [make_prime_field(p) for p in primes_in(61, 151)]
        sig = fam[0].sig
        sq = parse_formula("exists z. z*z = x - y", sig)
        xz = parse_formula("x = z", sig)
        cfg = derive_config(profiled(fam, [sq]), profiled(fam, [xz]), 0.4)
        below = [m for m in fam if m.size == 101][0]
        assert not size_threshold_ok(cfg, below).ok
        with pytest.raises(ThresholdNotMetError):
            build_h(below, cfg, STRICT)
        above = [m for m in fam if m.size == 131][0]
        assert size_threshold_ok(cfg, above).ok
        h, report = build_h(above, cfg, STRICT)
        assert report.all_passed

    def test_degenerate_universe(self, blocker_config):
        with pytest.raises(StructureTooSmallError):
            build_h(make_cyclic_group(1), blocker_config, BEST_EFFORT)

    def test_shrink_factors_recorded(self, square_shift_config):
        fam, cfg = square_shift_config
        M = [m for m in fam if m.size == 131][0]
        _, report = build_h(M, cfg, STRICT)
        factors = report.phases[0]["shrink_factors"]
        assert factors, "at least one step"
        bound = 1 - cfg.mu / 2
        assert all(f <= bound + 1e-12 for f in factors)
        assert report.shrink_ok

    def test_determinism(self, square_shift_config):
        fam, cfg = square_shift_config
        M = [m for m in fam if m.size == 149][0]
        h1, r1 = build_h(M, cfg, STRICT)
        h2, r2 = build_h(M, cfg, STRICT)
        assert h1.elements == h2.elements
        assert r1.to_json_dict() == r2.to_json_dict()

    def test_json_dict_matches_asdict(self, square_shift_config):
        # the shallow to_json_dict against a deep asdict reference: a nested
        # dataclass it forgot to convert would compare unequal
        fam, cfg = square_shift_config
        _, report = build_h([m for m in fam if m.size == 149][0], cfg, STRICT)
        assert report.cover and report.avoid and report.provenance
        reference = dataclasses.asdict(report)
        reference["h"] = reference.pop("h_elements")
        reference["provenance"] = [list(p) for p in report.provenance]
        reference["all_passed"] = report.all_passed
        d = report.to_json_dict()
        assert d == reference
        assert d["threshold"] == report.threshold.to_json_dict()
        assert d["cover"] == [dataclasses.asdict(c) for c in report.cover]
        for key in list(d):
            d[key] = None
        assert report.to_json_dict() == reference

    def test_report_carries_h(self, neq_config, z13):
        h, report = build_h(z13, neq_config, BEST_EFFORT)
        d = report.to_json_dict()
        assert d["h"] == h.elements
        assert d["provenance"] == [list(p) for p in h.provenance]


class TestVerifyCover:
    def test_builder_output_passes(self, neq_config, z13):
        h = build_h(z13, neq_config, BEST_EFFORT)[0].elements
        cert = verify_cover(z13, h, neq_config.delta_profiles[0])
        assert cert.passed
        assert cert.method == "exhaustive"
        assert cert.checked == 13

    def test_empty_h_fails_everywhere(self, neq_config, z13):
        cert = verify_cover(z13, [], neq_config.delta_profiles[0])
        assert not cert.passed
        assert len(cert.failures) == 13

    def test_whole_universe_covers(self, neq_config, z13):
        cert = verify_cover(z13, list(range(13)), neq_config.delta_profiles[0])
        assert cert.passed

    def test_over_budget_raises(self, neq_config, z13, shrink_budget, profiled):
        # the certificate never samples: past the budget a formula off the
        # kernel rule refuses, and a kernel still checks all of its tuples
        family = [make_cyclic_group(n) for n in (13, 37, 101)]
        off_kernel = profiled(family, [parse_formula("!(x + x = y)", z13.sig)])[0]
        h = build_h(z13, neq_config, BEST_EFFORT)[0].elements
        shrink_budget(4)
        with pytest.raises(EnumerationBudgetError):
            verify_cover(z13, h, off_kernel)
        cert = verify_cover(z13, h, neq_config.delta_profiles[0])
        assert cert.passed and cert.checked == 13


class TestVerifyAvoid:
    def test_equality_never_violated(self, z13):
        xz = parse_formula("x = z", z13.sig)
        cert = verify_avoid(z13, [0, 1], xz)
        assert cert.passed

    def test_shift_violation(self, z13):
        xz1 = parse_formula("x = z + 1", z13.sig)
        cert = verify_avoid(z13, [0, 1], xz1)
        assert not cert.passed
        assert cert.violations == [(1, 0)]

    def test_singleton_vacuous(self, z13):
        xz1 = parse_formula("x = z + 1", z13.sig)
        cert = verify_avoid(z13, [5], xz1)
        assert cert.passed
        assert cert.checked == 0

    def test_parameterless(self, z13):
        x0 = parse_formula("x = 0", z13.sig)
        assert not verify_avoid(z13, [3, 0], x0).passed
        assert verify_avoid(z13, [3, 4], x0).passed

    def test_order_matters(self, z13):
        xz1 = parse_formula("x = z + 1", z13.sig)
        # 1 after 0 violates x = z + 1, 0 after 1 does not
        assert not verify_avoid(z13, [0, 1], xz1).passed
        assert verify_avoid(z13, [1, 0], xz1).passed


@pytest.fixture(scope="module")
def pair_cover_config(cyclic_family_30, profiled):
    sig = cyclic_family_30[0].sig
    pair = parse_formula("exists z. z + z = x - y1 - y2", sig, params=("y1", "y2"))
    xz = parse_formula("x = z", sig)
    fam = cyclic_family_30
    return derive_config(profiled(fam, [pair]), profiled(fam, [xz]), None)


class TestWiderArities:
    def test_two_parameter_cover_build(self, pair_cover_config, cyclic_family_30):
        M = [m for m in cyclic_family_30 if m.size == 15][0]
        psi = psi_set(M, pair_cover_config.delta_profiles[0])
        assert len(psi) == 225  # doubling is onto for odd order, every pair is large
        assert psi[0] == (0, 0) and psi[1] == (0, 1)  # lexicographic order
        h, report = build_h(M, pair_cover_config, BEST_EFFORT)
        assert report.all_passed
        assert report.cover[0].checked == 225

    def test_two_parameter_avoid_formula(self, z13):
        pairsum = parse_formula("x = z1 + z2", z13.sig, params=("z1", "z2"))
        assert forbidden_set([1, 2], [pairsum], z13) == [2, 3, 4]
        cert = verify_avoid(z13, [1, 2, 3], pairsum)
        assert not cert.passed
        # parameters repeat: 2 = 1 + 1 violates just as 3 = 1 + 2 does
        assert set(cert.violations) == {(2, 1, 1), (3, 1, 2), (3, 2, 1)}
        assert verify_avoid(z13, [1, 3, 5], pairsum).passed

    @pytest.mark.parametrize(
        "text, is_kernel", [("!(x = y)", True), ("!(x + x = y)", False)], ids=["kernel", "off-kernel"]
    )
    def test_every_route_gives_the_same_build(
        self, text, is_kernel, shrink_budget, cyclic_family_30, profiled, monkeypatch
    ):
        # a kernel takes the convolution; with kernels turned off, and for
        # !(x + x = y), where x enters with coefficient 2, the grid route gives
        # the same build at the default budget and in blocks of two columns
        sig = cyclic_family_30[0].sig
        cover = parse_formula(text, sig)
        xz = parse_formula("x = z", sig)
        fam = cyclic_family_30
        cfg = derive_config(profiled(fam, [cover]), profiled(fam, [xz]), 0.4)
        M = cyclic_family_30[-1]
        assert (kernel(M, cover) is not None) == is_kernel
        builds = []
        if is_kernel:
            assert isinstance(_phase_state(cfg, M, 0, [], []).coverage, KernelCoverage)
            builds.append(build_h(M, cfg, BEST_EFFORT))
            monkeypatch.setattr(hgreedy, "psi_columns", tuple_psi)
        for budget in (None, 64):
            if budget is not None:
                shrink_budget(budget)
            assert isinstance(_phase_state(cfg, M, 0, [], []).coverage, GridCoverage)
            builds.append(build_h(M, cfg, BEST_EFFORT))
        (h_first, report_first), *others = builds
        for h, report in others:
            assert h.elements == h_first.elements
            assert report.to_json_dict() == report_first.to_json_dict()


# per family: structures of several sizes and a kernel cover formula of
# arity 1 and of arity 2, whose shift y1 + y2 repeats across tuples
CONVOLUTION_CASES = {
    "Z_n": (
        [make_cyclic_group(n) for n in range(12, 31)],
        ["exists z. z + z = x - y", "exists z. z + z = x - y1 - y2"],
    ),
    "GF(p)": (
        [make_prime_field(p) for p in primes_in(11, 47)],
        ["exists z. z*z = x - y", "exists z. z*z = x - y1 - y2"],
    ),
    "GF(p^2)": (
        [make_extension_field(p) for p in (3, 5, 7, 11)],
        ["exists z. z*z = x - y", "exists z. z*z = x - y1 - y2"],
    ),
    "F2^d": (
        [make_f2_vector_space(d) for d in range(3, 8)],
        ["!(x = y)", "!(x = y1 + y2)"],
    ),
}


@functools.lru_cache(maxsize=None)
def convolution_config(kind, arity):
    family, texts = CONVOLUTION_CASES[kind]
    params = ("y",) if arity == 1 else ("y1", "y2")
    cover = parse_formula(texts[arity - 1], family[0].sig, params=params)
    xz = parse_formula("x = z", family[0].sig)
    profiles = [profile_family(family, pf) for pf in (cover, xz)]
    return derive_config(profiles[:1], profiles[1:], None)


class TestConvolutionCoverage:
    @settings(max_examples=30)
    @given(st.data())
    def test_every_step_matches_the_grid(self, data):
        kind = data.draw(st.sampled_from(sorted(CONVOLUTION_CASES)))
        arity = data.draw(st.sampled_from([1, 2]))
        M = data.draw(st.sampled_from(CONVOLUTION_CASES[kind][0]))
        cfg = convolution_config(kind, arity)
        pf = cfg.delta[0]

        def build(route):
            # every step's counts against the naive row sums over Y
            checked = []

            def checked_step(state, M):
                coverage = state.coverage
                assert isinstance(coverage, route)
                if route is GridCoverage:
                    y_cols, unit = coverage.cols[:, coverage.left], 1
                else:  # Y is every tuple whose shift mu still counts, in units of the pushforward's
                    cols, _ = tuple_psi(M, cfg.delta_profiles[0])
                    y_cols = cols[:, coverage.histogram[kernel(M, pf).shifts(cols)] > 0]
                    unit = coverage.unit
                assert state.remaining == y_cols.shape[1]
                expected = solution_mask_matrix(M, pf, y_cols).sum(axis=1)
                assert np.array_equal(state.coverage.counts() * unit, expected)
                checked.append(state.step)
                return greedy_step(state, M)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(hgreedy, "greedy_step", checked_step)
                if route is GridCoverage:
                    patch.setattr(hgreedy, "psi_columns", tuple_psi)
                h, report = build_h(M, cfg, BEST_EFFORT)
            assert checked == list(range(len(h)))
            return h, report

        h_conv, report_conv = build(KernelCoverage)
        h_grid, report_grid = build(GridCoverage)
        assert h_conv.elements == h_grid.elements
        assert report_conv.to_json_dict() == report_grid.to_json_dict()

    @settings(max_examples=100)
    @given(st.data())
    def test_counts_and_cover_match_naive(self, data):
        # any set G and any shifts, on axes that are 5-smooth (unpadded),
        # prime, or with a prime factor above 5 (padded and folded back)
        M = data.draw(
            st.sampled_from(
                [make_cyclic_group(n) for n in (1, 2, 7, 14, 25, 30)]
                + [make_prime_field(p) for p in (2, 3, 11)]
                + [make_extension_field(p) for p in (3, 7)]
                + [make_f2_vector_space(d) for d in (1, 4)]
            )
        )
        elements = st.integers(0, M.size - 1)
        base = sorted(data.draw(st.sets(elements, min_size=1)))
        shifts = np.array(data.draw(st.lists(elements, min_size=1, max_size=40)), dtype=np.intp)
        # the pushforward's unit, as n^k / |im| gives, stays out of the
        # transform, and |Y| stays exact past 2^63
        unit = data.draw(st.sampled_from([1, 3, 10**15, 2**70]))
        sub, g = M.functions["sub"], np.array(base, dtype=np.intp)
        record = SimpleNamespace(  # what KernelCoverage reads of a Kernel, for any G and shifts
            base=g,
            pushforward=lambda: (unit, np.bincount(shifts, minlength=M.size)),
            reach=lambda h: np.asarray(sub[h, g], dtype=np.intp),
        )
        cover = KernelCoverage(M, record)
        assert cover.remaining == unit * len(shifts)
        hit = np.isin(sub[np.arange(M.size)[:, None], shifts[None, :]], base)
        products = []  # the inverse transform, before folding and rounding
        irfftn = np.fft.irfftn

        def recorded(*args):
            products.append(irfftn(*args))
            return products[-1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np.fft, "irfftn", recorded)
            counts = cover.counts()
        assert counts.tolist() == hit.sum(axis=1).tolist()
        # the product folded back through an index array, position k of an
        # axis of length d going to coordinate k mod d
        wrapped = (np.arange(length) % d for d, length in zip(M.group_shape, products[0].shape))
        fold = np.ravel_multi_index(np.ix_(*wrapped), M.group_shape).ravel()
        out = np.bincount(fold, products[0].ravel(), M.size)
        assert np.abs(out - counts).max() < 1e-6
        h = data.draw(elements)
        cover.cover(M, h)
        left = np.bincount(shifts[~hit[h]], minlength=M.size)
        assert np.array_equal(cover.histogram, left)
        assert cover.remaining == unit * int((~hit[h]).sum())

    @pytest.mark.parametrize(
        "perturb, found",
        [
            (lambda out: out + 0.4, "rounding residual 0.4"),
            (lambda out: out + (np.arange(out.size) == 0).reshape(out.shape), "total 157 against |G| * |Y| = 156"),
            (lambda out: out * np.nan, "rounding residual nan, total None"),
        ],
        ids=["residual", "total", "nan"],
    )
    def test_inexact_transform_is_an_invariant_error(
        self, neq_config, z13, monkeypatch, perturb, found
    ):
        # Z13 pads to length 25 and folds back; either check alone catches a
        # perturbed inverse transform at the first step
        irfftn = np.fft.irfftn
        monkeypatch.setattr(np.fft, "irfftn", lambda *args: perturb(irfftn(*args)))
        with pytest.raises(InvariantError) as err:
            build_h(z13, neq_config, BEST_EFFORT)
        assert str(err.value).startswith(
            "cyclic-group(n=13), formula '!(x = y)', step 0: convolution coverage is not exact"
        )
        assert found in str(err.value)

    def test_inexact_transform_names_its_step(self, neq_config, z13, monkeypatch):
        # the first step's transform is exact and the second one's is not
        irfftn = np.fft.irfftn
        calls = []

        def perturbed(*args):
            calls.append(args)
            return irfftn(*args) + (0.4 if len(calls) > 1 else 0.0)

        monkeypatch.setattr(np.fft, "irfftn", perturbed)
        with pytest.raises(InvariantError) as err:
            build_h(z13, neq_config, BEST_EFFORT)
        assert str(err.value).startswith(
            "cyclic-group(n=13), formula '!(x = y)', step 1: convolution coverage is not exact"
        )


class TestAlgebraicCoverPhase:
    def test_uniformly_algebraic_cover_formula_is_skipped(self, cyclic_family_30, profiled):
        sig = cyclic_family_30[0].sig
        eq = parse_formula("x = y", sig)  # algebraic: empty large set
        neq = parse_formula("!(x = y)", sig)
        xz = parse_formula("x = z", sig)
        fam = cyclic_family_30
        cfg = derive_config(profiled(fam, [eq, neq]), profiled(fam, [xz]), 0.4)
        M = cyclic_family_30[-1]
        h, report = build_h(M, cfg, BEST_EFFORT)
        assert report.all_passed
        assert report.phases[0]["psi_size"] == 0
        assert report.phases[0]["steps"] == 0
        assert all(index == 1 for index, _ in h.provenance)


class TestGreedyVersusOracle:
    @pytest.mark.parametrize("n", [12, 15, 20, 26])
    def test_log_bound_on_cyclic_doubling(self, n, cyclic_family_30, profiled):
        fam = cyclic_family_30
        M = [m for m in fam if m.size == n][0]
        pf = parse_formula("exists z. x = y + z + z", M.sig)
        xz = parse_formula("x = z", M.sig)
        cfg = derive_config(profiled(fam, [pf]), profiled(fam, [xz]), None)
        psi = psi_set(M, cfg.delta_profiles[0])
        h, report = build_h(M, cfg, BEST_EFFORT)
        assert report.all_passed
        opt = minimum_cover_size(M, pf, psi)
        if psi:
            assert opt <= len(h) <= opt * (1 + math.log(len(psi)))
        else:
            assert len(h) == 0


class TestBlockReducers:
    @pytest.mark.parametrize("budget", [5, 20])
    @pytest.mark.parametrize(
        "M, kind",
        [
            (make_cyclic_group(12), "cyclic"),
            (make_prime_field(11), "field"),
            (make_extension_field(3), "field"),
            (make_f2_vector_space(3), "cyclic"),
            (make_cyclic_group(12), "doubled"),
        ],
        ids=["Z12", "GF11", "GF9", "F2^3", "Z12-doubled"],
    )
    def test_blocks_match_one_block(self, M, kind, budget, shrink_budget):
        # row sums (grid coverage before and after a step), column sums
        # (every tuple and a sample), independence listings (merged across
        # blocks in row order) and closures, in blocks of a few cells and in
        # one block
        pfs = [parse_formula(text, M.sig) for text in CLOSURE_AVOID[kind]]
        if kind == "doubled":  # counts and closures take the grid too
            assert all(kernel(M, pf) is None for pf in pfs)

        def reduced():
            out = []
            for pf in pfs:
                cols = tuple_columns(range(M.size), pf.arity)
                coverage = GridCoverage(M, pf, cols)
                out.append(coverage.counts())
                coverage.left = coverage.left[::2]
                coverage.cover(M, 1)
                out.append(coverage.left)
                out += [coverage.counts(), solution_counts_all(M, pf)]
                out += sample_columns(M, pf, 3, 40)
                cert, witnesses = independence_checks(M, [1, 4, 0, 7, 2, 5], pf)
                out += [np.array(cert.violations), cert.checked, np.array(witnesses)]
            sets = np.array([[-1, -1, -1], [4, -1, -1], [4, 7, -1], [0, 2, 5], [7, 7, 1]])
            out.append(closure_masks(M, [1, 4], sets, pfs, max_solutions=M.size))
            return out

        whole = reduced()
        shrink_budget(budget)
        for one_block, blocked in zip(whole, reduced(), strict=True):
            assert np.array_equal(one_block, blocked)


class TestGridCoverageWork:
    @pytest.mark.parametrize(
        "text, mu",
        [
            ("exists z. z*z*z*z = x + x - y", 0.2),
            ("exists z. z*z = x + x - y", None),
            ("!(x + x = y)", None),
        ],
        ids=["quarter", "half", "cofinite"],
    )
    def test_each_column_is_evaluated_at_most_twice_per_phase(
        self, profiled, shrink_budget, monkeypatch, text, mu
    ):
        # the first count evaluates every column over the universe; each step
        # evaluates its own row over Y, then the columns it covered or, when
        # fewer, the columns left: at most n |Ψ| + Σ_t (|Y_t| + n min(|C_t|,
        # |Y_t+1|)) cells of the cover formula, and so at most 2 n |Ψ| + Σ_t |Y_t|
        fam = [make_prime_field(p) for p in primes_in(101, 199) if p % 4 == 1]
        M = fam[-1]
        assert M.size == 197
        cover = parse_formula(text, M.sig)
        xz = parse_formula("x = z", M.sig)
        cfg = derive_config(profiled(fam, [cover]), profiled(fam, [xz]), mu)
        assert kernel(M, cover) is None
        cells = []
        grid = hgreedy.solution_mask_matrix

        def counting(M, pf, cols, rows=None):
            out = grid(M, pf, cols, rows)
            if pf.text == cover.text:
                cells.append(out.size)
            return out

        shrink_budget(1000)
        monkeypatch.setattr(hgreedy, "solution_mask_matrix", counting)
        state = _phase_state(cfg, M, 0, [], [])
        assert isinstance(state.coverage, GridCoverage)
        sizes = []
        while state.remaining:
            sizes.append(state.remaining)
            greedy_step(state, M)
        n, psi, after = M.size, state.coverage.cols.shape[1], sizes[1:] + [0]
        cheaper = sum(n * min(y - y1, y1) for y, y1 in zip(sizes, after))
        assert sum(cells) <= n * psi + sum(sizes) + cheaper
        assert sum(cells) <= 2 * n * psi + sum(sizes)

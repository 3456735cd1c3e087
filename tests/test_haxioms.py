import dataclasses
import itertools
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import hlab
from hlab import haxioms, hgreedy
from hlab._util import dump_json
from hlab.asymptotics import large_columns, profile_family
from hlab.cli import main
from hlab.errors import EnumerationBudgetError, InvariantError
from hlab.finitemodels import make_cyclic_group, make_prime_field, primes_in
from hlab.folang import kernel, parse_formula, solution_set, within_budget
from hlab.hsequence import closure
from hlab.hgreedy import BEST_EFFORT, STRICT, build_h, derive_config
from hlab.haxioms import (
    SCOPE_NOTE,
    _draw_samples,
    check_density,
    check_extension,
    check_independence,
    run_axiom_checks,
)

from helpers import certified, evaluate
from test_golden import CONFIGS, SQUARE_SHIFT


def replay_extension(M, h, profiles, gamma, *, samples, base_max, seed, gamma_max_solutions):
    """check_extension's failures the slow way: the same draws from
    _draw_samples, then one sample at a time, each judged by solution_set
    and closure."""
    rng = np.random.default_rng([seed, M.size, 3])
    usable = []
    for prof in profiles:
        psi = large_columns(M, prof, rng, 10 * samples)
        if psi.width:
            usable.append((prof.pf, psi))
    if not usable:
        return []
    widths = np.array([psi.width for _, psi in usable])
    formula, column, base_n, base = _draw_samples(rng, widths, M.size, samples, base_max)
    failures = []
    for j in range(samples):
        pf, psi = usable[formula[j]]
        params = [int(v) for v in psi.take(np.array([column[j]]))[0][:, 0]]
        row = [int(v) for v in base[j, : base_n[j]]]
        clos = closure(M, h, params + row, gamma, max_solutions=gamma_max_solutions)
        if set(solution_set(M, pf, params)) <= set(clos):
            failures.append({"formula": pf.text, "params": params, "base": row})
    return failures


def assert_matches_replay(M, h, profiles, gamma, **kw):
    frag = check_extension(M, h, profiles, gamma, **kw)
    assert frag["failures"] == replay_extension(M, h, profiles, gamma, **kw)
    assert frag["passed"] == (not frag["failures"])
    return frag


@pytest.fixture(scope="module")
def gf101_build(profiled):
    fam = [make_prime_field(p) for p in primes_in(61, 151)]
    sig = fam[0].sig
    sq = parse_formula("exists z. z*z = x - y", sig)
    xz = parse_formula("x = z", sig)
    cfg = derive_config(profiled(fam, [sq]), profiled(fam, [xz]), 0.49)
    M = [m for m in fam if m.size == 101][0]
    h, report = build_h(M, cfg, STRICT)
    assert report.all_passed
    return M, h.elements, cfg


class TestIndependence:
    def test_builder_output_passes_order_restricted(self, gf101_build):
        M, h, cfg = gf101_build
        frag = check_independence(certified(M, h, gamma=cfg.gamma).avoid)
        assert frag["order_restricted"]["passed"]

    def test_symmetric_witness_reported(self, z13):
        xz1 = parse_formula("x = z + 1", z13.sig)
        frag = check_independence(certified(z13, [0, 1], gamma=[xz1]).avoid)
        # 1 = 0 + 1 is a symmetric witness but not an order violation for [1, 0]
        assert frag["symmetric"]["witness_count"] == 1
        assert frag["symmetric"]["witnesses"] == [["x = z + 1", 1, 0]]
        reversed_frag = check_independence(certified(z13, [1, 0], gamma=[xz1]).avoid)
        assert reversed_frag["symmetric"]["witness_count"] == 1
        assert reversed_frag["order_restricted"]["passed"]

    def test_singleton_vacuous(self, z13):
        xz1 = parse_formula("x = z + 1", z13.sig)
        frag = check_independence(certified(z13, [5], gamma=[xz1]).avoid)
        assert frag["order_restricted"]["passed"]
        assert frag["symmetric"]["witness_count"] == 0


def naive_independence(M, h, pf):
    """The order-restricted violations, the number of tuples that check
    reads, and the symmetric witnesses, one assignment at a time."""
    violations, checked, symmetric = [], 0, []
    for i, x in enumerate(h):
        for positions in itertools.product(range(len(h)), repeat=pf.arity):
            params = [h[p] for p in positions]
            hit = evaluate(M, pf.formula, {pf.object_var: x, **dict(zip(pf.params, params))})
            if all(p < i for p in positions):
                checked += 1
                violations += [(x, *params)] if hit else []
            if hit and all(p != i for p in positions):
                symmetric.append([pf.text, x, *params])
    return violations, checked, symmetric


class TestIndependenceGrid:
    @pytest.mark.parametrize("h", [[], [5], [3, 0, 7, 1], [2, 9, 4, 12, 6]])
    def test_matches_naive(self, z13, h):
        for text in ("x = 0", "x = z + 1", "x = z1 + z2", "x = z1 + z2 - z3"):
            pf = parse_formula(text, z13.sig)
            frag = check_independence(certified(z13, h, gamma=[pf]).avoid)
            violations, checked, symmetric = naive_independence(z13, h, pf)
            cert = frag["order_restricted"]["per_formula"][0]
            assert (cert["violations"], cert["checked"]) == (violations, checked), text
            assert frag["order_restricted"]["passed"] == (not violations)
            assert frag["symmetric"]["witness_count"] == len(symmetric)
            assert frag["symmetric"]["witnesses"] == symmetric[:100]


class TestDensity:
    def test_builder_output_zero_failures(self, gf101_build):
        M, h, cfg = gf101_build
        frag = check_density(certified(M, h, cfg.delta_profiles).cover)
        assert frag["passed"]
        assert frag["n_failures"] == 0
        assert frag["per_formula"][0]["method"] == "exhaustive"

    def test_empty_h_fails_on_every_large_tuple(self, gf101_build):
        M, _, cfg = gf101_build
        frag = check_density(certified(M, [], cfg.delta_profiles).cover)
        assert not frag["passed"]
        assert frag["n_failures"] == M.size  # every tuple is large here

    def test_algebraic_parameters_skipped(self, profiled):
        fam = [make_cyclic_group(n) for n in range(21, 41)]
        sig = fam[0].sig
        neq = parse_formula("!(x = y)", sig)
        eq = parse_formula("x = y", sig)
        xz = parse_formula("x = z", sig)
        cfg = derive_config(profiled(fam, [neq, eq]), profiled(fam, [xz]), 0.4)
        M = fam[-1]
        h = build_h(M, cfg, BEST_EFFORT)[0].elements
        frag = check_density(certified(M, h, cfg.delta_profiles).cover)
        assert frag["passed"]
        # the equality formula has no large tuples, so nothing was checked
        eq_cert = frag["per_formula"][1]
        assert eq_cert["checked"] == 0


class TestExtension:
    def test_builder_output_passes(self, gf101_build):
        M, h, cfg = gf101_build
        frag = check_extension(
            M, h, cfg.delta_profiles, cfg.gamma,
            samples=300, base_max=3, seed=0,
            gamma_max_solutions=cfg.gamma_max_solutions,
        )
        assert frag["passed"]
        assert frag["n_samples"] == 300
        # 51 solutions against a closure of at most |H| + |A| + 1 elements
        assert frag["sufficient_bound_ok"] is True
        assert frag["min_large_count"] == 51

    def test_whole_universe_h_fails(self, gf101_build):
        M, _, cfg = gf101_build
        frag = check_extension(
            M, list(range(M.size)), cfg.delta_profiles, cfg.gamma,
            samples=50, base_max=3, seed=0,
            gamma_max_solutions=cfg.gamma_max_solutions,
        )
        assert not frag["passed"]
        assert len(frag["failures"]) == 50

    def test_deterministic_given_seed(self, gf101_build):
        M, h, cfg = gf101_build
        kw = dict(samples=100, base_max=3, seed=11,
                  gamma_max_solutions=cfg.gamma_max_solutions)
        a = check_extension(M, h, cfg.delta_profiles, cfg.gamma, **kw)
        b = check_extension(M, h, cfg.delta_profiles, cfg.gamma, **kw)
        assert dump_json(a) == dump_json(b)

    def test_swallowing_closure_detected(self, profiled):
        # five shift formulas over a 9-element group swallow whole solution
        # sets; the profiling family must include the small sizes so that the
        # fitted envelope covers them
        fam = [make_cyclic_group(n) for n in range(9, 41)]
        sig = fam[0].sig
        neq = parse_formula("!(x = y)", sig)
        shifts = [parse_formula(f"x = z + {k}", sig) for k in range(5)]
        cfg = derive_config(profiled(fam, [neq]), profiled(fam, shifts), 0.4)
        M = fam[0]
        h = build_h(M, cfg, BEST_EFFORT)[0].elements
        frag = check_extension(
            M, h, cfg.delta_profiles, cfg.gamma,
            samples=100, base_max=3, seed=0,
            gamma_max_solutions=cfg.gamma_max_solutions,
        )
        assert not frag["passed"]
        assert frag["sufficient_bound_ok"] is False
        assert frag["failures"] == replay_extension(
            M, h, cfg.delta_profiles, cfg.gamma,
            samples=100, base_max=3, seed=0,
            gamma_max_solutions=cfg.gamma_max_solutions,
        )


class TestExtensionMemory:
    def test_peak_far_below_one_grid(self, profiled):
        # one |M| x 500 bool grid over GF(100003) is 50 MB; the closures'
        # member lists and the (member, tuple) pairs are a few thousand ints
        fam = [make_prime_field(p) for p in (100003, 100019)]
        sig = fam[0].sig
        sq = parse_formula("exists z. z*z = x - y", sig)
        avoid = [parse_formula(t, sig) for t in ("x = z", "x = z + 1")]
        cfg = derive_config(profiled(fam, [sq]), profiled(fam, avoid), 0.49)
        M = fam[0]
        kw = dict(base_max=3, seed=0, gamma_max_solutions=cfg.gamma_max_solutions)
        h = list(range(0, 34, 2))
        # a first call caches the kernel record and the image mask on M
        check_extension(M, h, cfg.delta_profiles, cfg.gamma, samples=5, **kw)
        tracemalloc.start()
        try:
            frag = check_extension(M, h, cfg.delta_profiles, cfg.gamma, samples=500, **kw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert frag["passed"] and frag["n_samples"] == 500
        assert peak < 4 * 2**20


class TestNonUnaryClosure:
    def test_extension_with_binary_avoid_formula(self, profiled):
        fam = [make_cyclic_group(n) for n in range(21, 41)]
        sig = fam[0].sig
        neq = parse_formula("!(x = y)", sig)
        pairsum = parse_formula("x = z1 + z2", sig, params=("z1", "z2"))
        cfg = derive_config(profiled(fam, [neq]), profiled(fam, [pairsum]), 0.4)
        M = fam[-1]
        h_set, report = build_h(M, cfg, BEST_EFFORT)
        assert report.all_passed
        frag = assert_matches_replay(
            M, h_set.elements, cfg.delta_profiles, cfg.gamma,
            samples=25, base_max=2, seed=0,
            gamma_max_solutions=cfg.gamma_max_solutions,
        )
        # |H| = 2 on this family, so the closure has at most (2+2+1)^2 = 25
        # elements against 39 solutions: no sample can fail
        assert frag["n_samples"] == 25
        assert frag["closure_bound"] == 25
        assert frag["passed"] and frag["sufficient_bound_ok"]


@pytest.fixture(scope="module")
def z_small():
    """Cyclic groups 9..20 and two cover formulas profiled over them."""
    family = [make_cyclic_group(n) for n in range(9, 21)]
    sig = family[0].sig
    cover = [parse_formula("!(x = y)", sig), parse_formula("exists z. x = y + z + z", sig)]
    return family, [profile_family(family, pf) for pf in cover]


# avoid lists of arities 0 to 3 over the cyclic signature; each formula has
# one solution at every tuple, so their B is 1
REPLAY_AVOID = [
    ["x = 0"],
    ["x = z", "x = z + 1"],
    ["x = z1 + z2"],
    ["x = 0", "x = z1 + z2 - z3"],
]


class TestExtensionReplay:
    @pytest.mark.parametrize("avoid", REPLAY_AVOID, ids=lambda texts: " ; ".join(texts))
    @pytest.mark.parametrize("size", [9, 12, 13])
    @pytest.mark.parametrize("h", [[], [0, 1, 3], [2, 5]])
    def test_matches_per_sample_replay(self, z_small, avoid, size, h):
        family, profiles = z_small
        M = family[size - 9]
        gamma = [parse_formula(t, M.sig) for t in avoid]
        assert_matches_replay(
            M, h, profiles, gamma,
            samples=30, base_max=3, seed=size, gamma_max_solutions=1,
        )

    def test_some_replayed_samples_fail(self, z_small):
        family, profiles = z_small
        M = family[13 - 9]
        gamma = [parse_formula("x = z1 + z2", M.sig)]
        frag = assert_matches_replay(
            M, [0, 1, 3], profiles, gamma,
            samples=40, base_max=3, seed=2, gamma_max_solutions=1,
        )
        assert 0 < len(frag["failures"]) < 40

    def test_small_blocks_match_per_sample_replay(self, z_small, shrink_budget):
        # 36 cells over Z_12 is three samples per block, so some blocks mix
        # the two cover formulas, whose solution sets differ on Z_12 (M minus
        # a point against a coset of 2Z_12), and failing samples fall in
        # several blocks
        family, profiles = z_small
        M = family[12 - 9]
        gamma = [parse_formula("x = z1 + z2", M.sig)]
        shrink_budget(36)
        frag = assert_matches_replay(
            M, [0, 1, 3], profiles, gamma,
            samples=40, base_max=3, seed=2, gamma_max_solutions=1,
        )
        assert 0 < len(frag["failures"]) < 40


@pytest.fixture(scope="module")
def z_small_grid(z_small):
    """The same groups, profiled for a cover formula off the kernel rule."""
    family, _ = z_small
    pf = parse_formula("!(x + x = y)", family[0].sig)
    return family, profile_family(family, pf)


class TestExtensionReplayRoutes:
    @pytest.mark.parametrize("avoid", REPLAY_AVOID, ids=lambda texts: " ; ".join(texts))
    @pytest.mark.parametrize("size", [9, 12, 13])
    def test_grid_cover_formula_matches_replay(self, z_small_grid, avoid, size):
        # x enters with coefficient 2, so the samples' counts are the
        # profile's stored counts and not a kernel's |G|
        family, prof = z_small_grid
        M = family[size - 9]
        assert kernel(M, prof.pf) is None
        gamma = [parse_formula(t, M.sig) for t in avoid]
        assert_matches_replay(
            M, [0, 1, 3], [prof], gamma,
            samples=30, base_max=3, seed=size, gamma_max_solutions=1,
        )

    def test_sampled_route_matches_replay(self):
        # 222**3 tuples are past the budget, so the large tuples come from a
        # seeded sample; with H the even elements, every sample whose
        # solution coset is 2Z_222 is swallowed by clos(H) under x = z
        M = make_cyclic_group(222)
        assert not within_budget(M.size**3)
        family = [make_cyclic_group(n) for n in range(21, 28)]
        prof = profile_family(family, parse_formula("exists v. x = y + z + w + v + v", M.sig))
        xz = parse_formula("x = z", M.sig)
        frag = assert_matches_replay(
            M, list(range(0, M.size, 2)), [prof], [xz],
            samples=50, base_max=3, seed=3, gamma_max_solutions=1,
        )
        assert 0 < len(frag["failures"]) < 50


class TestDrawSamples:
    def test_bases_distinct_in_range_and_padded(self):
        rng = np.random.default_rng(4)
        for n, base_max in [(7, 7), (13, 3), (1, 1), (5, 0)]:
            formula, column, base_n, base = _draw_samples(rng, np.array([3, 1]), n, 2000, base_max)
            assert base.shape == (2000, base_max)
            assert ((0 <= formula) & (formula < 2)).all()
            assert ((0 <= column) & (column < np.array([3, 1])[formula])).all()
            assert ((0 <= base_n) & (base_n <= base_max)).all()
            for row, k in zip(base, base_n):
                assert (row[k:] == -1).all()
                assert len(set(row[:k])) == k and all(0 <= v < n for v in row[:k])

    def test_uniform_frequencies(self):
        # n = 5, base_max = 3: every count must lie within 5 binomial
        # standard deviations of its uniform expectation
        draws = 60_000
        widths = np.array([2, 3])
        rng = np.random.default_rng(11)
        formula, column, base_n, base = _draw_samples(rng, widths, 5, draws, 3)

        def assert_uniform(values, cells):
            total = len(values)
            p = 1 / len(cells)
            tol = 5 * np.sqrt(total * p * (1 - p))
            counts = {cell: 0 for cell in cells}
            for v in values:
                counts[v] += 1  # a value outside `cells` raises KeyError
            for cell, count in counts.items():
                assert abs(count - total * p) <= tol, (cell, count, total * p)

        assert_uniform(formula.tolist(), [0, 1])
        for f, width in enumerate(widths):
            assert_uniform(column[formula == f].tolist(), list(range(width)))
        assert_uniform(base_n.tolist(), [0, 1, 2, 3])
        for k in range(4):
            rows = base[base_n == k, :k]
            # every k-subset, and every ordering of it, equally often
            assert_uniform([frozenset(r) for r in rows.tolist()],
                           [frozenset(c) for c in itertools.combinations(range(5), k)])
            assert_uniform([tuple(r) for r in rows.tolist()],
                           list(itertools.permutations(range(5), k)))

    def test_generator_calls_do_not_grow_with_samples(self, gf101_build, monkeypatch):
        M, h, cfg = gf101_build
        made = []

        class CountingGenerator:
            def __init__(self, rng):
                self.rng, self.calls = rng, 0
                made.append(self)

            def __getattr__(self, name):
                method = getattr(self.rng, name)

                def counted(*args, **kwargs):
                    self.calls += 1
                    return method(*args, **kwargs)

                return counted

        real = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda seed: CountingGenerator(real(seed)))
        for samples in (10, 1000):
            frag = check_extension(
                M, h, cfg.delta_profiles, cfg.gamma,
                samples=samples, base_max=3, seed=0,
                gamma_max_solutions=cfg.gamma_max_solutions,
            )
            assert frag["n_samples"] == samples
        assert len(made) == 2
        assert made[0].calls == made[1].calls == 3 + 3


class TestExtensionUnionBound:
    def test_unary_avoid_bound_fires(self, gf101_build):
        # a max solution count of 0 makes every non-empty closure exceed the
        # union bound; unary avoid lists are checked like any other. The
        # axiom checks read B from the config, that is from its avoid profiles
        M, h, cfg = gf101_build
        with pytest.raises(InvariantError, match="union bound"):
            check_extension(
                M, h, cfg.delta_profiles, cfg.gamma,
                samples=5, seed=0, gamma_max_solutions=0,
            )
        # the axiom checks name the structure and the check
        with pytest.raises(InvariantError) as err:
            run_axiom_checks(
                M, certified(M, h, cfg.delta_profiles, cfg.gamma),
                dataclasses.replace(cfg, gamma_profiles=tuple(dataclasses.replace(p, B=0) for p in cfg.gamma_profiles)),
                extension_samples=5,
            )
        assert str(err.value).startswith(
            "prime-field(p=101), step extension: avoid formulas ['x = z'], closure of H plus"
        )

    def test_swallowed_sample_under_the_sufficient_bound(self, gf101_build, monkeypatch):
        # closures that hold the whole universe swallow every sample, which
        # the closure bound below the smallest large count rules out
        M, h, cfg = gf101_build

        def everything(M, h, sets, gamma, **_):
            return np.arange(len(sets) * M.size)

        monkeypatch.setattr("hlab.haxioms.closures", everything)
        with pytest.raises(InvariantError) as err:
            run_axiom_checks(M, certified(M, h, cfg.delta_profiles, cfg.gamma), cfg, extension_samples=5)
        message = str(err.value)
        assert message.startswith(
            "prime-field(p=101), formula 'exists z. z*z = x - y', step extension: extension sample with params ["
        )
        assert message.endswith(f"is below the smallest large count {(M.size + 1) // 2}")

    def test_unary_avoid_bound_fires_under_optimize(self):
        code = (
            "import sys\n"
            "from hlab.errors import InvariantError\n"
            "from hlab.asymptotics import profile_family\n"
            "from hlab.finitemodels import make_cyclic_group\n"
            "from hlab.folang import parse_formula\n"
            "from hlab.haxioms import check_extension\n"
            "assert False, 'asserts must be off under -O'\n"
            "fam = [make_cyclic_group(n) for n in range(9, 21)]\n"
            "pf = parse_formula('!(x = y)', fam[0].sig)\n"
            "xz = parse_formula('x = z', fam[0].sig)\n"
            "prof = profile_family(fam, pf)\n"
            "try:\n"
            "    check_extension(fam[4], [0, 1], [prof], [xz], samples=5, gamma_max_solutions=0)\n"
            "except InvariantError as exc:\n"
            "    sys.exit(7 if 'union bound' in str(exc) else 3)\n"
        )
        src = os.path.dirname(os.path.dirname(hlab.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, timeout=120)
        assert proc.returncode == 7


class TestAxiomReport:
    def test_full_report(self, gf101_build):
        M, _, cfg = gf101_build
        build = build_h(M, cfg, STRICT)[1]
        report = run_axiom_checks(M, build, cfg, extension_samples=200, seed=3)
        assert report.passed
        assert report.scope == SCOPE_NOTE
        d = report.to_json_dict()
        assert d["size"] == 101
        assert d["independence"]["order_restricted"]["passed"]
        assert d["density"]["passed"]
        assert d["extension"]["passed"]
        assert list(report.failure_csv_rows()) == []

    def test_json_dict_matches_asdict(self, gf101_build):
        M, h, cfg = gf101_build
        report = run_axiom_checks(M, certified(M, h, cfg.delta_profiles, cfg.gamma), cfg, extension_samples=50, seed=3)
        reference = {**dataclasses.asdict(report), "passed": report.passed}
        d = report.to_json_dict()
        assert d == reference
        d.clear()
        assert report.to_json_dict() == reference

    def test_density_error_names_the_cover_formula(self, shrink_budget):
        # x*y is no translation kernel, so its Ψ is enumerated; density is
        # the build's cover certificate, so past a budget below 101 tuples
        # the build fails as it sets up the phase, naming the cover formula
        fam = [make_prime_field(p) for p in primes_in(61, 101)]
        cover = parse_formula("exists z. z*z = x*y", fam[0].sig)
        xz = parse_formula("x = z", fam[0].sig)
        cfg = derive_config([profile_family(fam, cover)], [profile_family(fam, xz)], 0.2)
        shrink_budget(100)
        with pytest.raises(EnumerationBudgetError) as err:
            build_h(fam[-1], cfg, BEST_EFFORT)
        assert str(err.value) == (
            "prime-field(p=101), formula 'exists z. z*z = x*y': "
            "psi enumeration needs 101 tuples, over the budget"
        )

    def test_failure_rows_present_when_failing(self, gf101_build):
        M, _, cfg = gf101_build
        report = run_axiom_checks(M, certified(M, [], cfg.delta_profiles, cfg.gamma), cfg, extension_samples=10, seed=3)
        assert not report.passed
        rows = list(report.failure_csv_rows())
        assert rows
        assert all(row[1] in {"density", "extension", "independence"} for row in rows)


def run_cli(tmp_path, command, config, *argv):
    """main on `config` written to tmp_path, into tmp_path / command; the
    exit code and the command's one JSON report."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / command
    rc = main([command, "--config", str(path), "--out", str(out), *argv])
    return rc, json.loads((out / f"{command}.json").read_text())


class TestCertificatesFromTheBuild:
    def test_axioms_evaluates_each_certificate_once(self, tmp_path, monkeypatch):
        # one verify_cover call per (structure, cover formula) and one grid
        # over H per (structure, avoid formula), each H small enough for one
        # block: the density and independence sections are the build's
        # certificates, not a second pass
        covers, grids = [], []
        verify_cover, grid = hgreedy.verify_cover, hgreedy.solution_mask_matrix

        def counted_cover(M, elements, profile):
            covers.append((M.size, profile.pf.text))
            return verify_cover(M, elements, profile)

        def counted_grid(M, pf, cols, rows=None):
            grids.append((M.size, pf.text))
            return grid(M, pf, cols, rows)

        for module in (hgreedy, haxioms):
            if hasattr(module, "verify_cover"):
                monkeypatch.setattr(module, "verify_cover", counted_cover)
        monkeypatch.setattr(hgreedy, "solution_mask_matrix", counted_grid)
        rc, axioms = run_cli(tmp_path, "axioms", SQUARE_SHIFT, "--threads", "1")
        assert rc == 0
        sizes = [r["size"] for r in axioms["reports"]]
        assert len(sizes) == 21 and axioms["skipped_sizes"] == []
        assert sorted(covers) == sorted((n, text) for n in sizes for text in SQUARE_SHIFT["cover"])
        assert sorted(grids) == sorted((n, text) for n in sizes for text in SQUARE_SHIFT["avoid"])

    @pytest.mark.parametrize(
        "config, structures", [(SQUARE_SHIFT, 21), ("cyclic_doubling.json", 56)], ids=["square_shift", "cyclic_doubling"]
    )
    def test_density_and_independence_are_the_build_certificates(self, tmp_path, config, structures):
        if isinstance(config, str):
            with open(os.path.join(CONFIGS, config)) as fh:
                config = json.load(fh)
        _, build = run_cli(tmp_path, "build", config, "--threads", "2")
        _, axioms = run_cli(tmp_path, "axioms", config, "--threads", "2")
        assert [r["size"] for r in axioms["reports"]] == [b["size"] for b in build["builds"]]
        assert len(build["builds"]) == structures
        for report, built in zip(axioms["reports"], build["builds"], strict=True):
            assert report["density"]["per_formula"] == built["cover"]
            assert report["independence"]["order_restricted"]["per_formula"] == built["avoid"]

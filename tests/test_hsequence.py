import math
import os
import subprocess
import sys

import pytest

import hlab
from hlab import asymptotics, hgreedy, hsequence
from hlab._util import dump_json
from hlab.errors import ConfigRejectedError, InvariantError
from hlab.finitemodels import make_cyclic_group, make_prime_field, primes_in
from hlab.folang import parse_formula
from hlab.hgreedy import derive_config
from hlab.hsequence import (
    COARSE_DIM,
    FormulaSchedule,
    build_sequence,
    closure,
    coarse_dimension_series,
    schedule_in,
)


@pytest.fixture(scope="module")
def prime_family_499():
    return [make_prime_field(p) for p in primes_in(101, 499)]


@pytest.fixture(scope="module")
def schedule(profiled):
    """schedule(family): the square-shift schedule, profiled over family."""

    def make(family):
        sig = family[0].sig
        cover = [parse_formula("exists z. z*z = x - y", sig), parse_formula("!(x = y)", sig)]
        avoid = [parse_formula("x = z", sig), parse_formula("x = z + 1", sig)]
        return FormulaSchedule(tuple(profiled(family, cover)), tuple(profiled(family, avoid)))

    return make


@pytest.fixture(scope="module")
def built_plan(prime_family_499, schedule):
    plan = schedule_in(prime_family_499, schedule(prime_family_499), 0.4)
    return build_sequence(plan)


class TestScheduleIn:
    def test_levels_monotone(self, built_plan):
        levels = [e.level for e in built_plan.entries]
        seen = -1
        for lv in levels:
            value = -1 if lv is None else lv
            assert value >= seen or value == seen
            seen = max(seen, value)

    def test_small_structures_unscheduled(self, built_plan):
        assert built_plan.entries[0].level is None
        assert built_plan.entries[0].h_set is not None
        assert len(built_plan.entries[0].h_set) == 0

    def test_some_structures_scheduled(self, built_plan):
        assert any(e.level == 0 for e in built_plan.entries)

    def test_all_below_every_threshold(self, schedule):
        fam = [make_prime_field(p) for p in primes_in(23, 101)]
        plan = schedule_in(fam, schedule(fam), 0.4)
        assert all(e.level is None for e in plan.entries)
        build_sequence(plan)
        assert all(len(e.h_set) == 0 for e in plan.entries)

    def test_coarse_dim_never_exceeds_strict(self, prime_family_499, schedule):
        sched = schedule(prime_family_499)
        strict = schedule_in(prime_family_499, sched, 0.4)
        coarse = schedule_in(prime_family_499, sched, 0.4, mode=COARSE_DIM)
        for a, b in zip(strict.entries, coarse.entries):
            sa = -1 if a.level is None else a.level
            sb = -1 if b.level is None else b.level
            assert sb <= sa

    def test_configs_come_from_the_profiles_alone(self, prime_family_499, built_plan, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("profile_family called")

        for module in (hlab, asymptotics):
            monkeypatch.setattr(module, "profile_family", refuse)
        assert not hasattr(hgreedy, "profile_family")
        assert not hasattr(hsequence, "profile_family")
        sched = built_plan.schedule
        plan = schedule_in(prime_family_499, sched, 0.4)
        assert [e.level for e in plan.entries] == [e.level for e in built_plan.entries]
        for level, cfg in plan.configs.items():
            assert derive_config(*sched.truncation(level), 0.4).summary() == cfg.summary()

    def test_empty_schedule_rejected(self, built_plan):
        with pytest.raises(ConfigRejectedError):
            FormulaSchedule(cover=(), avoid=built_plan.schedule.avoid)


class TestBuildSequence:
    def test_certificates_attached_and_passing(self, built_plan):
        built = [e for e in built_plan.entries if e.level is not None]
        assert built
        for entry in built:
            assert entry.report is not None
            assert entry.report.all_passed
            assert all(c.passed for c in entry.report.cover)
            assert all(c.passed for c in entry.report.avoid)

    def test_single_structure_family(self, schedule):
        fam = [make_prime_field(p) for p in primes_in(101, 131)]
        plan = build_sequence(schedule_in(fam, schedule(fam), 0.4))
        assert len(plan.entries) == len(fam)

    def test_rerun_byte_identical(self, prime_family_499, schedule, built_plan):
        again = build_sequence(schedule_in(prime_family_499, schedule(prime_family_499), 0.4))
        assert dump_json(again.to_json_dict()) == dump_json(built_plan.to_json_dict())

    def test_threaded_build_identical(self, prime_family_499, schedule, built_plan):
        plan = schedule_in(prime_family_499, schedule(prime_family_499), 0.4)
        threaded = build_sequence(plan, threads=4)
        assert dump_json(threaded.to_json_dict()) == dump_json(built_plan.to_json_dict())


class TestClosure:
    def test_shift_example(self):
        z101 = make_cyclic_group(101)
        xz1 = parse_formula("x = z + 1", z101.sig)
        clos = closure(z101, [2, 7], [11], [xz1])
        assert clos.elements == [3, 8, 12]
        assert clos.base_size == 3
        assert clos.bound == 3
        assert len(clos) == 3

    def test_empty(self, z13):
        xz = parse_formula("x = z", z13.sig)
        clos = closure(z13, [], [], [xz])
        assert clos.elements == []

    def test_parameterless_contributes(self, z13):
        x0 = parse_formula("x = 0", z13.sig)
        clos = closure(z13, [], [], [x0])
        assert clos.elements == [0]
        assert clos.bound is not None and len(clos) <= clos.bound

    def test_bound_holds(self, z13):
        xz = parse_formula("x = z", z13.sig)
        xz1 = parse_formula("x = z + 1", z13.sig)
        for base in ([], [3], [3, 5], [0, 1, 2, 9]):
            clos = closure(z13, base, [12], [xz, xz1])
            assert len(clos) <= clos.bound

    def test_violated_bound_raises_typed_error(self, z13):
        xz1 = parse_formula("x = z + 1", z13.sig)
        with pytest.raises(InvariantError, match="closure"):
            closure(z13, [4], [], [xz1], max_solutions=0)

    def test_violated_bound_raises_under_optimize(self):
        code = (
            "import sys\n"
            "from hlab.errors import InvariantError\n"
            "from hlab.finitemodels import make_cyclic_group\n"
            "from hlab.folang import parse_formula\n"
            "from hlab.hsequence import closure\n"
            "assert False, 'asserts must be off under -O'\n"
            "M = make_cyclic_group(13)\n"
            "try:\n"
            "    closure(M, [4], [], [parse_formula('x = z + 1', M.sig)], max_solutions=0)\n"
            "except InvariantError:\n"
            "    sys.exit(7)\n"
        )
        src = os.path.dirname(os.path.dirname(hlab.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, timeout=120)
        assert proc.returncode == 7

    def test_membership(self, z13):
        xz1 = parse_formula("x = z + 1", z13.sig)
        clos = closure(z13, [4], [], [xz1])
        assert 5 in clos
        assert 4 not in clos


class TestCoarseDimension:
    def test_ratio_arithmetic(self, built_plan):
        series = coarse_dimension_series(built_plan)
        for size, h_size, ratio in series.rows:
            if h_size <= 1:
                assert ratio == 0.0
            else:
                assert ratio == pytest.approx(math.log(h_size) / math.log(size))

    def test_example_value(self):
        assert math.log(2) / math.log(13) == pytest.approx(0.2702, abs=1e-4)

    def test_unbuilt_entries_ratio_zero(self, built_plan):
        series = coarse_dimension_series(built_plan)
        for (size, h_size, ratio), entry in zip(series.rows, built_plan.entries):
            if entry.level is None:
                assert h_size == 0 and ratio == 0.0

    def test_windowed_trend_nonincreasing(self, built_plan):
        series = coarse_dimension_series(built_plan)
        assert series.first_window_avg is not None
        assert series.nonincreasing
        assert series.last_window_avg <= series.first_window_avg

    def test_csv_rows(self, built_plan):
        rows = list(coarse_dimension_series(built_plan).csv_rows())
        assert rows[0] == ("size", "h_size", "ratio")
        assert len(rows) == len(built_plan.entries) + 1

    def test_no_builds_series(self, schedule):
        fam = [make_prime_field(p) for p in primes_in(23, 101)]
        plan = build_sequence(schedule_in(fam, schedule(fam), 0.4))
        series = coarse_dimension_series(plan)
        assert series.first_window_avg is None
        assert all(r[2] == 0.0 for r in series.rows)

import contextlib
import dataclasses
import gc
import importlib
import inspect
import io
import json
import os
import pkgutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hlab
from hlab import cli
from hlab._util import atomic_write_text
from hlab.cli import load_config, main
from hlab.errors import ExperimentConfigError, InvariantError
from hlab.finitemodels import FAMILIES
from helpers import digest_tree
from test_golden import CONFIGS, SQUARE_SHIFT


MISSING = object()  # a write_config override that drops the key


def write_config(tmp_path, name="exp.json", **overrides):
    cfg = {
        "family": {"family": "prime-field", "lo": 101, "hi": 181},
        "cover": ["exists z. z*z = x - y"],
        "avoid": ["x = z"],
        "mu": 0.49,
        "seed": 7,
        "mode": "strict",
        "out_dir": str(tmp_path / "default-out"),
        "extension_samples": 100,
    }
    cfg.update(overrides)
    cfg = {k: v for k, v in cfg.items() if v is not MISSING}
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestLoadConfig:
    def test_happy_path(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        assert cfg.mu == 0.49
        assert cfg.cover[0].params == ("y",)

    def test_unknown_top_level_key(self, tmp_path):
        path = write_config(tmp_path, bogus=1)
        with pytest.raises(ExperimentConfigError):
            load_config(path)
        # the density check shares the one evaluation budget; it has no key
        with pytest.raises(ExperimentConfigError, match="density_budget"):
            load_config(write_config(tmp_path, density_budget=10))

    def test_unknown_family_key(self, tmp_path):
        path = write_config(tmp_path, family={"family": "prime-field", "low": 3})
        with pytest.raises(ExperimentConfigError):
            load_config(path)
        # the polynomial rule had a single legal value and is no longer a key
        family = {"family": "quadratic-extension-field", "values": [3, 5], "poly_rule": "conway"}
        with pytest.raises(ExperimentConfigError):
            load_config(write_config(tmp_path, family=family))

    def test_unknown_family_tag(self, tmp_path):
        path = write_config(tmp_path, family={"family": "octonions", "lo": 3, "hi": 5})
        with pytest.raises(ExperimentConfigError):
            load_config(path)

    def test_bad_formula_rejected_before_work(self, tmp_path):
        path = write_config(tmp_path, cover=["exists z. z*z = x -"])
        with pytest.raises(Exception):
            load_config(path)

    def test_bad_mode(self, tmp_path):
        path = write_config(tmp_path, mode="yolo")
        with pytest.raises(ExperimentConfigError):
            load_config(path)

    def test_formula_object_form(self, tmp_path):
        path = write_config(
            tmp_path,
            cover=[{"text": "exists z. z*z = x - y", "object": "x", "params": ["y"]}],
        )
        cfg = load_config(path)
        assert cfg.cover[0].params == ("y",)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ExperimentConfigError):
            load_config(str(path))

    def test_bad_value_type(self, tmp_path, capsys, shrink_budget):
        lovely = {"family": "quadratic-extension-field", "lo": 3, "hi": "b"}
        huge = {"family": "cyclic-group", "lo": 10**30, "hi": 10**30}
        shrink_budget(1000)  # so a values list past the budget stays small
        cases = [
            {"threads": "many"},
            {"family": {"family": "prime-field", "values": 5}},
            {"family": {"family": "prime-field", "values": ["a"]}},
            {"family": {"family": "prime-field", "lo": "a", "hi": 181}},
            {"family": {"family": "prime-field", "lo": 101, "hi": 10**30}},
            {"family": huge},
            {"family": {"family": "cyclic-group", "values": [5, 10**30]}},
            {"family": {"family": "prime-field", "values": list(range(1001))}},
            {"cover": 5},
            {"cover": [{"text": "exists z. z*z = x - y", "params": 5}]},
            {"cover": [{"text": "x = y + z", "params": "zy"}]},  # not read as ("z", "y")
            {"cover": [{"text": "x = y + z", "params": ["z", 1]}]},
            {"cover": [{"text": "x = y", "object": 5}]},
            {"gap": 2},
            {"gap": 0},
            {"ceiling": 0},
            {"ceiling": -1.0},
            {"ceiling": float("inf")},
            {"family": lovely, "cover": [], "avoid": []},
        ]
        for overrides in cases:
            path = write_config(tmp_path, **overrides)
            with pytest.raises(ExperimentConfigError) as caught:
                load_config(path)
            if overrides.get("family", {}).get("hi") == 10**30:
                assert "hi=" in str(caught.value)
        # the last case through the CLI: a message and exit 2, no traceback
        assert main(["lovely-pair", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        # a gap outside (0, 1) would profile every formula as algebraic and
        # certify nothing, and a ceiling must be positive and finite
        for key, value, message in [
            ("gap", 2, "gap must lie strictly between 0 and 1, got 2.0"),
            ("ceiling", float("nan"), "ceiling must be positive and finite, got nan"),
        ]:
            path = write_config(tmp_path, **{key: value})
            assert main(["build", "--config", path, "--out", str(tmp_path / "o")]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"
        # so is a parameter no int64 holds
        path = write_config(tmp_path, family=huge)
        assert main(["profile", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error: family lo=")
        # a bool field takes only true or false; an int field refuses
        # booleans, strings and fractions
        typed = [
            {"sweep_a1": "false"},
            {"sweep_a1": 0},
            {"emit_counts": 1},
            {"seed": 2.9},
            {"seed": "3"},
            {"threads": True},
            {"window": False},
            {"family": {"family": "prime-field", "lo": True, "hi": 181}},
            {"family": {"family": "prime-field", "lo": 101, "hi": 180.5}},
            {"family": {"family": "prime-field", "values": [101, 103.5]}},
            {"family": {"family": "prime-field", "values": [101, False]}},
        ]
        for overrides in typed:
            path = write_config(tmp_path, **overrides)
            assert main(["profile", "--config", path, "--out", str(tmp_path / "o")]) == 2
            assert capsys.readouterr().err.startswith("error: bad value in config"), overrides
        # integral numbers still load as ints
        cfg = load_config(write_config(tmp_path, seed=3.0, threads=2))
        assert (cfg.seed, cfg.threads) == (3, 2) and type(cfg.seed) is int

    def test_universe_past_the_budget_is_exit_2(self, tmp_path, capsys, monkeypatch):
        # the budget bounds each member's universe, not only its parameter:
        # GF(99991^2) has about 10^10 elements and F2^40 has 2^40, and
        # both are refused before any structure is built
        def refuse(spec):
            raise AssertionError(f"{spec} was enumerated")

        monkeypatch.setattr(cli, "enumerate_family", refuse)
        for command, family in [
            ("lovely-pair", {"family": "quadratic-extension-field", "values": [99991]}),
            ("profile", {"family": "f2-vector-space", "values": [39, 40]}),
            ("profile", {"family": "f2-vector-space", "lo": 20, "hi": 24}),
        ]:
            path = write_config(tmp_path, family=family, cover=["!(x = y)"])
            assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
            assert capsys.readouterr().err.endswith("a larger universe, than the evaluation budget\n")
        # the largest universes within it load
        for family in [
            {"family": "quadratic-extension-field", "values": [3, 3161]},
            {"family": "f2-vector-space", "lo": 1, "hi": 23},
        ]:
            cfg = load_config(write_config(tmp_path, family=family, cover=["!(x = y)"]))
            assert cfg.family.family == family["family"]
        assert not (tmp_path / "o").exists()

    def test_negative_seed_is_exit_2(self, tmp_path, capsys):
        # in the config or on the command line, before any report is written
        out = tmp_path / "out"
        path = write_config(tmp_path, seed=-1)
        with pytest.raises(ExperimentConfigError, match="seed must be at least 0, got -1"):
            load_config(path)
        assert main(["axioms", "--config", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: seed must be at least 0, got -1\n"
        path = write_config(tmp_path)
        assert main(["axioms", "--config", path, "--out", str(out), "--seed", "-3"]) == 2
        assert capsys.readouterr().err == "error: seed must be at least 0, got -3\n"
        assert not out.exists()

    def test_bad_mu_range(self, tmp_path):
        path = write_config(tmp_path, mu=1.5)
        with pytest.raises(ExperimentConfigError):
            load_config(path)


# --- config fuzzing: wrong types, missing keys, out-of-range values -------

_junk = st.sampled_from(
    [None, True, False, 0, -1, 2.5, 10**30, float("inf"), float("-inf"), float("nan")]
    + ["", "x", [], [3], {}, {"x": 1}]
)
_bound = st.one_of(st.integers(-10, 40), st.integers(10**6, 10**30), _junk)
_family = st.fixed_dictionaries(
    {},
    optional={
        "family": st.sampled_from([*FAMILIES, "octonions"]) | _junk,
        "lo": _bound,
        "hi": _bound,
        "values": st.lists(_bound, max_size=3) | _junk,
    },
)
_formulas = st.lists(
    st.sampled_from(["exists z. z*z = x - y", "x = z"])
    | st.fixed_dictionaries({}, optional={"text": st.just("x = y"), "params": _junk})
    | _junk,
    max_size=2,
) | _junk
_overrides = st.fixed_dictionaries(
    {},
    optional={
        "family": st.just(MISSING) | _family | _junk,
        "cover": st.just(MISSING) | _formulas,
        "avoid": st.just(MISSING) | _formulas,
        "mu": st.just(MISSING) | st.floats(-1.0, 2.0) | st.sampled_from([0, 1, 0.0, 1.0]) | _junk,
        "seed": _junk,
        "mode": st.sampled_from(["strict", "best_effort", "coarse-dim"]) | _junk,
        "threads": _junk,
        "extension_samples": _junk,
        "window": _junk,
        "gap": _junk,
    },
)


class TestConfigFuzz:
    @settings(max_examples=300)
    @given(_overrides, st.sampled_from(["profile", "build", "sequence", "axioms", "lovely-pair"]))
    def test_bad_config_is_exit_2_with_message(self, tmp_path_factory, overrides, command):
        tmp_path = tmp_path_factory.mktemp("fuzz")
        path = write_config(tmp_path, **overrides)
        try:
            load_config(path)
        except ExperimentConfigError:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main([command, "--config", path, "--out", str(tmp_path / "out")])
            assert code == 2
            assert err.getvalue().startswith("error: ")
            assert "Traceback" not in err.getvalue()


class TestCommands:
    def test_profile(self, tmp_path):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "out")
        assert main(["profile", "--config", cfg, "--out", out]) == 0
        profiles = json.loads(open(os.path.join(out, "profiles.json")).read())
        assert len(profiles) == 2  # cover formula and avoid formula
        assert abs(profiles[0]["E"][0] - 0.5) < 0.02

    def test_profile_counts_csv(self, tmp_path):
        cfg = write_config(tmp_path, emit_counts=True, family={"family": "prime-field", "lo": 5, "hi": 13})
        out = str(tmp_path / "out")
        assert main(["profile", "--config", cfg, "--out", out]) == 0
        lines = open(os.path.join(out, "counts.csv")).read().splitlines()
        assert lines[0] == "formula,size,params,count,class"
        assert len(lines) > 4

    def test_build(self, tmp_path):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "out")
        assert main(["build", "--config", cfg, "--out", out]) == 0
        payload = json.loads(open(os.path.join(out, "build.json")).read())
        assert payload["builds"], "some structures must pass the threshold"
        for report in payload["builds"]:
            assert report["all_passed"]
            h_file = os.path.join(out, "hsets", f"h_{report['size']}.txt")
            lines = open(h_file).read().split()
            assert [int(v) for v in lines] == report["h"]

    def test_sequence(self, tmp_path):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "out")
        assert main(["sequence", "--config", cfg, "--out", out]) == 0
        series = open(os.path.join(out, "coarse_dim.csv")).read().splitlines()
        assert series[0] == "size,h_size,ratio"
        plan = json.loads(open(os.path.join(out, "plan.json")).read())
        assert plan["entries"]

    def test_axioms(self, tmp_path):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "out")
        assert main(["axioms", "--config", cfg, "--out", out]) == 0
        payload = json.loads(open(os.path.join(out, "axioms.json")).read())
        assert payload["reports"]
        assert all(r["passed"] for r in payload["reports"])
        assert not os.path.exists(os.path.join(out, "failures.csv"))

    @pytest.mark.parametrize("command", ["profile", "build", "sequence", "axioms"])
    def test_profiles_each_formula_once(self, tmp_path, monkeypatch, command):
        cover = ["exists z. z*z = x - y", "!(x = y)"]
        avoid = ["x = z", "x = z + 1"]
        profiled = []
        profile_family = cli.profile_family

        def counting(family, pf, *args, **kwargs):
            profiled.append(pf.text)
            return profile_family(family, pf, *args, **kwargs)

        monkeypatch.setattr(cli, "profile_family", counting)
        cfg = write_config(tmp_path, cover=cover, avoid=avoid)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert profiled == cover + avoid  # len(cover) + len(avoid) calls, one per formula

    def test_lovely_pair(self, tmp_path):
        cfg = write_config(
            tmp_path,
            family={"family": "quadratic-extension-field", "values": [3, 5, 7, 11, 13]},
            cover=[],
            avoid=[],
        )
        out = str(tmp_path / "out")
        assert main(["lovely-pair", "--config", cfg, "--out", out]) == 0
        lines = open(os.path.join(out, "lovely_pair.csv")).read().splitlines()
        assert lines[0] == "p,q,phi_count,q_over_4,deviation,violations"
        assert len(lines) == 6
        assert all(line.endswith(",0") for line in lines[1:])

    def test_density_is_the_build_cover_certificate(self, tmp_path):
        # both enumerate the same Psi, so density repeats the build's cover check
        cfg = write_config(tmp_path, **SQUARE_SHIFT)
        out = tmp_path / "out"
        for command in ("build", "axioms"):
            assert main([command, "--config", cfg, "--out", str(out), "--threads", "1"]) == 0
        builds = json.loads((out / "build.json").read_text())["builds"]
        reports = json.loads((out / "axioms.json").read_text())["reports"]
        assert [b["size"] for b in builds] == [r["size"] for r in reports]
        for build, report in zip(builds, reports):
            assert report["density"]["per_formula"] == build["cover"]

    def test_lovely_pair_sweep_flag(self, tmp_path):
        cfg = write_config(
            tmp_path,
            family={"family": "quadratic-extension-field", "values": [5]},
            cover=[],
            avoid=[],
            sweep_a1=True,
        )
        out = str(tmp_path / "out")
        assert main(["lovely-pair", "--config", cfg, "--out", out]) == 0
        lines = open(os.path.join(out, "lovely_pair.csv")).read().splitlines()
        assert len(lines) == 1 + (25 - 5)  # every non-subfield choice of a1

    def test_axioms_failure_exit_code(self, tmp_path):
        # five shift formulas on a tiny group swallow whole solution sets:
        # the extension check must fail and the command must exit 1
        cfg = write_config(
            tmp_path,
            family={"family": "cyclic-group", "lo": 9, "hi": 40},
            cover=["!(x = y)"],
            avoid=["x = z", "x = z + 1", "x = z + 2", "x = z + 3", "x = z + 4"],
            mu=0.4,
            mode="best_effort",
            extension_samples=60,
        )
        out = str(tmp_path / "out")
        assert main(["axioms", "--config", cfg, "--out", out]) == 1
        assert os.path.exists(os.path.join(out, "axioms.json"))
        assert os.path.exists(os.path.join(out, "failures.csv"))

    def test_passing_rerun_removes_old_failures(self, tmp_path):
        # the shipped cyclic-doubling config fails in best_effort mode and
        # passes in strict mode; a passing rerun into the same directory
        # must not leave the first run's failures behind
        cfg = os.path.join(CONFIGS, "cyclic_doubling.json")
        out = str(tmp_path / "out")
        assert main(["axioms", "--config", cfg, "--out", out, "--threads", "1"]) == 1
        assert os.path.exists(os.path.join(out, "failures.csv"))
        assert main(["axioms", "--config", cfg, "--out", out, "--mode", "strict"]) == 0
        payload = json.loads(open(os.path.join(out, "axioms.json")).read())
        assert all(r["passed"] for r in payload["reports"])
        assert not os.path.exists(os.path.join(out, "failures.csv"))

    def test_rebuild_removes_stale_hsets(self, tmp_path):
        # the shipped square-shift config builds 101..1201; a rebuild up to
        # 700 into the same directory must leave only its own H files
        with open(os.path.join(CONFIGS, "square_shift.json")) as fh:
            config = json.load(fh)
        out = str(tmp_path / "out")
        listed = []
        for hi in (1201, 700):
            path = tmp_path / f"hi_{hi}.json"
            path.write_text(json.dumps({**config, "family": {**config["family"], "hi": hi}}))
            assert main(["build", "--config", str(path), "--out", out, "--threads", "1"]) == 0
            builds = json.loads(open(os.path.join(out, "build.json")).read())["builds"]
            listed.append(sorted(f"h_{b['size']}.txt" for b in builds))
            assert sorted(os.listdir(os.path.join(out, "hsets"))) == listed[-1]
        assert set(listed[1]) < set(listed[0])


class TestExitCodes:
    def test_unknown_key_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, bogus=1)
        assert main(["profile", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["profile", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) == 2

    def test_lovely_pair_p2_guard(self, tmp_path):
        cfg = write_config(
            tmp_path,
            family={"family": "quadratic-extension-field", "values": [2, 3, 5]},
            cover=[],
            avoid=[],
        )
        assert main(["lovely-pair", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_lovely_pair_without_odd_prime(self, tmp_path, capsys):
        # no prime lies in 24..28, so the run would certify nothing
        family = {"family": "quadratic-extension-field", "lo": 24, "hi": 28}
        cfg = write_config(tmp_path, family=family, cover=[], avoid=[])
        out = tmp_path / "o"
        assert main(["lovely-pair", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: lovely-pair family ") and err.endswith(" has no odd prime\n")
        assert "'quadratic-extension-field', lo=24, hi=28" in err
        assert not any(out.iterdir())

    def test_out_path_is_a_file(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, family={"family": "quadratic-extension-field", "values": [3, 5]}, cover=[], avoid=[]
        )
        out = tmp_path / "afile"
        out.write_text("")
        assert main(["lovely-pair", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot create output directory {str(out)!r}")
        assert "Traceback" not in err
        assert out.read_text() == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "exp.json"]

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_invariant_violation_is_exit_2(self, tmp_path, monkeypatch, capsys, threads):
        # a violated invariant is a construction error: exit 2, no reports;
        # at 2 threads it is raised in a worker process
        def violated(M, *args, **kwargs):
            raise InvariantError(
                f"{M.describe()}, formula 'x', step 0: shrink factor exceeded in {os.getpid()}"
            )

        cfg = write_config(tmp_path)
        stages = [("build", "build_h"), ("axioms", "build_h"), ("axioms", "run_axiom_checks")]
        for i, (command, stage) in enumerate(stages):
            with monkeypatch.context() as patch:
                patch.setattr(f"hlab.cli.{stage}", violated)
                out = tmp_path / f"o{i}"
                assert main([command, "--config", cfg, "--out", str(out), "--threads", threads]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: prime-field(p=") and "shrink factor exceeded in " in err
            in_process = err.split()[-1] == str(os.getpid())
            assert in_process == (threads == "1"), (command, stage)
            for report in ("build.json", "axioms.json", "failures.csv", "hsets"):
                assert not (out / report).exists(), (command, stage, report)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_inexact_convolution_is_exit_2(self, tmp_path, monkeypatch, capsys, threads):
        # a perturbed transform fails the exactness check of the convolution
        # coverage: exit 2 with the structure, formula and step, no reports
        irfftn = np.fft.irfftn
        monkeypatch.setattr(np.fft, "irfftn", lambda *args: irfftn(*args) + 0.4)
        cfg = write_config(tmp_path)
        for command in ("build", "axioms"):
            out = tmp_path / command
            assert main([command, "--config", cfg, "--out", str(out), "--threads", threads]) == 2
            err = capsys.readouterr().err
            assert err.startswith(
                "error: prime-field(p=101), formula 'exists z. z*z = x - y', step 0: "
                "convolution coverage is not exact"
            )
            for report in ("build.json", "axioms.json", "failures.csv", "hsets"):
                assert not (out / report).exists(), (command, report)

    @pytest.mark.parametrize("mode", ["strict", "coarse-dim"])
    def test_sequence_that_certifies_nothing(self, tmp_path, capsys, mode):
        # at mu 0.4 no field up to 113 passes the strict size threshold, not
        # even at level 0 (one cover and one avoid formula)
        cfg = write_config(
            tmp_path,
            family={"family": "prime-field", "lo": 101, "hi": 113},
            cover=["exists z. z*z = x - y", "!(x = y)"],
            avoid=["x = z", "x = z + 1"],
            mu=0.4,
        )
        out = tmp_path / "o"
        assert main(["sequence", "--config", cfg, "--out", str(out), "--mode", mode]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: prime-field(p=113) of size 113 is below the strict size")
        assert "threshold at mu = 0.4: forbidden bound" in err
        assert not (out / "plan.json").exists()

    def test_one_structure_family(self, tmp_path, capsys):
        # profiling needs two structures: exit 2 with a message, no reports
        cfg = write_config(tmp_path, family={"family": "prime-field", "values": [101]})
        for command in ("profile", "build", "sequence", "axioms"):
            out = tmp_path / command
            assert main([command, "--config", cfg, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: formula 'exists z. z*z = x - y': profiling needs")
            assert "prime-field(p=101)" in err
            assert not out.exists() or not any(out.iterdir())
        # lovely-pair profiles nothing, so one prime is a valid family
        cfg = write_config(
            tmp_path, family={"family": "quadratic-extension-field", "values": [5]}, cover=[], avoid=[]
        )
        assert main(["lovely-pair", "--config", cfg, "--out", str(tmp_path / "lp")]) == 0

    @pytest.mark.parametrize(
        "key, value, command",
        [
            ("base_max", -1, "axioms"),
            ("extension_samples", -3, "axioms"),
            ("window", 0, "sequence"),
            ("window", -2, "sequence"),
            ("profile_samples", 0, "profile"),
        ],
    )
    def test_bad_count_is_exit_2(self, tmp_path, capsys, key, value, command):
        cfg = write_config(tmp_path, **{key: value})
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be at least ")
        assert "Traceback" not in err
        assert not out.exists() or not any(out.iterdir())

    def test_base_larger_than_structure_is_exit_2(self, tmp_path, capsys):
        # the shipped cyclic family starts at Z_5, too small for 8 distinct
        # base elements
        with open(os.path.join(CONFIGS, "cyclic_doubling.json")) as fh:
            config = {**json.load(fh), "base_max": 8}
        path = tmp_path / "cyclic.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "o"
        assert main(["axioms", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cyclic-group(n=5) has 5 elements, too few for an extension base")
        assert not (out / "axioms.json").exists()

    def test_build_needs_avoid_formula(self, tmp_path):
        cfg = write_config(tmp_path, avoid=[])
        assert main(["build", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_coarse_dim_only_for_sequence(self, tmp_path):
        cfg = write_config(tmp_path, mode="coarse-dim")
        assert main(["build", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_sequence_rejects_best_effort(self, tmp_path):
        cfg = write_config(tmp_path, mode="best_effort")
        assert main(["sequence", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_sequence_coarse_dim_mode(self, tmp_path):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "out")
        assert main(["sequence", "--config", cfg, "--out", out, "--mode", "coarse-dim"]) == 0
        assert os.path.exists(os.path.join(out, "coarse_dim.csv"))

    def test_no_partial_files_on_config_error(self, tmp_path):
        cfg = write_config(tmp_path, bogus=1)
        out = tmp_path / "o"
        main(["profile", "--config", cfg, "--out", str(out)])
        assert not out.exists() or not any(out.iterdir())

    def test_no_tmp_remnants_on_success(self, tmp_path):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "out")
        assert main(["build", "--config", cfg, "--out", out]) == 0
        leftovers = [f for f in digest_tree(out) if f.endswith(".tmp")]
        assert leftovers == []


def test_shipped_configs(tmp_path):
    # the README runs these files; each loads, and the two quick commands pass
    for name in os.listdir(CONFIGS):
        load_config(os.path.join(CONFIGS, name))
    square_shift = os.path.join(CONFIGS, "square_shift.json")
    out = tmp_path / "sequence"
    assert main(["sequence", "--config", square_shift, "--mode", "coarse-dim", "--out", str(out)]) == 0
    assert (out / "coarse_dim.csv").read_text().startswith("size,h_size,ratio\n101,")
    out = tmp_path / "lovely_pair"
    assert main(["lovely-pair", "--config", os.path.join(CONFIGS, "lovely_pair.json"), "--out", str(out)]) == 0
    assert len((out / "lovely_pair.csv").read_text().splitlines()) == 1 + 10  # primes 3..31


class TestDeterminism:
    @pytest.mark.parametrize("command", ["profile", "build", "sequence", "axioms"])
    def test_threads_and_reruns_byte_identical(self, tmp_path, command):
        cfg = write_config(tmp_path, family={"family": "prime-field", "lo": 101, "hi": 151})
        outs = [str(tmp_path / f"o{i}") for i in range(3)]
        assert main([command, "--config", cfg, "--out", outs[0], "--threads", "1"]) == 0
        assert main([command, "--config", cfg, "--out", outs[1], "--threads", "8"]) == 0
        assert main([command, "--config", cfg, "--out", outs[2], "--threads", "1"]) == 0
        d0, d1, d2 = (digest_tree(o) for o in outs)
        assert d0 == d1 == d2
        assert d0, "reports were written"

    def test_identical_rerun_leaves_reports_alone(self, tmp_path):
        # a rerun writes the same bytes, so every report keeps its inode and
        # mtime; a changed report is still replaced by a rename
        cfg = write_config(tmp_path, family={"family": "prime-field", "lo": 101, "hi": 151})
        out = tmp_path / "o"

        def stats():
            return {p: (p.stat().st_ino, p.stat().st_mtime_ns) for p in out.rglob("*") if p.is_file()}

        assert main(["build", "--config", cfg, "--out", str(out), "--threads", "1"]) == 0
        before = stats()
        assert len(before) > 1
        assert main(["build", "--config", cfg, "--out", str(out), "--threads", "1"]) == 0
        assert stats() == before
        report = out / "build.json"
        atomic_write_text(str(report), "{}\n")
        assert report.read_text() == "{}\n"
        assert report.stat().st_ino != before[report][0]
        assert sorted(p.name for p in out.iterdir()) == ["build.json", "hsets"]

    def test_seed_changes_extension_sampling(self, tmp_path):
        cfg = write_config(tmp_path, family={"family": "prime-field", "lo": 101, "hi": 131})
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        assert main(["axioms", "--config", cfg, "--out", out_a, "--seed", "1"]) == 0
        assert main(["axioms", "--config", cfg, "--out", out_b, "--seed", "2"]) == 0
        a = json.loads(open(os.path.join(out_a, "axioms.json")).read())
        b = json.loads(open(os.path.join(out_b, "axioms.json")).read())
        assert a["reports"][0]["seed"] != b["reports"][0]["seed"]


def child_peak(argv):
    """Run the CLI with argv in a fresh interpreter; returns its exit code
    and its VmHWM in MiB. VmHWM is the peak of the child's own address
    space: Linux carries ru_maxrss across exec, so that would include the
    peak of this test process."""
    script = (
        "import re, sys\n"
        "from hlab.cli import main\n"
        "rc = main(sys.argv[1:])\n"
        "status = open('/proc/self/status').read()\n"
        "print(rc, re.search(r'VmHWM:\\s*(\\d+) kB', status).group(1))\n"
    )
    src = os.path.dirname(os.path.dirname(hlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-c", script, *argv],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    rc, peak_kib = (int(v) for v in run.stdout.split())
    return rc, peak_kib / 1024


class TestMemory:
    def test_gf_p2_ladder_peak_rss(self, tmp_path):
        # lovely-pair over GF(p^2) for odd primes 3..83; dense tables took
        # its peak to 758 MiB
        cfg = write_config(
            tmp_path,
            family={"family": "quadratic-extension-field", "lo": 3, "hi": 83},
            cover=[],
            avoid=[],
        )
        rc, peak_mib = child_peak(["lovely-pair", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 0
        assert peak_mib < 200

    def test_strict_build_gf_10k_peak_rss(self, tmp_path):
        # square-shift builds on GF(10007) and GF(10009): an unblocked
        # evaluation of the n x |Psi| coverage matrix peaked at 366 MiB
        cfg = write_config(
            tmp_path,
            family={"family": "prime-field", "values": [10007, 10009]},
            cover=["exists z. z*z = x - y", "!(x = y)"],
            avoid=["x = z", "x = z + 1"],
            mu=0.4,
        )
        out = tmp_path / "o"
        rc, peak_mib = child_peak(["build", "--config", cfg, "--out", str(out), "--threads", "1"])
        assert rc == 0
        builds = json.loads((out / "build.json").read_text())["builds"]
        assert [b["size"] for b in builds] == [10007, 10009]
        assert peak_mib < 150

    def test_strict_build_and_axioms_gf_100k(self, tmp_path):
        # square-shift builds on GF(100003) and GF(100019): coverage is a
        # convolution over Z_p, where the n x |Psi| grid per greedy step
        # took the strict build 145 s; the outputs are those of that grid
        cfg = write_config(
            tmp_path,
            family={"family": "prime-field", "values": [100003, 100019]},
            cover=["exists z. z*z = x - y", "!(x = y)"],
            avoid=["x = z", "x = z + 1"],
            mu=0.4,
        )
        out = tmp_path / "b"
        rc, peak_mib = child_peak(["build", "--config", cfg, "--out", str(out), "--threads", "1"])
        assert rc == 0
        assert peak_mib < 100
        assert digest_tree(out) == {
            "build.json": "7d3a02828397b50de759d386c079c6be61e46d771a71d37b70127605de7f238b",
            os.path.join("hsets", "h_100003.txt"):
                "a84db871e713617ae5bb202a5f9567fe7033a6a79070da3b5e46c6f80a6fc0ac",
            os.path.join("hsets", "h_100019.txt"):
                "0de090061ae5fe7f0c9f129709faa462504061bfc9916c17e047c347faa1f91d",
        }
        # 500 extension samples, as in the shipped config: one closure mask
        # over all of them took 5 * 10^7 cells and the command's peak to 165 MiB;
        # blocks of at most BUDGET cells keep it near 126 MiB
        cfg = write_config(
            tmp_path,
            name="axioms.json",
            family={"family": "prime-field", "values": [100003, 100019]},
            cover=["exists z. z*z = x - y", "!(x = y)"],
            avoid=["x = z", "x = z + 1"],
            mu=0.4,
            extension_samples=500,
        )
        out = tmp_path / "a"
        rc, peak_mib = child_peak(["axioms", "--config", cfg, "--out", str(out), "--threads", "1"])
        assert rc == 0
        assert peak_mib < 140

    def test_profile_gf_100k_counts_once_per_structure(self, tmp_path):
        # the four square-shift formulas on GF(100003) and GF(100019): each
        # is a translation kernel, so every tuple is counted from the zero
        # tuple; counting every tuple on the grid would be 10^10 cells
        cfg = write_config(
            tmp_path,
            family={"family": "prime-field", "values": [100003, 100019]},
            cover=["exists z. z*z = x - y", "!(x = y)"],
            avoid=["x = z", "x = z + 1"],
        )
        out = tmp_path / "o"
        rc, peak_mib = child_peak(["profile", "--config", cfg, "--out", str(out)])
        assert rc == 0
        square, neq, xz, xz1 = json.loads((out / "profiles.json").read_text())
        for prof in (square, neq, xz, xz1):
            assert [s["enumerated"] for s in prof["per_structure"]] == [True, True]
        assert len(square["E"]) == 1 and abs(square["E"][0] - 0.5) < 1e-4
        assert len(neq["E"]) == 1 and abs(neq["E"][0] - 1) < 1e-4
        assert (xz["E"], xz["B"], xz1["E"], xz1["B"]) == ([], 1, [], 1)
        assert peak_mib < 100

    def test_profile_gf_1m_keeps_one_count_per_kernel(self, tmp_path):
        # the same formulas on GF(1000003) and GF(1000033): each structure's
        # kernel profile is the histogram {|G|: n}, with no array of n counts;
        # building, fitting and keeping those arrays peaked at 150 MiB
        cfg = write_config(
            tmp_path,
            family={"family": "prime-field", "values": [1000003, 1000033]},
            cover=["exists z. z*z = x - y", "!(x = y)"],
            avoid=["x = z", "x = z + 1"],
        )
        out = tmp_path / "o"
        rc, peak_mib = child_peak(["profile", "--config", cfg, "--out", str(out)])
        assert rc == 0
        profiles = json.loads((out / "profiles.json").read_text())
        assert all(s["enumerated"] for prof in profiles for s in prof["per_structure"])
        assert peak_mib < 100

    def test_two_parameter_kernel_gf_3k(self, tmp_path):
        # a two-parameter kernel on GF(3001) and GF(3011), about 9 * 10^6
        # tuples each: counted as one |G| and covered through the pushforward
        # of y1 + y2; stored counts and an enumerated Ψ took 738 MiB
        cfg = write_config(
            tmp_path,
            family={"family": "prime-field", "values": [3001, 3011]},
            cover=["exists z. z*z = x - y1 - y2"],
            avoid=["x = z"],
            mode="best_effort",
        )
        out = tmp_path / "o"
        for command in ("profile", "build"):
            rc, peak_mib = child_peak([command, "--config", cfg, "--out", str(out), "--threads", "1"])
            assert rc == 0
            assert peak_mib < 100
        builds = json.loads((out / "build.json").read_text())["builds"]
        assert [b["cover"][0]["checked"] for b in builds] == [3001**2, 3011**2]

    def test_two_parameter_kernel_gf_10k_builds_exhaustively(self, tmp_path):
        # 10007^2 tuples are past the budget: the profile samples them, and
        # the build and its cover certificate still take every one; Ψ
        # enumeration exited 2 here ("psi enumeration needs 100140049 tuples")
        cfg = write_config(
            tmp_path,
            family={"family": "prime-field", "values": [10007, 10009]},
            cover=["exists z. z*z = x - y1 - y2"],
            avoid=["x = z"],
            mode="best_effort",
        )
        out = tmp_path / "o"
        rc, _ = child_peak(["build", "--config", cfg, "--out", str(out), "--threads", "1"])
        assert rc == 0
        builds = json.loads((out / "build.json").read_text())["builds"]
        assert [(c["method"], c["checked"], c["passed"]) for b in builds for c in b["cover"]] == [
            ("exhaustive", 10007**2, True),
            ("exhaustive", 10009**2, True),
        ]


def test_cli_import_leaves_the_pool_out():
    # the process pool is imported only by a map that uses it
    script = (
        "import sys, hlab.cli\n"
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules))\n"
    )
    src = os.path.dirname(os.path.dirname(hlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    assert run.stdout == "[]\n"


class TestFrozenHeap:
    def test_main_freezes_the_heap(self, tmp_path):
        cfg = write_config(tmp_path, family={"family": "prime-field", "lo": 5, "hi": 13})
        script = (
            "import gc, sys\n"
            "from hlab.cli import main\n"
            "print(main(sys.argv[1:]), gc.get_freeze_count() > 0)\n"
        )
        src = os.path.dirname(os.path.dirname(hlab.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        argv = ["profile", "--config", cfg, "--out", str(tmp_path / "o")]
        run = subprocess.run(
            [sys.executable, "-c", script, *argv],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        assert run.stdout == "0 True\n"

    def test_second_main_freezes_nothing_more(self, tmp_path):
        cfg = write_config(tmp_path, family={"family": "prime-field", "lo": 5, "hi": 13})
        argv = ["profile", "--config", cfg, "--out", str(tmp_path / "o")]
        assert main(argv) == 0
        frozen = gc.get_freeze_count()
        assert frozen > 0
        assert main(argv) == 0
        assert gc.get_freeze_count() == frozen


def test_one_budget():
    # folang.BUDGET is the one memory budget: nothing takes another
    for info in pkgutil.iter_modules(hlab.__path__, "hlab."):
        if info.name == "hlab.__main__":  # runs the CLI on import
            continue
        module = importlib.import_module(info.name)
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            if fn.__module__ != module.__name__:
                continue
            for param in inspect.signature(fn).parameters:
                assert not (param == "budget" or param.endswith("_budget")), (name, param)
    config_fields = [f.name for f in dataclasses.fields(cli.ExperimentConfig)]
    assert not [name for name in config_fields if name.endswith("_budget")]

"""A translation kernel's Ψ through its Kernel record against Ψ enumerated
tuple by tuple (profile_oracle.tuple_psi), on all four families and
parameter arities 1 to 3: the same Ψ, build, certificates and extension
draws. The cases include 2y + 1 on Z_12, whose image is a proper coset,
GF(7^2), whose two axes are both padded for the transform, and shifts that
are not linear (y*y, y1*y2, frob), which take the bincount."""

import sys

import numpy as np
import pytest

from hlab import _util, asymptotics, folang, haxioms, hgreedy
from hlab.asymptotics import _large_mask, large_columns, profile_family, psi_columns, psi_set, sample_columns
from hlab.errors import LabError
from hlab.finitemodels import make_cyclic_group, make_extension_field, make_f2_vector_space, make_prime_field
from hlab.folang import kernel, parse_formula, plan
from hlab.haxioms import _draw_samples, check_density, check_extension, run_axiom_checks
from hlab.hgreedy import BEST_EFFORT, Coverage, build_h, derive_config, verify_cover

from helpers import certified
from profile_oracle import columns_psi, tuple_psi

PARAMS = {1: ("y",), 2: ("y1", "y2"), 3: ("y1", "y2", "y3")}

# family -> (the family profiled, the structure checked, a cover formula per arity)
CASES = {
    "Z_n": (
        [make_cyclic_group(n) for n in range(10, 17)],
        12,
        {
            1: "!(x = y + y + 1)",
            2: "!(x = y1 + y1 + y2 + y2)",
            3: "exists z. z + z = x - y1 - y2 - y3",
        },
    ),
    "GF(p)": (
        [make_prime_field(p) for p in (5, 7, 11, 13)],
        11,
        {
            1: "exists z. z*z = x - y*y",
            2: "exists z. z*z = x - y1*y2",
            3: "exists z. z*z = x - y1 - 2*y2 + y3",
        },
    ),
    "GF(p^2)": (
        [make_extension_field(p) for p in (3, 5, 7)],
        49,
        {
            1: "exists z. z*z = x - y",
            2: "exists z. z*z = x - y1 - frob(y2)",
            3: "!(x = y1 + y2 + y3)",
        },
    ),
    "F2^n": (
        [make_f2_vector_space(d) for d in (2, 3, 4)],
        8,
        {
            1: "!(x = y)",
            2: "!(x = y1 + y2 + y2)",
            3: "!(x = y1 + y2 + y3)",
        },
    ),
}
CASE_IDS = [(kind, k) for kind in CASES for k in (1, 2, 3)]


def case(kind, k):
    family, size, texts = CASES[kind]
    M = next(m for m in family if m.size == size)
    cover = parse_formula(texts[k], M.sig, params=PARAMS[k])
    xz = parse_formula("x = z", M.sig)
    # a wide gap keeps x = z algebraic (1/n below it) on structures this small
    profiles = [profile_family(family, pf, gap=0.3) for pf in (cover, xz)]
    cfg = derive_config(profiles[:1], profiles[1:], None)
    return M, cfg


def run_extension(M, h, profiles, gamma, monkeypatch, **kwargs):
    """check_extension's result and the parameter and base rows of its
    samples, as it hands them to closures."""
    sets = []
    closures = haxioms.closures

    def recording(M, h, a_sets, *args, **kw):
        sets.append(np.array(a_sets))
        return closures(M, h, a_sets, *args, **kw)

    monkeypatch.setattr(haxioms, "closures", recording)
    return check_extension(M, h, profiles, gamma, **kwargs), sets


def run_checks(M, cfg, monkeypatch):
    """Build, density on H and on a shorter H, and extension, each as its
    result or its error; plus the extension samples' rows."""
    try:
        h, report = build_h(M, cfg, BEST_EFFORT)
    except LabError as err:
        return type(err), str(err)
    out = [report.to_json_dict()]
    for elements in (h.elements, h.elements[: len(h) // 2]):
        out.append(check_density(certified(M, elements, cfg.delta_profiles).cover))
    extension, sets = run_extension(
        M, h.elements, cfg.delta_profiles, cfg.gamma, monkeypatch,
        samples=40, base_max=2, seed=1, gamma_max_solutions=cfg.gamma_max_solutions,
    )
    return out + [extension], sets


@pytest.mark.parametrize("kind, k", CASE_IDS, ids=[f"{kind}-k{k}" for kind, k in CASE_IDS])
def test_pushforward_matches_tuple_enumeration(kind, k, monkeypatch):
    M, cfg = case(kind, k)
    prof, pf = cfg.delta_profiles[0], cfg.delta[0]
    psi = psi_columns(M, prof)
    assert plan(pf).kind == "kernel" and psi is kernel(M, pf)
    cols, counts = tuple_psi(M, prof)
    assert psi_set(M, prof) == [tuple(int(v) for v in col) for col in cols.T]
    unit, histogram = psi.pushforward()
    assert unit * int(histogram.sum()) == cols.shape[1] and set(counts.tolist()) <= {len(psi.base)}
    assert int(np.gcd.reduce(histogram)) == 1 and np.array_equal(histogram > 0, np.isin(np.arange(M.size), psi.shifts(cols)))
    with monkeypatch.context() as patch:
        pushforward = run_checks(M, cfg, patch)
    assert isinstance(pushforward[0], list)  # built, so every check ran
    # the tuple route: Ψ enumerated for the build, the certificates and the
    # draws, each served by columns_psi (named by the function that asked)
    served = []

    def enumerated_psi(M, profile):
        served.append(sys._getframe(1).f_code.co_name)
        return columns_psi(M, profile)

    monkeypatch.setattr(hgreedy, "psi_columns", enumerated_psi)
    monkeypatch.setattr(asymptotics, "psi_columns", enumerated_psi)
    enumerated = run_checks(M, cfg, monkeypatch)
    assert {"_phase_state", "verify_cover", "large_columns"} <= set(served)
    assert pushforward[0] == enumerated[0]
    assert len(pushforward[1]) == len(enumerated[1])
    for a, b in zip(pushforward[1], enumerated[1]):
        np.testing.assert_array_equal(a, b)


def test_cases_cover_both_routes_and_a_proper_image():
    linear = {}
    for kind, k in CASE_IDS:
        M, cfg = case(kind, k)
        pf = cfg.delta[0]
        linear[kind, k] = kernel(M, pf).images is not None
    assert not linear["GF(p)", 1] and not linear["GF(p)", 2] and not linear["GF(p^2)", 2]
    assert linear["GF(p)", 3] and linear["Z_n", 1]
    # 2y + 1 on Z_12: w = (12 / 6) on the odd elements, the coset 1 + 2Z_12
    M, cfg = case("Z_n", 1)
    unit, histogram = kernel(M, cfg.delta[0]).pushforward()
    assert unit == 2 and histogram.tolist() == [0, 1] * 6
    # GF(7^2) pads both axes of its group (7, 7) for the transform
    M, _ = case("GF(p^2)", 1)
    assert M.group_shape == (7, 7) and _util._transform_length(7) > 7


@pytest.mark.parametrize("kind, k", [("Z_n", 3), ("GF(p)", 2), ("GF(p^2)", 3)])
def test_kernel_certificates_do_not_read_the_budget(kind, k, shrink_budget):
    # past the budget a kernel's build and cover certificates stay exhaustive
    # and unchanged; only extension draws switch to the seeded sample
    M, cfg = case(kind, k)
    h, report = build_h(M, cfg, BEST_EFFORT)
    density = check_density(certified(M, h.elements[:1], cfg.delta_profiles).cover)
    shrink_budget(M.size)
    again, report_again = build_h(M, cfg, BEST_EFFORT)
    assert report_again.to_json_dict() == report.to_json_dict()
    assert report.cover[0].method == "exhaustive" and report.cover[0].checked == M.size**k
    assert check_density(certified(M, h.elements[:1], cfg.delta_profiles).cover) == density


def test_over_budget_kernel_draws_from_the_seeded_sample(shrink_budget, monkeypatch):
    # past the budget the extension check keeps the sampled route for a
    # kernel too: its tuples are the large ones among sample_columns' draws
    # from the check's own stream, which later draws continue
    M, cfg = case("Z_n", 2)
    prof = cfg.delta_profiles[0]
    shrink_budget(M.size)
    samples = 30
    _, sets = run_extension(
        M, [0, 1], [prof], cfg.gamma, monkeypatch,
        samples=samples, base_max=0, seed=4, gamma_max_solutions=cfg.gamma_max_solutions,
    )
    rng = np.random.default_rng([4, M.size, 3])
    cols, counts = sample_columns(M, prof.pf, rng, 10 * samples)
    cols = cols[:, _large_mask(prof, M.size, counts)]
    assert 0 < cols.shape[1] < M.size**2
    _, column, _, _ = _draw_samples(rng, np.array([cols.shape[1]]), M.size, samples, 0)
    np.testing.assert_array_equal(np.concatenate(sets), cols[:, column].T)


def test_kernel_totals_stay_exact_past_int64():
    # p^4 > 2^63 tuples on both fields: Ψ's size, the phase's |Y| and the
    # cover and density certificates' `checked` are exact Python ints, and
    # the build and the checks pass with no tuple listed
    family = [make_prime_field(p) for p in (55117, 55127)]
    cover = parse_formula("!(x = y1 + y2 + y3 + y4)", family[0].sig)
    xz = parse_formula("x = z", family[0].sig)
    cfg = derive_config([profile_family(family, cover)], [profile_family(family, xz)], None)
    for M in family:
        total = M.size**4
        assert total > 2**63
        h, report = build_h(M, cfg, BEST_EFFORT)
        assert report.all_passed and report.phases[0]["psi_size"] == total
        assert report.cover[0].checked == total
        axioms = run_axiom_checks(M, report, cfg)
        assert axioms.passed and axioms.density["per_formula"][0]["checked"] == total


def test_linear_kernel_record_evaluates_no_term(monkeypatch):
    # y1 - 2*y2 + y3 on GF(11): once the record exists, Ψ, the phase's
    # coverage, both certificates and the extension draws' width read its
    # G, c and unit-tuple images alone
    M, cfg = case("GF(p)", 3)
    prof = cfg.delta_profiles[0]
    record = kernel(M, prof.pf)
    assert record.images is not None
    h, _ = build_h(M, cfg, BEST_EFFORT)
    terms = []
    bulk_term = folang._bulk_term

    def counted(M, t, env):
        terms.append(t)
        return bulk_term(M, t, env)

    monkeypatch.setattr(folang, "_bulk_term", counted)
    assert psi_columns(M, prof) is record
    Coverage(record).counts()
    assert verify_cover(M, h.elements, prof).passed
    assert check_density(certified(M, h.elements, cfg.delta_profiles).cover)["passed"]
    psi = large_columns(M, prof, 0, 10)
    assert psi is record and (psi.width, psi.low) == (M.size**3, len(record.base))
    assert terms == []

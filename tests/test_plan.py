"""Interned formula nodes and the one plan per formula: equal formulas are one
object on every signature, copies and pickles return it, racing threads get
it, and every shipped and workload formula has the plan kind pinned here."""

import copy
import importlib.util
import json
import pickle
import sys
from pathlib import Path

import pytest

from hlab import lovelypair
from hlab.asymptotics import profile_family
from hlab.finitemodels import (
    CYCLIC_GROUP,
    EXTENSION_FIELD,
    F2_VECTOR_SPACE,
    PRIME_FIELD,
    make_prime_field,
    primes_in,
    signature_for_family,
)
from hlab.folang import Apply, Eq, Exists, Kernel, Not, Num, Var, _exists_plan, kernel, parse, parse_formula, plan
from hlab.hgreedy import BEST_EFFORT, build_h, derive_config

ROOT = Path(__file__).resolve().parents[1]

# per family: formulas in its signature, with and without quantifiers
TEXTS = {
    PRIME_FIELD: ["exists z. z*z = x - y & !(z = 0)", "forall z. x*z = y -> z = 0", "x = y + 1"],
    EXTENSION_FIELD: ["(exists z. z*z = x - y1) & !(exists z. z*z = x - y2)", "insub(x - frob(y))"],
    CYCLIC_GROUP: ["exists z. x = y + z + z", "!(x = y)"],
    F2_VECTOR_SPACE: ["!(x = y1 + y2)", "exists z. x = z + z"],
}


class TestInterning:
    @pytest.mark.parametrize("family", sorted(TEXTS))
    def test_equal_texts_are_one_node(self, family):
        sig = signature_for_family(family)
        for text in TEXTS[family]:
            assert parse(text, sig) is parse(text, sig)
            assert parse_formula(text, sig).formula is parse_formula(text, sig).formula is parse(text, sig)
        # distinct formulas stay distinct objects, and compare unequal
        first, second = (parse(text, sig) for text in TEXTS[family][:2])
        assert first is not second and first != second

    def test_hand_built_nodes_are_the_parsed_ones(self):
        sig = signature_for_family(PRIME_FIELD)
        built = Eq(Var("x"), Apply("add", (Var("y"), Num(1))))
        assert built is parse("x = y + 1", sig)
        square = Eq(Apply("mul", (Var("z"), Var("z"))), Apply("sub", (Var("x"), Var("y"))))
        assert Exists("z", square) is parse("exists z. z*z = x - y", sig)
        assert Not(Not(square)) is parse("!!(z*z = x - y)", sig)
        assert hash(Var("x")) == hash(Var("x")) and Var("x") == Var("x") and Var("x") != Var("y")

    def test_pickle_and_copies_return_the_interned_node(self):
        pf = parse_formula(TEXTS[EXTENSION_FIELD][0], signature_for_family(EXTENSION_FIELD))
        for again in (
            pickle.loads(pickle.dumps(pf.formula)),
            copy.deepcopy(pf.formula),
            copy.copy(pf.formula),
        ):
            assert again is pf.formula
        restored = pickle.loads(pickle.dumps(pf))
        assert restored.formula is pf.formula and plan(restored) is plan(pf)
        exists = pf.formula.left  # its image plan is the interned node's own
        assert _exists_plan(pickle.loads(pickle.dumps(exists))) is _exists_plan(exists) is not None

    def test_racing_threads_get_one_node_and_one_plan(self, race):
        # a formula no other test builds, so the threads race to intern it
        sig = signature_for_family(PRIME_FIELD)
        text = "exists w. w*w*w = x - y - 987654321"
        nodes = race(lambda: parse(text, sig))
        assert all(node is nodes[0] for node in nodes)
        plans = race(lambda: plan(parse_formula(text, sig)))
        assert all(p is plans[0] for p in plans)

    def test_one_kernel_entry_per_formula_after_profile_and_build(self):
        # profile and build parse nothing again, and a second parse of the
        # same texts finds the same plans: one Kernel per formula per structure
        family = [make_prime_field(p) for p in primes_in(101, 149)]
        sig = family[0].sig
        cover_texts, avoid_texts = ["exists z. z*z = x - y", "!(x = y)"], ["x = z", "x = z + 1"]
        cover = [profile_family(family, parse_formula(t, sig)) for t in cover_texts]
        avoid = [profile_family(family, parse_formula(t, sig)) for t in avoid_texts]
        cfg = derive_config(cover, avoid, None)
        M = family[-1]
        build_h(M, cfg, BEST_EFFORT)
        for text in cover_texts + avoid_texts:
            assert kernel(M, parse_formula(text, sig)) is not None
        records = [value for value in M._cache.values() if isinstance(value, Kernel)]
        assert len(records) == 4


def shipped_formulas(monkeypatch):
    """(family, formula text) of every cover and avoid formula of the
    shipped configs and of the benchmark's workloads."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look the module up
    spec.loader.exec_module(workloads)
    configs = [json.loads(path.read_text()) for path in sorted((ROOT / "configs").glob("*.json"))]
    configs += [c.config for w in workloads.WORKLOADS for c in workloads.commands(w, 0, 1)]
    return sorted(
        {(c["family"]["family"], text) for c in configs for text in c.get("cover", []) + c.get("avoid", [])}
    )


class TestPlanKinds:
    def test_every_shipped_and_workload_formula_is_a_kernel(self, monkeypatch):
        found = shipped_formulas(monkeypatch)
        assert ("prime-field", "exists z. z*z = x - y & !(z = 0)") in found  # quantifier_loop's
        assert len(found) == 7
        for family, text in found:
            assert plan(parse_formula(text, signature_for_family(family))).kind == "kernel", text

    def test_lovely_pair_formula_is_an_image(self):
        assert plan(lovelypair._PHI).kind == "image"

    def test_existential_with_a_mixed_equation_loops(self):
        pf = parse_formula("exists z. y*z*z = x & !(y = 0)", signature_for_family(PRIME_FIELD))
        assert plan(pf).kind == "loop" and _exists_plan(pf.formula) is None

    def test_kernel_keeps_its_existential_loop_plan(self):
        # the kernel rule counts it; its grid, where one is read, still loops
        pf = parse_formula("exists z. x = y + z + z", signature_for_family(CYCLIC_GROUP))
        assert plan(pf).kind == "kernel" and _exists_plan(pf.formula) is None

    def test_quantifier_free_formula_off_the_kernel_rule_is_an_image(self):
        pf = parse_formula("x*x = y", signature_for_family(PRIME_FIELD))
        assert plan(pf).kind == "image"

    def test_one_plan_per_formula(self):
        sig = signature_for_family(PRIME_FIELD)
        first, again = (parse_formula("exists z. z*z = x - y", sig) for _ in range(2))
        assert plan(first) is plan(again)
        by_y = parse_formula("exists z. z*z = x - y", sig, object_var="y", params=("x",))
        assert by_y.formula is first.formula and plan(by_y) is not plan(first)

"""A seeded fuzz of small configs over the four families: each runs profile,
build, sequence and axioms in this process at one thread. Formula texts mix
kernels, grid formulas, forall, -> and binders that shadow a free or an
enclosing name. Every run ends with exit 0, 1 or 2; a traceback, or an
exception out of main, fails the test."""

import contextlib
import io
import json
import random

import pytest

from hlab.cli import main
from hlab.finitemodels import CYCLIC_GROUP, EXTENSION_FIELD, F2_VECTOR_SPACE, PRIME_FIELD

SEED, CONFIGS = 20261021, 32

# per signature: atoms in x, the parameter y and the binders' names
_GROUP_ATOMS = ["x = y", "x = y + z", "x = z + z", "z + z = x - y", "x + x = y", "z = y", "y = y", "x = zero"]
_RING_ATOMS = _GROUP_ATOMS + ["z*z = x - y", "x*y = one", "x*x = y", "y*z*z = x", "z*z = one"]
ATOMS = {
    CYCLIC_GROUP: _GROUP_ATOMS,
    F2_VECTOR_SPACE: _GROUP_ATOMS,
    PRIME_FIELD: _RING_ATOMS,
    EXTENSION_FIELD: _RING_ATOMS + ["insub(x - y)", "insub(z)", "frob(z) = x - y"],
}
# formulas with few solutions at every parameter (avoid), and with many (cover)
_GROUP_SMALL = ["x = y", "x = y + y", "exists z. x = y + z & z = zero", "(forall y. y = y) -> x = y"]
_RING_SMALL = _GROUP_SMALL + ["x*x = y", "x*y = one", "x = y & (exists x. x*x = y)"]
SMALL = {CYCLIC_GROUP: _GROUP_SMALL, F2_VECTOR_SPACE: _GROUP_SMALL, PRIME_FIELD: _RING_SMALL, EXTENSION_FIELD: _RING_SMALL}
_GROUP_LARGE = ["!(x = y)", "exists z. x = y + z + z", "!(exists x. x = y) | !(x + x = y)", "forall z. x = y -> z = z"]
_RING_LARGE = _GROUP_LARGE + ["exists z. z*z = x - y", "(forall y. y = y) & !(x*x = y)", "!(exists z. z*z = x - y)"]
LARGE = {CYCLIC_GROUP: _GROUP_LARGE, F2_VECTOR_SPACE: _GROUP_LARGE, PRIME_FIELD: _RING_LARGE, EXTENSION_FIELD: _RING_LARGE}
# binders: z, and the names a binder may shadow
BINDERS = ["z", "z", "x", "y"]


def formula_text(rng, atoms, depth=2):
    """A random text over the atoms with !, &, |, ->, exists and forall."""
    kind = rng.randrange(6) if depth else 0
    if kind == 0:
        return rng.choice(atoms)
    if kind == 1:
        return f"!({formula_text(rng, atoms, depth - 1)})"
    if kind == 2:
        word = rng.choice(["exists", "forall"])
        return f"({word} {rng.choice(BINDERS)}. {formula_text(rng, atoms, depth - 1)})"
    op = rng.choice(["&", "|", "->"])
    return f"({formula_text(rng, atoms, depth - 1)}) {op} ({formula_text(rng, atoms, depth - 1)})"


def family(rng):
    """Two to four small members of one family."""
    name = rng.choice([PRIME_FIELD, EXTENSION_FIELD, CYCLIC_GROUP, F2_VECTOR_SPACE])
    if name == PRIME_FIELD:
        lo = rng.randrange(30, 60)
        return {"family": name, "lo": lo, "hi": lo + rng.randrange(10, 20)}
    if name == EXTENSION_FIELD:
        return {"family": name, "values": rng.choice([[3, 5], [5, 7], [3, 5, 7]])}
    if name == CYCLIC_GROUP:
        lo = rng.randrange(20, 50)
        return {"family": name, "lo": lo, "hi": lo + rng.randrange(1, 6)}
    lo = rng.randrange(4, 6)
    return {"family": name, "lo": lo, "hi": lo + rng.randrange(1, 3)}


def config(rng):
    """A config whose avoid formulas are a small formula, or one and-ed with
    a random text, and whose cover formulas are a large one, or one or-ed
    with a random text; so most configs reach the end of every command."""
    fam = family(rng)
    name = fam["family"]

    def texts(pool, op):
        made = []
        for _ in range(rng.randrange(1, 3)):
            text = rng.choice(pool[name])
            made.append(f"({text}) {op} ({formula_text(rng, ATOMS[name])})" if rng.randrange(3) else text)
        return made

    return {
        "family": fam,
        "cover": texts(LARGE, "|"),
        "avoid": texts(SMALL, "&"),
        "mu": rng.choice([None, 0.49]),
        "mode": rng.choice(["strict", "best_effort"]),
        "seed": rng.randrange(100),
        "threads": 1,
        "extension_samples": rng.choice([0, 20]),
        "base_max": rng.randrange(0, 3),
    }


CASES = [config(random.Random(SEED + i)) for i in range(CONFIGS)]


@pytest.mark.parametrize("cfg", CASES, ids=[f"config{i}" for i in range(CONFIGS)])
def test_every_command_ends_with_an_exit_code(tmp_path, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    sequence_mode = "coarse-dim" if cfg["seed"] % 2 else "strict"
    for command in ("profile", "build", "sequence", "axioms"):
        argv = [command, "--config", str(path), "--out", str(tmp_path / command)]
        argv += ["--mode", sequence_mode] if command == "sequence" else []
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        assert code in (0, 1, 2), (command, cfg)
        assert "Traceback" not in err.getvalue(), (command, cfg)


def test_the_fuzz_reaches_each_family_and_each_construct():
    texts = [text for cfg in CASES for text in cfg["cover"] + cfg["avoid"]]
    assert {cfg["family"]["family"] for cfg in CASES} == set(ATOMS)
    assert any("forall" in text and "->" in text for text in texts)
    assert any(f"{word} {name}." in text for text in texts for word in ("exists", "forall") for name in "xy")

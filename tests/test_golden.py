"""Golden digests: the sha256 of every file each CLI command writes, on small
versions of the shipped experiments. A refactor that changes any report byte
fails here. A digest changes only in a change that justifies each edited
digest in CHANGES.md (for example a deliberate change to a random stream).

`test_digests_in_small_blocks` reruns build, sequence and axioms with the
budget cut to a few columns per block and checks that the digests hold
and that every grid a caller holds stays one block.

`strict_build` and `strict_axioms` pin a strict run that skips structures
below the top level of the schedule; `test_build_is_the_top_level_of_sequence`
checks that `build` writes exactly the top-level entries of `sequence`'s plan.

`test_sampled_extension_check` pins the sampled branch of check_extension,
which no CLI run on a small family reaches; `test_binary_avoid_extension_check`
pins failing extension samples under a two-parameter avoid formula.
"""

import hashlib
import json
import os
import sys

import pytest

from hlab import folang, hgreedy
from hlab._util import dump_json
from hlab.asymptotics import profile_family
from hlab.cli import main
from hlab.finitemodels import make_cyclic_group, make_prime_field
from hlab.folang import BUDGET, parse_formula
from hlab.haxioms import check_extension

from helpers import digest_tree

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")

SQUARE_SHIFT = {
    "family": {"family": "prime-field", "lo": 101, "hi": 199},
    "cover": ["exists z. z*z = x - y", "!(x = y)"],
    "avoid": ["x = z", "x = z + 1"],
    "mu": 0.4,
    "gap": 0.05,
    "seed": 0,
    "mode": "best_effort",
    "extension_samples": 500,
    "base_max": 3,
}
# strict levels need mu 0.49 at these sizes; level 0 is reached everywhere
SEQUENCE = {**SQUARE_SHIFT, "mu": 0.49, "mode": "strict"}
# strict build and axioms: 353..383 reach level 0 only and are skipped,
# 389..443 reach the top level (1) and are built
STRICT = {**SEQUENCE, "family": {"family": "prime-field", "lo": 353, "hi": 443}}
LOVELY_PAIR = {"family": {"family": "quadratic-extension-field", "lo": 3, "hi": 13}}
LOVELY_SWEEP = {"family": {"family": "quadratic-extension-field", "lo": 3, "hi": 7}, "sweep_a1": True}

# name -> (argv after the command name, config)
RUNS = {
    "profile": (["profile"], {**SQUARE_SHIFT, "emit_counts": True}),
    "build": (["build", "--threads", "2"], SQUARE_SHIFT),
    "sequence": (["sequence", "--threads", "2", "--mode", "coarse-dim"], SEQUENCE),
    "axioms": (["axioms", "--threads", "2"], SQUARE_SHIFT),
    "strict_build": (["build", "--threads", "2"], STRICT),
    "strict_axioms": (["axioms", "--threads", "2"], STRICT),
    "cyclic_profile": (["profile"], "cyclic_doubling.json"),
    "cyclic_build": (["build", "--threads", "2"], "cyclic_doubling.json"),
    # the only shipped run whose extension samples fail
    "cyclic_axioms": (["axioms", "--threads", "2"], "cyclic_doubling.json"),
    "lovely_pair": (["lovely-pair"], LOVELY_PAIR),
    "lovely_pair_sweep": (["lovely-pair"], LOVELY_SWEEP),
}

# name -> (exit code, {file: sha256})
GOLDEN = {
    "axioms": (
        0,
        {
            "axioms.json": "e8ddea0c2fcbf6967b7930ec4575a6a689560a2dfbc04390321c40a9fa638a21",
        },
    ),
    "build": (
        0,
        {
            "build.json": "11f2dba8f6b13633c246bf007d9d55013387f70bf9600b02aacafa9eebae8a74",
            "hsets/h_101.txt": "feb6c278df580a1999100757b5f3599df6d75afba443edfc789811064d8a6e05",
            "hsets/h_103.txt": "3ae397dbc8318d6fd4c915bfb76e406e0286e3e74debc49fe4d527f3a02457c8",
            "hsets/h_107.txt": "6b1da0dcbfb93282b4a57c1a0b27912162f461baf18ef2e3a772ef1db4f2dbb0",
            "hsets/h_109.txt": "98e7c6891cd94da5bf554155183f6b2eb10dcd348b00eae01282f2752278b2ef",
            "hsets/h_113.txt": "2094963baa7c3e3aabba65e2de540de978dc084bc19d0a572384057fa3dd48b4",
            "hsets/h_127.txt": "20de5f8b420f4f8fd6a91c97374779e2c592f1d3f9f68962941ebf8a4f4ce245",
            "hsets/h_131.txt": "aa49e10055292d405a4c266c61b1470ff92b65dec717317890b00957fa81dacf",
            "hsets/h_137.txt": "83d7db0047c74318908dfd86a39e9caa8087b44a79b130b368d77f5c32fb4579",
            "hsets/h_139.txt": "720a4ca68201f71433135b11395ffbaeabf943e9622928570948df479052be1d",
            "hsets/h_149.txt": "910916839bbe62a5fda39dbe33a37602282101de79185e4552b1d23693c0a487",
            "hsets/h_151.txt": "53d54f5090c7aec4233978b097de6fe1676767d8a8fef37e238ba3ff2d9cf4e4",
            "hsets/h_157.txt": "165bbb1e139749ba7c7f6fe562d7db8ed830fc9f762addf0eca3340306f7b278",
            "hsets/h_163.txt": "6097aa91296efd3fe392e84b8899e142d2b9811d4e65104fa331c09e40774d01",
            "hsets/h_167.txt": "d045acbc55a2c5b84dcef318297163447b111941c02a97b3c8a6bfc10716ceaa",
            "hsets/h_173.txt": "54554dc965f77dc73c8fc203a7c93b97d94ad482e8f263a67ff6181aa358e87f",
            "hsets/h_179.txt": "aa8fc2cba5154af61d2a7403ea6cbc345868d073a2a41ba28df2829625c9f580",
            "hsets/h_181.txt": "c1ab1a0552b8427f7e9c8e57993ef13ac8a658ecf6fc39c14eb3a8e0846df286",
            "hsets/h_191.txt": "716bf504276a8e1a222524e6d05dea65e72099e9823efb62ef5a50fd32e1ae5f",
            "hsets/h_193.txt": "66c5e3f4aa614b2ce071af9435bc122ffcb22516c3d6233c9abf5a146b1e43d2",
            "hsets/h_197.txt": "f538f93358b60c5f80d5051c87ce99a5fdaf3f3f1d710c3d5f5baeec96e8b9fd",
            "hsets/h_199.txt": "ee6c1f3e1551c757b9d83764108aff33adfbbf398df6a1c08feb5c95ace9b996",
        },
    ),
    "cyclic_build": (
        0,
        {
            "build.json": "adcde27f653826c6bb655f3df8d12bfff4e203d2d296cfe2fdbe816960a93e60",
            "hsets/h_10.txt": "82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae",
            "hsets/h_11.txt": "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
            "hsets/h_12.txt": "82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae",
            "hsets/h_13.txt": "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
            "hsets/h_14.txt": "82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae",
            "hsets/h_15.txt": "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
            "hsets/h_16.txt": "82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae",
            "hsets/h_17.txt": "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
            "hsets/h_18.txt": "82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae",
            "hsets/h_19.txt": "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
            "hsets/h_20.txt": "82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae",
            "hsets/h_21.txt": "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
            "hsets/h_22.txt": "82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae",
            "hsets/h_23.txt": "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
            "hsets/h_24.txt": "82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae",
            "hsets/h_25.txt": "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
            "hsets/h_26.txt": "82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae",
            "hsets/h_27.txt": "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
            "hsets/h_28.txt": "82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae",
            "hsets/h_29.txt": "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
            "hsets/h_30.txt": "82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae",
            "hsets/h_31.txt": "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
            "hsets/h_32.txt": "82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae",
            "hsets/h_33.txt": "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
            "hsets/h_34.txt": "82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae",
            "hsets/h_35.txt": "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
            "hsets/h_36.txt": "82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae",
            "hsets/h_37.txt": "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
            "hsets/h_38.txt": "82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae",
            "hsets/h_39.txt": "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
            "hsets/h_40.txt": "82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae",
            "hsets/h_41.txt": "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
            "hsets/h_42.txt": "82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae",
            "hsets/h_43.txt": "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
            "hsets/h_44.txt": "82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae",
            "hsets/h_45.txt": "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
            "hsets/h_46.txt": "82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae",
            "hsets/h_47.txt": "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
            "hsets/h_48.txt": "82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae",
            "hsets/h_49.txt": "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
            "hsets/h_5.txt": "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
            "hsets/h_50.txt": "82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae",
            "hsets/h_51.txt": "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
            "hsets/h_52.txt": "82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae",
            "hsets/h_53.txt": "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
            "hsets/h_54.txt": "82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae",
            "hsets/h_55.txt": "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
            "hsets/h_56.txt": "82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae",
            "hsets/h_57.txt": "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
            "hsets/h_58.txt": "82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae",
            "hsets/h_59.txt": "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
            "hsets/h_6.txt": "82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae",
            "hsets/h_60.txt": "82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae",
            "hsets/h_7.txt": "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
            "hsets/h_8.txt": "82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae",
            "hsets/h_9.txt": "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
        },
    ),
    "cyclic_axioms": (
        1,
        {
            "axioms.json": "7861b2b0928818f7c65dd2941e70f8089e1f58c040f897febb4b7ada3c2915c2",
            "failures.csv": "c99ed2b737f9c6211221dd1dc2f57c77e772a1e9e70740003a15e2c6f35b7456",
        },
    ),
    "cyclic_profile": (
        0,
        {
            "profiles.json": "7d3c2f54c68d07ac9590f0c216dd177924b3611a2b5391b3b0a9ba9c8a22d2d7",
        },
    ),
    "lovely_pair": (
        0,
        {
            "lovely_pair.csv": "f693df25bbbc82fbaa99ae549c6b521ca9e8bc00775183b0b29671e43bce53b2",
            "lovely_pair.json": "0ba23facf6a4c4aece39f2e17939d97f5c13cfdaceff2e2ef02042ca484bacdf",
        },
    ),
    "lovely_pair_sweep": (
        0,
        {
            "lovely_pair.csv": "a524362aec554f065a86352c8cc70d7f2a53e6a09b11d159caa8f8a2bbfedc54",
            "lovely_pair.json": "9a14678562ec7e7354da4010245b81072bde0e2c72ebf3f6c86ef63d2c3136a4",
        },
    ),
    "profile": (
        0,
        {
            "counts.csv": "71c3b704ccf1ebffd6f0a006ebf063667729dcd4d7ac41ab59e0dd82404a07e1",
            "profiles.json": "a4c6ba20617d004fca4992d95a624210940bdf22a050acbde794e25b9c3a3e27",
        },
    ),
    "strict_axioms": (
        0,
        {
            "axioms.json": "8cd5d5cd587bbf23901583bea0d8182717a873410534c3881a1d006d6c01555d",
        },
    ),
    "strict_build": (
        0,
        {
            "build.json": "3414ce310774c82ae23b07d24ce540c2973552f35167cf7c2847fe83059d23fa",
            "hsets/h_389.txt": "dcd5deef470973265a28f5c523d97dc38c6e8813d1bdcce30d4ea9a5e7dfed1f",
            "hsets/h_397.txt": "d4c0b85a17d575189d6a08d3102a54b688e6692b6343b34e8e1bfce004fb57ed",
            "hsets/h_401.txt": "1f142f6162304d02afd4f52b6c58985004d05b18e52aff827a4aea9cf10c247d",
            "hsets/h_409.txt": "b88a862c72421150d0f7c8e6f90955c4267fe43176e1e2db0791b420144d873c",
            "hsets/h_419.txt": "2c049daf3b279fb57a32fb43b7205e388fc0f206987281c2a653e1f9f87c3ccd",
            "hsets/h_421.txt": "640de5d03585802794963a2cba39ba941998aa2ff5ec9dd68bb15e07bfd45e34",
            "hsets/h_431.txt": "ca1a7d9674cff6cf242cc18f775cfa70cbf36a6b0ac233b9ce2f641ec7c3b419",
            "hsets/h_433.txt": "0e1cb497fc9196625426ad80017e1708f348ef0f29d6f55e34d772e07811ef2f",
            "hsets/h_439.txt": "01e856bd7f56a0104d870b6ed53ab3cab6a426c3b92980db6d02610e51b8636f",
            "hsets/h_443.txt": "b804e60b39bef404edbaaad8d94ff2aae322ba9052326cb8cc34d00079e96e73",
        },
    ),
    "sequence": (
        0,
        {
            "coarse_dim.csv": "bba4e550ddbf54fe95b027d58c51345291b95caf5e9b38ac421f0b2a2975395c",
            "coarse_dim.json": "082b0b5922c7a77b698e528890a390dc4f9f973c57e4df097990177fe35d1b02",
            "plan.json": "c0d5e674979d60b29b50030f49ab4848865a3993edaca2357aa2c18133443416",
        },
    ),
}


def run_digests(name, tmp_path, *extra):
    argv, config = RUNS[name]
    if isinstance(config, str):
        with open(os.path.join(CONFIGS, config)) as fh:
            config = json.load(fh)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(config))
    out = tmp_path / name
    rc = main([argv[0], "--config", str(path), "--out", str(out), *argv[1:], *extra])
    return rc, digest_tree(out)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_digests(name, tmp_path):
    assert run_digests(name, tmp_path) == GOLDEN[name]


@pytest.mark.parametrize("name", ["axioms", "build", "sequence", "strict_axioms", "strict_build"])
def test_digests_in_small_blocks(name, tmp_path, shrink_budget, monkeypatch):
    # 2000 cells is four to twenty columns over these universes (n <= 443),
    # and every tuple space here has n^k <= 443 tuples, so each enumerate-or-sample
    # decision is the one the full budget makes; one worker keeps every call
    # in this process
    shrink_budget(2000)
    cells = []
    for fn in (folang.solution_mask_matrix, hgreedy.closures):

        def recording(*args, _fn=fn, **kwargs):
            out = _fn(*args, **kwargs)
            cells.append(out.size)
            return out

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("hlab.") and getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, recording)
    assert run_digests(name, tmp_path, "--threads", "1") == GOLDEN[name]
    assert 0 < max(cells) <= folang.BUDGET


def test_build_is_the_top_level_of_sequence(tmp_path):
    # build.json lists exactly the plan's top-level entries, skips the rest,
    # and writes each entry's h
    path = tmp_path / "strict.json"
    path.write_text(json.dumps(STRICT))
    for command in ("build", "sequence"):
        assert main([command, "--config", str(path), "--out", str(tmp_path / command), "--threads", "2"]) == 0
    build = json.loads((tmp_path / "build" / "build.json").read_text())
    plan = json.loads((tmp_path / "sequence" / "plan.json").read_text())
    top = max(map(int, plan["levels"]))
    entries = {e["size"]: e for e in plan["entries"]}
    built = [size for size, e in entries.items() if e["level"] == top]
    assert [b["size"] for b in build["builds"]] == built
    assert build["skipped_sizes"] == [size for size in entries if size not in built]
    assert (len(built), len(build["skipped_sizes"])) == (10, 6)
    hsets = tmp_path / "build" / "hsets"
    assert sorted(p.name for p in hsets.iterdir()) == sorted(f"h_{size}.txt" for size in built)
    for size in built:
        assert (hsets / f"h_{size}.txt").read_text() == "".join(f"{e}\n" for e in entries[size]["report"]["h"])


EXTENSION_DIGEST = "70ebf75a06548e108d866bda810efd319a07a4ba84b4e49e7ba6fc2c3e31f454"
BINARY_EXTENSION_DIGEST = "a06d02d8fdb0a0e59079dfb45721fa1d4bd71c9fd697ca20c4eb3729209fc736"
PROFILE_DIGEST = "df678c2216cd27d53ec182fa8b6f4ffebda67d1dd09799ad4c8fa8c353af4063"


def test_sampled_extension_check():
    # arity 3 at size 221 puts 221**3 tuples over the Psi budget, so the
    # large tuples come from check_extension's own seeded sample
    M = make_cyclic_group(221)
    assert M.size**3 > BUDGET
    sig = M.sig
    pf = parse_formula("exists v. x = y + z + w + v + v", sig)
    xz = parse_formula("x = z", sig)
    family = [make_cyclic_group(n) for n in range(21, 28)]
    prof = profile_family(family, pf)
    result = check_extension(M, [0, 1], [prof], [xz], samples=50, seed=3, gamma_max_solutions=1)
    assert result["passed"]
    assert result["min_large_count"] == 221
    digest = hashlib.sha256(dump_json(result).encode()).hexdigest()
    assert digest == EXTENSION_DIGEST


def test_binary_avoid_extension_check():
    # a two-parameter avoid formula on Z_13 with a hand-picked H: pair sums
    # of H plus the sampled base swallow 10 of the 40 solution sets, the
    # count tests/test_haxioms.py's per-sample replay finds
    family = [make_cyclic_group(n) for n in range(9, 21)]
    sig = family[0].sig
    cover = [parse_formula("!(x = y)", sig), parse_formula("exists z. x = y + z + z", sig)]
    profiles = [profile_family(family, pf) for pf in cover]
    pairsum = parse_formula("x = z1 + z2", sig, params=("z1", "z2"))
    M = make_cyclic_group(13)
    result = check_extension(M, [0, 1, 3], profiles, [pairsum], samples=40, seed=2, gamma_max_solutions=1)
    assert len(result["failures"]) == 10
    digest = hashlib.sha256(dump_json(result).encode()).hexdigest()
    assert digest == BINARY_EXTENSION_DIGEST


def test_sampled_profile():
    # three parameters at sizes above 2**8 give n**3 > folang.BUDGET = 10**7
    # tuples (257**3 is about 1.7e7), so every count comes from the seeded sample
    family = [make_prime_field(p) for p in (257, 263)]
    pf = parse_formula("exists v. v*v = x*y - z*w", family[0].sig)
    prof = profile_family(family, pf, samples=2000, seed=5)
    assert not any(s.enumerated for s in prof.per_structure)
    digest = hashlib.sha256(dump_json(prof.to_json_dict()).encode()).hexdigest()
    assert digest == PROFILE_DIGEST

"""The benchmark's three workloads, as lists of hlab CLI commands.

Each workload is a session: its commands run one after another, each in a
fresh `hlab` process, exactly as a researcher runs them from a shell. The
workload seed is written into every generated config's `seed`; nothing else
about the inputs depends on it. Why each workload exists is in NOTES.md.
"""

from __future__ import annotations

from dataclasses import dataclass

SQUARE_SHIFT = "square_shift"
QUANTIFIER_LOOP = "quantifier_loop"
GF_P2_LADDER = "gf_p2_ladder"
WORKLOADS = (SQUARE_SHIFT, QUANTIFIER_LOOP, GF_P2_LADDER)

PRIME_FIELD = "prime-field"
EXTENSION_FIELD = "quadratic-extension-field"


@dataclass(frozen=True)
class Command:
    """One `hlab <name> --config <config> [args...]` process."""

    name: str
    config: dict
    args: tuple = ()
    threads: int = 1

    @property
    def label(self) -> str:
        """Metric stem: `lovely-pair` becomes `lovely_pair`."""
        return self.name.replace("-", "_")

    def argv(self, config_path: str, out_dir: str) -> list[str]:
        return [
            self.name,
            "--config",
            config_path,
            "--out",
            out_dir,
            "--threads",
            str(self.threads),
            *self.args,
        ]


def primes_between(lo: int, hi: int) -> list[int]:
    return [n for n in range(max(lo, 2), hi + 1) if all(n % d for d in range(2, int(n**0.5) + 1))]


def family_parameters(family: dict) -> list[int]:
    """The primes a `lo`..`hi` prime-field or quadratic-extension family
    selects; extensions skip 2."""
    params = primes_between(family["lo"], family["hi"])
    if family["family"] == EXTENSION_FIELD:
        params = [p for p in params if p != 2]
    return params


def operations(command: Command) -> int:
    """Operations the command attempts: one per structure it certifies, and
    for lovely-pair one per report (a sweep reports every non-subfield a1)."""
    params = family_parameters(command.config["family"])
    if command.name == "lovely-pair" and command.config.get("sweep_a1"):
        return sum(p * p - p for p in params)
    return len(params)


def square_shift(seed: int, nproc: int) -> list[Command]:
    config = {
        "family": {"family": PRIME_FIELD, "lo": 101, "hi": 1201},
        "cover": ["exists z. z*z = x - y", "!(x = y)"],
        "avoid": ["x = z", "x = z + 1"],
        "mu": 0.4,
        "gap": 0.05,
        "seed": seed,
        "mode": "strict",
        "extension_samples": 500,
        "base_max": 3,
    }
    threads = min(2, nproc)
    return [
        Command("profile", config, threads=threads),
        Command("build", config, threads=threads),
        Command("sequence", config, ("--mode", "coarse-dim"), threads=threads),
        Command("axioms", config, threads=threads),
    ]


def quantifier_loop(seed: int, nproc: int) -> list[Command]:
    config = {
        "family": {"family": PRIME_FIELD, "lo": 101, "hi": 307},
        # the extra conjunct keeps the body off the image-cache fast path,
        # so evaluation runs folang's per-element quantifier loop
        "cover": ["exists z. z*z = x - y & !(z = 0)"],
        "avoid": ["x = z"],
        "gap": 0.05,
        "seed": seed,
        "mode": "best_effort",
        "extension_samples": 20,
        "base_max": 3,
    }
    return [Command(name, config) for name in ("profile", "build", "axioms")]


def gf_p2_ladder(seed: int, nproc: int) -> list[Command]:
    ladder = {"family": {"family": EXTENSION_FIELD, "lo": 3, "hi": 83}, "seed": seed}
    sweep = {
        "family": {"family": EXTENSION_FIELD, "lo": 3, "hi": 23},
        "seed": seed,
        "sweep_a1": True,
    }
    return [Command("lovely-pair", ladder), Command("lovely-pair", sweep)]


SESSIONS = {
    SQUARE_SHIFT: square_shift,
    QUANTIFIER_LOOP: quantifier_loop,
    GF_P2_LADDER: gf_p2_ladder,
}


def commands(workload: str, seed: int, nproc: int) -> list[Command]:
    return SESSIONS[workload](seed, nproc)

"""The benchmark's workloads: fixed lists of perdom CLI commands.

Each command names a spec, either one shipped in the repository's ``specs/``
or one of the benchmark's own in ``bench/specs/``.  The seed changes only the
representative of ``mu`` (a Weyl conjugate, so the dominant cocharacter and
the work stay the same) and the ``verify --seed`` value; the golden output of
a command is therefore the same for every seed.  README.md says why each
workload exists.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SHIPPED = ("sl2", "sl3_flags", "sl3_minuscule", "u3", "central")


@dataclass(frozen=True)
class Command:
    subcommand: str
    spec: str
    m: str | None = None

    @property
    def id(self) -> str:
        suffix = f"-m{self.m.replace(',', '_')}" if self.m else ""
        return f"{self.subcommand}-{self.spec}{suffix}"


WORKLOADS = {
    "engine": tuple(
        Command("cohomology", s)
        for s in SHIPPED + ("b3", "d4", "g2", "a3_twisted")
    ),
    "verify": tuple(
        [Command("verify", s, "1,2,3") for s in ("sl2", "sl3_flags", "sl3_minuscule", "u3")]
        + [Command("verify", s, "1") for s in ("sl4_mid", "sl4_grass")]
        + [Command("dims", "sl4_mid")]
    ),
    "sweep": tuple(
        [Command("sweep", s, "1,2,3") for s in ("sl3_flags", "sl3_minuscule", "u3")]
        + [Command("sweep", s, "1") for s in ("sl4_mid", "sl4_grass")]
    ),
    "bigfield": (Command("verify", "sl2", "8,9,10"),),
}


def spec_path(root: Path, name: str) -> Path:
    if name in SHIPPED:
        return root / "specs" / f"{name}.json"
    return BENCH_DIR / "specs" / f"{name}.json"


def weyl_conjugate(cartan_type, mu, rng: random.Random) -> list[int]:
    """A random W-conjugate of mu, factor by factor in the ambient coordinates.

    A: permutations.  B, C: signed permutations.  D: signed permutations with
    an even number of sign changes.  G2 (realised in the trace-zero plane of
    3-space): permutations times a global sign.
    """
    out: list[int] = []
    pos = 0
    for family, rank in cartan_type:
        family = family.upper()
        size = 3 if family == "G" else rank + 1 if family == "A" else rank
        block = list(mu[pos:pos + size])
        pos += size
        rng.shuffle(block)
        if family in ("B", "C", "D"):
            signs = [rng.choice((1, -1)) for _ in block]
            if family == "D" and signs.count(-1) % 2:
                signs[-1] = -signs[-1]
            block = [s * c for s, c in zip(signs, block)]
        elif family == "G":
            sign = rng.choice((1, -1))
            block = [sign * c for c in block]
        out.extend(block)
    return out


def command_argv(root: Path, work: Path, cmd: Command, seed: int) -> list[str]:
    """perdom arguments for one command, writing its seeded spec into ``work``."""
    raw = json.loads(spec_path(root, cmd.spec).read_text(encoding="utf-8"))
    rng = random.Random(f"{seed}:{cmd.spec}")
    raw["mu"] = weyl_conjugate(raw["type"], raw["mu"], rng)
    path = work / f"{cmd.spec}.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    argv = [cmd.subcommand, "--spec", str(path)]
    if cmd.m:
        argv += ["--m", cmd.m]
    if cmd.subcommand == "verify":
        argv += ["--seed", str(seed)]
    return argv


def normalise(output: str) -> str:
    """The report without the fields that echo the input representative."""
    report = json.loads(output)
    report.pop("spec", None)
    report.pop("dominance_normalized", None)
    report.get("verification", {}).get("invariant_spot_checks", {}).pop("seed", None)
    return json.dumps(report, sort_keys=True, indent=1) + "\n"

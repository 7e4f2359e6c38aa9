"""Seeded inputs of every workload, drawn from the committed catalog.

`catalog.json` (written by `pin.py`) lists each workload's input family with
the exact output digest of every member and the seconds one member cost when
it was pinned. A run draws its inputs from the catalog with the workload seed:

- Members are sorted by cost. The `TAIL` dearest are in every run; the rest
  are cut into equal blocks, and the seed picks one member per block. This
  is stratified sampling: every run holds cheap, median and expensive
  members in the same proportions, so the work of a run barely depends on
  the seed while the members themselves change with it.
- The number of blocks is set from `--seconds` and the pinned mean cost, so a
  run does about `--seconds` of work at the pinning commit.

Every function here is deterministic in its arguments.
"""

from __future__ import annotations

import hashlib
import json
import math
import platform
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CATALOG = HERE / "catalog.json"

WORKLOADS = ("completion", "scan", "cli", "oracle")

# At least 20 timed items per run, so that ten samples lie beyond the median.
MIN_ITEMS = 30
# The most expensive members of a family are in every run: drawn from a block
# of their own they would make the run's work depend on the seed, and in
# completion they are the tail that exposes the cost of pair generation.
TAIL = 3
# Fresh worker processes per run; each holds a share of the run's items.
PASSES = {"completion": 3, "scan": 2, "cli": 1, "oracle": 3}
# Set-up is measured in at least this many fresh processes per run.
SETUP_SAMPLES = 5

# completion: the family is the distinct gcd-normalised 1x5 curves with
# entries <= 20; its gated part holds the curves whose Graver basis has at
# most this many elements (see NOTES.md for the larger ones).
COMPLETION_MAX_ELEMENTS = 1100

# oracle: acceptance-6 settings.
ORACLE_BOX, ORACLE_WBOX = 17, 20

# scan: one exhaustive family per pass, and single-instance sampled searches.
SCAN_EXHAUSTIVE = ([3], 20)
SCAN_SAMPLED = ([4], 30)

# cli: the Lambda(T)_omega liftings take omega in {empty, {1}, {s}}.
EXAMPLE_E = ROOT / "data" / "exampleE.mat"
GENLAW_SPEC = ROOT / "data" / "genlaw456.json"
BIG_CURVE = (24, 40, 41, 60, 80)


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def load_catalog() -> dict:
    return json.loads(CATALOG.read_text())


def normalized(entries) -> tuple[int, ...]:
    g = math.gcd(*entries)
    return tuple(sorted(x // g for x in entries))


def stratified(members: list, blocks: int, rng: random.Random) -> list:
    """One member from each of `blocks` equal slices of the cost-sorted list."""
    n = len(members)
    blocks = min(blocks, n)
    return [members[rng.randrange(n * b // blocks, n * (b + 1) // blocks)]
            for b in range(blocks)]


def draw(members: list, seconds: float, fixed_s: float, rng: random.Random) -> list:
    """The TAIL dearest members, then one member per block of the rest.

    The blocks fill what `seconds` leaves after `fixed_s` and the tail.
    """
    tail, rest = members[-TAIL:], members[:-TAIL]
    left = seconds - fixed_s - sum(m["cost_s"] for m in tail)
    mean = sum(m["cost_s"] for m in rest) / len(rest)
    blocks = max(MIN_ITEMS, min(len(rest), round(left / mean)))
    return tail + stratified(rest, blocks, rng)


def _balanced(items: list, passes: int, rng: random.Random) -> list[list]:
    """Deal items to passes, dearest first to the least loaded, then shuffle each."""
    loads = [0.0] * passes
    out: list[list] = [[] for _ in range(passes)]
    for item in sorted(items, key=lambda m: -m["cost_s"]):
        k = loads.index(min(loads))
        loads[k] += item["cost_s"]
        out[k].append(item)
    for share in out:
        rng.shuffle(share)
    return out


def plan(workload: str, seed: int, seconds: float, catalog: dict | None = None) -> list[dict]:
    """The inputs of every pass of one run, as JSON-ready dicts."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    catalog = catalog if catalog is not None else load_catalog()
    rng = random.Random(f"{workload}:{seed}")
    passes = PASSES[workload]
    if workload == "completion":
        gated = [m for m in catalog["completion"] if m["size"] <= COMPLETION_MAX_ELEMENTS]
        items = draw(gated, seconds, 0.0, rng)
        return [{"curves": share} for share in _balanced(items, passes, rng)]
    if workload == "oracle":
        items = draw(catalog["oracle"], seconds, 0.0, rng)
        return [{"curves": share} for share in _balanced(items, passes, rng)]
    if workload == "scan":
        exhaustive = catalog["scan"]["exhaustive"]
        items = draw(catalog["scan"]["sampled"], seconds, passes * exhaustive["cost_s"], rng)
        return [{"exhaustive": exhaustive, "sampled": share}
                for share in _balanced(items, passes, rng)]
    cli = catalog["cli"]
    return [{
        "fixed": cli["fixed"],
        "complex": rng.sample(cli["curves3"], 2),
        "liftings": [rng.choice(cli["curves4"]), rng.choice(cli["curves5"])],
    }]


def digest(obj) -> str:
    """Short digest of a JSON-ready object or of bytes."""
    data = obj if isinstance(obj, bytes) else json.dumps(obj, separators=(",", ":")).encode()
    return hashlib.sha256(data).hexdigest()[:20]


def input_digest(passes: list[dict]) -> str:
    """Digest of the drawn inputs, without the pinned costs and output digests."""
    def strip(value):
        if isinstance(value, dict):
            return {k: strip(v) for k, v in value.items()
                    if k not in ("cost_s", "digest", "digests")}
        if isinstance(value, list):
            return [strip(v) for v in value]
        return value
    return digest(strip(passes))


def lifting_omegas(s: int) -> list[list[int]]:
    return [[], [1], [s]]


def cli_commands(inputs: dict, workdir: Path) -> list[tuple[str, list[str]]]:
    """(pin label, argv) of every command of one cli pass; files under workdir."""
    def mat(name):
        return str(workdir / f"{name}.mat")

    cmds = []
    for name in ("E", "G810"):
        for command in ("check-robust", "indispensable"):
            cmds.append((f"{command} {name}", [command, mat(name)]))
    for command in ("circuits", "bouquets", "reconstruct"):
        cmds.append((f"{command} E", [command, mat("E")]))
    cmds.append(("genlaw genlaw456 --verify",
                 ["genlaw", str(workdir / "genlaw456.json"), "--verify"]))
    for T in [list(BIG_CURVE)] + [c["T"] for c in inputs["complex"]]:
        words = [str(x) for x in T]
        cmds.append((f"complex {' '.join(words)} --verify", ["complex", *words, "--verify"]))
    for curve in inputs["liftings"]:
        for omega in lifting_omegas(len(curve["T"])):
            name = lifting_name(curve["T"], omega)
            for command in ("check-robust", "indispensable"):
                cmds.append((f"{command} {name}", [command, mat(name)]))
    return cmds


def lifting_name(T, omega) -> str:
    return "L" + "-".join(str(x) for x in T) + "_w" + "".join(str(i) for i in omega)

"""Write `catalog.json`: the input families of the benchmark with pinned outputs.

    python3 perfbench/pin.py

Run it only when the families change or when a change to graverkit is meant
to change an output; every benchmark run compares its outputs with the
digests written here. It records, for each member, the exact output digest
and the seconds the member cost here (the key of the stratified draw in
`inputs.py`), and the quiet probe time of `pace.py`. It takes a few minutes
on two cores.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import platform
import random
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from graverkit import IntMat, graver_basis, is_simple  # noqa: E402
from graverkit.cli import main as cli_main  # noqa: E402
from graverkit.search import sullivant_search  # noqa: E402

import gate  # noqa: E402
import inputs  # noqa: E402
import pace  # noqa: E402
from worker import oracle_pair, write_cli_files  # noqa: E402

FAMILY_SEED = 12345
COMPLETION_MEMBERS = 300
SCAN_SEEDS = 400
CLI_MEMBERS = 12


# Probes of the host, taken before every measured call; the fastest is the
# quiet probe time the runs scale their times to.
PROBES: list[float] = []


def _clock(fn, *args, **kwargs):
    PROBES.append(pace.probe())
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def distinct_curves(s: int, bound: int, count: int, rng: random.Random) -> list[tuple]:
    seen: dict[tuple, None] = {}
    while len(seen) < count:
        seen.setdefault(inputs.normalized([rng.randint(1, bound) for _ in range(s)]))
    return list(seen)


def pin_completion() -> list[dict]:
    members = []
    for T in distinct_curves(5, 20, COMPLETION_MEMBERS, random.Random(FAMILY_SEED)):
        A = IntMat.row_vector(T)
        G, cold = _clock(graver_basis, A)
        _, warm = _clock(graver_basis, A)
        members.append({"T": list(T), "size": len(G), "cost_s": round(cold + warm, 6),
                        "digest": gate.basis_digest(G.elements)})
    return sorted(members, key=lambda m: m["cost_s"])


def pin_oracle() -> list[dict]:
    members = []
    curves = {inputs.normalized(e)
              for e in itertools.combinations_with_replacement(range(1, 16), 3)}
    for T in sorted(curves):
        A = IntMat.row_vector(T)
        (G, S), cold = _clock(oracle_pair, A)
        # a run computes each curve twice and the oracle keeps no cache
        members.append({"T": list(T), "cost_s": round(2 * cold, 6),
                        "digest": gate.oracle_digest(G, S)})
    return sorted(members, key=lambda m: m["cost_s"])


def pin_scan() -> dict:
    report, cost = _clock(sullivant_search, *inputs.SCAN_EXHAUSTIVE)
    exhaustive = {"instances": report.instances, "cost_s": round(cost, 6),
                  "digest": gate.report_digest(report)}
    sampled, seen = [], set()
    for seed in range(SCAN_SEEDS):
        report, cold = _clock(sullivant_search, *inputs.SCAN_SAMPLED, sample_budget=1, seed=seed)
        _, warm = _clock(sullivant_search, *inputs.SCAN_SAMPLED, sample_budget=1, seed=seed)
        # the one curve a single-instance search draws
        rng = random.Random(seed)
        T = inputs.normalized([rng.randint(1, inputs.SCAN_SAMPLED[1])
                               for _ in range(inputs.SCAN_SAMPLED[0][0])])
        if T in seen:  # a repeated curve would be served from the memo
            continue
        seen.add(T)
        sampled.append({"seed": seed, "T": list(T), "instances": report.instances,
                        "cost_s": round(cold + warm, 6), "digest": gate.report_digest(report)})
    return {"exhaustive": exhaustive, "sampled": sorted(sampled, key=lambda m: m["cost_s"])}


def _cli_stdout(argv) -> bytes | None:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli_main(argv)
    return buffer.getvalue().encode() if code == 0 else None


def pin_cli(workdir: Path) -> dict:
    rng = random.Random(FAMILY_SEED)

    def simple_curves(s, bound):
        pool = [T for T in distinct_curves(s, bound, 4 * CLI_MEMBERS, rng)
                if is_simple(IntMat.row_vector(T))]
        return [{"T": list(T)} for T in pool]

    families = {"curves3": simple_curves(3, 15), "curves4": simple_curves(4, 10),
                "curves5": simple_curves(5, 8)}
    share = {"fixed": {}, "complex": [], "liftings": []}
    write_cli_files(share, workdir)
    cache = ["--cache-dir", str(workdir / "cache")]
    fixed = {label: _cli_stdout(argv + cache)
             for label, argv in inputs.cli_commands(share, workdir)}
    if None in fixed.values():
        raise SystemExit(f"a fixed cli command failed: {fixed}")
    catalog = {"fixed": {label: inputs.digest(out) for label, out in fixed.items()}}
    for name, curves in families.items():
        kept = []
        for curve in curves:
            key = "complex" if name == "curves3" else "liftings"
            share = {"fixed": {}, "complex": [], "liftings": []}
            share[key] = [curve]
            write_cli_files(share, workdir)
            commands = inputs.cli_commands(share, workdir)[len(fixed):]
            outs, cost = _clock(lambda: {label: _cli_stdout(argv + cache)
                                         for label, argv in commands})
            # members on which some command fails are outside the family
            if None in outs.values():
                continue
            kept.append({"T": curve["T"], "cost_s": round(cost, 6),
                         "digests": {label: inputs.digest(out) for label, out in outs.items()}})
            if len(kept) == CLI_MEMBERS:
                break
        catalog[name] = kept
    return catalog


def _dump(catalog: dict) -> str:
    """JSON with one family member per line."""
    def block(value, indent):
        pad = " " * indent
        if isinstance(value, dict) and any(isinstance(v, (dict, list)) for v in value.values()):
            items = [f"{pad} {json.dumps(k)}: {block(v, indent + 1).lstrip()}"
                     for k, v in value.items()]
            return pad + "{\n" + ",\n".join(items) + "\n" + pad + "}"
        if isinstance(value, list) and value and isinstance(value[0], dict):
            items = [f"{pad} {json.dumps(v, separators=(',', ':'))}" for v in value]
            return pad + "[\n" + ",\n".join(items) + "\n" + pad + "]"
        return pad + json.dumps(value, separators=(",", ":"))
    return block(catalog, 0) + "\n"


def main() -> int:
    workdir = inputs.ROOT / ".perfbench_tmp" / "pin"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        catalog = {
            "pinned_on": {"cpu": inputs.cpu_model(), "nproc": os.cpu_count(),
                          "python": platform.python_version()},
            "cli": pin_cli(workdir),
            "scan": pin_scan(),
            "oracle": pin_oracle(),
            "completion": pin_completion(),
        }
        catalog["probe_s"] = min(PROBES)
    finally:
        shutil.rmtree(workdir.parent, ignore_errors=True)
    inputs.CATALOG.write_text(_dump(catalog))
    for name in ("completion", "oracle"):
        print(name, len(catalog[name]), "members,",
              round(sum(m["cost_s"] for m in catalog[name]), 1), "s")
    print("scan", len(catalog["scan"]["sampled"]), "sampled seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main())

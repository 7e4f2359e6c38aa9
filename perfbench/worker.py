"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed N --seconds S --pass K --out FILE
                                --workdir DIR
                                [--trace] [--setup-only]

Imports graverkit from the checkout's `src/`, draws the pass's inputs, stamps
the start of the timed section with `time.monotonic()` (comparable with the
launcher's stamp, so the launcher can compute set-up time), runs the timed
section, and only then checks every output. The result goes to FILE as JSON.
Each timed call sits between two probes of the host's speed (`pace.py`);
the probe times go into the result, so the launcher can scale the times.
With `--setup-only` it probes the host a few times after the stamp and
stops: the launcher uses such workers to measure set-up more often than it
runs passes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

# The import is part of the measured set-up. Timed calls go through the
# package's attributes, which a traced run replaces with its wrappers.
import graverkit  # noqa: E402
import graverkit.oracle  # noqa: E402
from graverkit import GenLawrenceSpec, IntMat  # noqa: E402

import gate  # noqa: E402
import inputs  # noqa: E402
from pace import probe  # noqa: E402
from tracing import Tracer  # noqa: E402

CLI_TIMEOUT_S = 120
WARM_BATCH = 100
SETUP_PROBES = 5


class Pass:
    """Timings, failures and (in traced runs) span summaries of one pass."""

    def __init__(self):
        self.probes: list[float] = []
        self.timed_s = 0.0  # the pass's timed section: its timed calls, not the probes
        # [milliseconds, mean probe seconds around the call] per timed item
        self.cold: list[list[float]] = []
        self.warm: list[list[float]] = []
        self.attempted = 0
        self.failed: dict[str, int] = {}  # failed item -> how many items it stands for
        self.messages: list[str] = []
        self.summaries: list[dict] = []

    def fail(self, item: str, problem: str, weight: int = 1) -> None:
        self.failed.setdefault(item, weight)
        self.messages.append(f"{item}: {problem}")

    def timed(self, fn, *args, **kwargs):
        """Call fn between two probes of the host.

        Returns fn's result, the call's milliseconds and the mean of the
        two probes.
        """
        before = probe()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            seconds = time.perf_counter() - start
            self.timed_s += seconds
            after = probe()
            self.probes += [before, after]
        return result, seconds * 1e3, (before + after) / 2


def _repeat(fn, arg, times: int):
    for _ in range(times):
        result = fn(arg)
    return result


# ---------------------------------------------------------------------------
# completion: each curve once to graver_basis, then once more (memo)

def run_completion(share, out: Pass):
    results = []
    for curve in share["curves"]:
        A = IntMat.row_vector(curve["T"])
        out.attempted += 1
        try:
            G, ms, p = out.timed(graverkit.graver_basis, A)
        except Exception as exc:  # counted, the pass goes on
            out.fail(f"graver_basis{tuple(curve['T'])}", repr(exc))
            results.append(None)
            continue
        out.cold.append([ms, p])
        results.append((A, G))
    for A, G in filter(None, results):
        # a memo hit takes about a microsecond: time a batch, report one call
        again, ms, p = out.timed(_repeat, graverkit.graver_basis, A, WARM_BATCH)
        out.warm.append([ms / WARM_BATCH, p])
        if again.elements != G.elements:
            out.fail(f"graver_basis{A.rows[0]}", "repeated call differs")
    return results


def check_completion(share, results, out: Pass):
    for curve, result in zip(share["curves"], results):
        if result is None:
            continue
        A, G = result
        problems = gate.basis_problems(A.rows, G.elements)
        if gate.basis_digest(G.elements) != curve["digest"]:
            problems.append("digest differs from the pinned one")
        for p in problems:
            out.fail(f"graver_basis{tuple(curve['T'])}", p)


# ---------------------------------------------------------------------------
# oracle: graver_by_enumeration and indispensable_by_enumeration, twice

def oracle_pair(A):
    return (graverkit.oracle.graver_by_enumeration(A, inputs.ORACLE_BOX),
            graverkit.oracle.indispensable_by_enumeration(A, inputs.ORACLE_BOX,
                                                          inputs.ORACLE_WBOX))


def run_oracle(share, out: Pass):
    results = []
    for curve in share["curves"]:
        A = IntMat.row_vector(curve["T"])
        out.attempted += 1
        try:
            pair, ms, p = out.timed(oracle_pair, A)
        except Exception as exc:
            out.fail(f"oracle{tuple(curve['T'])}", repr(exc))
            results.append(None)
            continue
        out.cold.append([ms, p])
        results.append((A, pair))
    for A, pair in filter(None, results):
        again, ms, p = out.timed(oracle_pair, A)
        out.warm.append([ms, p])
        if again != pair:
            out.fail(f"oracle{A.rows[0]}", "repeated call differs")
    return results


def check_oracle(share, results, out: Pass):
    for curve, result in zip(share["curves"], results):
        if result is None:
            continue
        A, (G_enum, S_enum) = result
        G = graverkit.graver_basis(A)
        problems = []
        if set(G_enum) != G.as_set():
            problems.append("graver_by_enumeration differs from graver_basis")
        if set(S_enum) != graverkit.indispensable_set(A, G=G).as_set():
            problems.append("indispensable_by_enumeration differs from indispensable_set")
        problems += gate.basis_problems(A.rows, G_enum)
        if gate.oracle_digest(G_enum, S_enum) != curve["digest"]:
            problems.append("digest differs from the pinned one")
        for p in problems:
            out.fail(f"oracle{tuple(curve['T'])}", p)


# ---------------------------------------------------------------------------
# scan: one exhaustive family, then single-instance sampled searches, twice

def _search(out: Pass, family_size: int, s_values, bound, **kwargs):
    """`Pass.timed` of one search; (None, None, None) if it raised."""
    out.attempted += family_size
    try:
        return out.timed(graverkit.sullivant_search, s_values, bound, **kwargs)
    except Exception as exc:  # every instance of the family fails, the pass goes on
        out.fail(_search_item(kwargs.get("seed")), repr(exc), weight=family_size)
        return None, None, None


def _search_item(seed) -> str:
    return "search exhaustive" if seed is None else f"search seed {seed}"


def run_scan(share, out: Pass):
    exhaustive, _, _ = _search(out, share["exhaustive"]["instances"], *inputs.SCAN_EXHAUSTIVE)
    sampled = []
    for member in share["sampled"]:
        report, ms, p = _search(out, 1, *inputs.SCAN_SAMPLED, sample_budget=1,
                                seed=member["seed"])
        if report is not None:
            out.cold.append([ms, p])
        sampled.append(report)
    for member, report in zip(share["sampled"], sampled):
        if report is None:
            continue
        again, ms, p = out.timed(graverkit.sullivant_search, *inputs.SCAN_SAMPLED,
                                 sample_budget=1, seed=member["seed"])
        out.warm.append([ms, p])
        if gate.report_digest(again) != gate.report_digest(report):
            out.fail(_search_item(member["seed"]), "repeated call differs")
    return exhaustive, sampled


def check_scan(share, results, out: Pass):
    exhaustive, sampled = results
    pinned = [(share["exhaustive"], exhaustive)] + list(zip(share["sampled"], sampled))
    for member, report in pinned:
        if report is None:
            continue
        problems = gate.report_problems(report, member["instances"])
        if gate.report_digest(report) != member["digest"]:
            problems.append("digest differs from the pinned one")
        for p in problems:
            out.fail(_search_item(member.get("seed")), p, weight=member["instances"])


# ---------------------------------------------------------------------------
# cli: every command in its own process, cold then warm on one cache directory

def write_cli_files(share, workdir: Path) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / "E.mat").write_text(inputs.EXAMPLE_E.read_text())
    spec_text = inputs.GENLAW_SPEC.read_text()
    (workdir / "genlaw456.json").write_text(spec_text)
    raw = json.loads(spec_text)
    spec = GenLawrenceSpec(T=tuple(raw["T"]), c_vectors=tuple(tuple(c) for c in raw["c"]),
                           lambda_vectors=tuple(tuple(v) for v in raw["lambda"]))
    (workdir / "G810.mat").write_text(graverkit.build_gen_lawrence(spec).matrix.to_text())
    for curve in share["liftings"]:
        for omega in inputs.lifting_omegas(len(curve["T"])):
            text = graverkit.lambda_matrix(curve["T"], omega).matrix.to_text()
            (workdir / f"{inputs.lifting_name(curve['T'], omega)}.mat").write_text(text)


def run_cli(share, out: Pass, workdir: Path, traced: bool):
    cache = workdir / "cache"
    spans_dir = workdir / "spans"
    spans_dir.mkdir()
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    env.pop("GRAVERKIT_CACHE_DIR", None)
    commands = inputs.cli_commands(share, workdir)
    outputs = {}
    for phase, times in (("cold", out.cold), ("warm", out.warm)):
        for i, (label, argv) in enumerate(commands):
            out.attempted += 1
            if traced:
                env["PERFBENCH_SPANS"] = str(spans_dir / f"{phase}-{i}.json")
                head = [sys.executable, str(HERE / "cli_runner.py")]
            else:
                head = [sys.executable, "-m", "graverkit.cli"]
            try:
                proc, ms, p = out.timed(subprocess.run,
                                        [*head, *argv, "--cache-dir", str(cache)],
                                        env=env, capture_output=True, timeout=CLI_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                out.fail(f"{phase} {label}", f"no exit within {CLI_TIMEOUT_S} s")
                continue
            times.append([ms, p])
            if proc.returncode != 0:
                out.fail(f"{phase} {label}", f"exit {proc.returncode}: "
                         f"{proc.stderr.decode(errors='replace')[-300:]}")
                continue
            outputs[(phase, label)] = proc.stdout
    return commands, outputs


def check_cli(share, results, out: Pass):
    commands, outputs = results
    expected = dict(share["fixed"])
    for curve in share["complex"] + share["liftings"]:
        expected.update(curve["digests"])
    for label, _ in commands:
        cold, warm = outputs.get(("cold", label)), outputs.get(("warm", label))
        if cold is not None and warm is not None and cold != warm:
            out.fail(f"warm {label}", "stdout differs from the cold pass")
        for phase, stdout in (("cold", cold), ("warm", warm)):
            if stdout is not None and inputs.digest(stdout) != expected.get(label):
                out.fail(f"{phase} {label}", "stdout digest differs from the pinned one")


def collect_cli_spans(workdir: Path) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted((workdir / "spans").glob("*.json"))]


# ---------------------------------------------------------------------------

RUN = {"completion": run_completion, "oracle": run_oracle, "scan": run_scan}
CHECK = {"completion": check_completion, "oracle": check_oracle, "scan": check_scan,
         "cli": check_cli}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--pass", dest="pass_index", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    share = inputs.plan(args.workload, args.seed, args.seconds)[args.pass_index]
    workdir = Path(args.workdir)
    if args.workload == "cli":
        write_cli_files(share, workdir)
    result = {"graverkit": str(Path(graverkit.__file__).resolve().parent),
              "input_digest": inputs.input_digest([share])}
    out = Pass()
    tracer = Tracer() if args.trace and args.workload != "cli" else None
    if tracer is not None:
        tracer.install()
    first_call = time.monotonic()
    if args.setup_only:
        if tracer is not None:
            tracer.uninstall()
        probes = [probe() for _ in range(SETUP_PROBES)]
        result.update(first_call=first_call, probe_mean_s=sum(probes) / len(probes))
        Path(args.out).write_text(json.dumps(result))
        return 0
    if args.workload == "cli":
        results = run_cli(share, out, workdir, args.trace)
    else:
        results = RUN[args.workload](share, out)
    if tracer is not None:
        tracer.uninstall()
        out.summaries.append(tracer.summary())
    elif args.workload == "cli" and args.trace:
        out.summaries.extend(collect_cli_spans(workdir))
    try:
        CHECK[args.workload](share, results, out)
    except Exception:  # a crashing check is a failed check, never a pass
        out.fail("output check", traceback.format_exc(limit=3), weight=out.attempted)
    if args.workload == "cli":
        shutil.rmtree(workdir, ignore_errors=True)
    result.update(first_call=first_call, timed_s=out.timed_s, cold=out.cold, warm=out.warm,
                  probe_mean_s=sum(out.probes) / len(out.probes) if out.probes else None,
                  attempted=out.attempted,
                  failed=min(out.attempted, sum(out.failed.values())), messages=out.messages,
                  summaries=out.summaries)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

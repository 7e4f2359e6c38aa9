"""graverkit benchmark: one run of one workload, or every workload in turn.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

A run starts fresh worker processes (`worker.py`) one at a time: each pass of
the workload, then set-up-only workers until set-up has been measured
`SETUP_SAMPLES` times. Every time is divided by the factor by which the host
was slow around it (`pace.py`); the raw times stay in the record.

Untraced runs (`--trace 0`) report the end-to-end metrics. Traced runs
(`--trace 1`) repeat the first pass untraced, run every pass with spans
around graverkit's public functions, and report the per-layer metrics. Every
run checks every output after its timed sections.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the line before it is the full record
(environment, sample counts, failure messages). The exit code is 0 only when
every output was correct. Run from a checkout that holds `src/graverkit`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"
RUN_LIMIT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cold_p50_ms": "ms",
    "warm_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

COUNTERS = {
    "graver.graver_basis.distinct": "count",
    "graver.memo_hit_ratio": "ratio",
    "graver.elements": "count",
    "graver.graver_basis.max_s": "s",
    "robustness.witnesses_found": "count",
    "robustness.witness_hit_ratio": "ratio",
    "complexes.robust_complex.p50_ms": "ms",
    "complexes.robust_complex.p99_ms": "ms",
    "oracle.points": "count",
    "search.instances": "count",
    "store.cache_hits": "count",
    "store.bytes_written": "bytes",
    "cli.import_s": "s",
    "unattributed_s": "s",
    "trace_overhead_frac": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for _, _, stem, _ in tracing.TRACED:
        units[f"{stem}.calls"] = "count"
        units[f"{stem}.self_s"] = "s"
    units.update(COUNTERS)
    return units


PER_LAYER = per_layer_units()


def percentile(values, q: float) -> tuple[float | None, int]:
    """Nearest-rank q-quantile and the sample count.

    The value is None unless at least ten samples lie beyond it.
    """
    n = len(values)
    if n == 0:
        return None, 0
    rank = max(1, math.ceil(q * n))
    if n - rank < 10:
        return None, n
    return sorted(values)[rank - 1], n


# ---------------------------------------------------------------------------
# environment

def environment(seed: int, plan: list[dict]) -> dict:
    import numpy

    revision = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        revision = proc.stdout.strip() or None
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "cpu": inputs.cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": revision,
        "seed": seed,
        "input_digest": inputs.input_digest(plan),
        "src_lines": src_lines,
    }


# ---------------------------------------------------------------------------
# worker processes

def launch(workload, seed, seconds, index, tmp: Path, deadline: float, probe_s: float,
           tag: str, *, trace=False, setup_only=False) -> dict:
    """Run one worker to completion.

    Its result, plus set-up time, peak RSS and `slow`, the factor by which the
    host was slower than the pinned quiet probe time `probe_s`.
    """
    out = tmp / f"pass-{tag}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--pass", str(index),
           "--out", str(out), "--workdir", str(tmp / f"work-{tag}")]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("GRAVERKIT_CACHE_DIR", None)
    launched = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=sys.stderr.fileno())
    timed_out = False
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            timed_out = True
            break
        time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = {"ok": False, "rss_mb": usage.ru_maxrss / 1024.0}
    if timed_out:
        result["error"] = "worker ran past the run's time limit"
    elif proc.returncode != 0 or not out.exists():
        result["error"] = f"worker exited with {proc.returncode}"
    else:
        result.update(json.loads(out.read_text()), ok=True)
        result["setup_s"] = result["first_call"] - launched
        result["slow"] = (result["probe_mean_s"] or probe_s) / probe_s
        if not Path(result["graverkit"]).is_relative_to(SRC):
            result.update(ok=False, error=f"imported graverkit from {result['graverkit']}")
    return result


def expected_items(workload: str, share: dict) -> int:
    if workload == "scan":
        return share["exhaustive"]["instances"] + len(share["sampled"])
    if workload == "cli":
        return 2 * len(inputs.cli_commands(share, Path(".")))
    return len(share["curves"])


# ---------------------------------------------------------------------------
# one run

def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    # Every process of the run shares one CPU, so that the probes of the
    # host's speed (pace.py) run where the measured work runs.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    catalog = inputs.load_catalog()
    plan = inputs.plan(workload, seed, seconds, catalog)
    probe_s = catalog["probe_s"]
    tmp = TMP / f"run-{os.getpid()}-{workload}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        baseline = None
        if trace:
            baseline = launch(workload, seed, seconds, 0, tmp, deadline, probe_s, "untraced")
        passes = [launch(workload, seed, seconds, k, tmp, deadline, probe_s, f"pass{k}",
                         trace=trace)
                  for k in range(len(plan))]
        setups = []
        if not trace:
            for k in range(max(0, inputs.SETUP_SAMPLES - len(plan))):
                setups.append(launch(workload, seed, seconds, k % len(plan), tmp, deadline,
                                     probe_s, f"setup{k}", setup_only=True))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if TMP.exists() and not any(TMP.iterdir()):
            TMP.rmdir()

    attempted = failed = 0
    messages = []
    for k, result in enumerate(passes + ([baseline] if baseline else [])):
        share = plan[k if k < len(passes) else 0]
        if result["ok"]:
            attempted += result["attempted"]
            failed += result["failed"]
            messages += result["messages"]
        else:
            items = expected_items(workload, share)
            attempted += items
            failed += items
            messages.append(f"pass {k}: {result['error']}")
    for setup in setups:
        if not setup["ok"]:
            messages.append(f"set-up run: {setup['error']}")
    correct = failed == 0 and all(r["ok"] for r in passes + setups)

    details: dict[str, dict] = {}
    if trace:
        values = per_layer(passes, baseline, details)
    else:
        values = end_to_end(passes, setups, probe_s, details)
    record = {
        "workload": workload, "trace": int(trace), "seconds": seconds,
        "environment": environment(seed, plan),
        "correct": correct, "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "details": details, "messages": messages[:50],
        "host_slow": [round(r["slow"], 4) for r in passes + setups if r["ok"]],
        "run_s": time.monotonic() - started,
    }
    units = PER_LAYER if trace else END_TO_END
    record["metrics"] = {name: {"value": values[name], "unit": units[name]} for name in units}
    return record


def end_to_end(passes, setups, probe_s: float, details) -> dict:
    ok = [r for r in passes if r["ok"]]
    started = ok + [r for r in setups if r["ok"]]

    def measure(scaled: bool):
        # a pass's totals are divided by its mean slowness, an item's time by
        # the slowness measured around it
        def per_pass(r):
            return r["slow"] if scaled else 1.0

        def per_item(probe):
            return probe / probe_s if scaled else 1.0

        samples = {
            "setup_s": [r["setup_s"] / per_pass(r) for r in started],
            "wall_s": [r["timed_s"] / per_pass(r) for r in ok],
            "cold_p50_ms": [ms / per_item(p) for r in ok for ms, p in r["cold"]],
            "warm_p50_ms": [ms / per_item(p) for r in ok for ms, p in r["warm"]],
        }
        values = {"setup_s": statistics.median(samples["setup_s"]) if started else 0.0,
                  "wall_s": sum(samples["wall_s"])}
        for name in ("cold_p50_ms", "warm_p50_ms"):
            value, _ = percentile(samples[name], 0.5)
            if value is None:  # too few samples: only after failures, so correct is false
                value = statistics.median(samples[name]) if samples[name] else 0.0
            values[name] = value
        return values, samples

    values, samples = measure(scaled=True)
    raw, _ = measure(scaled=False)
    for name, value in raw.items():
        reportable = name in ("setup_s", "wall_s") or percentile(samples[name], 0.5)[0] is not None
        details[name] = {"n": len(samples[name]), "reportable": reportable, "raw": value,
                         "samples": [round(x, 6) for x in samples[name]]}
    values["peak_rss_mb"] = max(r["rss_mb"] for r in passes + setups)
    return values


def per_layer(passes, baseline, details) -> dict:
    ok = [r for r in passes if r["ok"]]
    summary = tracing.merge(tracing.scaled(s, r["slow"]) for r in ok for s in r["summaries"])
    values: dict[str, float] = {}
    for _, _, stem, _ in tracing.TRACED:
        values[f"{stem}.calls"] = summary["calls"].get(stem, 0)
        values[f"{stem}.self_s"] = summary["self_s"].get(stem, 0.0)
    c = summary["counters"]
    gb_calls = summary["calls"].get("graver.graver_basis", 0)
    dw_calls = summary["calls"].get("robustness.dispensability_witness", 0)
    values.update({
        "graver.graver_basis.distinct": len(summary["distinct"]),
        "graver.memo_hit_ratio": c.get("graver.memo_hits", 0) / gb_calls if gb_calls else 0.0,
        "graver.elements": c.get("graver.elements", 0),
        "graver.graver_basis.max_s": summary["max_s"].get("graver.graver_basis", 0.0),
        "robustness.witnesses_found": c.get("robustness.witnesses_found", 0),
        "robustness.witness_hit_ratio":
            c.get("robustness.witnesses_found", 0) / dw_calls if dw_calls else 0.0,
        "oracle.points": c.get("oracle.points", 0),
        "search.instances": c.get("search.instances", 0),
        "store.cache_hits": c.get("store.cache_hits", 0),
        "store.bytes_written": c.get("store.bytes_written", 0),
        "cli.import_s": summary["import_s"],
    })
    durations = summary["durations"].get("complexes.robust_complex", [])
    for q, name in ((0.5, "complexes.robust_complex.p50_ms"),
                    (0.99, "complexes.robust_complex.p99_ms")):
        value, n = percentile(durations, q)
        values[name] = value * 1e3 if value is not None else 0.0
        details[name] = {"n": n, "reportable": value is not None}
    values["unattributed_s"] = sum(r["timed_s"] / r["slow"] for r in ok) - summary["root_s"]
    if baseline and baseline["ok"] and passes[0]["ok"]:
        traced = passes[0]["timed_s"] / passes[0]["slow"]
        untraced = baseline["timed_s"] / baseline["slow"]
        values["trace_overhead_frac"] = traced / untraced - 1.0
        details["trace_overhead_frac"] = {"traced_s": traced, "untraced_s": untraced}
    else:
        values["trace_overhead_frac"] = 0.0
    details["self_s_total"] = sum(summary["self_s"].values())
    return values


# ---------------------------------------------------------------------------

def _line(record: dict) -> str:
    out = {"correct": record["correct"], "attempted": record["attempted"],
           "failed": record["failed"], "metrics": record["metrics"]}
    return json.dumps(out)


def _table(record: dict) -> list[str]:
    lines = [f"== {record['workload']} (trace {record['trace']}): "
             f"failed_frac = {record['failed_frac']:.4f} ratio "
             f"({record['failed']}/{record['attempted']})"]
    for name, metric in record["metrics"].items():
        n = record["details"].get(name, {}).get("n")
        count = f"  (n={n})" if n is not None else ""
        lines.append(f"  {name:48s} {metric['value']:>14.6g} {metric['unit']}{count}")
    lines += [f"  ! {m}" for m in record["messages"][:10]]
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=inputs.WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload in turn")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "graverkit" / "__init__.py").is_file():
        print(f"error: no graverkit sources under {SRC}", file=sys.stderr)
        return 2
    if args.all == (args.workload is not None):
        ap.error("give exactly one of --workload and --all")
    workloads = inputs.WORKLOADS if args.all else [args.workload]
    ok = True
    for workload in workloads:
        record = run(workload, args.seed, args.seconds, bool(args.trace))
        ok = ok and record["correct"]
        if args.all:
            print("\n".join(_table(record)), flush=True)
        else:
            print(json.dumps({k: v for k, v in record.items() if k != "metrics"}))
            print(_line(record), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

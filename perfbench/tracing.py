"""Spans around graverkit's public functions, installed from outside the package.

A traced process calls `Tracer.install()`, which replaces each function in
`TRACED` at every `graverkit` module (and class) that holds it, runs its
workload, then calls `uninstall()`, which puts every original back. Spans are
kept in memory as `[name, start, end, parent, note]` lists and summarised
once at the end; `note` carries the one number a counter needs from the
call's result.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (module, attribute path, metric stem, note taken from the call). Public
# functions that no workload reaches (graver_of_set, is_primitive_in,
# s_omega) are left out: their metrics would always read 0.
TRACED = [
    ("linalg", "kernel_lattice", "linalg.kernel_lattice", None),
    ("linalg", "IntMat.content_hash", "linalg.content_hash", None),
    ("graver", "graver_basis", "graver.graver_basis", "graver"),
    ("graver", "circuits", "graver.circuits", None),
    ("graver", "assert_pointed", "graver.assert_pointed", None),
    ("bouquet", "bouquet_decomposition", "bouquet.bouquet_decomposition", None),
    ("bouquet", "is_simple", "bouquet.is_simple", None),
    ("bouquet", "gale_rows", "bouquet.gale_rows", None),
    ("robustness", "dispensability_witness", "robustness.dispensability_witness", "found"),
    ("robustness", "indispensable_set", "robustness.indispensable_set", None),
    ("robustness", "is_strongly_robust", "robustness.is_strongly_robust", None),
    ("complexes", "classify_curve3", "complexes.classify_curve3", None),
    ("complexes", "lambda_matrix", "complexes.lambda_matrix", None),
    ("complexes", "face_test_projection", "complexes.face_test_projection", None),
    ("complexes", "face_test_lifting", "complexes.face_test_lifting", None),
    ("complexes", "robust_complex", "complexes.robust_complex", None),
    ("lawrence", "build_gen_lawrence", "lawrence.build_gen_lawrence", None),
    ("lawrence", "reconstruct_gen_lawrence", "lawrence.reconstruct_gen_lawrence", None),
    ("oracle", "kernel_points_in_box", "oracle.kernel_points_in_box", "len"),
    ("oracle", "graver_by_enumeration", "oracle.graver_by_enumeration", None),
    ("oracle", "dispensability_witness_by_enumeration",
     "oracle.dispensability_witness_by_enumeration", None),
    ("oracle", "indispensable_by_enumeration", "oracle.indispensable_by_enumeration", None),
    ("search", "sullivant_search", "search.sullivant_search", "instances"),
    ("store", "cached_graver_basis", "store.cached_graver_basis", None),
    ("store", "Cache.get", "store.cache_get", "found"),
    ("store", "Cache.put", "store.cache_put", "bytes"),
    ("cli", "main", "cli.main", None),
]

# Counter fed by the note of each span of that name (a call that raised has none).
COUNTED = {
    "robustness.dispensability_witness": "robustness.witnesses_found",
    "oracle.kernel_points_in_box": "oracle.points",
    "search.sullivant_search": "search.instances",
    "store.cache_get": "store.cache_hits",
    "store.cache_put": "store.bytes_written",
}

# Spans whose individual durations the summary keeps, for percentiles.
KEEP_DURATIONS = {"complexes.robust_complex"}


def _note(kind, args, result):
    if kind == "graver":
        A = args[0]
        return [hash((A.rows, A.ncols)), len(result)]
    if kind == "found":
        return 1 if result is not None else 0
    if kind == "len":
        return len(result)
    if kind == "instances":
        return result.instances
    if kind == "bytes":
        # Cache.put(self, key, payload) writes json.dump(payload) to one file
        return len(json.dumps(args[2]).encode())
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, stem, note_kind, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [stem, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if note_kind is not None:
                    span[4] = _note(note_kind, args, result)
                return result
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Replace every traced function wherever a graverkit module holds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "graverkit" or name.startswith("graverkit."))]
        for mod_name, path, stem, note_kind in TRACED:
            home = importlib.import_module(f"graverkit.{mod_name}")
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(home, cls_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self._wrap(stem, note_kind, original))
                continue
            original = getattr(home, path)
            wrapped = self._wrap(stem, note_kind, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, original, wrapped)

    def _patch(self, owner, name, original, replacement) -> None:
        self._patches.append((owner, name, original))
        setattr(owner, name, replacement)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def summary(self) -> dict:
        return summarize(self.spans)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Children of one span never overlap (the program is single-threaded and
    spans nest), so subtracting their durations removes exactly the part of
    the parent's interval that they cover.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(spans) -> dict:
    """Mergeable per-function totals plus the counters the metrics need."""
    own = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    max_s: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    computed = set()  # graver_basis spans that ran a completion
    for name, _, _, parent, _ in spans:
        if name == "linalg.kernel_lattice" and parent >= 0 \
                and spans[parent][0] == "graver.graver_basis":
            computed.add(parent)
    counters = dict.fromkeys(["graver.memo_hits", "graver.elements", *COUNTED.values()], 0)
    distinct = set()
    root_s = 0.0
    for i, (name, start, end, parent, note) in enumerate(spans):
        duration = end - start
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own[i]
        max_s[name] = max(max_s.get(name, 0.0), duration)
        if name in KEEP_DURATIONS:
            durations.setdefault(name, []).append(duration)
        if parent < 0:
            root_s += duration
        if name == "graver.graver_basis" and note is not None:
            distinct.add(note[0])
            if i in computed:
                counters["graver.elements"] += note[1]
            else:
                counters["graver.memo_hits"] += 1
        elif name in COUNTED and note is not None:
            counters[COUNTED[name]] += note
    return {"calls": calls, "self_s": self_s, "max_s": max_s, "durations": durations,
            "counters": counters, "distinct": sorted(distinct), "root_s": root_s,
            "import_s": 0.0}


def merge(summaries) -> dict:
    total = {"calls": {}, "self_s": {}, "max_s": {}, "durations": {}, "counters": {},
             "distinct": set(), "root_s": 0.0, "import_s": 0.0}
    for s in summaries:
        for key in ("calls", "self_s", "counters"):
            for name, value in s[key].items():
                total[key][name] = total[key].get(name, 0) + value
        for name, value in s["max_s"].items():
            total["max_s"][name] = max(total["max_s"].get(name, 0.0), value)
        for name, values in s["durations"].items():
            total["durations"].setdefault(name, []).extend(values)
        total["distinct"].update(s["distinct"])
        total["root_s"] += s["root_s"]
        total["import_s"] += s["import_s"]
    total["distinct"] = sorted(total["distinct"])
    return total


def scaled(summary: dict, factor: float) -> dict:
    """The summary with every time divided by factor (counts unchanged)."""
    out = dict(summary)
    for key in ("self_s", "max_s"):
        out[key] = {name: value / factor for name, value in summary[key].items()}
    out["durations"] = {name: [v / factor for v in values]
                        for name, values in summary["durations"].items()}
    out["root_s"] = summary["root_s"] / factor
    out["import_s"] = summary["import_s"] / factor
    return out

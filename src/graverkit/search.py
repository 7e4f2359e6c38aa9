"""Bounded desk-scale scan of strongly robust complexes of monomial curves.

Computes the complex of every curve in an exhaustive or sampled family and,
for 1x3 curves, checks its vertex against the complete-intersection
classification. Any violation is recorded and fails the run loudly; so is
any toolkit error on an instance, such as a complex that breaks the
one-vertex theorem (`RobustComplex`), and the scan goes on. Budget
exhaustion on an instance only skips it. The tallies go into a
`SearchReport`, a plain mutable class that the scan fills in as it runs and
whose `to_dict` is the CLI's JSON report.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
import time

from .complexes import CurveKind, classify_curve3, robust_complex
from .errors import BudgetExceededError, GraverKitError
from .graver import Budget
from .linalg import IntMat


class SearchReport:
    """The tallies of one scan, filled in as it runs."""

    def __init__(self, s_values: tuple[int, ...], bound: int, sample_budget: int | None):
        self.s_values = s_values
        self.bound = bound
        self.sample_budget = sample_budget
        self.instances = 0
        self.empty_complex = 0  # Delta_T = {0}
        self.one_vertex = 0  # Delta_T = {0, {i}}
        self.ci_on_count = 0  # s = 3 bookkeeping
        self.vertex_instances: list[dict] = []
        self.violations: list[str] = []
        self.skipped: list[dict] = []
        self.runtime_seconds = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        """The fields in the order `__init__` sets them, then `ok`; the lists
        are shared, not copied."""
        d = dict(vars(self))
        d["s_values"] = list(self.s_values)
        d["runtime_seconds"] = round(self.runtime_seconds, 3)
        d["ok"] = self.ok
        return d


def _candidates(s: int, bound: int, sample_budget: int | None, rng: random.Random):
    """Sorted gcd-1 entry tuples: all of them up to the bound, in lexicographic
    order, or up to sample_budget distinct gcd-normalised random draws."""
    if sample_budget is None:
        # c with gcd g > 1 normalises to c // g, a gcd-1 tuple that came earlier
        combos = itertools.combinations_with_replacement(range(1, bound + 1), s)
        yield from (c for c in combos if math.gcd(*c) == 1)
        return
    seen = set()
    attempts = 0
    while len(seen) < sample_budget and attempts < 100 * sample_budget:
        attempts += 1
        draw = sorted(rng.randint(1, bound) for _ in range(s))
        g = math.gcd(*draw)
        t = tuple(x // g for x in draw)
        if t not in seen:
            seen.add(t)
            yield t


def sullivant_search(
    s_values,
    bound: int,
    sample_budget: int | None = None,
    seed: int = 0,
    budget: Budget | None = None,
) -> SearchReport:
    """Scan curves with s entries up to the bound; exhaustive unless sampled.

    Every argument is checked before any curve is scanned: each s >= 3 and
    given once, bound >= 1 and sample_budget None or >= 1. Every instance is
    gcd-normalized and its complex computed, in the shape `RobustComplex`
    holds it to (a second vertex or an edge is a GraverKitError and so a
    violation). For s = 3 the vertex must be the classification's `on`:
    i for CIOn(i), None for CIOnAll and NotCI.
    """
    s_values = tuple(map(operator.index, s_values))
    for s in s_values:
        if s < 3:
            raise ValueError(f"s must be at least 3, got {s}")
    if len(set(s_values)) < len(s_values):
        raise ValueError(f"each s must be given once, got {list(s_values)}")
    bound = operator.index(bound)
    if bound < 1:
        raise ValueError(f"bound must be at least 1, got {bound}")
    if sample_budget is not None:
        sample_budget = operator.index(sample_budget)
        if sample_budget < 1:
            raise ValueError(f"sample_budget must be None or at least 1, got {sample_budget}")
    report = SearchReport(s_values=s_values, bound=bound, sample_budget=sample_budget)
    rng = random.Random(seed)
    start = time.monotonic()
    for s in s_values:
        for t in _candidates(s, bound, sample_budget, rng):
            report.instances += 1
            T = IntMat.row_vector(t)
            try:
                vertex = robust_complex(T, budget=budget).vertex()
            except BudgetExceededError as exc:
                report.skipped.append({"T": list(t), "reason": str(exc)})
                continue
            except GraverKitError as exc:
                report.violations.append(f"T={t}: {type(exc).__name__}: {exc}")
                continue
            if vertex is None:
                report.empty_complex += 1
            else:
                report.one_vertex += 1
                report.vertex_instances.append({"T": list(t), "vertex": vertex})
            if s == 3:
                cls = classify_curve3(T)
                if cls.kind is CurveKind.CI_ON:
                    report.ci_on_count += 1
                if vertex != cls.on:
                    report.violations.append(
                        f"T={t}: classification {cls.describe()} but vertex {vertex}")
    report.runtime_seconds = time.monotonic() - start
    return report

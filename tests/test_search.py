"""The bounded search checks its arguments first, records a failing instance and goes on."""

import dataclasses
import itertools
import json
import math
import random

import pytest

import graverkit.search as search_module
from graverkit import CurveKind, PreconditionError, RobustComplex
from graverkit.cli import main
from graverkit.search import sullivant_search


def test_failing_instance_is_a_violation_and_the_scan_goes_on(monkeypatch):
    clean = sullivant_search([3], 6)
    assert clean.ok and clean.instances > 1
    robust_complex = search_module.robust_complex

    def failing(T, **kwargs):
        if T.rows[0] == (3, 4, 5):
            raise PreconditionError("not pointed")
        return robust_complex(T, **kwargs)

    monkeypatch.setattr(search_module, "robust_complex", failing)
    report = sullivant_search([3], 6)
    assert not report.ok
    assert report.violations == ["T=(3, 4, 5): PreconditionError: not pointed"]
    assert report.instances == clean.instances
    assert report.empty_complex + report.one_vertex == clean.instances - 1
    assert report.skipped == []
    assert set(report.to_dict()) == set(clean.to_dict())


def test_a_complex_of_another_shape_is_a_violation_and_the_scan_goes_on(monkeypatch):
    clean = sullivant_search([3], 6)
    robust_complex = search_module.robust_complex

    def malformed(T, **kwargs):
        if T.rows[0] == (3, 4, 5):
            return RobustComplex(T=(3, 4, 5), faces=frozenset(
                {frozenset(), frozenset({1}), frozenset({2})}))
        return robust_complex(T, **kwargs)

    monkeypatch.setattr(search_module, "robust_complex", malformed)
    report = sullivant_search([3], 6)
    assert not report.ok
    assert report.violations == ["T=(3, 4, 5): GraverKitError: Delta_T of (3, 4, 5) has "
                                 "faces [[], [1], [2]], not [[]] or [[], [i]]"]
    assert report.instances == clean.instances
    assert report.empty_complex + report.one_vertex == clean.instances - 1
    assert main(["search", "--s", "3", "--bound", "6"]) == 1


@pytest.mark.parametrize("kind, on, message", [
    (CurveKind.CI_ON, 1, "classification CIOn(1) but vertex 2"),
    (CurveKind.NOT_CI, None, "classification NotCI but vertex 2"),
], ids=["wrong-on", "not-ci-with-a-vertex"])
def test_a_vertex_off_the_classification_is_one_violation(monkeypatch, kind, on, message):
    # (4, 5, 6) is CIOn(2), with vertex 2
    clean = sullivant_search([3], 6)
    classify = search_module.classify_curve3

    def misclassifying(T):
        cls = classify(T)
        if T.rows[0] == (4, 5, 6):
            return dataclasses.replace(cls, kind=kind, on=on)
        return cls

    monkeypatch.setattr(search_module, "classify_curve3", misclassifying)
    report = sullivant_search([3], 6)
    assert report.violations == [f"T=(4, 5, 6): {message}"]
    assert report.instances == clean.instances
    assert report.vertex_instances == clean.vertex_instances


def test_report_keys_are_pinned_in_order():
    assert list(sullivant_search([3], 4).to_dict()) == [
        "s_values", "bound", "sample_budget", "instances", "empty_complex", "one_vertex",
        "ci_on_count", "vertex_instances", "violations", "skipped", "runtime_seconds", "ok"]


def test_a_repeated_s_is_rejected_before_any_curve_is_scanned(monkeypatch):
    scanned = []
    monkeypatch.setattr(search_module, "robust_complex", lambda T, **kwargs: scanned.append(T))
    with pytest.raises(ValueError, match=r"^each s must be given once, got \[3, 4, 3\]$"):
        sullivant_search([3, 4, 3], 4)
    assert main(["search", "--s", "3", "3", "--bound", "4"]) == 2
    assert scanned == []


def test_every_s_is_checked_before_any_curve_is_scanned(monkeypatch):
    scanned = []
    monkeypatch.setattr(search_module, "robust_complex", lambda T, **kwargs: scanned.append(T))
    with pytest.raises(ValueError, match=r"^s must be at least 3, got 2$"):
        sullivant_search([3, 7, 2], 14)
    assert scanned == []


def test_a_float_s_is_rejected_not_truncated(monkeypatch):
    scanned = []
    monkeypatch.setattr(search_module, "robust_complex", lambda T, **kwargs: scanned.append(T))
    with pytest.raises(TypeError):
        sullivant_search([3.7], 6)
    assert scanned == []


@pytest.mark.parametrize("kwargs, message", [
    (dict(bound=0), r"^bound must be at least 1, got 0$"),
    (dict(bound=0, sample_budget=3), r"^bound must be at least 1, got 0$"),
    (dict(bound=5, sample_budget=0), r"^sample_budget must be None or at least 1, got 0$"),
    (dict(bound=5, sample_budget=-1), r"^sample_budget must be None or at least 1, got -1$"),
])
def test_bound_and_sample_budget_are_checked_before_any_curve_is_scanned(
        monkeypatch, kwargs, message):
    scanned = []
    monkeypatch.setattr(search_module, "robust_complex", lambda T, **kw: scanned.append(T))
    with pytest.raises(ValueError, match=message):
        sullivant_search([3, 4], **kwargs)
    assert scanned == []


def test_sampled_1x6_curves_have_at_most_one_vertex():
    # the paper's at-most-one-vertex claim beyond s = 5
    report = sullivant_search([6], 20, sample_budget=30, seed=5)
    assert report.instances == 30
    assert report.violations == [] and report.skipped == []


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_cli_exits_1_on_a_failed_scan_and_still_writes_the_report(monkeypatch, capsys, fmt):
    robust_complex = search_module.robust_complex

    def failing(T, **kwargs):
        if T.rows[0] == (3, 4, 5):
            raise PreconditionError("not pointed")
        return robust_complex(T, **kwargs)

    monkeypatch.setattr(search_module, "robust_complex", failing)
    assert main(["search", "--s", "3", "--bound", "5", "--format", fmt]) == 1
    out = capsys.readouterr().out
    violation = "T=(3, 4, 5): PreconditionError: not pointed"
    if fmt == "json":
        payload = json.loads(out)
        assert payload["ok"] is False and payload["violations"] == [violation]
    else:
        assert "ok: false\n" in out and f"VIOLATION: {violation}\n" in out


@pytest.mark.parametrize("s, bound", [(3, 12), (4, 9), (5, 6), (6, 5)])
def test_exhaustive_candidates_are_the_normalised_curves_in_first_seen_order(s, bound):
    expected, seen = [], set()
    for combo in itertools.combinations_with_replacement(range(1, bound + 1), s):
        g = math.gcd(*combo)
        t = tuple(sorted(x // g for x in combo))
        if t not in seen:
            seen.add(t)
            expected.append(t)
    assert list(search_module._candidates(s, bound, None, random.Random(0))) == expected

"""The bounded search checks its arguments first, records a failing instance and goes on."""

import itertools
import json
import math
import random

import pytest

import graverkit.search as search_module
from graverkit import PreconditionError
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

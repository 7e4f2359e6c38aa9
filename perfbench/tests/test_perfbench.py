"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

import json
import re
import sys

import pytest

import gate
import inputs
import run
import tracing


def test_percentile_needs_ten_samples_beyond():
    assert run.percentile(list(range(19)), 0.5) == (None, 19)
    assert run.percentile(list(range(20)), 0.5) == (9, 20)
    assert run.percentile([5.0] * 999, 0.99) == (None, 999)
    assert run.percentile(list(range(1000)), 0.99) == (989, 1000)
    assert run.percentile([], 0.5) == (None, 0)


def test_self_time_of_nested_spans():
    # root 0..10 holds a 1..4 (which holds b 2..3) and c 5..9
    spans = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 4.0, 0, None],
        ["b", 2.0, 3.0, 1, None],
        ["c", 5.0, 9.0, 0, None],
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    summary = tracing.summarize(spans)
    assert summary["root_s"] == 10.0
    assert sum(summary["self_s"].values()) == 10.0


def _graverkit_attributes():
    out = {}
    for name, module in sys.modules.items():
        if name == "graverkit" or name.startswith("graverkit."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
                if isinstance(value, type):
                    for cattr, cvalue in vars(value).items():
                        out[(name, attr, cattr)] = cvalue
    return out


def test_traced_run_restores_every_attribute():
    import graverkit
    import graverkit.cli  # noqa: F401  (loads every graverkit module)

    original = graverkit.graver_basis
    before = _graverkit_attributes()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert sys.modules["graverkit.complexes"].graver_basis is not original
        graverkit.is_strongly_robust(graverkit.IntMat.row_vector([4, 5, 6]))
    finally:
        tracer.uninstall()
    after = _graverkit_attributes()
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())
    names = {span[0] for span in tracer.spans}
    assert {"robustness.is_strongly_robust", "graver.graver_basis",
            "robustness.dispensability_witness"} <= names
    # graver_basis inside is_strongly_robust is its child
    parents = {span[0]: span[3] for span in tracer.spans}
    assert tracer.spans[parents["graver.graver_basis"]][0] == "robustness.is_strongly_robust"


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_input_digest_follows_the_seed(workload):
    catalog = inputs.load_catalog()

    def d(seed):
        return inputs.input_digest(inputs.plan(workload, seed, 20, catalog))

    assert d(3) == d(3)
    assert d(3) != d(4)


def test_metric_names_and_benchmark_json():
    spec = json.loads((inputs.ROOT / "BENCHMARK.json").read_text())
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared_e2e == run.END_TO_END
    assert declared_layer == run.PER_LAYER
    for name in list(declared_e2e) + list(declared_layer):
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)


def test_gate_finds_structural_faults():
    rows = ((1, 1, 1),)
    good = [(0, 1, -1), (1, -1, 0), (1, 0, -1)]
    assert gate.basis_problems(rows, good) == []
    assert gate.basis_problems(rows, [(1, 1, 1)]) != []  # not in the kernel
    assert gate.basis_problems(rows, [(0, -1, 1)]) != []  # not sign-canonical
    assert gate.basis_problems(rows, good[::-1]) != []  # not in canonical order
    assert gate.basis_problems(rows, good + [(2, -1, -1)]) != []  # (1,-1,0) lies below it

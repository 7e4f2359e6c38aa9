"""Acceptance suite.

Every criterion is exact: set comparisons are up to the first-nonzero-positive
sign canon, no numeric tolerances anywhere. One PASS/FAIL line per criterion
is printed through pytest's capture barrier.
"""

import itertools
import math
import random
import time

from graverkit import (
    CurveKind,
    GenLawrenceSpec,
    IntMat,
    build_gen_lawrence,
    bouquet_decomposition,
    circuits,
    classify_curve3,
    face_test_lifting,
    graver_basis,
    indispensable_set,
    is_strongly_robust,
    reconstruct_gen_lawrence,
    robust_complex,
)
from graverkit.bouquet import NON_MIXED
from graverkit.linalg import sign_canonical
from graverkit.oracle import graver_by_enumeration, indispensable_by_enumeration
from graverkit.robustness import dispensability_witness
from graverkit.search import sullivant_search

from _paper import (
    CLASSIFICATION_TABLE,
    EXAMPLE_E_AB_ROWS,
    EXAMPLE_E_APRIME_ROWS,
    EXAMPLE_E_BOUQUET_MEMBERS,
    EXAMPLE_E_C_VECTORS,
    EXAMPLE_E_PERMUTATION,
    GEN_C_VECTORS,
    GEN_LAMBDAS,
    GEN_MATRIX_ROWS,
    GEN_T,
    T_BIG,
    example_e,
    lift_curve_vector,
    lifting_decomposition,
)


def _verdict(announce, number, description, failures):
    status = "PASS" if not failures else "FAIL"
    announce(f"[acceptance {number}] {status}: {description}")
    assert not failures, f"criterion {number}: {failures[:5]}"


def test_criterion_1_classification_table(announce):
    failures = []
    for entries, c, kind in CLASSIFICATION_TABLE:
        cls = classify_curve3(entries)
        if cls.c != c or cls.describe() != kind:
            failures.append((entries, cls.c, cls.describe()))
    _verdict(announce, 1, "1x3 classification table (five curves, exact c and kind)", failures)


def test_criterion_2_complex_reproduction(announce):
    failures = []
    start = time.monotonic()
    rc_small = robust_complex([4, 5, 6], verify=True)
    if rc_small.sorted_faces() != [[], [2]]:
        failures.append(("(4,5,6)", rc_small.sorted_faces()))
    rc_big = robust_complex(list(T_BIG), verify=True)
    if rc_big.sorted_faces() != [[], [3]]:
        failures.append(("(24,40,41,60,80)", rc_big.sorted_faces()))
    elapsed = time.monotonic() - start
    if elapsed > 600.0:
        failures.append(f"lifting cross-check exceeded 10 minutes: {elapsed:.0f}s")
    # the time has a line of its own, so the PASS line does not depend on the host
    announce(f"[acceptance 2] lifting cross-check took {elapsed:.1f}s")
    _verdict(announce, 2, "complexes {[],[2]} and {[],[3]} with lifting cross-check", failures)


def test_criterion_3_example_pipeline(announce):
    failures = []
    A = example_e()
    dec = bouquet_decomposition(A)
    if [b.members for b in dec.bouquets] != EXAMPLE_E_BOUQUET_MEMBERS:
        failures.append(("members", [b.members for b in dec.bouquets]))
    if list(dec.c_vectors()) != [tuple(c) for c in EXAMPLE_E_C_VECTORS]:
        failures.append(("c_vectors", dec.c_vectors()))
    if sorted(dec.non_mixed_indices()) != [3]:
        failures.append(("non_mixed", sorted(dec.non_mixed_indices())))
    if [list(r) for r in dec.a_matrix.rows] != EXAMPLE_E_AB_ROWS:
        failures.append(("a_matrix", dec.a_matrix.rows))
    cert = is_strongly_robust(A)
    if not cert.strongly_robust:
        failures.append(("robust", cert.witness))
    rec = reconstruct_gen_lawrence(A)
    if rec.spec.T != T_BIG:
        failures.append(("T", rec.spec.T))
    if [list(r) for r in rec.matrix.rows] != EXAMPLE_E_APRIME_ROWS:
        failures.append(("reconstruction", rec.matrix.rows))
    if rec.column_permutation != EXAMPLE_E_PERMUTATION:
        failures.append(("permutation", rec.column_permutation))
    _verdict(announce, 3, "8x11 pipeline: bouquets, c_B, A_B, robustness, published 7x11 form", failures)


def test_criterion_4_generator_example(announce):
    failures = []
    spec = GenLawrenceSpec(T=GEN_T, c_vectors=GEN_C_VECTORS, lambda_vectors=GEN_LAMBDAS)
    built = build_gen_lawrence(spec)
    if [list(r) for r in built.matrix.rows] != GEN_MATRIX_ROWS:
        failures.append(("matrix", built.matrix.rows))
    if not is_strongly_robust(built.matrix).strongly_robust:
        failures.append("not strongly robust")
    _verdict(announce, 4, "published 8x10 generator matrix, entry-for-entry, strongly robust", failures)


def _structure_sweep_curves():
    for entries in itertools.combinations(range(3, 31), 3):
        if math.gcd(*entries) == 1:
            yield entries


def test_criterion_5_structure_theorems(announce):
    failures = []
    curves = list(_structure_sweep_curves())
    per_curve = {}
    for entries in curves:
        A = IntMat.row_vector(entries)
        G = graver_basis(A)
        S = indispensable_set(A, G=G).as_set()
        cls = classify_curve3(entries)
        rc = robust_complex(list(entries))
        per_curve[entries] = (G, S, cls, rc)
        # (a) classification <-> complex equivalence
        expected_vertex = cls.on if cls.kind is CurveKind.CI_ON else None
        if rc.vertex() != expected_vertex:
            failures.append(("a", entries, rc.sorted_faces(), cls.describe()))
        # (b) at most one indispensable circuit
        indispensable_circuits = sum(1 for c in circuits(A) if c in S)
        if indispensable_circuits > 1:
            failures.append(("b", entries, indispensable_circuits))
        # (c) the curve itself is never strongly robust
        if len(S) >= len(G):
            failures.append(("c", entries, len(S), len(G)))
    rng = random.Random(2024)
    subsample = rng.sample(curves, 10)
    for entries in subsample:
        # (d) no two-element subset is a face
        for omega in itertools.combinations((1, 2, 3), 2):
            if face_test_lifting(IntMat.row_vector(entries), omega):
                failures.append(("d", entries, omega))
        # (e) circuit indispensability pattern inside the singleton liftings
        for i in (1, 2, 3):
            lam, dec = lifting_decomposition(IntMat.row_vector(entries), frozenset({i}))
            G_lam = graver_basis(lam.matrix)
            for j, k in itertools.combinations((1, 2, 3), 2):
                g = math.gcd(entries[j - 1], entries[k - 1])
                circuit = [0, 0, 0]
                circuit[j - 1] = entries[k - 1] // g
                circuit[k - 1] = -entries[j - 1] // g
                image = lift_curve_vector(dec, circuit)
                indispensable = dispensability_witness(image, G_lam) is None
                if i in (j, k):
                    expected = True
                else:
                    sub = classify_curve3([entries[i - 1], entries[j - 1], entries[k - 1]])
                    expected = sub.kind is CurveKind.CI_ON and sub.on == 1
                if indispensable != expected:
                    failures.append(("e", entries, i, (j, k)))
    _verdict(
        announce, 5,
        f"structure theorems over {len(curves)} curves (equivalence, circuits, "
        "never-robust, dim<=0, lifted-circuit lemmas)",
        failures,
    )


FIXED_2X4 = [
    [[1, 1, 1, 1], [0, 1, 2, 3]],
    [[2, 3, 5, 4], [1, 0, 1, 2]],
    [[1, 2, 3, 4], [4, 3, 2, 1]],
    [[5, 1, 2, 3], [0, 2, 1, 1]],
    [[3, 1, 4, 5], [1, 1, 0, 2]],
]


def test_criterion_6_oracle_equivalence(announce):
    failures = []
    count = 0
    for entries in itertools.combinations_with_replacement(range(1, 16), 3):
        A = IntMat.row_vector(entries)
        count += 1
        G = graver_basis(A)
        if G.as_set() != set(graver_by_enumeration(A, 17)):
            failures.append(("graver", entries))
            continue
        S = indispensable_set(A, G=G).as_set()
        if S != set(indispensable_by_enumeration(A, 17, 20)):
            failures.append(("indispensable", entries))
    for rows in FIXED_2X4:
        A = IntMat.from_rows(rows)
        count += 1
        G = graver_basis(A)
        if G.as_set() != set(graver_by_enumeration(A, 12)):
            failures.append(("graver", rows))
            continue
        S = indispensable_set(A, G=G).as_set()
        if S != set(indispensable_by_enumeration(A, 12, 12)):
            failures.append(("indispensable", rows))
    _verdict(
        announce, 6,
        f"completion and semiconformal search match brute force on {count} matrices",
        failures,
    )


LIFTING_SAMPLE = [
    ((4, 5, 6), ()),
    ((4, 5, 6), (2,)),
    ((4, 5, 6), (1, 3)),
    ((3, 5, 7), (1,)),
    ((3, 5, 7), (2, 3)),
    ((7, 15, 20), (3,)),
    ((2, 3, 5, 7), ()),
    ((2, 3, 5, 7), (2,)),
    ((2, 3, 5, 7), (1, 4)),
    ((4, 6, 9, 10), (3,)),
]


def test_criterion_7_lifting_structure(announce):
    failures = []
    for entries, omega in LIFTING_SAMPLE:
        T = IntMat.row_vector(entries)
        lam, dec = lifting_decomposition(T, frozenset(omega))
        G_T = graver_basis(T)
        G_lam = graver_basis(lam.matrix)
        images = {sign_canonical(lift_curve_vector(dec, u)) for u in G_T.elements}
        if images != G_lam.as_set():
            failures.append(("graver", entries, omega))
        non_mixed_anchors = {b.anchor for b in dec.bouquets if b.kind == NON_MIXED}
        if non_mixed_anchors != set(omega):
            failures.append(("omega", entries, omega, non_mixed_anchors))
    _verdict(
        announce, 7,
        f"D carries Gr(T) onto Gr(Lambda(T)_w) and marks w, {len(LIFTING_SAMPLE)} samples",
        failures,
    )


def test_criterion_8_bounded_search(announce):
    failures = []
    exhaustive = sullivant_search([3], 20)
    if not exhaustive.ok or exhaustive.skipped:
        failures.append(("s=3", exhaustive.violations, exhaustive.skipped))
    sampled4 = sullivant_search([4], 30, sample_budget=100, seed=1)
    sampled5 = sullivant_search([5], 30, sample_budget=100, seed=2)
    total = sampled4.instances + sampled5.instances
    for rep, tag in ((sampled4, "s=4"), (sampled5, "s=5")):
        if not rep.ok:
            failures.append((tag, rep.violations))
    if total < 200:
        failures.append(("sample size", total))
    _verdict(
        announce, 8,
        f"search: {exhaustive.instances} exhaustive s=3 curves and {total} sampled "
        "s=4,5 curves, zero violations",
        failures,
    )

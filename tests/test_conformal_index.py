"""ConformalIndex, the one conformal-dominance test, on both of its stacks.

Every operation has one code path. `below`, `find` and `dominators` read
threshold bitsets on Python ints. The numpy stack, which only `pair_sums`
builds and reads, is int64 while entries stay far below the int64 range and
holds exact Python ints (dtype object) otherwise. Lowering `_NP_SAFE_BOUND`
to 1 puts every index on the object stack, and every result must stay
identical.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import graverkit.graver as graver_module
from graverkit import (
    IntMat,
    face_test_projection,
    graver_basis,
    graver_of_set,
    indispensable_set,
    is_primitive_in,
    is_strongly_robust,
    lambda_matrix,
    robust_complex,
)
from graverkit.graver import ConformalIndex
from graverkit.linalg import negative_part, one_norm, positive_part, sign_canonical, vec_add

from _paper import T_BIG, example_e, fresh_graver_basis


def _pure_integer(monkeypatch):
    monkeypatch.setattr(graver_module, "_NP_SAFE_BOUND", 1)
    monkeypatch.setattr(graver_module, "_GRAVER_MEMO", {})


def _robustness_results(A):
    cert = is_strongly_robust(A)
    return indispensable_set(A).elements, cert


class TestPureIntegerFallback:
    """The exact object stack, forced by a lowered bound or reached by large inputs."""

    def test_graver_bases_and_complex(self, monkeypatch):
        curve = IntMat.row_vector(T_BIG)
        fast = (graver_basis(example_e()), graver_basis(curve), robust_complex(T_BIG).faces)
        _pure_integer(monkeypatch)
        slow_complex = robust_complex(T_BIG).faces  # computes Gr(T_BIG) on this path
        slow = (graver_basis(example_e()), graver_basis(curve), slow_complex)
        assert not slow[0].signed_index._np_ok
        assert slow == fast

    def test_indispensable_set_and_certificate(self, monkeypatch):
        matrices = (example_e(), lambda_matrix([4, 5, 6], [1]).matrix)
        fast = [_robustness_results(A) for A in matrices]
        assert fast[0][1].strongly_robust and not fast[1][1].strongly_robust
        _pure_integer(monkeypatch)
        assert [_robustness_results(A) for A in matrices] == fast

    def test_guard_switches_off_partway_through_a_run(self, monkeypatch):
        # Gr(24 40 41 60 80) has entries up to 80, its kernel basis only up to 20
        curve = IntMat.row_vector((24, 40, 41, 60, 80))
        fast = fresh_graver_basis(curve)
        monkeypatch.setattr(graver_module, "_NP_SAFE_BOUND", 42)
        flags = []
        add = ConformalIndex.add

        def recording(index, v):
            add(index, v)
            flags.append(index._np_ok)

        monkeypatch.setattr(ConformalIndex, "add", recording)
        assert fresh_graver_basis(curve) == fast
        assert flags.index(False) == 396 and not any(flags[396:])

    def test_natural_input_above_2_60(self):
        a, b = 2**61 + 1, 2**61 + 3
        lam = lambda_matrix([a, b], [])
        G = graver_basis(lam.matrix)
        assert G.elements == ((b, -a, -b, a),)
        assert not G.signed_index._np_ok
        cert = is_strongly_robust(lam.matrix)
        assert cert.strongly_robust and cert.witness is None


@st.composite
def small_matrices(draw):
    d, n = draw(st.sampled_from([(2, 4), (3, 5), (0, 3), (0, 4)]))
    if d == 0:
        return IntMat((), ncols=n)  # from_rows([]) would have 0 columns
    zero = draw(st.sets(st.integers(0, n - 1), max_size=2))
    entry = st.integers(-3, 3)
    rows = [[0 if j in zero else draw(entry) for j in range(n)] for _ in range(d)]
    return IntMat.from_rows(rows)


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_completion_identical_on_both_paths(A):
    fast = fresh_graver_basis(A)
    with mock.patch.object(graver_module, "_NP_SAFE_BOUND", 1):
        assert fresh_graver_basis(A) == fast


# ---------------------------------------------------------------------------
# property tests against nested loops

def _leq(a, b):
    return all(x <= y for x, y in zip(a, b))


def _satisfies(v, pos, neg):
    return (pos is None or _leq(positive_part(v), pos)) and (
        neg is None or _leq(negative_part(v), neg)
    )


def _on_both_paths(check):
    check()
    with mock.patch.object(graver_module, "_NP_SAFE_BOUND", 1):
        check()


@st.composite
def vector_sets(draw):
    n = draw(st.integers(1, 5))
    entry = st.integers(-4, 4)
    vectors = draw(st.lists(st.tuples(*[entry] * n), max_size=12))
    bound = st.tuples(*[st.integers(0, 4)] * n)
    pos = draw(st.none() | bound)
    neg = draw(bound) if pos is None else draw(st.none() | bound)
    start = draw(st.integers(0, len(vectors) + 1))
    return n, vectors, pos, neg, start


@settings(max_examples=150, deadline=None)
@given(vector_sets())
def test_queries_match_nested_loops(case):
    n, vectors, pos, neg, start = case
    first = next(
        (i for i, v in enumerate(vectors) if i >= start and _satisfies(v, pos, neg)), -1
    )
    dominators = [
        sum(1 for w in vectors if _satisfies(w, positive_part(v), negative_part(v)))
        for v in vectors
    ]

    def check():
        index = ConformalIndex(n, vectors)
        assert index.find(pos, neg, start) == first
        assert [index.dominators(i) for i in range(len(vectors))] == dominators

    _on_both_paths(check)


@settings(max_examples=150, deadline=None)
@given(vector_sets())
def test_primitive_sets_match_nested_loops(case):
    _, vectors, _, _, _ = case
    pool = set(vectors)

    def primitive(u):
        return not any(
            w != u and _satisfies(w, positive_part(u), negative_part(u)) for w in pool
        )

    expected = frozenset(u for u in pool if primitive(u))

    def check():
        assert graver_of_set(vectors) == expected
        for u in pool:
            assert is_primitive_in(u, vectors) == (u in expected)

    _on_both_paths(check)


def _pair_sums_by_loop(index, v, seen):
    """The pure-integer pair loop that `ConformalIndex.pair_sums` replaced.

    Keeps the sums not yet in `seen`, a plain tuple set it adds them to, with
    their one-norms.
    """
    sums = (vec_add(v, g) for g in index.vectors if any(a * b < 0 for a, b in zip(v, g)))
    new = []
    for s in map(sign_canonical, sums):
        if any(s) and s not in seen:
            seen.add(s)
            new.append((one_norm(s), s))
    return new


@settings(max_examples=150, deadline=None)
@given(vector_sets(), st.sampled_from([1, 2**61]))
def test_pair_sums_match_nested_loops(case, scale):
    # scaled by 2**61 the entries leave int64 range, and the stack goes object unpatched
    n, vectors, _, _, _ = case
    vectors = [tuple(scale * x for x in v) for v in vectors]

    def check():
        index = ConformalIndex(n, vectors)
        seen = set()
        for v in vectors:
            assert index.pair_sums(v) == _pair_sums_by_loop(index, v, seen)
            assert index._stack.dtype == (np.int64 if index._np_ok else object)

    _on_both_paths(check)


def test_queries_above_the_bound_against_an_int64_stack():
    vectors = [(1, -2), (3, 0), (-5, 4), (0, -7)]
    index = ConformalIndex(2, vectors)
    huge = 2**64  # above _NP_SAFE_BOUND and above the int64 range
    queries = [((huge, 0), (0, huge)), ((0, huge), (huge, 0)), ((huge, huge), None),
               (None, (huge, 1)), ((2, 2), (huge, 0))]
    for pos, neg in queries:
        for start in range(len(vectors) + 1):
            first = next(
                (i for i, v in enumerate(vectors) if i >= start and _satisfies(v, pos, neg)), -1
            )
            assert index.find(pos, neg, start) == first
    seen = set()
    for v in [(huge, -huge), (-huge, 1), (1, 1), (4, -2)]:
        assert index.pair_sums(v) == _pair_sums_by_loop(index, v, seen)
    assert index._np_ok and index._stack.dtype == np.int64


@settings(max_examples=150, deadline=None)
@given(vector_sets(), st.sampled_from([(1, 1), (1, 2**61), (2**61, 2**61)]), st.data())
def test_below_matches_nested_loop(case, scales, data):
    # scaled by 2**61 the query, or the stack and the query, leave int64 range.
    # Queries and dominator counts interleave with the adds, so rows are folded
    # in one or several at a time. The three leading vectors put 2, then 0
    # (below the smallest), then 1 (between) into every g+ column, and 0, then
    # 2 (above the largest), then 0 (an existing entry) into every g- column.
    n, vectors, _, _, start = case
    vscale, qscale = scales
    vectors = [tuple(vscale * x for x in v) for v in [(2,) * n, (-2,) * n, (1,) * n, *vectors]]
    bound = st.tuples(*[st.integers(0, 5)] * (2 * n))
    steps = [(data.draw(st.booleans()), tuple(qscale * x for x in data.draw(bound)))
             for _ in vectors]

    def expected(k, query, start=start):
        return [
            i for i, v in enumerate(vectors[:k])
            if i >= start and _leq(positive_part(v) + negative_part(v), query)
        ]

    def check():
        index = ConformalIndex(n)
        for k, (v, (ask, query)) in enumerate(zip(vectors, steps), start=1):
            index.add(v)
            if ask or k == len(vectors):
                assert list(index.below(query, start)) == expected(k, query)
                assert [index.dominators(i) for i in range(k)] == [
                    len(expected(k, index.parts[i], 0)) for i in range(k)]

    _on_both_paths(check)


def test_indexes_that_only_count_dominators_build_no_numpy_stack():
    # face tests and primitive sets count dominators on the bitsets; only
    # pair generation needs the numpy stack
    G = graver_basis(IntMat.row_vector(T_BIG))  # computed outside the spy
    made = []
    init = ConformalIndex.__init__

    def spying(index, *args, **kwargs):
        init(index, *args, **kwargs)
        made.append(index)

    with mock.patch.object(ConformalIndex, "__init__", spying):
        face_test_projection(T_BIG, 1)
        graver_of_set(G.full_set())
        is_primitive_in(G.elements[0], G.full_set())
    assert [len(index) for index in made] == [2 * len(G)] * 3
    assert [index._stack for index in made] == [None] * 3
    for index in made:
        rows = index.parts
        assert [index.dominators(i) for i in range(len(rows))] == [
            sum(1 for r in rows if _leq(r, q)) for q in rows]


def test_pair_sums_dedup_across_the_switch_to_exact_ints(monkeypatch):
    # at bound 42 the stack of Gr(24 40 41 60 80) turns object partway through the run
    monkeypatch.setattr(graver_module, "_NP_SAFE_BOUND", 42)
    seen, stacks = set(), []
    pair_sums = ConformalIndex.pair_sums

    def checked(index, v):
        expected = _pair_sums_by_loop(index, v, seen)
        assert pair_sums(index, v) == expected
        stacks.append(index._np_ok)
        return expected

    monkeypatch.setattr(ConformalIndex, "pair_sums", checked)
    G = fresh_graver_basis(IntMat.row_vector(T_BIG))
    assert len(G) == 266
    assert stacks[0] and not stacks[-1]

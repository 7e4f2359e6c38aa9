"""ConformalIndex, the one conformal-dominance test, on Python ints alone.

Every operation has one code path. `below`, `find` and `dominators` read
threshold bitsets. `pair_sums` reads the rows that cancel a vector off the
same bitsets and drops repeated sums by packed integer keys, whose width
grows with the entries; so does its lift rule, for project-and-lift. Its
results are held to `_pair_sums_by_loop`, the plain tuple loop it replaced,
on natural inputs whose entries pass 2^60:
scalings by 2^61, Lambda(2^61+1, 2^61+3)_0, queries at 2^64 and runs whose
entries grow past 2^8, 2^63 and 2^64.
"""

from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from graverkit.graver import DEFAULT_BUDGET, ConformalIndex
from graverkit.linalg import (
    kernel_lattice,
    negative_part,
    one_norm,
    positive_part,
    sign_canonical,
    vec_add,
)

from _paper import T_BIG, _complete_lattice, empty_graver_memos, example_e, fresh_graver_basis


def _pair_sums_by_loop(index, v, seen, lift=None):
    """The pure-integer pair loop that `ConformalIndex.pair_sums` replaced.

    Keeps the sums not yet in `seen`, a plain tuple set it adds them to, with
    their one-norms. With `lift` a column, pairs v only with the g that have
    the other sign there and v's sign (or a zero) in every other column.
    """
    if lift is None:
        pairs = (g for g in index.vectors if any(a * b < 0 for a, b in zip(v, g)))
    else:
        pairs = (g for g in index.vectors if v[lift] * g[lift] < 0
                 and all(a * b >= 0 for c, (a, b) in enumerate(zip(v, g)) if c != lift))
    sums = (vec_add(v, g) for g in pairs)
    new = []
    for s in map(sign_canonical, sums):
        if any(s) and s not in seen:
            seen.add(s)
            new.append((one_norm(s), s))
    return new


def _by_loop(monkeypatch):
    """Form every pair sum by `_pair_sums_by_loop`, one seen set per index."""
    monkeypatch.setattr(ConformalIndex, "pair_sums", lambda index, v, lift=None: (
        _pair_sums_by_loop(index, v, vars(index).setdefault("_loop_seen", set()), lift)))
    empty_graver_memos(monkeypatch)


def _robustness_results(A):
    cert = is_strongly_robust(A)
    return indispensable_set(A).elements, cert


class TestPureIntegerFallback:
    """Results with pair sums formed by the plain tuple loop, and on large inputs."""

    def test_graver_bases_and_complex(self, monkeypatch):
        curve = IntMat.row_vector(T_BIG)
        fast = (graver_basis(example_e()), graver_basis(curve), robust_complex(T_BIG).faces)
        _by_loop(monkeypatch)
        slow_complex = robust_complex(T_BIG).faces  # computes Gr(T_BIG) by the loop
        slow = (graver_basis(example_e()), graver_basis(curve), slow_complex)
        assert slow == fast

    def test_indispensable_set_and_certificate(self, monkeypatch):
        matrices = (example_e(), lambda_matrix([4, 5, 6], [1]).matrix)
        fast = [_robustness_results(A) for A in matrices]
        assert fast[0][1].strongly_robust and not fast[1][1].strongly_robust
        _by_loop(monkeypatch)
        assert [_robustness_results(A) for A in matrices] == fast

    def test_guard_switches_off_partway_through_a_run(self, monkeypatch):
        # the packed keys of width W are injective only while every entry is
        # below 2^(W-1). Gr(24 40 41 60 80) has entries up to 80, its kernel
        # basis only up to 20, so in the one-stage completion the 7-bit keys'
        # guard fails partway through the run and the keys are rebuilt 14
        # bits wide
        basis = kernel_lattice(IntMat.row_vector(T_BIG)).vectors
        fast = _complete_lattice(basis, len(T_BIG), DEFAULT_BUDGET)
        widths = []
        pair_sums = ConformalIndex.pair_sums

        def recording(index, v, lift=None):
            sums = pair_sums(index, v, lift)
            widths.append(index._width)
            return sums

        monkeypatch.setattr(ConformalIndex, "pair_sums", recording)
        assert _complete_lattice(basis, len(T_BIG), DEFAULT_BUDGET) == fast
        grown = widths.index(14)
        assert 0 < grown < len(widths)
        assert widths[:grown] == [7] * grown and widths[grown:] == [14] * (len(widths) - grown)

    def test_natural_input_above_2_60(self):
        a, b = 2**61 + 1, 2**61 + 3
        lam = lambda_matrix([a, b], [])
        G = graver_basis(lam.matrix)
        assert G.elements == ((b, -a, -b, a),)
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
    # packed keys against the plain tuple loop, in the engine run on A's own
    # lattice: graver_basis answers rank-2 lattices without pair sums
    basis = kernel_lattice(A).vectors
    fast = _complete_lattice(basis, A.ncols, DEFAULT_BUDGET)
    with pytest.MonkeyPatch.context() as monkeypatch:
        _by_loop(monkeypatch)
        assert _complete_lattice(basis, A.ncols, DEFAULT_BUDGET) == fast


# ---------------------------------------------------------------------------
# property tests against nested loops

def _leq(a, b):
    return all(x <= y for x, y in zip(a, b))


def _satisfies(v, pos, neg):
    return (pos is None or _leq(positive_part(v), pos)) and (
        neg is None or _leq(negative_part(v), neg)
    )


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

    index = ConformalIndex(n, vectors)
    assert index.find(pos, neg, start) == first
    assert [index.dominators(i) for i in range(len(vectors))] == dominators


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
    assert graver_of_set(vectors) == expected
    for u in pool:
        assert is_primitive_in(u, vectors) == (u in expected)


@settings(max_examples=150, deadline=None)
@given(vector_sets(), st.sampled_from([1, 2**61]))
def test_pair_sums_match_nested_loops(case, scale):
    # scaled by 2**61 the entries, and the packed keys' digits, pass 2**60
    n, vectors, _, _, _ = case
    vectors = [tuple(scale * x for x in v) for v in vectors]
    index = ConformalIndex(n, vectors)
    seen = set()
    for v in vectors:
        assert index.pair_sums(v) == _pair_sums_by_loop(index, v, seen)


def test_pair_sums_dedup_across_the_switch_to_exact_ints(monkeypatch):
    # the keys are exact Python ints at every width; the switch the one-stage
    # completion crosses is the one from 7-bit to 14-bit keys, and every call
    # on either side of it must drop the same repeats as the tuple loop; so
    # must every call of project-and-lift, whose stages each have an index
    widths = []
    pair_sums = ConformalIndex.pair_sums

    def checked(index, v, lift=None):
        expected = _pair_sums_by_loop(index, v, vars(index).setdefault("_loop_seen", set()), lift)
        assert pair_sums(index, v, lift) == expected
        widths.append(index._width)
        return expected

    monkeypatch.setattr(ConformalIndex, "pair_sums", checked)
    curve = IntMat.row_vector(T_BIG)
    G = _complete_lattice(kernel_lattice(curve).vectors, len(T_BIG), DEFAULT_BUDGET)
    assert len(G) == 266
    assert widths[0] == 7 and widths[-1] == 14
    assert fresh_graver_basis(curve).elements == tuple(G)


@st.composite
def growing_runs(draw):
    """Vectors over n columns whose entries step through 0 and +-1, then
    +-m and +-(m+1) for m = 2^8, 2^63 and 2^64; each is stored or only paired."""
    n = draw(st.integers(1, 3))
    steps = []
    for m in (1, 2**8, 2**63, 2**64):
        entry = st.sampled_from([0, 1, -1, m, -m, m + 1, -m - 1])
        step = st.tuples(st.tuples(*[entry] * n), st.booleans())
        steps += draw(st.lists(step, min_size=1, max_size=3))
    return n, steps


@settings(max_examples=100, deadline=None)
@given(growing_runs())
# the keys widen after sums that a re-formed sum must still meet
@example((2, [((1, -1), True), ((-1, -1), True), ((256, 0), True)]))
# sums with an entry of 2^9 = 512, from rows with entries 2^8
@example((2, [((256, 1), True), ((256, -1), True), ((-256, 2), True), ((-256, -1), True)]))
def test_pair_sums_while_the_key_width_grows(run):
    # each stored vector is paired again after every add, so sums formed
    # before the keys widen are formed again after it
    n, steps = run
    index, seen = ConformalIndex(n), set()
    for v, stored in steps:
        if stored:
            index.add(v)
        for u in index.vectors if stored else [v]:
            assert index.pair_sums(u) == _pair_sums_by_loop(index, u, seen)


@settings(max_examples=150, deadline=None)
@given(vector_sets(), st.sampled_from([1, 2**61]), st.data())
def test_lift_rule_matches_nested_loops(case, scale, data):
    # the lift rule against the tuple loop, at every column of the drawn set
    n, vectors, _, _, _ = case
    vectors = [tuple(scale * x for x in v) for v in vectors]
    lift = data.draw(st.integers(0, n - 1))
    index = ConformalIndex(n, vectors)
    seen = set()
    for v in vectors:
        assert index.pair_sums(v, lift) == _pair_sums_by_loop(index, v, seen, lift)


def test_queries_and_pair_sums_at_2_64():
    vectors = [(1, -2), (3, 0), (-5, 4), (0, -7)]
    index = ConformalIndex(2, vectors)
    huge = 2**64  # far above every stored entry
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


@settings(max_examples=150, deadline=None)
@given(vector_sets(), st.sampled_from([(1, 1), (1, 2**61), (2**61, 2**61)]), st.data())
def test_below_matches_nested_loop(case, scales, data):
    # scaled by 2**61 the query, or the rows and the query, pass 2**60.
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

    index = ConformalIndex(n)
    for k, (v, (ask, query)) in enumerate(zip(vectors, steps), start=1):
        index.add(v)
        if ask or k == len(vectors):
            assert list(index.below(query, start)) == expected(k, query)
            assert [index.dominators(i) for i in range(k)] == [
                len(expected(k, index.parts[i], 0)) for i in range(k)]


@settings(max_examples=150, deadline=None)
@given(vector_sets())
def test_dominators_with_a_free_coordinate_match_nested_loop(case):
    # leaving coordinate c free drops the columns c (g+) and c + n (g-)
    n, vectors, _, _, _ = case
    index = ConformalIndex(n, vectors)
    for c in range(n):
        rows = [[x for j, x in enumerate(r) if j % n != c] for r in index.parts]
        assert [index.dominators(i, free=c) for i in range(len(rows))] == [
            sum(1 for r in rows if _leq(r, q)) for q in rows]


def test_indexes_that_only_count_dominators_build_no_keys():
    # face tests read the basis's own signed index and primitive sets build
    # one each; all count dominators on the bitsets, and only pair generation
    # needs the packed keys
    G = graver_basis(IntMat.row_vector(T_BIG))  # computed outside the spy
    signed = G.signed_index
    made = []
    init = ConformalIndex.__init__

    def spying(index, *args, **kwargs):
        init(index, *args, **kwargs)
        made.append(index)

    with mock.patch.object(ConformalIndex, "__init__", spying):
        for i in range(1, len(T_BIG) + 1):
            face_test_projection(T_BIG, i)
        assert made == []
        graver_of_set(G.full_set())
        is_primitive_in(G.elements[0], G.full_set())
    assert [len(index) for index in made] == [2 * len(G)] * 2
    assert [index._keys for index in (signed, *made)] == [[]] * 3
    for index in (signed, *made):
        rows = index.parts
        assert [index.dominators(i) for i in range(len(rows))] == [
            sum(1 for r in rows if _leq(r, q)) for q in rows]

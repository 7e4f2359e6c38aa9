"""ConformalIndex, the one conformal-dominance test, on Python ints alone.

Every operation has one code path. `below`, the one bound query, reads
threshold bitsets, and its whole bitset is held to a nested loop, free
(inf) entries included; `dominators` and `kappa` read it. `pair_sums` reads
the rows of the lift rule of project-and-lift off the same bitsets, less
the pairs of the kappa rule, whose `kappa` is held to its definition by a
loop, and drops repeated sums by value, through one set of the
sign-canonical sums it has returned. Its results are held to
`_pair_sums_by_loop`, a plain tuple loop, at every column, on natural inputs
whose entries pass 2^60: scalings by 2^61, Lambda(2^61+1, 2^61+3)_0,
queries at 2^64 and runs whose entries grow past 2^8, 2^63 and 2^64, and in
every lift of the engine. The folded state itself, each
column's entry map, sorted entries and thresholds, is held to a rebuild
from the stored rows after every fold.
"""

import math
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
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
from graverkit.errors import BudgetExceededError
from graverkit.graver import DEFAULT_BUDGET, Budget, ConformalIndex, _lattice_graver
from graverkit.linalg import (
    kernel_lattice,
    negative_part,
    one_norm,
    positive_part,
    sign_canonical,
    vec_add,
)

from _paper import T_BIG, _complete_lattice, empty_graver_memos, example_e, fresh_graver_basis


def _pair_sums_by_loop(index, v, seen, lift, before, kappa):
    """The pure-integer pair loop that `ConformalIndex.pair_sums` replaced:
    the new sums and the number of pairs the kappa rule skipped.

    Keeps the sums not yet in `seen`, a plain tuple set it adds them to, with
    their one-norms. It pairs v only with the rows below `before`, and of
    those only with the g that have the other sign at column c = `lift` and
    v's sign (or a zero) in every other column. `kappa` is the kappa of
    every row, v's at `before`; it skips the pairs with kappa(g) <= |v_c| or
    kappa(v) <= |g_c|.
    """
    pairs = [(i, g) for i, g in enumerate(index.vectors[:before]) if v[lift] * g[lift] < 0
             and all(a * b >= 0 for c, (a, b) in enumerate(zip(v, g)) if c != lift)]
    new, skipped = [], 0
    for i, g in pairs:
        if kappa[i] <= abs(v[lift]) or kappa[before] <= abs(g[lift]):
            skipped += 1
            continue
        s = sign_canonical(vec_add(v, g))
        if any(s) and s not in seen:
            seen.add(s)
            new.append((one_norm(s), s))
    return new, skipped


def _by_loop(monkeypatch):
    """Form every pair sum by `_pair_sums_by_loop`, one seen set per index."""
    monkeypatch.setattr(ConformalIndex, "pair_sums", lambda index, v, *rule: (
        _pair_sums_by_loop(index, v, vars(index).setdefault("_loop_seen", set()), *rule)))
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


@st.composite
def lifted_lattices(draw):
    """The kernel basis and width of a d x n matrix, (d, n) in (1, 4),
    (1, 5), (2, 5) and (2, 6), entries -3..4, whose kernel has rank 3 or
    more and corank 1 or more, so that project-and-lift lifts at least one
    column."""
    d, n = draw(st.sampled_from([(1, 4), (1, 5), (2, 5), (2, 6)]))
    entry = st.integers(-3, 4)
    A = IntMat(tuple(tuple(draw(entry) for _ in range(n)) for _ in range(d)), ncols=n)
    basis = kernel_lattice(A).vectors
    assume(3 <= len(basis) < n)
    return basis, n


@settings(max_examples=60, deadline=None)
@given(lifted_lattices())
def test_completion_identical_on_both_paths(case):
    # pair_sums against the plain tuple loop, in every lift of the engine,
    # its descents' included, run on the drawn lattice. A few lattices form
    # more than 20,000 sums; they are left out, to keep the test short
    basis, n = case
    budget = Budget(max_candidates=20_000)
    try:
        fast = _lattice_graver(basis, n, budget)
    except BudgetExceededError:
        assume(False)
    calls = []
    with pytest.MonkeyPatch.context() as monkeypatch:
        _by_loop(monkeypatch)
        loop = ConformalIndex.pair_sums
        monkeypatch.setattr(ConformalIndex, "pair_sums", lambda index, v, *rule: (
            calls.append(v), loop(index, v, *rule))[1])
        assert _lattice_graver(basis, n, budget) == fast
    assert calls


# ---------------------------------------------------------------------------
# property tests against nested loops

def _leq(a, b):
    return all(x <= y for x, y in zip(a, b))


def _row(v):
    return positive_part(v) + negative_part(v)


def _below_by_loop(vectors, query):
    """The bitset of the vectors whose (g+, g-) is <= query, by a loop."""
    return sum(1 << i for i, v in enumerate(vectors) if _leq(_row(v), query))


FREE = math.inf  # a query entry that bounds nothing


@st.composite
def vector_sets(draw):
    """n, up to 12 vectors of n entries -4..4, and a query of 2n bounds
    0..4, some left free: single entries, or a whole half."""
    n = draw(st.integers(1, 5))
    entry = st.integers(-4, 4)
    vectors = draw(st.lists(st.tuples(*[entry] * n), max_size=12))
    half = st.just((FREE,) * n) | st.tuples(*[st.integers(0, 4) | st.just(FREE)] * n)
    return n, vectors, draw(half) + draw(half)


@settings(max_examples=150, deadline=None)
@given(vector_sets())
def test_queries_match_nested_loops(case):
    n, vectors, query = case
    dominators = [sum(1 for w in vectors if _leq(_row(w), _row(v))) for v in vectors]

    index = ConformalIndex(n, vectors)
    assert index.below(query) == _below_by_loop(vectors, query)
    assert [index.dominators(i) for i in range(len(vectors))] == dominators


@settings(max_examples=150, deadline=None)
@given(vector_sets())
def test_primitive_sets_match_nested_loops(case):
    _, vectors, _ = case
    pool = set(vectors)

    def primitive(u):
        return not any(w != u and _leq(_row(w), _row(u)) for w in pool)

    expected = frozenset(u for u in pool if primitive(u))
    assert graver_of_set(vectors) == expected
    for u in pool:
        assert is_primitive_in(u, vectors) == (u in expected)


@settings(max_examples=150, deadline=None)
@given(vector_sets(), st.sampled_from([1, 2**61]))
# at column 0, (2,0) + (-3,-1) is the negation of the sum (2,0) + (-1,1) before it
@example((2, [(2, 0), (-1, 1), (-3, -1)], ()), 1)
# at column 0, (1,0) + (-1,0) is zero, as -v is stored
@example((2, [(1, 0), (-1, 0), (-2, 1)], ()), 2**61)
def test_pair_sums_match_nested_loops(case, scale):
    # each row paired with the rows before it, as a lift pairs them, at
    # every column; scaled by 2**61 the entries, and so the sums, pass 2**60
    n, vectors, _ = case
    vectors = [tuple(scale * x for x in v) for v in vectors]
    kappa = [math.inf] * len(vectors)  # the kappa rule skips nothing
    for lift in range(n):
        index = ConformalIndex(n, vectors)
        seen = set()
        for i, v in enumerate(vectors):
            assert index.pair_sums(v, lift, i, kappa) == _pair_sums_by_loop(
                index, v, seen, lift, i, kappa)


def test_pair_sums_dedup_in_every_completion_call(monkeypatch):
    # every call of project-and-lift on Gr(24 40 41 60 80), in the lifts of
    # its descent and in its last lift, whose entries grow to 80, must drop
    # the same repeats as the tuple loop; its basis is the one-stage
    # completion's, which forms its pairs by a loop of its own
    pair_sums, calls = ConformalIndex.pair_sums, []

    def checked(index, v, *rule):
        expected = _pair_sums_by_loop(index, v, vars(index).setdefault("_loop_seen", set()), *rule)
        assert pair_sums(index, v, *rule) == expected
        calls.append(v)
        return expected

    monkeypatch.setattr(ConformalIndex, "pair_sums", checked)
    curve = IntMat.row_vector(T_BIG)
    G = fresh_graver_basis(curve)
    assert len(calls) == 63 + 60 + 266  # one per element each lift keeps
    assert G.elements == tuple(_complete_lattice(kernel_lattice(curve).vectors, len(T_BIG),
                                                 DEFAULT_BUDGET))


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
# the entries grow past 2^8 after sums that a re-formed sum must still meet
@example((2, [((1, -1), True), ((-1, -1), True), ((256, 0), True)]))
# sums with an entry of 2^9 = 512, from rows with entries 2^8
@example((2, [((256, 1), True), ((256, -1), True), ((-256, 2), True), ((-256, -1), True)]))
def test_pair_sums_while_the_entries_grow(run):
    # each stored vector is paired again, with every stored row, after every
    # add, so sums formed before larger entries arrive are formed again
    # after them; at every column, the paired vector coming after the rows
    n, steps = run
    for lift in range(n):
        index, seen = ConformalIndex(n), set()
        for v, stored in steps:
            if stored:
                index.add(v)
            k = len(index)
            kappa = [math.inf] * (k + 1)
            for u in index.vectors if stored else [v]:
                assert index.pair_sums(u, lift, k, kappa) == _pair_sums_by_loop(
                    index, u, seen, lift, k, kappa)


@settings(max_examples=150, deadline=None)
@given(vector_sets(), st.sampled_from([1, 2**61]))
# at column 0, (2,0) + (-3,-1) is the negation of the sum (2,0) + (-1,1) before it
@example((2, [(2, 0), (-1, 1), (-3, -1)], ()), 1)
# at column 0, (1,0) + (-1,0) is zero, as -v is stored
@example((2, [(1, 0), (-1, 0), (-2, 1)], ()), 2**61)
def test_lift_rule_matches_nested_loops(case, scale):
    # the lift rule against the tuple loop, each row paired with every row
    # of the drawn set, itself and those after it included, at every column
    n, vectors, _ = case
    vectors = [tuple(scale * x for x in v) for v in vectors]
    k = len(vectors)
    kappa = [math.inf] * (k + 1)
    for lift in range(n):
        index = ConformalIndex(n, vectors)
        seen = set()
        for v in vectors:
            assert index.pair_sums(v, lift, k, kappa) == _pair_sums_by_loop(
                index, v, seen, lift, k, kappa)


def _kappa_by_loop(index, i, c):
    """kappa of row i, v, on column c: |v_c| + the least |r_c| over the other
    rows r with r_c v_c < 0 and r_j conformally below v_j off c, or inf."""
    v = index.vectors[i]
    below = [abs(r[c]) for k, r in enumerate(index.vectors) if k != i and r[c] * v[c] < 0
             and all(a * b >= 0 and abs(a) <= abs(b) for j, (a, b) in enumerate(zip(r, v))
                     if j != c)]
    return abs(v[c]) + min(below) if below else math.inf


@settings(max_examples=150, deadline=None)
@given(vector_sets(), st.sampled_from([1, 2**61]))
# column 0: (1,1) has kappa 1 + 2 through (-2,1), not through (-1,2) or (-3,0)
@example((2, [(1, 1), (-1, 2), (-2, 1), (-3, 0), (2, 1)], ()), 1)
# a duplicate row, and a zero at the lifted column, give no kappa
@example((2, [(2, -1), (2, -1), (0, -1), (-1, 0)], ()), 2**61)
def test_kappa_and_its_rule_match_nested_loops(case, scale):
    # each row paired with the rows before it, against the tuple loop
    n, vectors, _ = case
    vectors = [tuple(scale * x for x in v) for v in vectors]
    for lift in range(n):
        index = ConformalIndex(n, vectors)
        kappa = [index.kappa(i, lift) for i in range(len(vectors))]
        assert kappa == [_kappa_by_loop(index, i, lift) for i in range(len(vectors))]
        seen = set()
        for i, v in enumerate(vectors):
            assert index.pair_sums(v, lift, i, kappa) == _pair_sums_by_loop(
                index, v, seen, lift, i, kappa)


def test_queries_and_pair_sums_at_2_64():
    vectors = [(1, -2), (3, 0), (-5, 4), (0, -7)]
    index = ConformalIndex(2, vectors)
    huge = 2**64  # far above every stored entry
    queries = [(huge, 0, 0, huge), (0, huge, huge, 0), (huge, huge, FREE, FREE),
               (FREE, FREE, huge, 1), (2, 2, huge, 0), (FREE, 0, huge, FREE)]
    for query in queries:
        assert index.below(query) == _below_by_loop(vectors, query)
    seen, k = set(), len(vectors)
    kappa = [math.inf] * (k + 1)
    for lift in range(2):
        for v in [(huge, -huge), (-huge, 1), (1, 1), (4, -2)]:
            assert index.pair_sums(v, lift, k, kappa) == _pair_sums_by_loop(
                index, v, seen, lift, k, kappa)


@settings(max_examples=150, deadline=None)
@given(vector_sets(), st.sampled_from([(1, 1), (1, 2**61), (2**61, 2**61)]), st.data())
def test_below_matches_nested_loop(case, scales, data):
    # scaled by 2**61 the query, or the rows and the query, pass 2**60.
    # Queries and dominator counts interleave with the adds, so rows are folded
    # in one or several at a time, and a half or a coordinate left free is
    # bounded on rows added since the last fold by the query that folds
    # them. The three leading vectors put 2, then 0 (below the smallest),
    # then 1 (between) into every g+ column, and 0, then 2 (above the
    # largest), then 0 (an existing entry) into every g- column.
    n, vectors, _ = case
    vscale, qscale = scales
    vectors = [tuple(vscale * x for x in v) for v in [(2,) * n, (-2,) * n, (1,) * n, *vectors]]
    half = st.just((FREE,) * n) | st.tuples(*[st.integers(0, 5) | st.just(FREE)] * n).map(
        lambda h: tuple(qscale * x for x in h))
    steps = [(data.draw(st.booleans()), data.draw(half) + data.draw(half),
              data.draw(st.integers(0, n - 1)), data.draw(st.booleans()))
             for _ in vectors]

    def dominators(k, free):
        rows = [[x for j, x in enumerate(positive_part(v) + negative_part(v))
                 if free is None or j % n != free] for v in vectors[:k]]
        return [sum(1 for r in rows if _leq(r, q)) for q in rows]

    index = ConformalIndex(n)
    for k, (v, (ask, query, c, free_first)) in enumerate(zip(vectors, steps), start=1):
        index.add(v)
        if ask or k == len(vectors):
            if free_first:
                assert [index.dominators(i, free=c) for i in range(k)] == dominators(k, c)
            assert index.below(query) == _below_by_loop(vectors[:k], query)
            assert [index.dominators(i, free=c) for i in range(k)] == dominators(k, c)
            assert [index.dominators(i) for i in range(k)] == dominators(k, None)


def _assert_folded_state(index):
    """Each column's map, sorted entries and thresholds, against a rebuild
    from the stored rows: rows[x] marks the rows whose entry is x, and
    masks[j] the rows whose entry is <= values[j]."""
    assert index._folded == len(index.parts)
    for c in range(2 * index.n):
        column = [row[c] for row in index.parts]
        values = sorted(set(column))
        rows = {x: sum(1 << i for i, y in enumerate(column) if y == x) for x in values}
        masks = [sum(1 << i for i, y in enumerate(column) if y <= x) for x in values]
        assert index._values[c] == values
        assert index._rows[c] == rows
        assert index._masks[c] == masks


@settings(max_examples=150, deadline=None)
@given(vector_sets(), st.sampled_from([1, 2**61, 2**64 + 3]), st.data())
def test_fold_state_matches_a_rebuild(case, scale, data):
    # queries interleave with the adds, so rows fold one or several at a
    # time. The five leading vectors put 2, then 0 (below the smallest), 1
    # (between), 3 (above the largest) and 0 (an existing entry) into every
    # g+ column, and 0, 2, 0, 0, 1 into every g- column
    n, vectors, _ = case
    lead = [(2,) * n, (-2,) * n, (1,) * n, (3,) * n, (-1,) * n]
    vectors = [tuple(scale * x for x in v) for v in [*lead, *vectors]]
    queries = st.sampled_from([None, "below", "dominators", "kappa", "pair_sums"])
    index = ConformalIndex(n)
    for k, v in enumerate(vectors, start=1):
        index.add(v)
        query = "below" if k == len(vectors) else data.draw(queries)
        if query == "below":
            bound = (FREE,) * n + (0,) * n  # the rows with no negative entry
            assert index.below(bound) == _below_by_loop(index.vectors, bound)
        elif query == "dominators":
            index.dominators(k - 1)
        elif query == "kappa":
            index.kappa(0, 0)  # the leading row is nonzero at 0, so this queries
        elif query == "pair_sums":
            # the leading row is nonzero at 0, so this folds
            index.pair_sums(index.vectors[0], 0, k, [math.inf] * (k + 1))
        if query is not None:
            _assert_folded_state(index)


@settings(max_examples=150, deadline=None)
@given(vector_sets())
def test_dominators_with_a_free_coordinate_match_nested_loop(case):
    # leaving coordinate c free drops the columns c (g+) and c + n (g-)
    n, vectors, _ = case
    index = ConformalIndex(n, vectors)
    for c in range(n):
        rows = [[x for j, x in enumerate(r) if j % n != c] for r in index.parts]
        assert [index.dominators(i, free=c) for i in range(len(rows))] == [
            sum(1 for r in rows if _leq(r, q)) for q in rows]


def test_indexes_that_only_count_dominators_return_no_pair_sums():
    # face tests read the basis's own signed index and primitive sets build
    # one each; all count dominators on the bitsets, and none forms a pair
    # sum, so each seen set holds only the zero vector
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
    assert [index._seen for index in (signed, *made)] == [{(0,) * len(T_BIG)}] * 3
    for index in (signed, *made):
        rows = index.parts
        assert [index.dominators(i) for i in range(len(rows))] == [
            sum(1 for r in rows if _leq(r, q)) for q in rows]

import functools
import heapq
import itertools
import logging
import math
import random
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import graverkit.graver as graver_module
from graverkit import (
    Budget,
    BudgetExceededError,
    IntMat,
    PreconditionError,
    assert_pointed,
    bouquet_decomposition,
    build_gen_lawrence,
    circuits,
    graver_basis,
    graver_of_set,
    is_primitive_in,
    is_simple,
    lambda_matrix,
    robust_complex,
)
from graverkit.graver import (
    DEFAULT_BUDGET,
    CircuitSet,
    ConformalIndex,
    GraverBasis,
    _det,
    _lattice_graver,
    _projected_columns,
)
from graverkit.linalg import (
    kernel_lattice,
    negative_part,
    one_norm,
    positive_part,
    project_out,
    sign_canonical,
    vec_add,
    vec_neg,
    vec_sub,
)
from graverkit.oracle import graver_by_enumeration
from graverkit.robustness import IndispensableSet

from _paper import (
    T_BIG,
    _complete_lattice,
    empty_graver_memos,
    example_e,
    fresh_graver_basis,
    lift_curve_vector,
    lifting_decomposition,
    random_unimodular,
    reduce_by_set,
)
from test_conformal_index import small_matrices
from test_lawrence import gen_lawrence_specs


def T(*entries):
    return IntMat.row_vector(entries)


def reference_completion(A):
    """The completion as first written, kept as an independent reference.

    Each reduction step scans the stored vectors from the front for the first
    conformal reducer and subtracts it once. Returns the stored vectors in
    insertion order, the number of distinct sums queued and of subtractions.
    """
    stored, members = [], set()
    subtractions = 0

    def insert(v):
        for w in (v, vec_neg(v)):
            if w not in members:
                stored.append(w)
                members.add(w)

    heap, queued = [], set()

    def enqueue_pairs(v):
        for g in list(stored):
            if any(a * b < 0 for a, b in zip(v, g)):
                s = sign_canonical(vec_add(v, g))
                if any(s) and s not in queued:
                    queued.add(s)
                    heapq.heappush(heap, (one_norm(s), s))

    for b in kernel_lattice(A).vectors:
        insert(b)
    for v in list(stored):
        enqueue_pairs(v)
    while heap:
        _, s = heapq.heappop(heap)
        while s is not None:
            if s in members:
                s = None
                break
            g = next((g for g in stored if all(0 <= a <= b or b <= a <= 0 for a, b in zip(g, s))), None)
            if g is None:
                break
            s = vec_sub(s, g)
            subtractions += 1
            if not any(s):
                s = None
        if s is not None:
            insert(s)
            enqueue_pairs(s)
    return stored, len(queued), subtractions


def completion_run(A):
    """The completion index's stored vectors and the counters the run logs,
    from the engine run on A's own kernel lattice."""
    made = []
    init = ConformalIndex.__init__

    def spying(index, *args, **kwargs):
        init(index, *args, **kwargs)
        made.append(index)

    with mock.patch.object(ConformalIndex, "__init__", spying), \
            mock.patch.object(graver_module.log, "debug") as debug:
        _complete_lattice(kernel_lattice(A).vectors, A.ncols, DEFAULT_BUDGET)
    return made[0].vectors, debug.call_args.args[1]


CHAIN_INPUTS = {
    "T_BIG": lambda: T(*T_BIG),
    "1 6 8 12 19": lambda: T(1, 6, 8, 12, 19),
    "exampleE": example_e,
    "lambda 4 5 6 {1}": lambda: lambda_matrix([4, 5, 6], [1]).matrix,
}


@functools.cache
def reference_chain(name):
    return reference_completion(CHAIN_INPUTS[name]())


class TestReductionChain:
    """The completion stores the same vectors, in the same order, as the reference."""

    @pytest.mark.parametrize("name", CHAIN_INPUTS)
    def test_stored_sequence_equals_reference(self, name):
        stored, counts = completion_run(CHAIN_INPUTS[name]())
        assert (stored, counts["generated"], counts["subtractions"]) == reference_chain(name)

    @settings(max_examples=60, deadline=None)
    @given(small_matrices())
    def test_stored_sequence_on_small_matrices(self, A):
        stored, counts = completion_run(A)
        assert (stored, counts["generated"], counts["subtractions"]) == reference_completion(A)

    # the whole debug line of three runs: a faster completion must log the same work
    PINNED_COUNTERS = {
        "T_BIG": dict(pops=10217, scans=31281, subtractions=31019, inserts=262,
                      generated=10217, index=532, kept=266),
        "1 6 8 12 19": dict(pops=3288, scans=7666, subtractions=7528, inserts=138,
                            generated=3288, index=284, kept=142),
        "exampleE": dict(pops=10237, scans=31865, subtractions=31602, inserts=263,
                         generated=10237, index=534, kept=266),
    }

    @pytest.mark.parametrize("name", PINNED_COUNTERS)
    def test_logged_counters_are_pinned(self, name):
        assert completion_run(CHAIN_INPUTS[name]())[1] == self.PINNED_COUNTERS[name]

    def test_logged_counters_agree_with_the_result(self, caplog):
        # graver_basis logs the projection's completion, then one line per lift
        A = T(1, 6, 8, 12, 19)
        with caplog.at_level(logging.DEBUG, logger="graverkit.graver"):
            G = fresh_graver_basis(A)
        [record, lift] = caplog.records
        assert (record.msg, lift.msg) == ("completion: %s", "lift: %s")
        counts = record.args
        assert counts["index"] == 2 * kernel_lattice(A).rank + 2 * counts["inserts"]
        assert counts["pops"] == counts["generated"]  # the heap is drained
        # each index query that hits is followed by a subtraction, and each miss by an insert
        assert counts["scans"] == counts["subtractions"] + counts["inserts"]
        assert lift.args["seeds"] == counts["kept"]
        assert lift.args["pops"] == lift.args["generated"]
        assert lift.args["kept"] == len(G)


@st.composite
def simple_rank2_matrices(draw):
    """An (n-2) x n matrix, n in 2..6, entries of both signs, whose kernel is a
    rank-2 lattice with nonzero, pairwise non-parallel Gale rows."""
    n = draw(st.integers(2, 6))
    entry = st.integers(-6, 6)
    A = IntMat(tuple(tuple(draw(entry) for _ in range(n)) for _ in range(n - 2)), ncols=n)
    assume(kernel_lattice(A).rank == 2 and is_simple(A))
    return A


class TestRank2Walk:
    """Rank-2 lattices take the sector walk; the completion is its reference."""

    @staticmethod
    def both_engines(basis, n):
        return (_lattice_graver(basis, n, DEFAULT_BUDGET),
                _complete_lattice(basis, n, DEFAULT_BUDGET))

    def test_curves_match_the_engine(self):
        # every gcd-normalised 1x3 curve with entries <= 20, sorted and permuted
        rng = random.Random(19)
        curves = [t for t in itertools.combinations_with_replacement(range(1, 21), 3)
                  if math.gcd(*t) == 1]
        assert len(curves) == 1252
        for t in curves:
            for entries in (t, tuple(rng.sample(t, 3))):
                walk, engine = self.both_engines(kernel_lattice(T(*entries)).vectors, 3)
                assert walk == engine, entries

    @settings(max_examples=150, deadline=None)
    @given(simple_rank2_matrices(), st.integers(-4, 4), st.integers(-4, 4), st.booleans())
    def test_simple_lattices_match_the_engine(self, A, p, q, swap):
        # the walk also runs on a basis of the lattice other than its Hermite form
        b1, b2 = basis = kernel_lattice(A).vectors
        walk, engine = self.both_engines(basis, A.ncols)
        assert walk == engine
        c1 = tuple(x + p * y for x, y in zip(b1, b2))  # (c1, c2) = (b1, b2) U, det U = -1
        c2 = tuple(q * x - y for x, y in zip(c1, b2))
        assert _lattice_graver((c2, c1) if swap else (c1, c2), A.ncols, DEFAULT_BUDGET) == engine

    def test_zero_and_parallel_gale_rows_match_the_engine(self):
        # a zero coordinate cuts no sector, and a parallel one cuts an existing line
        b1, b2 = kernel_lattice(T(4, 5, 6)).vectors
        basis = [(*b, 0, -2 * b[0], b[2]) for b in (b1, b2)]
        walk, engine = self.both_engines(basis, 6)
        assert walk == engine and len(walk) == len(fresh_graver_basis(T(4, 5, 6)))

    def test_graver_basis_logs_one_walk(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="graverkit.graver"):
            G = fresh_graver_basis(T(7, 15, 20))
        [record] = caplog.records
        assert record.msg == "rank-2 walk: %s"
        assert record.args == dict(sectors=3, candidates=9, kept=9)
        assert len(G) == 9

    def test_element_cap_holds_inside_the_walk(self):
        with pytest.raises(BudgetExceededError) as info:
            fresh_graver_basis(T(7, 15, 20), budget=Budget(max_candidates=1))
        assert (info.value.kind, info.value.generated) == ("elements", 2)

    def test_time_cap_holds_inside_the_walk(self, monkeypatch):
        # the clock reads 0 as the walk starts, then jumps past the cap
        ticks = iter([0.0])
        clock = SimpleNamespace(monotonic=lambda: next(ticks, 1e9))
        monkeypatch.setattr(graver_module, "time", clock)
        with pytest.raises(BudgetExceededError) as info:
            fresh_graver_basis(T(7, 15, 20), budget=Budget(max_seconds=1.0))
        assert (info.value.kind, info.value.generated) == ("time", 1)


@st.composite
def simple_lattices(draw):
    """The kernel basis of an (n-r) x n matrix, r in {3, 4}, n <= 7, entries
    -3..4, whose kernel has rank r and no zero or parallel Gale rows, with
    its Graver basis from the completion. About half of these lattices need
    more than 2,000 pair sums there, some of them millions; they are left
    out, to keep the property within about a second."""
    r = draw(st.integers(3, 4))
    n = draw(st.integers(r + 1, 7))
    entry = st.integers(-3, 4)
    A = IntMat(tuple(tuple(draw(entry) for _ in range(n)) for _ in range(n - r)), ncols=n)
    basis = kernel_lattice(A).vectors
    assume(len(basis) == r and is_simple(A))
    try:
        return basis, _complete_lattice(basis, n, Budget(max_candidates=2_000))
    except BudgetExceededError:
        assume(False)


class TestProjectAndLift:
    """Lattices of rank >= 3 take project-and-lift; the completion on the
    whole lattice is its reference."""

    # the whole debug output of graver_basis on two simple curves
    PINNED_LINES = {
        "T_BIG": [
            ("completion: %s", dict(pops=519, scans=812, subtractions=768, inserts=44,
                                    generated=519, index=96, kept=26)),
            ("lift: %s", dict(column=0, seeds=26, generated=691, skipped=2605, pops=691,
                              inserts=240, kept=266)),
        ],
        "1 6 8 12 19": [
            ("completion: %s", dict(pops=160, scans=276, subtractions=256, inserts=20,
                                    generated=160, index=48, kept=4)),
            ("lift: %s", dict(column=0, seeds=4, generated=305, skipped=897, pops=305,
                              inserts=138, kept=142)),
        ],
    }

    @staticmethod
    def lifted(basis, n):
        """`_lattice_graver`'s basis and the number of lifts it logs, asserting
        that each lift keeps exactly its seeds and the sums it inserts."""
        with mock.patch.object(graver_module.log, "debug") as debug:
            G = _lattice_graver(basis, n, DEFAULT_BUDGET)
        lifts = [call.args[1] for call in debug.call_args_list if call.args[0] == "lift: %s"]
        for counts in lifts:
            assert counts["seeds"] + counts["inserts"] == counts["kept"], counts
        return G, len(lifts)

    def both_engines(self, basis, n):
        G, lifts = self.lifted(basis, n)
        assert lifts == n - len(basis)
        return G, _complete_lattice(basis, n, DEFAULT_BUDGET)

    def test_curves_match_the_engine(self):
        # every gcd-normalised 1x4 curve with entries <= 8, then three 1x5
        # curves; the lift of (7,12,19,25,31) drops 1,749 of its 2,703 pops
        curves = [t for t in itertools.combinations_with_replacement(range(1, 9), 4)
                  if math.gcd(*t) == 1]
        assert len(curves) == 289
        for t in [*curves, T_BIG, (1, 6, 8, 12, 19), (7, 12, 19, 25, 31)]:
            lifted, engine = self.both_engines(kernel_lattice(T(*t)).vectors, len(t))
            assert lifted == engine, t

    @settings(max_examples=15, deadline=None)
    @given(simple_lattices(), st.randoms(use_true_random=False), st.data())
    def test_simple_lattices_match_the_engine(self, case, rng, data):
        # also on another basis of the lattice, and with its columns permuted
        basis, engine = case
        n = len(basis[0])
        assert self.lifted(basis, n) == (engine, n - len(basis))
        U = random_unimodular(rng, len(basis))
        changed = [tuple(sum(u * b[c] for u, b in zip(row, basis)) for c in range(n))
                   for row in U]
        assert _lattice_graver(changed, n, DEFAULT_BUDGET) == engine
        perm = data.draw(st.permutations(range(n)))
        permuted = [tuple(b[p] for p in perm) for b in changed]
        assert _lattice_graver(permuted, n, DEFAULT_BUDGET) == sorted(
            sign_canonical([u[p] for p in perm]) for u in engine)

    def test_determinants(self):
        rng = random.Random(20)
        for k in range(1, 6):
            U = random_unimodular(rng, k)
            assert _det(U) in (1, -1)
            assert _det([[3 * x for x in U[0]], *U[1:]]) == 3 * _det(U)
        assert _det([]) == 1
        assert _det([[1, 2, 3], [4, 5, 6], [7, 8, 10]]) == -3
        assert _det([[0, 1, 0], [1, 0, 0], [0, 0, 0]]) == 0

    def test_a_curve_drops_the_column_of_its_smallest_entry(self):
        # the minor off column k is +-a_k; on a tie the first set of columns wins
        for t in [T_BIG, (7, 3, 9, 11), (5, 9, 2, 14, 6), (8, 13, 21, 34, 55, 89)]:
            k = t.index(min(t))
            cols = _projected_columns(kernel_lattice(T(*t)).vectors)
            assert cols == tuple(c for c in range(len(t)) if c != k), t
        assert _projected_columns(kernel_lattice(T(15, 15, 29, 29, 29)).vectors) == (0, 2, 3, 4)

    def test_a_unit_entry_projects_onto_the_unit_vectors(self, monkeypatch):
        stages = []
        stage = graver_module._completion_stage

        def recording(seeds, n, spent, lift=None):
            kept, counts = stage(seeds, n, spent, lift)
            stages.append(kept)
            return kept, counts

        monkeypatch.setattr(graver_module, "_completion_stage", recording)
        fresh_graver_basis(T(6, 1, 8, 12, 19))
        assert stages[0] == [(0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0)]
        assert len(stages) == 2 and len(stages[1]) == 142

    def test_a_lift_never_reduces(self, monkeypatch):
        # the projection reduces to normal forms; the lift makes one index
        # query per pop, stores 954 of its 2,703 pops and drops the rest
        stages = []
        stage = graver_module._completion_stage

        def recording(seeds, n, spent, lift=None):
            kept, counts = stage(seeds, n, spent, lift)
            stages.append((lift, counts))
            return kept, counts

        monkeypatch.setattr(graver_module, "_completion_stage", recording)
        fresh_graver_basis(T(7, 12, 19, 25, 31))
        [(no_lift, projection), (lift, lifted)] = stages
        assert (no_lift, lift) == (None, 4)
        assert projection["subtractions"] == 1404
        assert lifted == dict(pops=2703, scans=2703, subtractions=0, inserts=954,
                              generated=2703, index=2 * (66 + 954), kept=1020,
                              skipped=10867)

    def test_element_cap_counts_every_stage(self, caplog):
        # the projection forms 519 sums, under the cap; the lift's seeding passes it
        with caplog.at_level(logging.DEBUG, logger="graverkit.graver"), \
                pytest.raises(BudgetExceededError) as info:
            fresh_graver_basis(T(*T_BIG), budget=Budget(max_candidates=600))
        assert [r.msg for r in caplog.records] == ["completion: %s"]
        assert info.value.kind == "elements" and info.value.generated > 600

    def test_time_cap_holds_inside_a_lift(self, monkeypatch, caplog):
        # the clock jumps once the lift forms its first pairs; its first pop sees it
        lifted = []
        pair_sums = ConformalIndex.pair_sums

        def recording(index, v, lift=None, *rule):
            if lift is not None:
                lifted.append(v)
            return pair_sums(index, v, lift, *rule)

        clock = SimpleNamespace(monotonic=lambda: 1e9 if lifted else 0.0)
        monkeypatch.setattr(ConformalIndex, "pair_sums", recording)
        monkeypatch.setattr(graver_module, "time", clock)
        with caplog.at_level(logging.DEBUG, logger="graverkit.graver"), \
                pytest.raises(BudgetExceededError) as info:
            fresh_graver_basis(T(*T_BIG), budget=Budget(max_seconds=1.0))
        assert [r.msg for r in caplog.records] == ["completion: %s"]
        assert info.value.kind == "time" and info.value.generated > 519
        assert len(lifted) == 26  # the lift's seeds, one sign each

    def test_a_lift_stores_only_graver_elements(self, caplog):
        # a lift stores a level's sums after its last pop, so no sum is stored
        # before a reducer of a lower level: (1,5,7,11,14) once stored 96 sums
        # for 95 elements, and (1,10,14,15,20) 109 for 108
        with caplog.at_level(logging.DEBUG, logger="graverkit.graver"):
            fresh_graver_basis(T(1, 5, 7, 11, 14))
            fresh_graver_basis(T(1, 10, 14, 15, 20))
        assert [(r.msg, r.args) for r in caplog.records] == [
            ("completion: %s", dict(pops=209, scans=497, subtractions=473, inserts=24,
                                    generated=209, index=56, kept=4)),
            ("lift: %s", dict(column=0, seeds=4, generated=236, skipped=499, pops=236,
                              inserts=95, kept=99)),
            ("completion: %s", dict(pops=136, scans=197, subtractions=176, inserts=21,
                                    generated=136, index=50, kept=4)),
            ("lift: %s", dict(column=0, seeds=4, generated=234, skipped=670, pops=234,
                              inserts=108, kept=112)),
        ]

    def test_the_kappa_rule_skips_only_sums_above_graver_elements(self, monkeypatch):
        # every gcd-normalised 1x4 curve with entries <= 12 and sampled 1x5
        # curves with entries <= 20 have one lift each, on the whole lattice
        # with the columns `_projected_columns` and then the lifted one. Each
        # sum the lift skips has a lattice vector strictly below it, so it
        # is no Graver element: an element of the one-stage reference Gr for
        # the 1x5 curves, whose lifted bases must equal it, and of the lifted
        # basis itself for the 1x4 curves, as a reference for each would
        # double the test's time. The skipped pairs are listed by a loop over
        # the rows, and must be as many as the lift skipped
        curves4 = [t for t in itertools.combinations_with_replacement(range(1, 13), 4)
                   if math.gcd(*t) == 1]
        curves5 = [t for t in itertools.combinations_with_replacement(range(1, 21), 5)
                   if math.gcd(*t) == 1]
        assert len(curves4) == 1203
        cases = [(t, kernel_lattice(T(*t)).vectors, None) for t in curves4]
        for t in [*random.Random(5).sample(curves5, 12), T_BIG]:
            basis = kernel_lattice(T(*t)).vectors
            cases.append((t, basis, _complete_lattice(basis, len(t), DEFAULT_BUDGET)))
        skipped, pair_sums = [], ConformalIndex.pair_sums

        def listing(index, v, lift=None, before=None, kappa=None):
            sums, count = pair_sums(index, v, lift, before, kappa)
            if kappa is not None:
                x, bound = v[lift], kappa[before]
                # the lift rule: g cancels v at the lifted column, and only there
                pairs = [vec_add(v, g) for k, g in zip(kappa, index.vectors[:before])
                         if g[lift] * x < 0 and (k <= abs(x) or bound <= abs(g[lift]))
                         and sum(a * b < 0 for a, b in zip(v, g)) == 1]
                assert len(pairs) == count
                skipped.extend(pairs)
            return sums, count

        monkeypatch.setattr(ConformalIndex, "pair_sums", listing)
        total = 0
        for t, basis, reference in cases:
            skipped.clear()
            lifted = _lattice_graver(basis, len(t), DEFAULT_BUDGET)
            assert reference is None or reference == lifted, t
            cols = _projected_columns(basis)
            order = [*cols, *(c for c in range(len(t)) if c not in cols)]
            stage = [tuple(g[c] for c in order) for g in lifted]
            below = ConformalIndex(len(t), stage + [vec_neg(g) for g in stage])
            for s in skipped:
                i = below.find(positive_part(s), negative_part(s))
                g = below.vectors[i]
                assert i >= 0 and g != s and all(
                    a * b >= 0 and abs(a) <= abs(b) for a, b in zip(g, s)), (t, s)
            total += len(skipped)
        assert total > 50_000

    def test_a_lift_folds_once_per_level(self, monkeypatch):
        # the lift of (7,12,19,25,31) stores 954 sums; every pop of one J-norm
        # level queries the same index, so only storing a level folds
        folded = []
        fold = ConformalIndex._fold

        def counting(index):
            folded.append(index)
            fold(index)

        monkeypatch.setattr(ConformalIndex, "_fold", counting)
        fresh_graver_basis(T(7, 12, 19, 25, 31))
        [lift] = {id(index): index for index in folded if index.n == 5}.values()
        # the lifted column is the stage's last, and the first 2 * 66 rows are the seeds
        levels = {sum(map(abs, v[:-1])) for v in lift.vectors[2 * 66:]}
        assert len(lift) == 2 * (66 + 954)
        assert folded.count(lift) <= len(levels) + 1

    def test_a_lift_has_no_minimality_filter(self, monkeypatch):
        # only the projection's filter counts dominators, and it reads the
        # clock; a clock that jumps while the lift stores its last level
        # stops the next pop, after every sum is formed and before its query
        counted, lifted, queried = [], [], []
        dominators, pair_sums, find = (ConformalIndex.dominators, ConformalIndex.pair_sums,
                                       ConformalIndex.find)

        def counting(index, i):
            counted.append((index.n, i))
            return dominators(index, i)

        def recording(index, v, lift=None, *rule):
            if lift is not None:
                lifted.append(v)
            return pair_sums(index, v, lift, *rule)

        def querying(index, pos, neg, start=0):
            queried.append(index.n)
            return find(index, pos, neg, start)

        monkeypatch.setattr(ConformalIndex, "dominators", counting)
        monkeypatch.setattr(ConformalIndex, "pair_sums", recording)
        monkeypatch.setattr(ConformalIndex, "find", querying)
        fresh_graver_basis(T(*T_BIG))
        assert counted == [(4, i) for i in range(0, 96, 2)]
        # the lift pairs one sign of each of its 26 seeds and 240 inserts
        assert len(lifted) == 26 + 240 and queried.count(5) == 691
        # the first pairing of the last level's rows, J-norms taken off the lifted last column
        top = sum(map(abs, lifted[-1][:-1]))
        last = next(k for k in range(26, len(lifted)) if sum(map(abs, lifted[k][:-1])) == top)

        counted.clear()
        monkeypatch.setattr(graver_module, "time", SimpleNamespace(
            monotonic=lambda: 1e9 if counted else 0.0))
        with pytest.raises(BudgetExceededError) as info:
            fresh_graver_basis(T(*T_BIG), budget=Budget(max_seconds=1.0))
        assert (info.value.kind, info.value.generated) == ("time", 519)
        assert counted == [(4, 0)]

        lifted.clear()
        queried.clear()
        at_jump = []  # the lift's queries when the clock first reads the jump

        def jumping():
            if len(lifted) > last and not at_jump:
                at_jump.append(queried.count(5))
            return 1e9 if at_jump else 0.0

        monkeypatch.setattr(graver_module, "time", SimpleNamespace(monotonic=jumping))
        with pytest.raises(BudgetExceededError) as info:
            fresh_graver_basis(T(*T_BIG), budget=Budget(max_seconds=1.0))
        assert (info.value.kind, info.value.generated) == ("time", 519 + 691)
        assert len(lifted) == 26 + 240
        assert at_jump == [queried.count(5)] and queried.count(5) < 691


class TestVectorSets:
    def test_equality_is_per_class(self):
        sets = [kind(3, ((5, -4, 0),)) for kind in (GraverBasis, CircuitSet, IndispensableSet)]
        assert all(a != b for a, b in itertools.combinations(sets, 2))
        assert sets == [type(v)(3, ((5, -4, 0),)) for v in sets]
        assert all((len(v), list(v), v.as_set()) == (1, [(5, -4, 0)], {(5, -4, 0)}) for v in sets)

    def test_signed_forms_only_on_graver_bases(self):
        G = GraverBasis(3, ((5, -4, 0),))
        assert G.full_set() == {(5, -4, 0), (-5, 4, 0)} and len(G.signed_index) == 2
        for other in (CircuitSet(3, G.elements), IndispensableSet(3, G.elements)):
            assert not hasattr(other, "full_set") and not hasattr(other, "signed_index")


class TestGraverBasis:
    def test_principal_kernel(self):
        # every 1x2 curve with entries <= 30: Gr is its primitive kernel generator
        for a, b in itertools.product(range(1, 31), repeat=2):
            g = math.gcd(a, b)
            assert graver_basis(T(a, b)).elements == ((b // g, -a // g),), (a, b)

    def test_3_5_7_equals_enumeration(self):
        G = graver_basis(T(3, 5, 7))
        assert G.as_set() == set(graver_by_enumeration(T(3, 5, 7), 12))

    def test_4_5_6_contains_circuits_and_matches_enumeration(self):
        G = graver_basis(T(4, 5, 6))
        for circuit in [(5, -4, 0), (3, 0, -2), (0, 6, -5)]:
            assert circuit in G.as_set()
        assert G.as_set() == set(graver_by_enumeration(T(4, 5, 6), 12))

    def test_small_random_1x3_against_enumeration(self):
        rng = random.Random(20)
        for _ in range(25):
            entries = sorted(rng.randint(1, 10) for _ in range(3))
            A = T(*entries)
            assert graver_basis(A).as_set() == set(graver_by_enumeration(A, 14))

    def test_2x4_against_enumeration(self):
        A = IntMat.from_rows([[1, 1, 1, 1], [0, 1, 2, 3]])
        assert graver_basis(A).as_set() == set(graver_by_enumeration(A, 8))

    def test_empty_kernel(self):
        assert graver_basis(IntMat.from_rows([[1, 0], [0, 1]])).elements == ()

    def test_determinism(self):
        a = fresh_graver_basis(T(7, 15, 20))
        b = fresh_graver_basis(T(7, 15, 20))
        assert a.elements == b.elements

    def test_elements_are_canonical_and_sorted(self):
        G = graver_basis(T(7, 15, 20))
        assert list(G.elements) == sorted(G.elements)
        for u in G.elements:
            assert u == sign_canonical(u)

    def test_completeness_as_test_set(self):
        # every pairwise sum reduces to zero against the full basis
        for entries in [(4, 5, 6), (3, 5, 7), (6, 10, 15)]:
            G = graver_basis(T(*entries))
            pool = list(G.full_set())
            zero = (0,) * len(entries)
            for u, v in itertools.combinations(pool, 2):
                s = tuple(a + b for a, b in zip(u, v))
                assert reduce_by_set(s, pool) == zero

    def test_projection_injective_on_curve_basis(self):
        for entries in [(4, 5, 6), (3, 5, 7), (4, 6, 9, 10)]:
            G = graver_basis(T(*entries))
            for i in range(1, len(entries) + 1):
                images = {project_out(u, i) for u in G.elements}
                assert len(images) == len(G.elements)

    def test_element_budget_raises(self):
        with pytest.raises(BudgetExceededError) as info:
            fresh_graver_basis(T(7, 15, 20), budget=Budget(max_candidates=1))
        assert info.value.kind == "elements"

    def test_negative_or_nan_caps_rejected(self):
        # a NaN cap would cap nothing: every elapsed > nan is false
        for field, value in (("max_candidates", -5), ("max_seconds", -1.0),
                             ("max_seconds", float("nan"))):
            with pytest.raises(ValueError, match=field):
                Budget(**{field: value})

    def test_float_candidate_cap_rejected_not_truncated(self):
        with pytest.raises(TypeError):
            Budget(max_candidates=2.5)

    def test_zero_and_least_caps_accepted(self):
        assert Budget(max_seconds=0.0).max_seconds == 0.0
        assert Budget(max_candidates=1).max_candidates == 1
        assert Budget(max_candidates=0).max_candidates == 0

    def test_time_budget_raises(self):
        with pytest.raises(BudgetExceededError) as info:
            fresh_graver_basis(T(24, 40, 41, 60, 80), budget=Budget(max_seconds=0.0))
        assert info.value.kind == "time"

    def test_closed_forms_spend_no_budget(self, monkeypatch, caplog):
        # ranks 0 and 1 read no clock and count no candidate, whatever the caps;
        # Gr(3 5) logs its bouquet route alone, with no completion line
        empty_graver_memos(monkeypatch)
        clock = SimpleNamespace(monotonic=itertools.count().__next__)  # a second per read
        monkeypatch.setattr(graver_module, "time", clock)
        zero = Budget(max_candidates=0, max_seconds=0.0)
        with caplog.at_level(logging.DEBUG, logger="graverkit.graver"):
            assert graver_basis(T(3, 5), zero).elements == ((5, -3),)
        assert [r.getMessage() for r in caplog.records] == [
            "bouquet route: 2 -> 1 columns, Gr(A_B) computed"]
        assert graver_basis(IntMat.from_rows([[1, 0], [0, 1]]), zero).elements == ()

    def test_time_budget_counts_seeding(self, monkeypatch):
        # the clock jumps while the seed pairs are formed; the first pop sees it
        seeded = []
        pair_sums = graver_module.ConformalIndex.pair_sums

        def counting(index, v, *rule):
            seeded.append(v)
            return pair_sums(index, v, *rule)

        clock = SimpleNamespace(monotonic=lambda: 1e9 if seeded else 0.0)
        monkeypatch.setattr(graver_module.ConformalIndex, "pair_sums", counting)
        monkeypatch.setattr(graver_module, "time", clock)
        A = T(24, 40, 41, 60, 80)
        with pytest.raises(BudgetExceededError) as info:
            fresh_graver_basis(A, budget=Budget(max_seconds=1.0))
        assert info.value.kind == "time"
        assert len(seeded) == kernel_lattice(A).rank  # one sign of each seed

    def test_budget_caps_computation_not_memo_lookups(self, monkeypatch):
        empty_graver_memos(monkeypatch)
        A = T(7, 15, 20)
        with pytest.raises(BudgetExceededError):
            graver_basis(A, budget=Budget(max_candidates=1))
        G = graver_basis(A)
        assert len(G) == 9
        assert graver_basis(A, budget=Budget(max_candidates=1)) is G

    def test_memo_keeps_the_latest_bases(self, monkeypatch):
        # first in, first out: a hit neither copies nor reorders, and an
        # evicted basis is computed again, equal to the one it replaces
        empty_graver_memos(monkeypatch)
        memo, cap = graver_module._GRAVER_MEMO, graver_module._GRAVER_MEMO_SIZE
        curves = [T(2, 3, k) for k in range(4, 4 + cap + 3)]
        first = graver_basis(curves[0])
        for A in curves[1:]:
            graver_basis(A)
            assert len(memo) <= cap
        keys = [(A.rows, A.ncols) for A in curves[-cap:]]
        assert list(memo) == keys
        assert len(graver_module._LATTICE_MEMO) == cap
        assert graver_basis(curves[-cap]) is memo[keys[0]]
        assert list(memo) == keys
        again = graver_basis(curves[0])
        assert again == first and again is not first
        assert list(memo) == keys[1:] + [(curves[0].rows, curves[0].ncols)]

    def test_time_budget_raises_in_minimality_filter(self, monkeypatch):
        # the clock stands still until the minimality filter counts its first dominators
        counted = []
        dominators = graver_module.ConformalIndex.dominators

        def counting(index, i):
            counted.append(i)
            return dominators(index, i)

        clock = SimpleNamespace(monotonic=lambda: 1e9 if counted else 0.0)
        monkeypatch.setattr(graver_module.ConformalIndex, "dominators", counting)
        monkeypatch.setattr(graver_module, "time", clock)
        with pytest.raises(BudgetExceededError) as info:
            fresh_graver_basis(T(24, 40, 41, 60, 80), budget=Budget(max_seconds=1.0))
        assert info.value.kind == "time"
        assert counted == [0]


class TestPrimitiveSets:
    def test_componentwise_order(self):
        S = {(1, 0), (2, 0)}
        assert is_primitive_in((1, 0), S)
        assert not is_primitive_in((2, 0), S)

    def test_membership_required(self):
        with pytest.raises(PreconditionError):
            is_primitive_in((3, 0), {(1, 0)})

    def test_mixed_lengths_rejected(self):
        # zip would truncate the longer vectors to the shorter ones' columns
        with pytest.raises(ValueError):
            graver_of_set([(1, 2), (1, 2, 3), (0, 1, 0)])
        with pytest.raises(ValueError):
            is_primitive_in((1, 2, 3), [(1, 2), (1, 2, 3)])
        with pytest.raises(ValueError):
            is_primitive_in((1, 2), [(1, 2), (1, 2, 3)])

    def test_graver_of_set_basics(self):
        assert graver_of_set([]) == frozenset()
        S = {(1, 0), (2, 0), (0, -1), (2, -1)}
        prim = graver_of_set(S)
        assert prim == {(1, 0), (0, -1)}
        assert prim <= frozenset(S)
        assert graver_of_set(prim) == prim  # idempotent

    def test_projected_graver_of_curve(self):
        # deleting the second coordinate of Gr(4,5,6) keeps every element
        # primitive; deleting the first does not
        G = graver_basis(T(4, 5, 6))
        for i, expect_all in ((2, True), (1, False)):
            S = set()
            for u in G.elements:
                S.add(project_out(u, i))
                S.add(vec_neg(project_out(u, i)))
            prim = graver_of_set(S)
            assert (prim == frozenset(S)) is expect_all


def reference_circuits(A):
    """The subset enumeration `circuits` ran on every matrix before the bouquet
    route, kept as an independent reference: J supports a circuit iff A_J has
    a rank-one kernel whose generator has full support."""
    n = A.ncols
    found = {tuple(int(i == j) for i in range(n))
             for j in range(n) if all(row[j] == 0 for row in A.rows)}
    for k in range(2, min(A.rank() + 1, n) + 1):
        for J in itertools.combinations(range(n), k):
            lat = kernel_lattice(IntMat.from_rows([[row[j] for j in J] for row in A.rows]))
            if lat.rank == 1 and all(lat.vectors[0]):
                full = [0] * n
                for j, x in zip(J, lat.vectors[0]):
                    full[j] = x
                found.add(sign_canonical(full))
    return tuple(sorted(found))


@st.composite
def non_simple_candidates(draw):
    """A small matrix with one more column: a scaled copy of one of its columns,
    or zero, at a drawn position. About half of these are not simple."""
    d, n = draw(st.sampled_from([(1, 2), (1, 3), (2, 3), (2, 4)]))
    rows = [draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)) for _ in range(d)]
    j = draw(st.integers(0, n - 1))
    scale = draw(st.sampled_from([0, -2, -1, 1, 2, 3]))
    at = draw(st.integers(0, n))
    return IntMat.from_rows([row[:at] + [scale * row[j]] + row[at:] for row in rows])


@st.composite
def low_rank_kernels(draw):
    """An n x n or (n-1) x n matrix, n <= 4, whose kernel has rank 0 or 1: the
    lattices `_lattice_graver` answers in closed form, routed or not."""
    n = draw(st.integers(1, 4))
    d = draw(st.sampled_from([n - 1, n]))
    A = IntMat(tuple(tuple(draw(st.integers(-3, 3)) for _ in range(n)) for _ in range(d)), ncols=n)
    assume(kernel_lattice(A).rank <= 1)
    return A


route_inputs = (
    gen_lawrence_specs().map(lambda spec: build_gen_lawrence(spec, check_hypothesis=False).matrix)
    | non_simple_candidates()
    | low_rank_kernels()
)


class TestBouquetRoute:
    """Gr(A) and the circuits of a non-simple A come from A_B through D."""

    @settings(max_examples=120, deadline=None)
    @given(route_inputs)
    @example(IntMat.from_rows([[1, 0], [0, 1]]))  # rank 0
    @example(T(3, 5))  # rank 1, routed to one column
    def test_graver_basis_equals_the_engine_on_its_own_lattice(self, A):
        engine = _complete_lattice(kernel_lattice(A).vectors, A.ncols, DEFAULT_BUDGET)
        assert fresh_graver_basis(A).elements == tuple(engine)

    @settings(max_examples=60, deadline=None)
    @given(route_inputs)
    def test_circuits_equal_the_subset_enumeration(self, A):
        assert circuits(A).elements == reference_circuits(A)

    @staticmethod
    def completions(monkeypatch):
        """Empty both memos; return the list that records the width of every
        lattice whose Graver basis is computed from here on, by either engine."""
        empty_graver_memos(monkeypatch)
        runs = []
        engine = graver_module._lattice_graver

        def counting(basis, n, budget):
            runs.append(n)
            return engine(basis, n, budget)

        monkeypatch.setattr(graver_module, "_lattice_graver", counting)
        return runs

    def test_one_completion_per_verified_complex(self, monkeypatch):
        # the five liftings Lambda(T)_{i} are read off Gr(T); the other runs
        # compute the 1x3 sub-curves of the pre-reject that verify checks
        runs = self.completions(monkeypatch)
        assert robust_complex(T_BIG, verify=True).cross_checked
        assert runs.count(len(T_BIG)) == 1
        assert set(runs) == {3, len(T_BIG)}

    def test_one_completion_per_kernel_lattice(self, monkeypatch):
        # Example E, its A_B (simple, 8x5), T_BIG and 2*T_BIG all complete Ker(T_BIG)
        runs = self.completions(monkeypatch)
        G_E = graver_basis(example_e())
        shared = [graver_basis(A) for A in (bouquet_decomposition(example_e()).a_matrix,
                                            T(*T_BIG), T(*(2 * t for t in T_BIG)))]
        assert runs == [len(T_BIG)]
        assert all(G is shared[0] for G in shared)  # one object, one signed_index
        assert len(G_E) == 266 and G_E.n == 11

    def test_bouquet_matrices_share_their_lattice(self, monkeypatch):
        # one rational row space, two different content-divided Hermite forms
        runs = self.completions(monkeypatch)
        first = graver_basis(IntMat.from_rows([[1, 1, 2, 3, 0], [0, 2, 2, 4, 0], [0, 0, 0, 0, 1]]))
        second = graver_basis(IntMat.from_rows([[1, 2, 3, 5, 0], [0, 1, 1, 2, 0], [0, 0, 0, 0, 1]]))
        assert runs == [4]
        assert first == second and first.n == 5

    def test_zero_kernels_keep_their_width(self, monkeypatch):
        runs = self.completions(monkeypatch)
        two = graver_basis(IntMat.from_rows([[1, 0], [0, 1]]))
        three = graver_basis(IntMat.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
        again = graver_basis(IntMat.from_rows([[2, 0], [0, 3]]))
        assert runs == [2, 3]
        assert (two.n, three.n, again.n) == (2, 3, 2)
        assert two.elements == three.elements == ()
        assert again is two

    def test_lifting_reuses_the_curve_memo_entry(self, monkeypatch, caplog):
        empty_graver_memos(monkeypatch)
        G_T = graver_basis(T(4, 5, 6))
        monkeypatch.setattr(graver_module, "_lattice_graver", None)  # no second computation
        lam = lambda_matrix([4, 5, 6], [2])
        with caplog.at_level(logging.DEBUG, logger="graverkit.graver"):
            G = graver_basis(lam.matrix)
        dec = lifting_decomposition(T(4, 5, 6), frozenset({2}))[1]
        assert G.elements == tuple(sorted(sign_canonical(lift_curve_vector(dec, u)) for u in G_T))
        assert [r.getMessage() for r in caplog.records] == [
            "bouquet route: 5 -> 3 columns, Gr(A_B) from the memo"]

    def test_route_logs_a_computed_bouquet_basis(self, monkeypatch, caplog):
        empty_graver_memos(monkeypatch)
        with caplog.at_level(logging.DEBUG, logger="graverkit.graver"):
            G = graver_basis(example_e())
        messages = [r.getMessage() for r in caplog.records]
        # Gr(T_BIG), the one computation: its projection's completion and one lift
        assert messages[0].startswith("completion: ")
        assert messages[1].startswith("lift: ")
        assert messages[2:] == ["bouquet route: 11 -> 5 columns, Gr(A_B) computed"]
        assert len(G) == 266
        assert graver_basis(T(*T_BIG)) is graver_module._GRAVER_MEMO[((T_BIG,), 5)]

    @pytest.mark.parametrize("name", TestProjectAndLift.PINNED_LINES)
    def test_simple_matrices_take_no_route(self, name, monkeypatch, caplog):
        # graver_basis logs project-and-lift's pinned lines and nothing else
        A = CHAIN_INPUTS[name]()
        assert is_simple(A)
        empty_graver_memos(monkeypatch)
        with caplog.at_level(logging.DEBUG, logger="graverkit.graver"):
            graver_basis(A)
        assert [(r.msg, r.args) for r in caplog.records] == TestProjectAndLift.PINNED_LINES[name]


class TestCircuits:
    def test_4_5_6(self):
        assert circuits(T(4, 5, 6)).as_set() == {(5, -4, 0), (3, 0, -2), (0, 6, -5)}

    def test_7_15_20_pairwise_gcd(self):
        C = circuits(T(7, 15, 20)).as_set()
        assert C == {(15, -7, 0), (20, 0, -7), (0, 4, -3)}
        A = T(7, 15, 20)
        for u in C:
            assert A.in_kernel(u)
            assert sum(1 for x in u if x) == 2

    def test_fast_path_matches_generic_enumeration(self):
        # exercise the generic subset route via a matrix with a negative entry
        A_generic = IntMat.from_rows([[4, 5, 6], [0, 0, 0]])
        assert circuits(A_generic).as_set() == circuits(T(4, 5, 6)).as_set()

    def test_zero_columns_are_circuits(self):
        # the rank-0 loop reaches them; a 0-row A keeps its width in every sub-matrix
        assert circuits(IntMat([], ncols=3)).elements == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
        assert circuits(IntMat.from_rows([[4, 5, 6, 0]])).elements == (
            (0, 0, 0, 1), (0, 6, -5, 0), (3, 0, -2, 0), (5, -4, 0, 0))

    def test_count_for_positive_curve(self):
        for s, entries in ((3, (3, 5, 7)), (4, (4, 6, 9, 10))):
            assert len(circuits(T(*entries))) == s * (s - 1) // 2

    def test_circuits_inside_graver(self):
        for rows in ([[4, 5, 6]], [[3, 5, 7]], [[7, 15, 20]], [[1, 1, 1, 1], [0, 1, 2, 3]]):
            A = IntMat.from_rows(rows)
            assert circuits(A).as_set() <= graver_basis(A).as_set()

    def test_lifting_circuits_correspond_to_curve_circuits(self):
        Tm = T(4, 5, 6)
        lam, dec = lifting_decomposition(Tm, frozenset({2}))
        lifted = {sign_canonical(lift_curve_vector(dec, c)) for c in circuits(Tm)}
        assert circuits(lam.matrix).as_set() == lifted


class TestPointed:
    def test_positive_row_is_pointed(self):
        assert assert_pointed(T(4, 5, 6))

    def test_kernel_with_nonnegative_vector(self):
        assert not assert_pointed(T(1, -1))

    def test_full_lawrence_lifting_is_pointed(self):
        lam = lambda_matrix([4, 5, 6], [])
        assert assert_pointed(lam.matrix)

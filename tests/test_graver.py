import functools
import heapq
import itertools
import logging
import random
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings

import graverkit.graver as graver_module
from graverkit import (
    Budget,
    BudgetExceededError,
    IntMat,
    PreconditionError,
    assert_pointed,
    circuits,
    graver_basis,
    graver_of_set,
    is_primitive_in,
    lambda_matrix,
)
from graverkit.graver import ConformalIndex
from graverkit.linalg import (
    kernel_lattice,
    one_norm,
    project_out,
    sign_canonical,
    vec_add,
    vec_neg,
    vec_sub,
)
from graverkit.oracle import graver_by_enumeration

from _paper import T_BIG, example_e, fresh_graver_basis, reduce_by_set
from test_conformal_index import small_matrices


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
    """The completion index's stored vectors and the counters the run logs."""
    made = []
    init = ConformalIndex.__init__

    def spying(index, *args, **kwargs):
        init(index, *args, **kwargs)
        made.append(index)

    with mock.patch.object(ConformalIndex, "__init__", spying), \
            mock.patch.object(graver_module.log, "debug") as debug:
        fresh_graver_basis(A)
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
        "T_BIG": dict(pops=10217, scans=18489, subtractions=31019, inserts=262,
                      generated=10217, index=532, kept=266),
        "1 6 8 12 19": dict(pops=3288, scans=5309, subtractions=7528, inserts=138,
                            generated=3288, index=284, kept=142),
        "exampleE": dict(pops=10237, scans=18652, subtractions=31602, inserts=263,
                         generated=10237, index=534, kept=266),
    }

    @pytest.mark.parametrize("name", PINNED_COUNTERS)
    def test_logged_counters_are_pinned(self, name):
        assert completion_run(CHAIN_INPUTS[name]())[1] == self.PINNED_COUNTERS[name]

    def test_logged_counters_agree_with_the_result(self, caplog):
        A = T(1, 6, 8, 12, 19)
        with caplog.at_level(logging.DEBUG, logger="graverkit.graver"):
            G = fresh_graver_basis(A)
        [record] = [r for r in caplog.records if r.msg.startswith("completion:")]
        counts = record.args
        assert counts["kept"] == len(G)
        assert counts["index"] == 2 * kernel_lattice(A).rank + 2 * counts["inserts"]
        assert counts["pops"] == counts["generated"]  # the heap is drained
        # each reducer scan that hits is followed by a subtraction; at most one per pop misses
        assert counts["inserts"] <= counts["scans"] <= counts["subtractions"] + counts["pops"]


class TestGraverBasis:
    def test_principal_kernel(self):
        assert graver_basis(T(2, 3)).elements == ((3, -2),)

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

    def test_time_budget_raises(self):
        with pytest.raises(BudgetExceededError) as info:
            fresh_graver_basis(T(24, 40, 41, 60, 80), budget=Budget(max_seconds=0.0))
        assert info.value.kind == "time"

    def test_time_budget_counts_seeding(self, monkeypatch):
        # the clock jumps while the seed pairs are formed; the first pop sees it
        seeded = []
        pair_sums = graver_module.ConformalIndex.pair_sums

        def counting(index, v):
            seeded.append(v)
            return pair_sums(index, v)

        clock = SimpleNamespace(monotonic=lambda: 1e9 if seeded else 0.0)
        monkeypatch.setattr(graver_module.ConformalIndex, "pair_sums", counting)
        monkeypatch.setattr(graver_module, "time", clock)
        A = T(24, 40, 41, 60, 80)
        with pytest.raises(BudgetExceededError) as info:
            fresh_graver_basis(A, budget=Budget(max_seconds=1.0))
        assert info.value.kind == "time"
        assert len(seeded) == 2 * kernel_lattice(A).rank

    def test_budget_caps_computation_not_memo_lookups(self, monkeypatch):
        monkeypatch.setattr(graver_module, "_GRAVER_MEMO", {})
        A = T(7, 15, 20)
        with pytest.raises(BudgetExceededError):
            graver_basis(A, budget=Budget(max_candidates=1))
        G = graver_basis(A)
        assert len(G) == 9
        assert graver_basis(A, budget=Budget(max_candidates=1)) is G

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

    def test_count_for_positive_curve(self):
        for s, entries in ((3, (3, 5, 7)), (4, (4, 6, 9, 10))):
            assert len(circuits(T(*entries))) == s * (s - 1) // 2

    def test_circuits_inside_graver(self):
        for rows in ([[4, 5, 6]], [[3, 5, 7]], [[7, 15, 20]], [[1, 1, 1, 1], [0, 1, 2, 3]]):
            A = IntMat.from_rows(rows)
            assert circuits(A).as_set() <= graver_basis(A).as_set()

    def test_lifting_circuits_correspond_to_curve_circuits(self):
        from graverkit.complexes import _lifting_decomposition, lift_curve_vector

        Tm = T(4, 5, 6)
        lam, dec = _lifting_decomposition(Tm, frozenset({2}))
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

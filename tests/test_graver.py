import functools
import heapq
import itertools
import logging
import math
import random
import sys
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import graverkit.complexes as complexes_module
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
    _projected_columns,
    _Spent,
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
    _lattice_graver,
    empty_graver_memos,
    engine_graver,
    example_e,
    fresh_graver_basis,
    lift_curve_vector,
    lifting_decomposition,
    random_unimodular,
    reduce_by_set,
    repeated_curves,
)
from test_conformal_index import small_matrices
from test_lawrence import gen_lawrence_specs


def T(*entries):
    return IntMat.row_vector(entries)


def pop_queries(monkeypatch):
    """The width of the index of each `below` query a lift stage makes
    itself, one per pop, in a list that fills as lifts run; the queries of
    `kappa` and `dominators` are left out."""
    queried, below = [], ConformalIndex.below

    def querying(index, query):
        if sys._getframe(1).f_code.co_name == "_completion_stage":
            queried.append(index.n)
        return below(index, query)

    monkeypatch.setattr(ConformalIndex, "below", querying)
    return queried


def twolifts():
    """A simple 2x6 matrix whose kernel, of rank 4, lifts two columns: a
    lattice of corank 2, whose projection descends at modulus 1."""
    return IntMat.from_rows([[2, 3, 5, 7, 11, 13], [1, 0, 2, 5, 3, 4]])


def corank3():
    """A simple 3x6 matrix whose kernel, of rank 3, lifts three columns: a
    lattice of corank 3, whose projection descends through the moduli 5, 3
    and 1, the first level with three congruences, two of them void."""
    return IntMat.from_rows([[0, 6, 6, 0, 4, 5], [5, 1, 2, 4, 1, 5], [6, 2, 1, 2, 1, 5]])


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
        # the one-stage completion's `completion:` line on the rank-4 lattice
        # of Z^6 of twolifts; then, apart, the lift chain graver_basis logs
        # for it: a descent at modulus 1, then one line per lifted column
        A = twolifts()
        basis = kernel_lattice(A).vectors
        with caplog.at_level(logging.DEBUG, logger="graverkit.graver"):
            reference = _complete_lattice(basis, A.ncols, DEFAULT_BUDGET)
        [record] = caplog.records
        assert record.msg == "completion: %s"
        counts = record.args
        assert counts["index"] == 2 * len(basis) + 2 * counts["inserts"]
        assert counts["pops"] == counts["generated"]  # the heap is drained
        # each index query that hits is followed by a subtraction, and each miss by an insert
        assert counts["scans"] == counts["subtractions"] + counts["inserts"]
        assert counts["kept"] == len(reference)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="graverkit.graver"):
            G = fresh_graver_basis(A)
        [descent, lift, last] = caplog.records
        assert (descent.msg, lift.msg, last.msg) == ("descent: %s", "lift: %s", "lift: %s")
        assert lift.args["seeds"] == descent.args["kept"]
        assert lift.args["pops"] == lift.args["generated"]
        assert last.args["seeds"] == lift.args["kept"]
        assert last.args["kept"] == len(G) == len(reference)


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

    # the whole debug output of graver_basis on two simple curves: each
    # projection descends through reduced curves of falling modulus, each
    # level lifting its own reduced curve's column, down to modulus 1
    PINNED_LINES = {
        "T_BIG": [
            ("descent: %s", dict(modulus=1, zeros=4, projected=0, kept=4)),
            ("lift: %s", dict(column=0, seeds=4, generated=103, skipped=135, pops=103,
                              inserts=59, kept=63)),
            ("descent: %s", dict(modulus=7, zeros=0, projected=63, kept=58)),
            ("lift: %s", dict(column=1, seeds=58, generated=292, skipped=13, pops=292,
                              inserts=2, kept=60)),
            ("descent: %s", dict(modulus=24, zeros=0, projected=60, kept=26)),
            ("lift: %s", dict(column=0, seeds=26, generated=691, skipped=2605, pops=691,
                              inserts=240, kept=266)),
        ],
        "1 6 8 12 19": [
            ("descent: %s", dict(modulus=1, zeros=4, projected=0, kept=4)),
            ("lift: %s", dict(column=0, seeds=4, generated=305, skipped=897, pops=305,
                              inserts=138, kept=142)),
        ],
    }

    @staticmethod
    def lifted(basis, n):
        """`_lattice_graver`'s basis and the number of lifts it logs after its
        own projection, asserting that each lift keeps exactly its seeds and
        the sums it inserts, that the projection descends at every corank
        and nothing completes a projection, and that each descent level
        seeds the next lift and has a larger modulus than the level it
        read."""
        with mock.patch.object(graver_module.log, "debug") as debug:
            G = _lattice_graver(basis, n, DEFAULT_BUDGET)
        lines = [call.args[:2] for call in debug.call_args_list]
        for msg, counts in lines:
            assert msg in ("descent: %s", "lift: %s", "rank-2 walk: %s"), msg
            if msg == "lift: %s":
                assert counts["seeds"] + counts["inserts"] == counts["kept"], counts
        levels = [i for i, (msg, _) in enumerate(lines) if msg == "descent: %s"]
        assert levels
        for i in levels:
            assert lines[i + 1][0] == "lift: %s"
            assert lines[i + 1][1]["seeds"] == lines[i][1]["kept"]
        moduli = [lines[i][1]["modulus"] for i in levels]
        assert moduli == sorted(set(moduli))  # logged innermost first
        lifts = lines[levels[-1] + 1:]
        assert all(msg == "lift: %s" for msg, _ in lifts)
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
            cols = _projected_columns(kernel_lattice(T(*t)).vectors, _Spent(DEFAULT_BUDGET))
            assert cols == tuple(c for c in range(len(t)) if c != k), t
        assert _projected_columns(kernel_lattice(T(15, 15, 29, 29, 29)).vectors,
                                  _Spent(DEFAULT_BUDGET)) == (0, 2, 3, 4)

    def test_a_unit_entry_projects_onto_the_unit_vectors(self, monkeypatch, caplog):
        # modulus 1: every residue is 0, so the descent reads no reduced curve
        # and the one stage, the lift, is seeded with the unit vectors
        stages = []
        stage = graver_module._completion_stage

        def recording(seeds, spent):
            kept, counts = stage(seeds, spent)
            stages.append((seeds, len(seeds[0]) - 1, kept))
            return kept, counts

        monkeypatch.setattr(graver_module, "_completion_stage", recording)
        with caplog.at_level(logging.DEBUG, logger="graverkit.graver"):
            fresh_graver_basis(T(6, 1, 8, 12, 19))
        [(seeds, lift, kept)] = stages
        assert [u[:4] for u in seeds] == [(0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0)]
        assert lift == 4 and len(kept) == 142
        assert caplog.records[0].args == dict(modulus=1, zeros=4, projected=0, kept=4)

    def test_a_lift_never_reduces(self, monkeypatch):
        # every stage is a lift, and a lift makes one index query per pop,
        # never a second one for a reduced sum: the last stage of
        # (7,12,19,25,31) stores 954 of its 2,703 pops and drops the rest.
        # So do the two lifts of twolifts, a corank-2 lattice
        stages, queried = [], pop_queries(monkeypatch)
        stage = graver_module._completion_stage

        def recording(seeds, spent):
            first = len(queried)
            kept, counts = stage(seeds, spent)
            stages.append((len(seeds[0]) - 1, counts, len(queried) - first))
            return kept, counts

        monkeypatch.setattr(graver_module, "_completion_stage", recording)
        fresh_graver_basis(T(7, 12, 19, 25, 31))
        [(inner, _, _), (lift, lifted, _)] = stages
        assert (inner, lift) == (4, 4)
        assert all(queries == counts["pops"] for _, counts, queries in stages)
        assert lifted == dict(seeds=66, generated=2703, skipped=10867, pops=2703,
                              inserts=954, kept=1020)
        stages.clear()
        fresh_graver_basis(twolifts())
        [(first, _, _), (second, counts, _)] = stages
        assert (first, second) == (4, 5) and counts["pops"] == 1742
        assert all(queries == counts["pops"] for _, counts, queries in stages)

    def test_element_cap_counts_every_stage(self, caplog):
        # the descent's two lifts form 103 + 292 sums, under the cap, and log
        # their lines; the last lift passes it, at 621 sums in all. With a cap
        # of 400, which no stage alone passes, the last lift's 64 seed pairs do
        lines = ["descent: %s", "lift: %s", "descent: %s", "lift: %s", "descent: %s"]
        for cap, generated in ((600, 621), (400, 103 + 292 + 64)):
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="graverkit.graver"), \
                    pytest.raises(BudgetExceededError) as info:
                fresh_graver_basis(T(*T_BIG), budget=Budget(max_candidates=cap))
            assert [r.msg for r in caplog.records] == lines
            assert info.value.kind == "elements" and info.value.generated > cap
            assert info.value.generated == generated

    def test_time_cap_holds_inside_a_lift(self, monkeypatch, caplog):
        # the clock jumps once the lift forms its first pairs; its first pop sees it
        lifted = []
        pair_sums = ConformalIndex.pair_sums

        def recording(index, v, *rule):
            lifted.append(v)
            return pair_sums(index, v, *rule)

        clock = SimpleNamespace(monotonic=lambda: 1e9 if lifted else 0.0)
        monkeypatch.setattr(ConformalIndex, "pair_sums", recording)
        monkeypatch.setattr(graver_module, "time", clock)
        with caplog.at_level(logging.DEBUG, logger="graverkit.graver"), \
                pytest.raises(BudgetExceededError) as info:
            fresh_graver_basis(T(*T_BIG), budget=Budget(max_seconds=1.0))
        # the first lift is the innermost level's, seeded by the modulus-1 descent
        assert [r.msg for r in caplog.records] == ["descent: %s"]
        assert info.value.kind == "time" and info.value.generated > 0
        assert len(lifted) == 4  # the lift's seeds, one sign each

    def test_a_lift_stores_only_graver_elements(self, caplog):
        # a lift stores a level's sums after its last pop, so no sum is stored
        # before a reducer of a lower level: (1,5,7,11,14) once stored 96 sums
        # for 95 elements, and (1,10,14,15,20) 109 for 108. A unit entry
        # makes the modulus 1, so each descent is one level of unit vectors
        with caplog.at_level(logging.DEBUG, logger="graverkit.graver"):
            fresh_graver_basis(T(1, 5, 7, 11, 14))
            fresh_graver_basis(T(1, 10, 14, 15, 20))
        assert [(r.msg, r.args) for r in caplog.records] == [
            ("descent: %s", dict(modulus=1, zeros=4, projected=0, kept=4)),
            ("lift: %s", dict(column=0, seeds=4, generated=236, skipped=499, pops=236,
                              inserts=95, kept=99)),
            ("descent: %s", dict(modulus=1, zeros=4, projected=0, kept=4)),
            ("lift: %s", dict(column=0, seeds=4, generated=234, skipped=670, pops=234,
                              inserts=108, kept=112)),
        ]

    def test_the_kappa_rule_skips_only_sums_above_graver_elements(self, monkeypatch):
        # every gcd-normalised 1x4 curve with entries <= 12 and sampled 1x5
        # curves with entries <= 20. Each lift, the last one and those of the
        # reduced curves of its descent alike, runs on its own lattice with
        # the columns `_projected_columns` picked and then the lifted one.
        # Each sum a lift skips has a vector of that stage's lattice strictly
        # below it, so it is no Graver element: an element of the basis the
        # stage returns, which for the last lift of a 1x5 curve must equal
        # the one-stage reference Gr, as a reference for every stage would
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
        stages = []  # per lift stage: the basis it returns and the sums it skipped
        pair_sums, stage = ConformalIndex.pair_sums, graver_module._completion_stage

        def listing(index, v, lift, before, kappa):
            sums, count = pair_sums(index, v, lift, before, kappa)
            x, bound = v[lift], kappa[before]
            # the lift rule: g cancels v at the lifted column, and only there
            pairs = [vec_add(v, g) for k, g in zip(kappa, index.vectors[:before])
                     if g[lift] * x < 0 and (k <= abs(x) or bound <= abs(g[lift]))
                     and sum(a * b < 0 for a, b in zip(v, g)) == 1]
            assert len(pairs) == count
            stages[-1][1].extend(pairs)
            return sums, count

        def staging(seeds, spent):
            stages.append(([], []))
            kept, counts = stage(seeds, spent)
            stages[-1][0].extend(kept)
            return kept, counts

        monkeypatch.setattr(ConformalIndex, "pair_sums", listing)
        monkeypatch.setattr(graver_module, "_completion_stage", staging)
        total = descended = 0
        for t, basis, reference in cases:
            stages.clear()
            lifted = _lattice_graver(basis, len(t), DEFAULT_BUDGET)
            assert reference is None or reference == lifted, t
            cols = _projected_columns(basis, _Spent(DEFAULT_BUDGET))
            order = [*cols, *(c for c in range(len(t)) if c not in cols)]
            assert stages[-1][0] == sorted(sign_canonical([g[c] for c in order]) for g in lifted)
            for kept, skipped in stages:
                stored = ConformalIndex(len(kept[0]), kept + [vec_neg(g) for g in kept])
                for s in skipped:
                    hits = stored.below(positive_part(s) + negative_part(s))
                    g = stored.vectors[(hits & -hits).bit_length() - 1]
                    assert hits and g != s and all(
                        a * b >= 0 and abs(a) <= abs(b) for a, b in zip(g, s)), (t, s)
                total += len(skipped)
            descended += sum(len(skipped) for _, skipped in stages[:-1])
        assert total > 50_000 and descended > 0

    @pytest.mark.parametrize("A", [T(7, 12, 19, 25, 31), twolifts()], ids=["curve", "twolifts"])
    def test_every_seed_kappa_is_infinite(self, monkeypatch, A):
        # pi_J of a lift's seeds is the antichain Gr(pi_J L), and pi_J is
        # injective, so the lift sets the seeds' kappa without a query
        stage, lifts = graver_module._completion_stage, []

        def recording(seeds, spent):
            n = len(seeds[0])
            index = ConformalIndex(n, [w for v in seeds for w in (v, vec_neg(v))])
            lifts.append([index.kappa(i, n - 1) for i in range(len(index))])
            return stage(seeds, spent)

        monkeypatch.setattr(graver_module, "_completion_stage", recording)
        fresh_graver_basis(A)
        assert lifts and all(k == math.inf for kappa in lifts for k in kappa)
        assert sum(map(len, lifts)) > 100

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
        lift = folded[-1]  # the last stage, after the descent's indexes
        assert lift.n == 5
        # the lifted column is the stage's last, and the first 2 * 66 rows are the seeds
        levels = {sum(map(abs, v[:-1])) for v in lift.vectors[2 * 66:]}
        assert len(lift) == 2 * (66 + 954)
        assert folded.count(lift) <= len(levels) + 1

    def test_a_lift_has_no_minimality_filter(self, monkeypatch):
        # only a descent level's filter counts dominators, and it reads the
        # clock; a clock that jumps while the last lift stores its last level
        # stops the next pop, after every sum is formed and before its query.
        # The corank-3 lattice descends through the moduli 1, 3 and 5 on 3
        # coordinates: the levels of moduli 3 and 5 filter 13 and 23
        # projected rows, after lifts on 4 columns that form 10 and 25 sums.
        # Its own lifts, on 4, 5 and 6 columns, form 74, 219 and 271
        counted, lifted, queried = [], [], pop_queries(monkeypatch)
        dominators, pair_sums = ConformalIndex.dominators, ConformalIndex.pair_sums

        def counting(index, i):
            counted.append((index.n, i))
            return dominators(index, i)

        def recording(index, v, *rule):
            lifted.append(v)
            return pair_sums(index, v, *rule)

        def last_lift():
            return [v for v in lifted if len(v) == 6]

        monkeypatch.setattr(ConformalIndex, "dominators", counting)
        monkeypatch.setattr(ConformalIndex, "pair_sums", recording)
        fresh_graver_basis(corank3())
        assert counted == [(3, i) for i in range(0, 26, 2)] + [(3, i) for i in range(0, 46, 2)]
        # the last lift pairs one sign of each of its 130 seeds and 47 inserts
        assert len(last_lift()) == 130 + 47
        assert queried.count(6) == 271
        # the first pairing of the last level's rows, J-norms taken off the lifted last column
        top = sum(map(abs, last_lift()[-1][:-1]))
        last = next(k for k in range(130, len(last_lift()))
                    if sum(map(abs, last_lift()[k][:-1])) == top)

        counted.clear()
        monkeypatch.setattr(graver_module, "time", SimpleNamespace(
            monotonic=lambda: 1e9 if counted else 0.0))
        with pytest.raises(BudgetExceededError) as info:
            fresh_graver_basis(corank3(), budget=Budget(max_seconds=1.0))
        assert (info.value.kind, info.value.generated) == ("time", 10)
        assert counted == [(3, 0)]

        lifted.clear()
        queried.clear()
        at_jump = []  # the last lift's queries when the clock first reads the jump

        def jumping():
            if len(last_lift()) > last and not at_jump:
                at_jump.append(queried.count(6))
            return 1e9 if at_jump else 0.0

        monkeypatch.setattr(graver_module, "time", SimpleNamespace(monotonic=jumping))
        with pytest.raises(BudgetExceededError) as info:
            fresh_graver_basis(corank3(), budget=Budget(max_seconds=1.0))
        assert (info.value.kind, info.value.generated) == ("time", 10 + 25 + 74 + 219 + 271)
        assert len(last_lift()) == 130 + 47
        assert at_jump == [queried.count(6)] and queried.count(6) < 271


class TestDescent:
    """Every lattice gets the Graver basis of its projection by a descent
    through reduced lattices; the one-stage completion of the projected
    lattice is its reference."""

    def test_every_residue_vector_matches_the_completion(self, monkeypatch):
        # every r in [0, D)^d with gcd(r, D) = 1, zeros included: d = 3 with
        # D <= 12 and d = 4 with D <= 7, in ascending D, one congruence each.
        # Each descent runs its own level for real and reads the levels below
        # it, of smaller modulus, from the results already checked here, as
        # the induction on the modulus does. The reference is the completion
        # of {u : u.r = 0 mod D}, shared by the r that a unit multiple c.r and
        # a permutation of the coordinates carry onto one another, as both
        # leave the lattice the same up to that permutation
        checked = {}
        descent = graver_module._descent
        monkeypatch.setattr(graver_module, "_descent", lambda modulus, residues, spent: (
            checked[modulus, tuple(x for (x,) in residues)]))
        references = {}
        for d, top in ((3, 12), (4, 7)):
            for D in range(1, top + 1):
                units = [c for c in range(1, D + 1) if math.gcd(c, D) == 1]
                for r in itertools.product(range(D), repeat=d):
                    if math.gcd(D, *r) != 1:
                        continue
                    got = descent(D, [(x,) for x in r], graver_module._Spent(DEFAULT_BUDGET))
                    # the coordinates of the least sorted unit multiple, and where each is in r
                    key = min(sorted((c * x % D, i) for i, x in enumerate(r)) for c in units)
                    rep = (D, *(x for x, _ in key))
                    if rep not in references:
                        basis = [g[:-1] for g in kernel_lattice(T(*rep[1:], D)).vectors]
                        references[rep] = _complete_lattice(basis, d, DEFAULT_BUDGET)
                    want = []
                    for g in references[rep]:
                        u = [0] * d
                        for x, (_, i) in zip(g, key):
                            u[i] = x
                        want.append(sign_canonical(u))
                    assert got == sorted(want), (D, r)
                    checked[D, r] = got
        assert len(checked) == 5542 + 4560

    def test_each_level_logs_one_line(self, caplog):
        # Gr(17,19,23,29,31,37) descends through two levels: modulus 17, whose
        # reduced curve has the residues 3 of whose 5 vanish mod 2, and modulus
        # 2, whose reduced curve has rank 2 and takes the walk
        with caplog.at_level(logging.DEBUG, logger="graverkit.graver"):
            G = fresh_graver_basis(T(17, 19, 23, 29, 31, 37))
        assert [(r.msg, r.args) for r in caplog.records] == [
            ("rank-2 walk: %s", dict(sectors=3, candidates=4, kept=4)),
            ("descent: %s", dict(modulus=2, zeros=3, projected=4, kept=7)),
            ("lift: %s", dict(column=0, seeds=7, generated=1506, skipped=3663, pops=1506,
                              inserts=459, kept=466)),
            ("descent: %s", dict(modulus=17, zeros=0, projected=466, kept=440)),
            ("lift: %s", dict(column=0, seeds=440, generated=23480, skipped=69466,
                              pops=23480, inserts=887, kept=1327)),
        ]
        assert len(G) == 1327

    def test_the_modulus_falls_like_euclids_algorithm(self, caplog):
        # Gr(101,103,107,109): the modulus falls from 101 by the least residue
        # at each level, and a lift follows every level
        with caplog.at_level(logging.DEBUG, logger="graverkit.graver"):
            G = fresh_graver_basis(T(101, 103, 107, 109))
        levels = [r.args for r in caplog.records if r.msg == "descent: %s"]
        assert [level["modulus"] for level in levels] == [2, 5, *range(13, 102, 8)]
        assert [r.msg for r in caplog.records].count("lift: %s") == len(levels)
        assert levels[-1]["kept"] == 495 and len(G) == 1516

    def test_a_corank_2_lattice_descends(self, caplog):
        # twolifts is a rank-4 lattice of Z^6 whose projection has |det| 1:
        # it descends at modulus 1 to the unit vectors, with no reduced
        # lattice, and its basis is the reference's
        A = twolifts()
        with caplog.at_level(logging.DEBUG, logger="graverkit.graver"):
            G = fresh_graver_basis(A)
        assert [r.msg for r in caplog.records] == ["descent: %s", "lift: %s", "lift: %s"]
        assert caplog.records[0].args == dict(modulus=1, zeros=4, projected=0, kept=4)
        basis = kernel_lattice(A).vectors
        assert list(G) == _complete_lattice(basis, 6, DEFAULT_BUDGET) and len(G) == 555

    def test_a_corank_3_lattice_descends_through_three_moduli(self, caplog):
        # the projection of modulus 5 has three congruences, two of which
        # vanish mod 5; the reduced lattice of the third descends at modulus
        # 3, and its own reduced curve at modulus 1. Each level lifts its
        # reduced lattice's one extra column, and the top lifts three
        A = corank3()
        with caplog.at_level(logging.DEBUG, logger="graverkit.graver"):
            G = fresh_graver_basis(A)
        assert [(r.msg, r.args) for r in caplog.records] == [
            ("descent: %s", dict(modulus=1, zeros=3, projected=0, kept=3)),
            ("lift: %s", dict(column=2, seeds=3, generated=10, skipped=5, pops=10,
                              inserts=10, kept=13)),
            ("descent: %s", dict(modulus=3, zeros=0, projected=13, kept=13)),
            ("lift: %s", dict(column=2, seeds=13, generated=25, skipped=16, pops=25,
                              inserts=10, kept=23)),
            ("descent: %s", dict(modulus=5, zeros=0, projected=23, kept=19)),
            ("lift: %s", dict(column=0, seeds=19, generated=74, skipped=142, pops=74,
                              inserts=29, kept=48)),
            ("lift: %s", dict(column=2, seeds=48, generated=219, skipped=245, pops=219,
                              inserts=82, kept=130)),
            ("lift: %s", dict(column=5, seeds=130, generated=271, skipped=401, pops=271,
                              inserts=47, kept=177)),
        ]
        basis = kernel_lattice(A).vectors
        assert list(G) == _complete_lattice(basis, 6, DEFAULT_BUDGET) and len(G) == 177

    def test_every_residue_matrix_matches_the_completion(self):
        # k in {2, 3} congruences on d in {3, 4} coordinates, moduli D <= 8:
        # Y = U Y0 mod D, Y0 holding D/a times a random row and D/b times
        # another, ab = D, and U unimodular, kept when {u : Y u = 0 mod D}
        # has index D, as every projection has. The reference is the
        # completion of that lattice, from the basis of Ker(Y | D I) with
        # its last k columns dropped
        rng = random.Random(41)
        cases = {}
        while len(cases) < 800:
            k, d, D = rng.choice((2, 3)), rng.choice((3, 4)), rng.randint(1, 8)
            a = rng.choice([x for x in range(1, D + 1) if D % x == 0])
            Y0 = [[D // a * rng.randrange(D) for _ in range(d)],
                  [a * rng.randrange(D) for _ in range(d)]] + [[0] * d] * (k - 2)
            U = random_unimodular(rng, k)
            Y = tuple(tuple(sum(u * y[i] for u, y in zip(row, Y0)) % D for i in range(d))
                      for row in U)
            M = IntMat(tuple((*row, *(D * (j == l) for l in range(k)))
                             for j, row in enumerate(Y)), ncols=d + k)
            basis = [g[:d] for g in kernel_lattice(M).vectors]
            if abs(_det(basis)) == D:
                cases[D, Y] = basis
        for (D, Y), basis in sorted(cases.items()):
            got = graver_module._descent(D, list(zip(*Y)), graver_module._Spent(DEFAULT_BUDGET))
            assert got == _complete_lattice(basis, len(basis), DEFAULT_BUDGET), (D, Y)
        assert {len(Y) for _, Y in cases} == {2, 3} and max(D for D, _ in cases) == 8

    def test_a_full_rank_kernel_is_the_unit_vectors(self, caplog):
        # corank 0: no column to lift and no residue, so one level of modulus 1
        with caplog.at_level(logging.DEBUG, logger="graverkit.graver"):
            G = fresh_graver_basis(IntMat((), ncols=4))
        assert G.elements == ((0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0))
        assert [(r.msg, r.args) for r in caplog.records] == [
            ("descent: %s", dict(modulus=1, zeros=4, projected=0, kept=4))]

    @pytest.mark.parametrize("A", [IntMat((), ncols=4), T(*T_BIG), example_e(), twolifts(),
                                   corank3()], ids=["corank0", "curve", "exampleE", "corank2",
                                                    "corank3"])
    def test_no_stage_completes_a_projection(self, A, caplog):
        # every corank descends: graver_basis logs descent levels, lifts,
        # walks and routes, and never a `completion:` line
        with caplog.at_level(logging.DEBUG, logger="graverkit.graver"):
            fresh_graver_basis(A)
        messages = {r.msg for r in caplog.records}
        assert "descent: %s" in messages
        assert messages <= {"descent: %s", "lift: %s", "rank-2 walk: %s",
                            "bouquet route: %d -> %d columns, Gr(A_B) %s"}

    def test_the_filter_reads_the_clock(self, monkeypatch):
        # the clock stands still until a descent's filter counts its first
        # dominators: for T_BIG, the level of modulus 7, after the 103 sums
        # of the lift below it
        counted = []
        dominators = ConformalIndex.dominators

        def counting(index, i):
            counted.append(i)
            return dominators(index, i)

        monkeypatch.setattr(ConformalIndex, "dominators", counting)
        monkeypatch.setattr(graver_module, "time", SimpleNamespace(
            monotonic=lambda: 1e9 if counted else 0.0))
        with pytest.raises(BudgetExceededError) as info:
            fresh_graver_basis(T(*T_BIG), budget=Budget(max_seconds=1.0))
        assert (info.value.kind, info.value.generated) == ("time", 103)
        assert counted == [0]

    def test_writes_no_memo_entry_but_the_curves(self, monkeypatch):
        # the reduced curves of a descent are computed at the lattice level:
        # each memo holds the one curve asked for, and the Graver basis of
        # the curve is computed once
        empty_graver_memos(monkeypatch)
        calls = []
        engine = graver_module.graver_basis

        def counting(A, budget=None):
            calls.append(A)
            return engine(A, budget)

        monkeypatch.setattr(graver_module, "graver_basis", counting)
        G = graver_module.graver_basis(T(17, 19, 23, 29, 31, 37))
        assert len(calls) == 1 and len(G) == 1327
        assert list(graver_module._GRAVER_MEMO) == [(((17, 19, 23, 29, 31, 37),), 6)]
        assert len(graver_module._LATTICE_MEMO) == 1
        assert not complexes_module._COMPLEX_MEMO


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

    def test_time_cap_holds_in_the_column_search(self, monkeypatch):
        # a rank-12 lattice of Z^16: the projection tries up to C(16, 12)
        # column subsets, one determinant each, and reads the clock first
        dets = []
        det = graver_module._det
        monkeypatch.setattr(graver_module, "_det", lambda rows: (dets.append(1), det(rows))[1])
        A = IntMat.from_rows([
            [-5, 9, -7, -1, -6, 6, 5, 6, 3, -3, -6, 6, -9, 3, 4, -9],
            [5, -1, -2, 9, -6, 1, -9, -9, -9, 8, -9, 3, -3, 4, -9, 7],
            [-2, 5, 6, 8, -2, 2, -2, -2, 5, 0, -9, 4, 8, -6, -4, 0],
            [-6, 1, 7, 4, 7, -3, 0, 0, 9, 6, 7, 3, 9, -8, 6, -2]])
        with pytest.raises(BudgetExceededError) as info:
            fresh_graver_basis(A, budget=Budget(max_seconds=0.0))
        assert (info.value.kind, info.value.generated) == ("time", 0)
        assert dets == []


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
    lattices `_graver` answers in closed form, routed or not."""
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
        matrix whose Graver basis is computed from here on."""
        empty_graver_memos(monkeypatch)
        runs = []
        engine = graver_module._matrix_graver

        def counting(X, spent, lattice=None):
            runs.append(X.ncols)
            return engine(X, spent, lattice)

        monkeypatch.setattr(graver_module, "_matrix_graver", counting)
        return runs

    def test_one_completion_per_verified_complex(self, monkeypatch):
        # the five liftings Lambda(T)_{i} are read off Gr(T); the 1x3
        # sub-curves of the pre-reject are cone counts and compute no lattice
        runs = self.completions(monkeypatch)
        assert robust_complex(T_BIG, verify=True).cross_checked
        assert runs.count(len(T_BIG)) == 1
        assert set(runs) == {len(T_BIG)}

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
        monkeypatch.setattr(graver_module, "_matrix_graver", None)  # no second computation
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
        # Gr(T_BIG), the one computation: its projection's descent and one lift
        assert [(r.msg, r.args) for r in caplog.records[:-1]] == \
            TestProjectAndLift.PINNED_LINES["T_BIG"]
        assert messages[-2].startswith("lift: ")
        assert messages[-1:] == ["bouquet route: 11 -> 5 columns, Gr(A_B) computed"]
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

    def test_element_cap_counts_the_circuits(self):
        # Gr(4 5 6) has three circuits, each a candidate
        with pytest.raises(BudgetExceededError) as info:
            circuits(T(4, 5, 6), budget=Budget(max_candidates=2))
        assert (info.value.kind, info.value.generated) == ("elements", 3)
        assert len(circuits(T(4, 5, 6), budget=Budget(max_candidates=3))) == 3

    def test_time_cap_holds_before_each_subset(self, monkeypatch):
        # a clock that advances a second on every read, from the ledger's start
        reads = itertools.count()
        monkeypatch.setattr(graver_module, "time", SimpleNamespace(monotonic=reads.__next__))
        with pytest.raises(BudgetExceededError) as info:
            circuits(T(4, 5, 6), budget=Budget(max_seconds=2.5))
        assert (info.value.kind, info.value.generated) == ("time", 0)
        assert next(reads) == 4  # the start, two subsets passed and the third stopped


class TestPointed:
    def test_positive_row_is_pointed(self):
        assert assert_pointed(T(4, 5, 6))

    def test_kernel_with_nonnegative_vector(self):
        assert not assert_pointed(T(1, -1))

    def test_full_lawrence_lifting_is_pointed(self):
        lam = lambda_matrix([4, 5, 6], [])
        assert assert_pointed(lam.matrix)


@st.composite
def duplicated_columns(draw):
    """A d x n matrix, entries -3..3, with one nonzero column copied to one
    or two drawn positions, five columns at most."""
    d, n = draw(st.sampled_from([(1, 3), (2, 3), (1, 4), (2, 4), (3, 4)]))
    rows = [draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)) for _ in range(d)]
    j = draw(st.integers(0, n - 1))
    column = [row[j] for row in rows]
    assume(any(column))
    for _ in range(draw(st.integers(1, 5 - n))):
        at = draw(st.integers(0, len(rows[0])))
        rows = [row[:at] + [x] + row[at:] for row, x in zip(rows, column)]
    return IntMat.from_rows(rows)


class TestSplit:
    """Gr(X) of a matrix with two equal nonzero columns, split from Gr(X
    without one of them), against the engine on X's own lattice."""

    @staticmethod
    def split_only(monkeypatch, width):
        """Empty both memos and refuse `_graver` on a lattice of this width,
        so that only the split can answer."""
        empty_graver_memos(monkeypatch)
        engine = graver_module._graver

        def refusing(basis, n, spent):
            assert n != width, "a repeated-column matrix was completed"
            return engine(basis, n, spent)

        monkeypatch.setattr(graver_module, "_graver", refusing)

    @pytest.mark.parametrize("s, bound", [(4, 10), (5, 8)])
    def test_repeated_entry_curves_match_the_engine(self, monkeypatch, s, bound):
        curves = repeated_curves(s, bound)
        engine = {t: engine_graver(T(*t)) for t in curves}
        self.split_only(monkeypatch, s)
        assert {t: graver_basis(T(*t)).elements for t in curves} == engine

    @settings(max_examples=100, deadline=None)
    @given(duplicated_columns())
    @example(IntMat.from_rows([[1, -2, 1, -2, -2]]))
    @example(IntMat.from_rows([[0, 2, 2], [1, -3, -3]]))
    def test_duplicated_columns_match_the_engine(self, X):
        engine = engine_graver(X)
        split = graver_module._matrix_graver(X, _Spent(DEFAULT_BUDGET))
        assert tuple(split) == engine
        assert fresh_graver_basis(X).elements == engine

    def test_equal_zero_columns_are_no_repeat(self):
        # e_2 and e_3 are in Gr, so e_2 - e_3 is not
        X = IntMat.from_rows([[1, 0, 0]])
        assert graver_module._repeated_column(X) is None
        assert fresh_graver_basis(X).elements == engine_graver(X) == ((0, 0, 1), (0, 1, 0))
        # the bouquet route completes A_B, a zero matrix, on the engine;
        # A's own columns repeat, and splitting A gives the same basis
        A = IntMat.from_rows([[1, 1, 0, 0], [0, 0, 1, 1]])
        assert graver_module._repeated_column(bouquet_decomposition(A).a_matrix) is None
        expected = ((0, 0, 1, -1), (1, -1, 0, 0))
        assert fresh_graver_basis(A).elements == engine_graver(A) == expected
        assert tuple(graver_module._matrix_graver(A, _Spent(DEFAULT_BUDGET))) == expected

    def test_lifting_of_a_repeated_entry_curve(self, monkeypatch):
        lam = lambda_matrix([4, 6, 6, 9], [1]).matrix
        engine = engine_graver(lam)
        self.split_only(monkeypatch, 4)  # A_B is (4, 6, 6, 9), which repeats a column
        assert graver_basis(lam).elements == engine

    def test_each_split_logs_one_line(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="graverkit.graver"):
            G = fresh_graver_basis(T(15, 15, 29, 29, 29))
        # (15, 29) is answered in closed form; each split logs after the one it reads
        assert [r.getMessage() for r in caplog.records] == [
            "split: column 2 repeats column 1: {'reduced': 1, 'splittings': 16}",
            "split: column 2 repeats column 1: {'reduced': 17, 'splittings': 138}",
            "split: column 1 repeats column 0: {'reduced': 139, 'splittings': 4083}",
        ]
        assert len(G) == 4084 == 1 + 4083

    def test_each_splitting_is_a_candidate(self):
        A = T(7, 8, 8, 8, 8, 8, 8)
        with pytest.raises(BudgetExceededError) as info:
            fresh_graver_basis(A, budget=Budget(max_candidates=100))
        assert info.value.kind == "elements" and info.value.generated == 101
        assert len(fresh_graver_basis(A)) == 807

    def test_the_clock_is_read_as_splittings_are_emitted(self, monkeypatch, caplog):
        # the clock jumps once the innermost split, (7, 8, 8) from (7, 8),
        # has logged its 8 splittings; the next split's first one sees it
        clock = SimpleNamespace(monotonic=lambda: 1e9 if caplog.records else 0.0)
        monkeypatch.setattr(graver_module, "time", clock)
        with caplog.at_level(logging.DEBUG, logger="graverkit.graver"), \
                pytest.raises(BudgetExceededError) as info:
            fresh_graver_basis(T(7, 8, 8, 8, 8, 8, 8), budget=Budget(max_seconds=1.0))
        assert [r.getMessage() for r in caplog.records] == [
            "split: column 2 repeats column 1: {'reduced': 1, 'splittings': 8}"]
        assert info.value.kind == "time" and info.value.generated == 9

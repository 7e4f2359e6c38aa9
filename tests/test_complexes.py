import itertools
import logging
import math
import random
import re
import sys
from types import SimpleNamespace

import pytest

import graverkit.complexes as complexes_module
import graverkit.graver as graver_module
from graverkit import (
    Budget,
    BudgetExceededError,
    CurveKind,
    GraverKitError,
    IntMat,
    PreconditionError,
    RobustComplex,
    classify_curve3,
    degree_t,
    face_test_lifting,
    face_test_projection,
    graver_basis,
    is_simple,
    lambda_matrix,
    robust_complex,
    s_omega,
    semigroup_min_multiple,
)
from graverkit.complexes import _curve_row, _subcurve_rejects
from graverkit.graver import (
    DEFAULT_BUDGET,
    ConformalIndex,
    GraverBasis,
    _cone_count,
    _rank2_graver,
    _sector_rays,
    _sector_walks,
    _Spent,
)
from graverkit.linalg import _xgcd_min, kernel_lattice, project_out, vec_neg
from graverkit.robustness import dispensability_witness
from graverkit.search import sullivant_search

from _paper import (
    CLASSIFICATION_TABLE,
    T_BIG,
    check_s3_theorem,
    empty_graver_memos,
    engine_graver,
    fresh_graver_basis,
    lift_curve_vector,
    lifting_decomposition,
    repeated_curves,
)


def T(*entries):
    return IntMat.row_vector(entries)


def reference_face_test(T, i):
    """{i} is a face iff every projection of +/-Gr(T), coordinate i deleted, is
    the only vector at or under itself in a second index of the projections.

    This is the earlier projected-copy route, kept as the reference
    `face_test_projection` is held to.
    """
    index = ConformalIndex(T.ncols - 1)
    for u in graver_basis(T).elements:
        p = project_out(u, i)
        index.add(p)
        index.add(vec_neg(p))
    return all(index.dominators(k) == 1 for k in range(0, len(index), 2))


class TestLambdaMatrix:
    def test_printed_shape_for_omega_3(self):
        lam = lambda_matrix([5, 7, 9, 11], [3])
        assert [list(r) for r in lam.matrix.rows] == [
            [5, 7, 9, 11, 0, 0, 0],
            [1, 0, 0, 0, 1, 0, 0],
            [0, 1, 0, 0, 0, 1, 0],
            [0, 0, 0, 1, 0, 0, 1],
        ]

    def test_empty_omega_is_full_second_lifting(self):
        lam = lambda_matrix([4, 5, 6], [])
        assert lam.matrix.nrows == 4 and lam.matrix.ncols == 6
        assert [list(r) for r in lam.matrix.rows] == [
            [4, 5, 6, 0, 0, 0],
            [1, 0, 0, 1, 0, 0],
            [0, 1, 0, 0, 1, 0],
            [0, 0, 1, 0, 0, 1],
        ]

    def test_full_omega_returns_curve(self):
        lam = lambda_matrix([4, 5, 6], [1, 2, 3])
        assert lam.matrix == T(4, 5, 6)

    def test_bad_subset(self):
        with pytest.raises(PreconditionError):
            lambda_matrix([4, 5, 6], [4])
        with pytest.raises(PreconditionError):
            lambda_matrix([4, 5, 6], [0])

    def test_float_index_rejected_not_truncated(self):
        # int() would read 2.7 as 2
        with pytest.raises(TypeError):
            lambda_matrix([4, 5, 6], [2.7])


class TestDegree:
    def test_examples(self):
        assert degree_t([7, 15, 20], (5, 0, 0)) == 35
        assert degree_t([7, 15, 20], (0, 0, 0)) == 0
        assert degree_t([6, 10, 15], (0, 3, 0)) == 30

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            degree_t([7, 15, 20], (1, -1, 0))

    def test_float_rejected_not_truncated(self):
        # int() would read 1.9 as 1 and give 4
        with pytest.raises(TypeError):
            degree_t([4, 5, 6], (1.9, 0, 0))


class TestSemigroupMinimum:
    def test_paper_values(self):
        assert semigroup_min_multiple(7, 15, 20) == 5
        assert semigroup_min_multiple(11, 6, 8) == 2
        assert semigroup_min_multiple(5, 3, 7) == 2

    def test_generator_in_semigroup(self):
        assert semigroup_min_multiple(6, 2, 9) == 1  # 6 = 3*2

    def test_scan_fallback(self):
        # large generators, far beyond the small brute-force grid below;
        # parity forces the doubled generator here
        assert semigroup_min_multiple(2, 2357, 3001) == 2357

    def test_positive_required(self):
        with pytest.raises(PreconditionError):
            semigroup_min_multiple(0, 2, 3)

    def test_matches_brute_force_on_small_grid(self):
        def brute(n_i, n_j, n_k):
            c = 1
            while not any(
                (c * n_i - a * n_j) % n_k == 0 for a in range(c * n_i // n_j + 1)
            ):
                c += 1
            return c

        for triple in itertools.product(range(1, 13), repeat=3):
            assert semigroup_min_multiple(*triple) == brute(*triple), triple


class TestClassification:
    def test_table(self):
        for entries, c, kind in CLASSIFICATION_TABLE:
            cls = classify_curve3(entries)
            assert cls.c == c, entries
            assert cls.describe() == kind, entries
            assert cls.betti_candidates == tuple(ci * ni for ci, ni in zip(c, entries))

    def test_gcd_normalization(self):
        assert classify_curve3([8, 10, 12]).T == (4, 5, 6)
        assert classify_curve3([8, 10, 12]).describe() == classify_curve3([4, 5, 6]).describe()

    def test_shape_and_sign_errors(self):
        with pytest.raises(PreconditionError):
            classify_curve3([4, 5, 6, 7])
        with pytest.raises(PreconditionError):
            classify_curve3([0, 5, 6])

    def test_the_s3_theorem_from_fibers(self):
        # the paper's s = 3 theorem as stated: Delta_T has a vertex iff I_T is
        # a complete intersection (2 minimal generators, I_T having height 2)
        # with exactly two Betti degrees, counted from the fibers and held to
        # the complex and to Herzog's candidates in classify_curve3, on every
        # gcd-1 triple to 20; the CI tests job runs it to 30 (4,027 triples)
        assert check_s3_theorem(20) == (1252, set(CurveKind))


class TestFaceTests:
    def test_projection_on_4_5_6(self):
        assert face_test_projection(T(4, 5, 6), 2)
        assert not face_test_projection(T(4, 5, 6), 1)
        assert not face_test_projection(T(4, 5, 6), 3)

    def test_lifting_on_4_5_6(self):
        assert face_test_lifting(T(4, 5, 6), {2})
        assert not face_test_lifting(T(4, 5, 6), {1})

    def test_two_element_subsets_fail(self):
        for omega in itertools.combinations(range(1, 4), 2):
            assert not face_test_lifting(T(4, 5, 6), omega)

    def test_no_small_s4_curve_has_an_edge(self):
        # the dimension half of the one-vertex theorem, which no computed
        # complex reaches: the complexes list only singletons
        curves = [t for t in itertools.combinations_with_replacement(range(1, 8), 4)
                  if math.gcd(*t) == 1]
        pairs = [(t, omega) for t in curves for omega in itertools.combinations(range(1, 5), 2)]
        assert (len(curves), len(pairs)) == (189, 1134)
        assert [p for p in pairs if face_test_lifting(T(*p[0]), p[1])] == []

    def test_a_float_index_is_rejected_before_the_graver_basis(self, monkeypatch):
        computed = []
        monkeypatch.setattr(complexes_module, "graver_basis",
                            lambda *args, **kwargs: computed.append(args))
        with pytest.raises(TypeError):
            face_test_projection([3, 4, 5], 1.0)
        assert computed == []

    def test_agreement_on_small_sample(self):
        rng = random.Random(17)
        for _ in range(6):
            entries = tuple(sorted(rng.sample(range(3, 14), 3)))
            Tm = T(*entries)
            for i in range(1, 4):
                assert face_test_projection(Tm, i) == face_test_lifting(Tm, {i}), (entries, i)


class TestCountRoute:
    def test_equals_the_projection_test_on_every_small_s3_curve(self):
        # _complex_on_miss decides a 1x3 complex by |Gr(pi_i L)| = |Gr(L)|
        for entries in itertools.combinations_with_replacement(range(1, 21), 3):
            if math.gcd(*entries) == 1:
                counted = complexes_module._complex_on_miss(entries, None)
                assert counted.faces == every_face_test(entries), entries

    def test_a_fresh_complex_computes_no_kernel(self, monkeypatch):
        # the counts' kernel basis is written down, and Gr(T) is counted, not computed
        empty_graver_memos(monkeypatch)
        calls = []

        def counting(A):
            calls.append(A.rows)
            return kernel_lattice(A)

        for name, module in list(sys.modules.items()):
            if name.startswith("graverkit") and hasattr(module, "kernel_lattice"):
                monkeypatch.setattr(module, "kernel_lattice", counting)
        counted = robust_complex([6, 10, 15])
        assert calls == []
        assert counted.faces == every_face_test((6, 10, 15))

    def test_walks_share_the_budget(self, monkeypatch):
        # a memoized Gr(4 5 6) spares no count: the six cones, L's three
        # sectors and its three projections' merged cones, count
        # 3 + 2 + 2 + 5 + 2 + 2 = 16 points on one ledger
        empty_graver_memos(monkeypatch)
        graver_basis(T(4, 5, 6))
        with pytest.raises(BudgetExceededError):
            robust_complex([4, 5, 6], budget=Budget(max_candidates=10))

    def test_walk_counts_are_the_walks_graver_bases(self):
        # for L = Ker T and each pi_i L, on every gcd-1 triple to 20
        curves = [t for t in itertools.combinations_with_replacement(range(1, 21), 3)
                  if math.gcd(*t) == 1]
        assert len(curves) == 1252
        for t in curves:
            basis = kernel_lattice(T(*t)).vectors
            for rows in [basis, *([project_out(v, i) for v in basis] for i in (1, 2, 3))]:
                spent = _Spent(DEFAULT_BUDGET)
                count = sum(1 for _ in _sector_walks(rows, spent))
                assert count == spent.generated == len(_rank2_graver(rows, _Spent(DEFAULT_BUDGET)))

    def test_the_written_rays_are_the_sector_rays_of_the_basis(self):
        # _curve3_rays against _sector_rays of the basis the counts are read
        # in, (b/g, -a/g, 0) and (c*x, c*y, -g), on every ordered gcd-1 triple to 30
        curves = [t for t in itertools.product(range(1, 31), repeat=3) if math.gcd(*t) == 1]
        assert len(curves) == 22_495
        for a, b, c in curves:
            g, x, y = _xgcd_min(a, b)
            basis = (b // g, -a // g, 0), (c * x, c * y, -g)
            assert list(complexes_module._curve3_rays((a, b, c))) == _sector_rays(basis), (a, b, c)

    def test_a_fresh_complex_writes_no_graver_memo(self, monkeypatch):
        empty_graver_memos(monkeypatch)
        counted = robust_complex([6, 10, 15])
        assert graver_module._GRAVER_MEMO == {}
        assert graver_module._LATTICE_MEMO == {}
        assert counted.faces == every_face_test((6, 10, 15))

    def test_element_cap_holds_inside_the_counting_walk(self, monkeypatch):
        # Gr(7 15 20) has 9 elements; the first cone count stops at its second point
        empty_graver_memos(monkeypatch)
        with pytest.raises(BudgetExceededError) as info:
            robust_complex([7, 15, 20], budget=Budget(max_candidates=1))
        assert (info.value.kind, info.value.generated) == ("elements", 2)

    def test_a_run_stops_at_the_point_past_the_cap(self, monkeypatch):
        # this curve's second sector has 100,003 points, almost all in one
        # run of a_i = 2; counted whole, the run would overshoot the cap
        for cap in (0, 1, 5, 1000):
            empty_graver_memos(monkeypatch)
            with pytest.raises(BudgetExceededError) as info:
                robust_complex([3, 1000003, 1000033], budget=Budget(max_candidates=cap))
            assert (info.value.kind, info.value.generated) == ("elements", cap + 1)

    def test_time_cap_holds_inside_the_counts(self, monkeypatch):
        # a clock that advances a second on every read: the first run or
        # step of the first cone sees the cap passed
        empty_graver_memos(monkeypatch)
        clock = SimpleNamespace(monotonic=itertools.count().__next__)
        monkeypatch.setattr(graver_module, "time", clock)
        with pytest.raises(BudgetExceededError) as info:
            robust_complex([3, 1000003, 1000033], budget=Budget(max_seconds=0.5))
        assert (info.value.kind, info.value.generated) == ("time", 1)

    def test_one_count_line_per_counted_complex(self, monkeypatch, caplog):
        # on the walks' logger, in place of their rank-2 walk lines
        empty_graver_memos(monkeypatch)
        with caplog.at_level(logging.DEBUG, logger="graverkit.graver"):
            robust_complex([4, 5, 6])
            robust_complex([8, 10, 12])
        assert [(r.msg, r.args) for r in caplog.records if r.name == "graverkit.graver"] == [
            ("cone counts: %s", dict(curve=(4, 5, 6), sectors=[3, 2, 2], merged=[5, 2, 2]))]


def walk_count(rows, r1=None, r2=None):
    """The points `_sector_walks` yields for the basis rows, on a fresh ledger:
    all of them, or those of the sector cone(r1, r2), det(r1, h) >= 0 and
    det(h, r2) > 0."""
    walk = _sector_walks(rows, _Spent(DEFAULT_BUDGET))
    if r1 is None:
        return sum(1 for _ in walk)
    return sum(1 for h in walk
               if r1[0] * h[1] - r1[1] * h[0] >= 0 and h[0] * r2[1] - h[1] * r2[0] > 0)


def four_walk_vertex(t):
    """The faces {i} of Delta_T by |Gr(pi_i L)| = |Gr(L)|, each size the
    length of one `_sector_walks`: the four-walk route the cone counts replace."""
    basis = kernel_lattice(T(*t)).vectors
    whole = walk_count(basis)
    return [i for i in (1, 2, 3) if walk_count([project_out(v, i) for v in basis]) == whole]


class TestConeCounts:
    @staticmethod
    def assert_counts_equal_the_walks(rows):
        rays = _sector_rays(rows)
        for r1, r2 in zip(rays, rays[1:] + [(-rays[0][0], -rays[0][1])]):
            spent = _Spent(DEFAULT_BUDGET)
            count = _cone_count(r1, r2, spent)
            assert count == spent.generated == walk_count(rows, r1, r2), (rows, r1, r2)

    def test_every_cone_of_every_small_curve(self):
        # the sectors of L and of each pi_i L, on every ordered gcd-1 triple
        # to 24; the sectors of the pi_i L are L's merged cones
        curves = [t for t in itertools.product(range(1, 25), repeat=3) if math.gcd(*t) == 1]
        assert len(curves) == 11_557
        for t in curves:
            basis = kernel_lattice(T(*t)).vectors
            for rows in [basis, *([project_out(v, i) for v in basis] for i in (1, 2, 3))]:
                self.assert_counts_equal_the_walks(rows)

    def test_every_cone_of_random_rank2_bases(self):
        rng = random.Random(52)
        tried = 0
        while tried < 1000:
            n = rng.randint(2, 6)
            rows = [tuple(rng.randint(-30, 30) for _ in range(n)) for _ in range(2)]
            if any(p * y - q * x for (p, q), (x, y) in itertools.combinations(zip(*rows), 2)):
                self.assert_counts_equal_the_walks(rows)
                tried += 1

    def test_the_counted_verdict_is_the_four_walk_verdict(self):
        for t in itertools.product(range(1, 25), repeat=3):
            if math.gcd(*t) == 1:
                counted = complexes_module._complex_on_miss(t, None)
                assert sorted(i for f in counted.faces for i in f) == four_walk_vertex(t), t

    def test_a_curve_of_long_runs(self, monkeypatch):
        # its walks take over 100,000 steps each, its counts a few runs
        empty_graver_memos(monkeypatch)
        t = (3, 1000003, 1000033)
        assert robust_complex(t).sorted_faces() == [[], *([i] for i in four_walk_vertex(t))]


class TestFaceTestAgainstReference:
    @staticmethod
    def _faces(curves):
        """How many of the curves' singletons are faces; asserts both tests agree."""
        faces = 0
        for entries in curves:
            Tm = T(*entries)
            for i in range(1, len(entries) + 1):
                fast = face_test_projection(Tm, i)
                assert fast == reference_face_test(Tm, i), (entries, i)
                faces += fast
        return faces

    def test_every_small_s3_curve(self):
        curves = [e for e in itertools.product(range(1, 13), repeat=3) if math.gcd(*e) == 1]
        assert 0 < self._faces(curves) < len(curves)

    @pytest.mark.parametrize("s, top, count", [(4, 24, 100), (5, 20, 40)])
    def test_sampled_curves(self, s, top, count):
        rng = random.Random(1000 + s)
        curves = []
        for _ in range(count):
            entries = [rng.randint(1, top) for _ in range(s)]
            g = math.gcd(*entries)
            curves.append(tuple(x // g for x in entries))
        assert 0 < self._faces(curves) < count


def reference_s_omega(entries, omega):
    """S_omega by its definition: the u in Gr(T) whose image D(u), taken through
    the lifting's bouquet decomposition, is indispensable in Lambda(T)_omega."""
    Tm = T(*entries)
    lam, dec = lifting_decomposition(Tm, omega)
    G_lam = graver_basis(lam.matrix)
    return frozenset(u for u in graver_basis(Tm).elements
                     if dispensability_witness(lift_curve_vector(dec, u), G_lam) is None)


class TestSOmega:
    def test_slice_equals_the_d_image_definition(self):
        # unsorted curves put the lifting's bouquets out of column order
        rng = random.Random(18)
        cases = reordered = 0
        for s, count in ((3, 20), (4, 30)):
            for _ in range(count):
                entries = [rng.randint(1, 13) for _ in range(s)]
                for k in range(s + 1):
                    for omega in itertools.combinations(range(1, s + 1), k):
                        assert s_omega(entries, omega) == reference_s_omega(entries, omega), (
                            entries, omega)
                        _, dec = lifting_decomposition(T(*entries), omega)
                        anchors = [b.anchor for b in dec.bouquets]
                        reordered += anchors != sorted(anchors)
                        cases += 1
        assert cases == 20 * 8 + 30 * 16 and reordered > 0

    def test_empty_face_keeps_whole_graver(self):
        G = graver_basis(T(4, 5, 6)).as_set()
        assert s_omega([4, 5, 6], []) == G

    def test_vertex_face(self):
        G = graver_basis(T(4, 5, 6)).as_set()
        assert s_omega([4, 5, 6], [2]) == G

    def test_non_face_is_strict_subset(self):
        G = graver_basis(T(4, 5, 6)).as_set()
        sub = s_omega([4, 5, 6], [1])
        assert sub < G

    def test_circuit_missing_for_non_ci_pair(self):
        # {2,3}-circuit of (4,5,6) drops out at omega={1} because (4,5,6)
        # is not a complete intersection on 4
        assert (0, 6, -5) not in s_omega([4, 5, 6], [1])

    def test_float_index_rejected_not_truncated(self):
        with pytest.raises(TypeError):
            s_omega([4, 5, 6], [1.0])


def entry_point_calls(entries):
    """One call of each Delta_T entry point on a row."""
    return (lambda: robust_complex(entries),
            lambda: face_test_projection(T(*entries), 1),
            lambda: face_test_lifting(T(*entries), {1}),
            lambda: s_omega(entries, [1]))


class TestCurveCheck:
    def test_accepts_exactly_the_simple_rows(self):
        # the arithmetic check (s >= 3, entries positive) against the bouquet route
        for s in range(1, 6):
            for entries in itertools.product(range(1, 7), repeat=s):
                try:
                    _curve_row(entries)
                    accepted = True
                except PreconditionError:
                    accepted = False
                assert accepted == is_simple(T(*entries)), entries

    def test_nonpositive_entries_rejected(self):
        for entries in ((0, 5, 6), (4, -5, 6), (-4, -5, -6), (4, 5, 6, 0)):
            for call in entry_point_calls(entries):
                with pytest.raises(PreconditionError, match="positive"):
                    call()

    def test_short_rows_rejected(self):
        for entries in ((5,), (2, 3)):
            for call in entry_point_calls(entries):
                with pytest.raises(PreconditionError, match="s >= 3"):
                    call()


class TestRobustComplex:
    def test_curve_4_5_6(self):
        rc = robust_complex([4, 5, 6], verify=True)
        assert rc.sorted_faces() == [[], [2]]
        assert rc.vertex() == 2
        assert rc.dim == 0

    def test_not_ci_curve_has_empty_complex(self):
        rc = robust_complex([3, 5, 7])
        assert rc.sorted_faces() == [[]]
        assert rc.vertex() is None
        assert rc.dim == -1

    def test_ci_on_all_curve_has_empty_complex(self):
        assert robust_complex([6, 10, 15]).sorted_faces() == [[]]

    def test_gcd_normalization(self):
        rc = robust_complex([8, 10, 12])
        assert rc.T == (4, 5, 6)
        assert rc.sorted_faces() == [[], [2]]

    def test_s2_rejected(self):
        with pytest.raises(PreconditionError):
            robust_complex([2, 3])

    def test_float_entries_rejected_not_truncated(self):
        # a truncating conversion would answer for (4, 5, 6)
        with pytest.raises(TypeError):
            robust_complex([4.9, 5, 6])

    def test_zero_row_rejected(self):
        # the gcd of an all-zero row is 0; the check must come before the division
        with pytest.raises(PreconditionError, match="positive"):
            robust_complex([0, 0, 0])

    @pytest.mark.parametrize("faces", [
        [[], [1], [2]],
        [[], [1], [2], [1, 2]],
        [[], [1, 2]],
        [[1]],
        [],
    ], ids=["two-vertices", "edge", "lone-edge", "no-empty-face", "no-faces"])
    def test_only_the_theorem_shapes_can_be_built(self, faces):
        listed = sorted(faces, key=lambda f: (len(f), f))
        with pytest.raises(GraverKitError, match=rf"^Delta_T of \(4, 5, 6\) has faces "
                                                 rf"{re.escape(str(listed))}, not "):
            RobustComplex(T=(4, 5, 6), faces=frozenset(map(frozenset, faces)))

    def test_classification_equivalence_small_range(self):
        for entries in itertools.combinations(range(3, 16), 3):
            if math.gcd(*entries) != 1:
                continue
            cls = classify_curve3(entries)
            rc = robust_complex(list(entries))
            if cls.kind is CurveKind.CI_ON:
                assert rc.vertex() == cls.on, entries
            else:
                assert rc.vertex() is None, entries

    def test_vertex_implies_all_pairs_ci_on_vertex(self):
        for entries in [(4, 5, 6), (7, 15, 20), (6, 8, 11)]:
            rc = robust_complex(list(entries))
            i = rc.vertex()
            if i is None:
                continue
            rest = [e for k, e in enumerate(entries, start=1) if k != i]
            for j, k in itertools.combinations(range(len(rest)), 2):
                cls = classify_curve3([entries[i - 1], rest[j], rest[k]])
                assert cls.kind is CurveKind.CI_ON and cls.on == 1


class TestCircuitIndLemmas:
    @staticmethod
    def _circuit_of_pair(entries, j, k):
        g = math.gcd(entries[j - 1], entries[k - 1])
        u = [0] * len(entries)
        u[j - 1] = entries[k - 1] // g
        u[k - 1] = -entries[j - 1] // g
        return tuple(u)

    def test_lemmas_on_sample(self):
        for entries in [(4, 5, 6), (3, 5, 7), (6, 10, 15), (7, 15, 20)]:
            Tm = T(*entries)
            s = len(entries)
            for i in range(1, s + 1):
                lam, dec = lifting_decomposition(Tm, frozenset({i}))
                G_lam = graver_basis(lam.matrix)
                for j, k in itertools.combinations(range(1, s + 1), 2):
                    image = lift_curve_vector(dec, self._circuit_of_pair(entries, j, k))
                    indispensable = dispensability_witness(image, G_lam) is None
                    if i in (j, k):
                        # circuits through the removed coordinate always survive
                        assert indispensable, (entries, i, j, k)
                    else:
                        cls = classify_curve3([entries[i - 1], entries[j - 1], entries[k - 1]])
                        expected = cls.kind is CurveKind.CI_ON and cls.on == 1
                        assert indispensable == expected, (entries, i, j, k)


def every_face_test(entries):
    """Delta_T from the projection test on every singleton, no sub-curve step."""
    Tm = T(*entries)
    faces = {frozenset()}
    faces.update(frozenset({i}) for i in range(1, len(entries) + 1)
                 if face_test_projection(Tm, i))
    return frozenset(faces)


class TestSubcurveRejects:
    @staticmethod
    def _outcomes(curves):
        """(curves with every i rejected, curves with a survivor); asserts that
        every reject is confirmed, that at most one i survives and that the
        complex is the full loop's."""
        decided = survived = 0
        for entries in curves:
            rejected = _subcurve_rejects(entries)
            assert len(entries) - len(rejected) <= 1, entries
            for i in rejected:
                assert not face_test_projection(T(*entries), i), (entries, i)
            assert robust_complex(entries).faces == every_face_test(entries), entries
            if len(rejected) == len(entries):
                decided += 1
            else:
                survived += 1
        return decided, survived

    def test_every_small_s4_curve(self):
        curves = [e for e in itertools.combinations_with_replacement(range(1, 13), 4)
                  if math.gcd(*e) == 1]
        decided, survived = self._outcomes(curves)
        assert decided > 0 and survived > 0

    # a face is never rejected, so a curve with a vertex always has a survivor;
    # sampled 1x6 curves rarely have one, so one with vertex 4 is added
    @pytest.mark.parametrize("s, top, count, extra", [
        (5, 20, 40, ()),
        (6, 14, 8, ((2, 6, 6, 11, 16, 16),)),
    ], ids=["s5", "s6"])
    def test_sampled_curves(self, s, top, count, extra):
        decided, survived = self._outcomes(self._sampled(s, top, count, extra))
        assert decided > 0 and survived > 0
        assert all(robust_complex(e).vertex() == 4 for e in extra)

    @staticmethod
    def _sampled(s, top, count, extra):
        """count sorted gcd-normalised 1xs curves with entries <= top, and extra."""
        rng = random.Random(2000 + s)
        curves = set(extra)
        while len(curves) < count + len(extra):
            entries = sorted(rng.randint(1, top) for _ in range(s))
            g = math.gcd(*entries)
            curves.add(tuple(x // g for x in entries))
        return sorted(curves)

    # every gcd-1 sorted 1x4 curve to 14 and 1x5 curve to 10, and the
    # sampled 1x6 curves, in order. The memo is emptied before each curve
    # ("empty"), holds what the family's earlier curves left ("scan"), or
    # holds what robust_complex on every curve of the family left before
    # the first ("scan-filled")
    @pytest.mark.parametrize("s, bound", [(4, 14), (5, 10), (6, None)], ids=["s4", "s5", "s6"])
    @pytest.mark.parametrize("memo", ["empty", "scan", "scan-filled"])
    def test_the_reads_give_the_union_over_every_subcurve(self, monkeypatch, s, bound, memo):
        empty_graver_memos(monkeypatch)
        monkeypatch.setattr(complexes_module, "_COMPLEX_MEMO_SIZE", 1 << 20)  # nothing evicted
        if bound is None:
            curves = self._sampled(6, 14, 8, ((2, 6, 6, 11, 16, 16),))
        else:
            curves = [t for t in itertools.combinations_with_replacement(range(1, bound + 1), s)
                      if math.gcd(*t) == 1]
        on_miss = complexes_module._complex_on_miss
        vertices = {}  # the reference's own 1x3 verdicts, by gcd-normalised T_J

        def vertex_of(t_J):
            if t_J not in vertices:
                vertices[t_J] = on_miss(t_J, None).vertex()
            return vertices[t_J]

        if memo == "scan-filled":
            for t in curves:
                robust_complex(t)
        computed = []

        def counting(t, budget):
            computed.append(t)
            return on_miss(t, budget)

        monkeypatch.setattr(complexes_module, "_complex_on_miss", counting)
        held_memo = complexes_module._COMPLEX_MEMO
        skipped = 0
        for t in curves:
            if memo == "empty":
                held_memo.clear()
            held, union, reads, expected = set(held_memo), set(), [], []
            for J in itertools.combinations(range(s), 3):
                g = math.gcd(*(t[j] for j in J))
                t_J = tuple(t[j] // g for j in J)
                if t_J in held or not union.issuperset(J):
                    reads.append(t_J)
                    if t_J not in held:
                        expected.append(t_J)
                        held.add(t_J)
                else:
                    skipped += 1
                # the plain union: every J's rejects, read or skipped
                union.update(c for j, c in enumerate(J, 1) if j != vertex_of(t_J))
            computed.clear()
            assert _subcurve_rejects(t) == {c + 1 for c in union}, t
            # computed: exactly the J not memoized that hold a column not yet rejected
            assert computed == expected, t
            # every read, a hit or a computation, moved its T_J to the newest end
            newest = {}
            for t_J in reads:
                newest.pop(t_J, None)
                newest[t_J] = None
            assert list(held_memo)[-len(newest):] == list(newest), t
        # a hit is never skipped, and a filled memo holds most T_J
        assert skipped > 0 or memo == "scan-filled"


class TestVerify:
    def test_verify_checks_the_pre_rejected_answer(self, monkeypatch):
        # a pre-reject that also drops the true vertex 3 of T_BIG
        empty_graver_memos(monkeypatch)
        rejects = complexes_module._subcurve_rejects
        monkeypatch.setattr(complexes_module, "_subcurve_rejects",
                            lambda t, budget=None: rejects(t, budget) | {3})
        with pytest.raises(GraverKitError,
                           match=r"i=3: complex=False, projection=True, lifting=True"):
            robust_complex(T_BIG, verify=True)

    def test_verify_checks_a_memoized_answer(self, monkeypatch):
        empty_graver_memos(monkeypatch)
        wrong = RobustComplex(T=(4, 5, 6), faces=frozenset({frozenset()}))
        complexes_module._COMPLEX_MEMO[(4, 5, 6)] = wrong
        with pytest.raises(GraverKitError, match="i=2"):
            robust_complex([8, 10, 12], verify=True)
        assert robust_complex([4, 5, 6]) is wrong

    def test_verify_on_a_miss_memoizes_the_unverified_answer(self, monkeypatch):
        empty_graver_memos(monkeypatch)
        verified = robust_complex([4, 5, 6, 7], verify=True)
        stored = complexes_module._COMPLEX_MEMO[(4, 5, 6, 7)]
        assert not stored.cross_checked
        assert verified == stored.replace(cross_checked=True)
        assert robust_complex([4, 5, 6, 7]) is stored


class TestRepeatedEntry:
    """Delta_T of a curve with a repeated entry, read from the curve without
    it, against the projection test on the engine's Gr(T)."""

    # sorted curves repeat adjacent entries; shuffled ones put other
    # columns, the vertex among them, between the two
    @pytest.mark.parametrize("s, bound, shuffled", [
        (4, 14, False), (5, 9, False), (4, 10, True), (5, 7, True)])
    def test_reduced_verdict_matches_the_projection_test(self, monkeypatch, s, bound, shuffled):
        empty_graver_memos(monkeypatch)
        rng = random.Random(f"{s}:{bound}")
        bases = {}

        def engine_basis(A, budget=None):
            if A.rows not in bases:
                bases[A.rows] = GraverBasis(A.ncols, engine_graver(A))
            return bases[A.rows]

        monkeypatch.setattr(complexes_module, "graver_basis", engine_basis)
        for t in repeated_curves(s, bound):
            if shuffled:
                t = tuple(rng.sample(t, s))
            faces = {frozenset(), *(frozenset({i}) for i in range(1, s + 1)
                                    if face_test_projection(T(*t), i))}
            assert robust_complex(t).faces == faces, t

    def test_the_tuple_check_is_the_column_check(self):
        # _complex_on_miss finds the repeat on the tuple, with no IntMat
        for t in itertools.product(range(1, 5), repeat=5):
            expected = graver_module._repeated_column(T(*t))
            assert complexes_module._repeated_entry(t) == expected, t

    def test_each_reduced_complex_logs_one_line(self, monkeypatch, caplog):
        empty_graver_memos(monkeypatch)
        with caplog.at_level(logging.DEBUG, logger="graverkit.complexes"):
            # (1, 2, 3, 4, 6, 8, 14) has its vertex at column 7, shifted past 4
            assert robust_complex([1, 2, 3, 4, 4, 6, 8, 14]).vertex() == 8
            # (4, 5, 6) has it at column 2, which repeats in (4, 5, 5, 6)
            assert robust_complex([4, 5, 5, 6]).vertex() is None
        lines = [r.getMessage() for r in caplog.records]
        assert lines[-3:] == [
            "complex (1, 2, 3, 4, 4, 6, 8, 14): column 5 repeats column 4, "
            "read from (1, 2, 3, 4, 6, 8, 14)",
            "complex (4, 5, 6): sub-curves reject [], face tests on [1, 2, 3]",
            "complex (4, 5, 5, 6): column 3 repeats column 2, read from (4, 5, 6)",
        ]
        assert robust_complex([4, 5, 6]).vertex() == 2


class TestComplexMemo:
    def test_repeated_complex_computes_no_graver_basis(self, monkeypatch):
        empty_graver_memos(monkeypatch)
        calls = []
        graver_basis_ = complexes_module.graver_basis

        def counting(A, budget=None):
            calls.append(A.rows)
            return graver_basis_(A, budget=budget)

        monkeypatch.setattr(complexes_module, "graver_basis", counting)
        # the sub-curves leave {4} to the projection test, which reads Gr(T)
        first = robust_complex([3, 4, 6, 7])
        assert calls
        calls.clear()
        assert robust_complex([6, 8, 12, 14]) is first  # gcd-normalised key
        assert calls == []

    def test_memo_keeps_the_latest_complexes(self, monkeypatch):
        empty_graver_memos(monkeypatch)
        monkeypatch.setattr(complexes_module, "_COMPLEX_MEMO_SIZE", 8)
        memo, cap = complexes_module._COMPLEX_MEMO, complexes_module._COMPLEX_MEMO_SIZE
        curves = [(2, 3, k) for k in range(4, 4 + cap + 3)]
        first = robust_complex(curves[0])
        for entries in curves[1:]:
            robust_complex(entries)
            assert len(memo) <= cap
        assert list(memo) == curves[-cap:]
        again = robust_complex(curves[0])
        assert again == first and again is not first
        assert list(memo) == curves[-cap + 1:] + [curves[0]]

    def test_a_hit_becomes_the_newest_entry(self, monkeypatch):
        empty_graver_memos(monkeypatch)
        first = robust_complex([4, 5, 6])
        robust_complex([3, 5, 7])
        assert robust_complex([8, 10, 12]) is first
        assert list(complexes_module._COMPLEX_MEMO) == [(3, 5, 7), (4, 5, 6)]

    def test_the_miss_path_only_computes(self, monkeypatch):
        empty_graver_memos(monkeypatch)
        assert complexes_module._complex_on_miss((4, 5, 6), None).vertex() == 2
        assert complexes_module._COMPLEX_MEMO == {}

    def test_a_scan_computes_each_subcurve_once(self, monkeypatch):
        # the 1x4 scan to 10 reads 172 triples and computes 626 curves; a
        # memo between the two sizes keeps the triples it still reads
        empty_graver_memos(monkeypatch)
        monkeypatch.setattr(complexes_module, "_COMPLEX_MEMO_SIZE", 400)
        computed = []
        on_miss = complexes_module._complex_on_miss

        def counting(t, budget):
            computed.append(t)
            return on_miss(t, budget)

        monkeypatch.setattr(complexes_module, "_complex_on_miss", counting)
        sullivant_search([4], 10)
        triples = [t for t in computed if len(t) == 3]
        assert (len(triples), len(computed) - len(triples)) == (172, 626)
        assert len(set(triples)) == len(triples)

    def test_verify_after_unverified_is_cross_checked(self, monkeypatch):
        empty_graver_memos(monkeypatch)
        plain = robust_complex([4, 5, 6, 7])
        verified = robust_complex([4, 5, 6, 7], verify=True)
        assert not plain.cross_checked and verified.cross_checked
        assert verified.faces == plain.faces
        assert robust_complex([4, 5, 6, 7]) is plain

    def test_memoized_complex_ignores_the_budget(self, monkeypatch):
        empty_graver_memos(monkeypatch)
        rc = robust_complex([24, 40, 41, 60, 80])
        assert robust_complex([24, 40, 41, 60, 80], budget=Budget(max_candidates=1)) is rc

    def test_decided_curve_completes_only_its_subcurves(self, monkeypatch):
        # Gr(15,15,29,29,29), 4,084 elements, takes 4,237 splittings; the
        # complex is read from (15,29,29,29) and so from (15,29,29), whose
        # complex is six cone counts: no lattice is computed
        empty_graver_memos(monkeypatch)
        runs = []
        engine = graver_module._matrix_graver

        def counting(X, spent, lattice=None):
            runs.append(X.ncols)
            return engine(X, spent, lattice)

        monkeypatch.setattr(graver_module, "_matrix_graver", counting)
        budget = Budget(max_candidates=2_000)
        assert robust_complex([15, 15, 29, 29, 29], budget=budget).sorted_faces() == [[]]
        assert runs == []
        with pytest.raises(BudgetExceededError):
            fresh_graver_basis(T(15, 15, 29, 29, 29), budget=budget)

    def test_fresh_s3_complex_builds_no_signed_index(self, monkeypatch):
        empty_graver_memos(monkeypatch)
        assert robust_complex([4, 5, 6]).vertex() == 2
        assert "signed_index" not in graver_basis(T(4, 5, 6)).__dict__

    def test_debug_line_per_computed_complex(self, monkeypatch, caplog):
        empty_graver_memos(monkeypatch)
        with caplog.at_level(logging.DEBUG, logger="graverkit.complexes"):
            robust_complex([15, 15, 29, 29, 29])
            robust_complex([15, 15, 29, 29, 29])
            robust_complex([4, 5, 6], verify=True)
        # each curve without a repeat, computed on the way, logs its own line first
        assert [r.getMessage() for r in caplog.records if r.name == "graverkit.complexes"] == [
            "complex (15, 29, 29): sub-curves reject [], face tests on [1, 2, 3]",
            "complex (15, 29, 29, 29): column 3 repeats column 2, read from (15, 29, 29)",
            "complex (15, 15, 29, 29, 29): column 2 repeats column 1, read from (15, 29, 29, 29)",
            "complex (4, 5, 6): sub-curves reject [], face tests on [1, 2, 3]",
        ]

import itertools
import math
import random

import pytest

from graverkit import (
    CurveKind,
    IntMat,
    PreconditionError,
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
from graverkit.complexes import _curve_row, _lifting_decomposition
from graverkit.graver import ConformalIndex
from graverkit.linalg import project_out, vec_neg

from _paper import CLASSIFICATION_TABLE


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


class TestDegree:
    def test_examples(self):
        assert degree_t([7, 15, 20], (5, 0, 0)) == 35
        assert degree_t([7, 15, 20], (0, 0, 0)) == 0
        assert degree_t([6, 10, 15], (0, 3, 0)) == 30

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            degree_t([7, 15, 20], (1, -1, 0))


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

    def test_agreement_on_small_sample(self):
        rng = random.Random(17)
        for _ in range(6):
            entries = tuple(sorted(rng.sample(range(3, 14), 3)))
            Tm = T(*entries)
            for i in range(1, 4):
                assert face_test_projection(Tm, i) == face_test_lifting(Tm, {i}), (entries, i)


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


class TestSOmega:
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
        from graverkit.complexes import lift_curve_vector
        from graverkit.robustness import dispensability_witness

        for entries in [(4, 5, 6), (3, 5, 7), (6, 10, 15), (7, 15, 20)]:
            Tm = T(*entries)
            s = len(entries)
            for i in range(1, s + 1):
                lam, dec = _lifting_decomposition(Tm, frozenset({i}))
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

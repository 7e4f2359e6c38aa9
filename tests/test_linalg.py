import random

import pytest

from graverkit import (
    IntMat,
    is_conformal_sum,
    is_semiconformal_sum,
    kernel_lattice,
    project_out,
)
from graverkit.linalg import sign_canonical, vec_add
from graverkit.oracle import kernel_points_in_box

from _paper import EXAMPLE_E_GALE_COLUMNS, EXAMPLE_E_ROWS, example_e, random_unimodular


class TestConformal:
    def test_zero_summand(self):
        assert is_conformal_sum((1, -1), (1, -1), (0, 0))

    def test_sign_aligned_halves(self):
        assert is_conformal_sum((2, -2), (1, -1), (1, -1))

    def test_opposing_signs_rejected(self):
        assert not is_conformal_sum((1, -1), (2, -2), (-1, 1))

    def test_sum_must_match(self):
        assert not is_conformal_sum((1, 0), (1, 0), (1, 0))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            is_conformal_sum((1, 2), (1,), (0, 2))


class TestSemiconformal:
    def test_circuit_decomposition_pattern(self):
        # (c_j, 0, -c_k) = (c_j, -c_i, 0) + (0, c_i, -c_k), all c positive
        assert is_semiconformal_sum((2, 0, -2), (2, -2, 0), (0, 2, -2))

    def test_trivial_decomposition(self):
        for u in [(3, -1, 2), (0, 0), (-5,)]:
            zero = (0,) * len(u)
            assert is_semiconformal_sum(u, u, zero)

    def test_negative_second_against_positive_first(self):
        assert not is_semiconformal_sum((1, 0), (2, 0), (-1, 0))

    def test_conformal_implies_semiconformal(self):
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randint(1, 6)
            v = tuple(rng.randint(-4, 4) for _ in range(n))
            # w sign-compatible with v coordinatewise
            w = tuple(
                rng.randint(0, 4) * (1 if x > 0 else -1 if x < 0 else rng.choice((-1, 0, 1)))
                for x in v
            )
            u = vec_add(v, w)
            if is_conformal_sum(u, v, w):
                assert is_semiconformal_sum(u, v, w)
                assert is_semiconformal_sum(u, w, v)


class TestProjectOut:
    def test_definition(self):
        assert project_out((7, 8, 9), 2) == (7, 9)
        assert project_out((5, -6, 0), 1) == (-6, 0)

    def test_circuit_projection_keeps_two_entries(self):
        u = (0, 4, 0, -3, 0)
        assert project_out(u, 1) == (4, 0, -3, 0)
        assert sum(1 for x in project_out(u, 3) if x) == 2

    def test_linearity(self):
        rng = random.Random(11)
        for _ in range(100):
            n = rng.randint(2, 7)
            u = tuple(rng.randint(-9, 9) for _ in range(n))
            v = tuple(rng.randint(-9, 9) for _ in range(n))
            i = rng.randint(1, n)
            assert project_out(vec_add(u, v), i) == vec_add(project_out(u, i), project_out(v, i))

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            project_out((1, 2), 3)
        with pytest.raises(IndexError):
            project_out((1, 2), 0)


class TestIntMat:
    def test_parse_round_trip(self):
        A = example_e()
        assert IntMat.parse(A.to_text()) == A

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            IntMat.parse("2 2\n1 2 3")
        with pytest.raises(ValueError):
            IntMat.parse("")
        with pytest.raises(ValueError):
            IntMat.parse("2 2\n1 2 3 x")

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            IntMat.from_rows([[1, 2], [3]])

    def test_floats_rejected_not_truncated(self):
        for make in (lambda: IntMat.from_rows([[4.9, 5, 6]]), lambda: IntMat([[1, 2.0]]),
                     lambda: IntMat.row_vector([4.9, 5, 6])):
            with pytest.raises(TypeError):
                make()
        assert IntMat.from_rows([[True, 2]]) == IntMat.from_rows([[1, 2]])

    def test_zero_rows_keep_the_column_count(self):
        A = IntMat.parse("0 3\n")
        assert (A.nrows, A.ncols) == (0, 3)
        assert A == IntMat((), ncols=3) != IntMat.from_rows([])
        assert A.to_text() == "0 3\n"
        with pytest.raises(ValueError):
            IntMat([[1, 2]], ncols=3)

    def test_hash_distinguishes(self):
        a = IntMat.from_rows([[1, 2]])
        b = IntMat.from_rows([[1], [2]])
        assert a.content_hash() != b.content_hash()

    def test_column_and_mul(self):
        A = IntMat.from_rows([[1, 2, 3], [4, 5, 6]])
        assert A.column(2) == (2, 5)
        assert A.mul_vec((1, 1, -1)) == (0, 3)
        with pytest.raises(IndexError):
            A.column(4)


class TestKernelLattice:
    def test_two_entry_curve(self):
        lat = kernel_lattice(IntMat.row_vector([2, 3]))
        assert lat.vectors == ((3, -2),)

    def test_one_three_curve_membership_and_rank(self):
        A = IntMat.row_vector([4, 5, 6])
        lat = kernel_lattice(A)
        assert lat.rank == 2
        for v in lat.vectors:
            assert A.in_kernel(v)

    def test_saturation_on_boxed_points(self):
        # every boxed kernel point lies in the integer span of the basis
        for rows in ([[4, 5, 6]], [[3, 5, 7]], [[1, 1, 1, 1], [0, 1, 2, 3]]):
            A = IntMat.from_rows(rows)
            lat = kernel_lattice(A)
            for u in kernel_points_in_box(A, 20 if A.nrows == 1 else 6):
                assert lat.spans_same_lattice_as(list(lat.vectors) + [u])

    def test_example_e_span_matches_published_gale(self):
        lat = kernel_lattice(example_e())
        assert lat.rank == 4
        assert lat.spans_same_lattice_as(EXAMPLE_E_GALE_COLUMNS)

    def test_full_rank_square_has_empty_kernel(self):
        lat = kernel_lattice(IntMat.from_rows([[1, 0], [0, 1]]))
        assert lat.vectors == ()

    def test_determinism_and_row_transform_invariance(self):
        A = example_e()
        first = kernel_lattice(A)
        second = kernel_lattice(IntMat.from_rows([list(r) for r in EXAMPLE_E_ROWS]))
        assert first.vectors == second.vectors
        # unimodular row operations do not change the kernel, and the
        # canonical basis is a lattice invariant
        rng = random.Random(3)
        U = random_unimodular(rng, A.nrows)
        transformed = IntMat.from_rows(
            [
                [
                    sum(U[i][k] * A.rows[k][j] for k in range(A.nrows))
                    for j in range(A.ncols)
                ]
                for i in range(A.nrows)
            ]
        )
        assert kernel_lattice(transformed).vectors == first.vectors

    def test_basis_vectors_are_sign_canonical_and_sorted(self):
        lat = kernel_lattice(example_e())
        assert list(lat.vectors) == sorted(lat.vectors)
        for v in lat.vectors:
            assert v == sign_canonical(v)

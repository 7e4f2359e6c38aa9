import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graverkit import (
    IntMat,
    PreconditionError,
    bouquet_decomposition,
    d_map,
    gale_rows,
    graver_basis,
    is_simple,
    lambda_matrix,
)
from graverkit.bouquet import FREE, MIXED, NON_MIXED, Bouquet, BouquetDecomposition
from graverkit.linalg import sign_canonical

from _paper import (
    EXAMPLE_E_AB_ROWS,
    EXAMPLE_E_BOUQUET_MEMBERS,
    EXAMPLE_E_C_VECTORS,
    example_e,
    lift_curve_vector,
    lifting_decomposition,
    random_unimodular,
)


def reference_decomposition(A, _gale=None):
    """The bouquet decomposition by pairwise cross products and a union-find.

    This is the earlier grouping (every pair of non-free Gale rows tested for
    parallelism, components joined at their least column), kept as the
    reference `bouquet_decomposition` is held to.
    """
    n = A.ncols
    rows = gale_rows(A) if _gale is None else _gale
    free = [j for j in range(n) if all(x == 0 for x in rows[j])]
    nonfree = [j for j in range(n) if j not in free]
    parent = {j: j for j in nonfree}

    def find(j):
        while parent[j] != j:
            j = parent[j]
        return j

    def parallel(u, v):
        return all(u[p] * v[q] == u[q] * v[p] for p, q in itertools.combinations(range(len(u)), 2))

    for a, b in itertools.combinations(nonfree, 2):
        if parallel(rows[a], rows[b]):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    groups = {}
    for j in nonfree:
        groups.setdefault(find(j), []).append(j)

    with_columns = []
    for anchor in sorted(groups):
        members = sorted(groups[anchor])
        ell = next(l for l in range(len(rows[anchor])) if all(rows[j][l] for j in members))
        g = math.gcd(*(rows[j][ell] for j in members))
        eps = 1 if rows[anchor][ell] > 0 else -1
        coeffs = tuple(eps * rows[j][ell] // g for j in members)
        kind = MIXED if any(c < 0 for c in coeffs) else NON_MIXED
        col = tuple(sum(c * A.rows[t][j] for c, j in zip(coeffs, members)) for t in range(A.nrows))
        with_columns.append((Bouquet(tuple(j + 1 for j in members), kind, coeffs), col))
    with_columns.sort(key=lambda pair: (pair[1], pair[0].anchor))
    free_bouquet = Bouquet(tuple(j + 1 for j in free), FREE, (1,) * len(free)) if free else None
    a_matrix = IntMat([[col[t] for _, col in with_columns] for t in range(A.nrows)],
                      ncols=len(with_columns))
    return BouquetDecomposition(A, tuple(b for b, _ in with_columns), free_bouquet, a_matrix)


@st.composite
def matrices_with_repeated_columns(draw):
    """A small matrix, then extra columns that are nonzero multiples of its own."""
    nrows = draw(st.integers(1, 3))
    base = draw(st.integers(1, 4))
    cols = [draw(st.lists(st.integers(-3, 3), min_size=nrows, max_size=nrows))
            for _ in range(base)]
    for _ in range(draw(st.integers(0, 4))):
        col = draw(st.sampled_from(cols))
        factor = draw(st.sampled_from((-3, -2, -1, 1, 2, 3)))
        cols.insert(draw(st.integers(0, len(cols))), [factor * x for x in col])
    return IntMat([[col[t] for col in cols] for t in range(nrows)], ncols=len(cols))


class TestGaleRows:
    def test_full_rank_square(self):
        rows = gale_rows(IntMat.from_rows([[2, 1], [1, 1]]))
        assert rows == ((), ())

    def test_two_entry_curve(self):
        assert gale_rows(IntMat.row_vector([1, 1])) == ((1,), (-1,))

    def test_example_e_row_parallelism_pattern(self):
        rows = gale_rows(example_e())
        # rows 1 and 3 are parallel (one bouquet), rows 1 and 2 are not
        r1, r2, r3 = rows[0], rows[1], rows[2]
        assert all(r1[p] * r3[q] == r1[q] * r3[p] for p in range(4) for q in range(4))
        assert any(r1[p] * r2[q] != r1[q] * r2[p] for p in range(4) for q in range(4))


class TestExampleEDecomposition:
    def test_members_and_kinds(self):
        dec = bouquet_decomposition(example_e())
        assert [b.members for b in dec.bouquets] == EXAMPLE_E_BOUQUET_MEMBERS
        assert [b.kind for b in dec.bouquets] == [MIXED, MIXED, NON_MIXED, MIXED, MIXED]
        assert dec.free_bouquet is None
        assert sorted(dec.non_mixed_indices()) == [3]

    def test_c_vectors_exact(self):
        dec = bouquet_decomposition(example_e())
        assert list(dec.c_vectors()) == [tuple(c) for c in EXAMPLE_E_C_VECTORS]

    def test_bouquet_ideal_matrix(self):
        dec = bouquet_decomposition(example_e())
        assert [list(r) for r in dec.a_matrix.rows] == EXAMPLE_E_AB_ROWS

    def test_basis_invariance(self):
        A = example_e()
        base = bouquet_decomposition(A)
        rows = gale_rows(A)
        rng = random.Random(5)
        for _ in range(5):
            V = random_unimodular(rng, 4)
            transformed = tuple(
                tuple(sum(row[p] * V[p][q] for p in range(4)) for q in range(4))
                for row in rows
            )
            alt = bouquet_decomposition(A, _gale=transformed)
            assert alt.bouquets == base.bouquets
            assert alt.a_matrix == base.a_matrix


class TestAgainstReference:
    @pytest.mark.parametrize("A", [
        example_e(),
        IntMat.row_vector([4, 5, 6]),
        lambda_matrix([4, 5, 6], []).matrix,
        lambda_matrix([24, 40, 41, 60, 80], [3]).matrix,
        IntMat.from_rows([[1, 0]]),
        IntMat.from_rows([[1, -1]]),
    ], ids=["E", "curve", "lifting", "lifting-omega", "free", "unpointed"])
    def test_fixed(self, A):
        assert bouquet_decomposition(A) == reference_decomposition(A)

    @settings(max_examples=150, deadline=None)
    @given(matrices_with_repeated_columns())
    def test_repeated_and_scaled_columns(self, A):
        assert bouquet_decomposition(A) == reference_decomposition(A)

    @settings(max_examples=60, deadline=None)
    @given(matrices_with_repeated_columns(), st.integers(0, 2**32))
    def test_injected_gale_bases(self, A, seed):
        rows = gale_rows(A)
        k = len(rows[0])
        V = random_unimodular(random.Random(seed), k) if k else []
        transformed = tuple(
            tuple(sum(row[p] * V[p][q] for p in range(k)) for q in range(k)) for row in rows
        )
        dec = bouquet_decomposition(A, _gale=transformed)
        assert dec == reference_decomposition(A, _gale=transformed)
        assert dec == bouquet_decomposition(A)


class TestSimple:
    def test_monomial_curve_is_simple(self):
        A = IntMat.row_vector([4, 5, 6])
        assert is_simple(A)
        dec = bouquet_decomposition(A)
        assert all(len(b.members) == 1 and b.kind == NON_MIXED for b in dec.bouquets)
        assert dec.a_matrix == A

    def test_example_e_not_simple(self):
        assert not is_simple(example_e())

    def test_full_lifting_not_simple(self):
        lam = lambda_matrix([4, 5, 6], [])
        assert not is_simple(lam.matrix)
        dec = bouquet_decomposition(lam.matrix)
        assert [b.members for b in dec.bouquets] == [(1, 4), (2, 5), (3, 6)]
        assert all(b.kind == MIXED for b in dec.bouquets)

    def test_singleton_lifting_marks_omega(self):
        _, dec = lifting_decomposition(IntMat.row_vector([4, 5, 6]), frozenset({2}))
        assert {b.anchor for b in dec.bouquets if b.kind == NON_MIXED} == {2}


class TestDMap:
    def test_zero(self):
        dec = bouquet_decomposition(example_e())
        assert d_map(dec, (0, 0, 0, 0, 0)) == (0,) * 11

    def test_lifting_pattern(self):
        # remove the third coordinate of a four-entry curve: D sends
        # (u1,u2,u3,u4) to (u1,u2,u3,u4,-u1,-u2,-u4)
        Tm = IntMat.row_vector([5, 7, 9, 11])
        _, dec = lifting_decomposition(Tm, frozenset({3}))
        u = (7, -5, 0, 0)
        assert lift_curve_vector(dec, u) == (7, -5, 0, 0, -7, 5, 0)

    def test_example_e_circuit_images_in_kernel(self):
        # direct matrix-vector check for D images of curve circuits
        A = example_e()
        dec = bouquet_decomposition(A)
        for circuit in [(0, 41, -40, 0, 0), (5, -3, 0, 0, 0), (0, 2, 0, 0, -1)]:
            image = d_map(dec, circuit)
            assert A.in_kernel(image)

    def test_rejects_non_kernel_input(self):
        dec = bouquet_decomposition(example_e())
        with pytest.raises(PreconditionError):
            d_map(dec, (1, 0, 0, 0, 0))
        with pytest.raises(PreconditionError):
            d_map(dec, (0, 0, 0))

    def test_floats_rejected_not_truncated(self):
        # (5, -4, 0) is in Ker(4 5 6); int() would accept its float copy
        _, dec = lifting_decomposition(IntMat.row_vector([4, 5, 6]), frozenset({2}))
        with pytest.raises(TypeError):
            d_map(dec, (5.0, -4.0, 0.0))

    def test_graver_basis_is_d_image_of_bouquet_ideal_graver(self):
        A = example_e()
        dec = bouquet_decomposition(A)
        G_A = graver_basis(A).as_set()
        G_B = graver_basis(dec.a_matrix)
        images = {sign_canonical(d_map(dec, u)) for u in G_B.elements}
        assert images == G_A

import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from graverkit import (
    IntMat,
    PreconditionError,
    assert_pointed,
    graver_basis,
    indispensable_set,
    is_strongly_robust,
)
from graverkit.linalg import (
    is_semiconformal_sum,
    negative_part,
    positive_part,
    sign_canonical,
    vec_sub,
)
from graverkit.oracle import (
    dispensability_witness_by_enumeration,
    graver_by_enumeration,
    indispensable_by_enumeration,
    kernel_points_in_box,
)

from _paper import fresh_graver_basis
from test_acceptance import FIXED_2X4
from test_conformal_index import small_matrices


def T(*entries):
    return IntMat.row_vector(entries)


def reference_points(A, box):
    """Every nonzero kernel point of the box, by a loop over the whole box."""
    return [u for u in itertools.product(range(-box, box + 1), repeat=A.ncols)
            if any(u) and A.in_kernel(u)]


def reference_graver(A, box):
    """`graver_by_enumeration` as first written, kept as an independent reference.

    Every kernel point in the box is tested against every other one, O(P²).
    """
    points = kernel_points_in_box(A, box)
    parts = [(u, positive_part(u), negative_part(u)) for u in points]
    minimal = []
    for u, up, um in parts:
        dominated = False
        for v, vp, vm in parts:
            if v == u:
                continue
            if all(a <= b for a, b in zip(vp, up)) and all(a <= b for a, b in zip(vm, um)):
                dominated = True
                break
        if not dominated:
            minimal.append(u)
    for u in minimal:
        if max(abs(x) for x in u) == box:
            raise PreconditionError(
                f"oracle box {box} too small: minimal element {u} touches the boundary"
            )
    return tuple(sorted({sign_canonical(u) for u in minimal}))


def reference_indispensable(A, box, wbox):
    """The box enumerated once for the basis and once more per element."""
    return tuple(u for u in reference_graver(A, box)
                 if dispensability_witness_by_enumeration(A, u, wbox) is None)


def reference_witness(A, u, box):
    """The witness loop as first written: the definition tried at every box point."""
    for w in kernel_points_in_box(A, box):
        if w != u:
            v = vec_sub(u, w)
            if is_semiconformal_sum(u, v, w):
                return (v, w)
    return None


def outcome(f, *args):
    """The result of f(*args), or the type and message of what it raised."""
    try:
        return f(*args)
    except (ValueError, PreconditionError) as exc:
        return type(exc), str(exc)


class TestKernelEnumeration:
    def test_principal_lattice(self):
        pts = set(kernel_points_in_box(T(2, 3), 6))
        assert pts == {(3, -2), (-3, 2), (6, -4), (-6, 4)}

    def test_symmetric_under_negation(self):
        pts = set(kernel_points_in_box(T(4, 5, 6), 8))
        assert pts == {tuple(-x for x in u) for u in pts}
        for u in pts:
            assert 4 * u[0] + 5 * u[1] + 6 * u[2] == 0

    def test_zero_column(self):
        pts = set(kernel_points_in_box(IntMat.from_rows([[1, 0]]), 2))
        assert pts == {(0, 1), (0, -1), (0, 2), (0, -2)}

    def test_multirow(self):
        A = IntMat.from_rows([[1, 1, 1, 1], [0, 1, 2, 3]])
        pts = kernel_points_in_box(A, 4)
        assert pts
        for u in pts:
            assert A.in_kernel(u)
            assert any(u)
            assert max(abs(x) for x in u) <= 4

    def test_box_zero(self):
        assert kernel_points_in_box(T(2, 3), 0) == []

    @pytest.mark.parametrize("seed", range(30))
    def test_every_box_point_is_tried(self, seed):
        # 1-3 rows, 1-5 columns, entries -4..4; every third matrix has a
        # zero column, the last one in every other such matrix
        rng = random.Random(seed)
        m, n = rng.randint(1, 3), rng.randint(1, 5)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        if seed % 3 == 0:
            zero = n - 1 if seed % 2 == 0 else rng.randrange(n)
            for row in rows:
                row[zero] = 0
        A = IntMat.from_rows(rows)
        for box in range(6):
            assert kernel_points_in_box(A, box) == reference_points(A, box)


class TestGraverEnumeration:
    def test_boundary_detection(self):
        # Gr(3,5,7) has an entry equal to 7; a box of 7 is not certified
        with pytest.raises(PreconditionError):
            graver_by_enumeration(T(3, 5, 7), 7)
        assert graver_by_enumeration(T(3, 5, 7), 8)

    def test_agrees_with_completion(self):
        for entries in [(2, 3), (4, 5, 6), (6, 10, 15)]:
            A = T(*entries)
            assert set(graver_by_enumeration(A, 17)) == graver_basis(A).as_set()


class TestIndispensabilityEnumeration:
    def test_circuit_witness_in_b1_case(self):
        A = T(6, 10, 15)
        witness = dispensability_witness_by_enumeration(A, (5, -3, 0), 20)
        assert witness is not None
        v, w = witness
        assert tuple(a + b for a, b in zip(v, w)) == (5, -3, 0)

    def test_full_support_generator_has_no_witness(self):
        A = T(3, 5, 7)
        assert dispensability_witness_by_enumeration(A, (4, -1, -1), 20) is None

    def test_kernel_membership_required(self):
        with pytest.raises(PreconditionError):
            dispensability_witness_by_enumeration(T(3, 5, 7), (1, 0, 0), 10)

    def test_floats_rejected_not_truncated(self):
        with pytest.raises(TypeError):
            dispensability_witness_by_enumeration(T(3, 5, 7), (4.0, -1.0, -1.0), 10)

    @pytest.mark.parametrize("f, args", [
        (kernel_points_in_box, (3.5,)),
        (graver_by_enumeration, (12.0,)),
        (indispensable_by_enumeration, (3.5, 20)),  # max(3.5, 20) is the int 20
        (indispensable_by_enumeration, (12.0, 20)),
        (indispensable_by_enumeration, (12, 20.0)),
        (dispensability_witness_by_enumeration, ((4, -1, -1), 20.0)),
    ])
    def test_float_boxes_rejected(self, f, args):
        with pytest.raises(TypeError):
            f(T(3, 5, 7), *args)

    def test_indispensable_set_of_3_5_7(self):
        assert set(indispensable_by_enumeration(T(3, 5, 7), 12, 20)) == {
            (1, -2, 1),
            (3, 1, -2),
            (4, -1, -1),
        }


CURVE_SAMPLE = random.Random(7).sample(
    list(itertools.combinations_with_replacement(range(1, 16), 3)), 12)
# box < wbox, box = wbox, box > wbox; most sampled bases fit the first two
BOXES = [(15, 17), (16, 16), (16, 12)]


class TestAgainstReferences:
    """Both oracles give the results and raise the errors of the references."""

    @pytest.mark.parametrize("box, wbox", BOXES)
    def test_curve_sample(self, box, wbox):
        for entries in CURVE_SAMPLE:
            A = T(*entries)
            assert outcome(graver_by_enumeration, A, box) == outcome(reference_graver, A, box)
            assert outcome(indispensable_by_enumeration, A, box, wbox) == outcome(
                reference_indispensable, A, box, wbox)

    @pytest.mark.parametrize("rows", FIXED_2X4)
    def test_fixed_2x4(self, rows):
        A = IntMat.from_rows(rows)
        assert graver_by_enumeration(A, 12) == reference_graver(A, 12)
        assert indispensable_by_enumeration(A, 12, 12) == reference_indispensable(A, 12, 12)

    @pytest.mark.parametrize("rows, box, wbox", [
        ([[2, 0, 3]], 4, 6),  # a zero column: e2 is a Graver element
        ([[1, 2, 0, 3], [0, 1, 0, 1]], 5, 5),
        ([[3, 5, 7]], 7, 20),  # box too small: an element touches the boundary
        ([[3, 5, 7]], 12, 5),  # a witness box smaller than the Graver box
        ([[2, 3]], 2, 4),  # the one element, (3, -2), lies outside the Graver box
        ([[3, 5, 7]], -1, 20),  # a negative box or wbox: ValueError
        ([[3, 5, 7]], 12, -1),
    ])
    def test_edge_cases(self, rows, box, wbox):
        A = IntMat.from_rows(rows)
        assert outcome(graver_by_enumeration, A, box) == outcome(reference_graver, A, box)
        assert outcome(indispensable_by_enumeration, A, box, wbox) == outcome(
            reference_indispensable, A, box, wbox)

    @pytest.mark.parametrize("entries", CURVE_SAMPLE)
    def test_curve_sample_points(self, entries):
        # last entries up to 15: the second-to-last coordinate steps through
        # congruence classes other than 0, which small entries rarely need
        A = T(*entries)
        assert kernel_points_in_box(A, 10) == reference_points(A, 10)

    @pytest.mark.parametrize("A, wbox", [(T(*e), 16) for e in CURVE_SAMPLE]
                             + [(IntMat.from_rows(rows), 12) for rows in FIXED_2X4])
    def test_first_witness_by_definition(self, A, wbox):
        for g in fresh_graver_basis(A).elements:
            for u in (g, tuple(-x for x in g)):
                assert dispensability_witness_by_enumeration(A, u, wbox) == reference_witness(
                    A, u, wbox)

    def test_one_enumeration_serves_every_smaller_box(self):
        # the enumeration is lexicographic, so filtering it to a smaller box
        # gives that box's own enumeration, in the same order
        for A in (T(4, 5, 6), IntMat.from_rows(FIXED_2X4[1]), IntMat.from_rows([[2, 0, 3]])):
            points = kernel_points_in_box(A, 9)
            assert points == sorted(points)
            for box in range(10):
                inside = [u for u in points if max(map(abs, u)) <= box]
                assert inside == kernel_points_in_box(A, box)


BOX = 6


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_graver_by_enumeration_is_the_graver_basis_in_the_box(A):
    G = fresh_graver_basis(A)
    if any(max(map(abs, g)) == BOX for g in G.elements):
        with pytest.raises(PreconditionError):
            graver_by_enumeration(A, BOX)
    else:
        inside = {g for g in G.elements if max(map(abs, g)) <= BOX}
        assert set(graver_by_enumeration(A, BOX)) == inside


# 2x4 matrices with a positive first row: its dot product with a nonzero
# vector >= 0 is positive, so every draw is pointed; about one in nine has a
# Graver element outside the box, and about one in seven is strongly robust
pointed_2x4 = st.tuples(st.lists(st.integers(1, 2), min_size=4, max_size=4),
                        st.lists(st.integers(-2, 2), min_size=4, max_size=4))


@settings(max_examples=60, deadline=None)
@given(pointed_2x4)
def test_indispensable_by_enumeration_is_the_indispensable_set(rows):
    A = IntMat.from_rows(rows)
    G = fresh_graver_basis(A)
    assume(all(max(map(abs, g)) < BOX for g in G.elements) and assert_pointed(A, G))
    S = indispensable_by_enumeration(A, BOX, BOX)
    assert set(S) == indispensable_set(A, G=G).as_set()
    assert is_strongly_robust(A, G=G).strongly_robust == (S == graver_by_enumeration(A, BOX))

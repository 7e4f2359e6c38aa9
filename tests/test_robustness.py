import itertools
import math
import random

import pytest

from graverkit import (
    IntMat,
    PreconditionError,
    circuits,
    graver_basis,
    indispensable_set,
    is_indispensable,
    is_strongly_robust,
    lambda_matrix,
)
from graverkit.linalg import (
    is_semiconformal_sum,
    negative_part,
    positive_part,
    sign_canonical,
    vec_add,
    vec_sub,
)
from graverkit.oracle import dispensability_witness_by_enumeration
from graverkit.robustness import dispensability_witness

from _paper import GEN_MATRIX_ROWS, example_e


def T(*entries):
    return IntMat.row_vector(entries)


def pairwise_witness(u, G):
    """Reference witness search: probe every w in +-G as either summand."""
    u = sign_canonical(u)
    zero = (0,) * len(u)
    for w in G.full_set():
        if w == u:
            continue
        v = vec_sub(u, w)
        if v == zero:
            continue
        if is_semiconformal_sum(u, v, w):
            return (v, w)
        if is_semiconformal_sum(u, w, v):
            return (w, v)
    return None


class TestIndispensable:
    def test_circuits_of_generic_curve_are_dispensable(self):
        A = T(3, 5, 7)
        G = graver_basis(A)
        for c in circuits(A):
            assert not is_indispensable(c, G)

    def test_full_support_generators_are_indispensable(self):
        # the three minimal generators of degrees 12, 10, 14
        G = graver_basis(T(3, 5, 7))
        for u in [(4, -1, -1), (1, -2, 1), (3, 1, -2)]:
            assert is_indispensable(u, G)

    def test_single_betti_degree_case_has_no_indispensable(self):
        A = T(6, 10, 15)
        G = graver_basis(A)
        degree = lambda u: sum(a * b for a, b in zip(positive_part(u), (6, 10, 15)))
        assert {degree(u) for u in G.elements} == {30}
        for u in G.elements:
            assert not is_indispensable(u, G)
        assert indispensable_set(A).elements == ()

    def test_verdict_shared_with_negation(self):
        G = graver_basis(T(3, 5, 7))
        for u in G.elements:
            negated = tuple(-x for x in u)
            assert is_indispensable(u, G) == is_indispensable(negated, G)

    def test_requires_membership(self):
        G = graver_basis(T(3, 5, 7))
        with pytest.raises(PreconditionError):
            is_indispensable((1, 1, 1), G)

    @pytest.mark.parametrize("A", [T(3, 5, 7), lambda_matrix((3, 5, 7), (1,)).matrix],
                             ids=["curve", "lifting"])
    def test_requires_membership_above_an_element(self, A):
        # kernel vectors above an element of +-G that are not in it: each
        # 2g, and each conformal sum g + h of two elements. Some have one
        # row of +-G below them, others more, and every one is refused
        G = graver_basis(A)
        signed = sorted(G.full_set())
        above = [tuple(2 * x for x in g) for g in G.elements]
        above += [vec_add(g, h) for g, h in itertools.combinations(signed, 2)
                  if g != tuple(-x for x in h) and all(a * b >= 0 for a, b in zip(g, h))]
        index = G.signed_index
        rows = {index.below(positive_part(u) + negative_part(u)).bit_count() for u in above}
        assert 1 in rows and max(rows) > 1
        for u in above:
            assert A.in_kernel(u)
            for check in (is_indispensable, dispensability_witness):
                with pytest.raises(PreconditionError):
                    check(u, G)

    def test_witness_soundness(self):
        for entries in [(3, 5, 7), (6, 10, 15), (4, 5, 6), (7, 15, 20)]:
            A = T(*entries)
            G = graver_basis(A)
            zero = (0,) * len(entries)
            for u in G.elements:
                witness = dispensability_witness(u, G)
                if witness is None:
                    continue
                v, w = witness
                assert v != zero and w != zero
                assert A.in_kernel(v) and A.in_kernel(w)
                assert is_semiconformal_sum(u, v, w)

    def test_witnesses_equal_pairwise_reference(self):
        matrices = [example_e(), IntMat.from_rows(GEN_MATRIX_ROWS)]
        for entries in [(4, 5, 6), (3, 5, 7), (6, 8, 11), (5, 7, 9, 11)]:
            for omega in [(), (1,), (2,), (1, 2)]:
                matrices.append(lambda_matrix(entries, omega).matrix)
        for entries in itertools.combinations(range(2, 10), 3):
            if math.gcd(*entries) == 1:
                matrices.append(T(*entries))
        for A in matrices:
            G = graver_basis(A)
            for u in G.elements:
                assert dispensability_witness(u, G) == pairwise_witness(u, G), u

    def test_agrees_with_enumeration_oracle(self):
        rng = random.Random(91)
        for _ in range(12):
            entries = tuple(sorted(rng.randint(2, 12) for _ in range(3)))
            A = T(*entries)
            G = graver_basis(A)
            for u in G.elements:
                fast = is_indispensable(u, G)
                slow = dispensability_witness_by_enumeration(A, u, 20) is None
                assert fast == slow, (entries, u)

    def test_at_most_one_indispensable_circuit(self):
        for entries in itertools.combinations(range(3, 16), 3):
            if math.gcd(*entries) != 1:
                continue
            A = T(*entries)
            G = graver_basis(A)
            count = sum(1 for c in circuits(A) if is_indispensable(c, G))
            assert count <= 1, entries


class TestStronglyRobust:
    def test_example_e(self):
        cert = is_strongly_robust(example_e())
        assert cert.strongly_robust
        assert cert.graver_size == cert.indispensable_size
        assert cert.witness is None

    def test_monomial_curves_never_strongly_robust(self):
        for entries in [(4, 5, 6), (3, 5, 7), (2, 3, 5, 7)]:
            cert = is_strongly_robust(T(*entries))
            assert not cert.strongly_robust
            u, v, w = cert.witness
            assert is_semiconformal_sum(u, v, w)

    def test_full_lawrence_lifting_strongly_robust(self):
        lam = lambda_matrix([4, 5, 6], [])
        assert is_strongly_robust(lam.matrix).strongly_robust

    def test_contained_in_graver_and_equality_iff_robust(self):
        for entries in [(4, 5, 6), (6, 10, 15)]:
            A = T(*entries)
            S = indispensable_set(A)
            G = graver_basis(A)
            assert S.as_set() <= G.as_set()
            assert (S.as_set() == G.as_set()) == is_strongly_robust(A).strongly_robust

    def test_not_pointed_rejected(self):
        with pytest.raises(PreconditionError):
            is_strongly_robust(T(1, -1))
        with pytest.raises(PreconditionError):
            indispensable_set(T(1, -1))

    def test_lifted_curve_indispensable_set_is_whole_graver(self):
        lam = lambda_matrix([4, 5, 6], [2])
        S = indispensable_set(lam.matrix)
        assert S.as_set() == graver_basis(lam.matrix).as_set()

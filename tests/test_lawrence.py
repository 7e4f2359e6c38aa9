import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graverkit import (
    GenLawrenceSpec,
    IntMat,
    PreconditionError,
    assert_pointed,
    bouquet_decomposition,
    build_gen_lawrence,
    extended_gcd_multi,
    graver_basis,
    is_strongly_robust,
    kernel_lattice,
    reconstruct_gen_lawrence,
    robust_complex,
)
from graverkit.lawrence import _xgcd_min

from _paper import (
    EXAMPLE_E_APRIME_ROWS,
    EXAMPLE_E_PERMUTATION,
    GEN_C_VECTORS,
    GEN_LAMBDAS,
    GEN_MATRIX_ROWS,
    GEN_T,
    T_BIG,
    example_e,
)


def xgcd_min_by_euclid(a, b):
    """The extended-Euclid loop `_xgcd_min` used before it took `pow`; the reference."""
    if a == 0 and b == 0:
        return (0, 0, 0)
    if b == 0:
        return (abs(a), 1 if a > 0 else -1, 0)
    if a == 0:
        return (abs(b), 0, 1 if b > 0 else -1)
    g = math.gcd(a, b)
    old_r, r = a, b
    old_s, s = 1, 0
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
    x = old_s if old_r > 0 else -old_s
    period = abs(b) // g
    x %= period
    if 2 * x > period:
        x -= period
    return (g, x, (g - a * x) // b)


@pytest.fixture
def graver_calls(monkeypatch):
    """Every call of `graver_basis` through any graverkit module, recorded."""
    calls = []
    for name, module in list(sys.modules.items()):
        real = getattr(module, "graver_basis", None)
        if name.startswith("graverkit") and real is not None:
            def spy(A, *args, _real=real, **kwargs):
                calls.append(A)
                return _real(A, *args, **kwargs)
            monkeypatch.setattr(module, "graver_basis", spy)
    return calls


class TestExtendedGcd:
    def test_pair_identities(self):
        rng = random.Random(13)
        for _ in range(200):
            a = rng.randint(-50, 50)
            b = rng.randint(-50, 50)
            g, x, y = _xgcd_min(a, b)
            assert g == math.gcd(a, b)
            assert a * x + b * y == g

    def test_pow_matches_euclid_loop(self):
        for a in range(-60, 61):
            for b in range(-60, 61):
                assert _xgcd_min(a, b) == xgcd_min_by_euclid(a, b), (a, b)

    def test_printed_relations(self):
        assert extended_gcd_multi((2, -1, -2023)) == (0, -1, 0)
        lam = extended_gcd_multi((5, 3, -2029))
        assert sum(l * c for l, c in zip(lam, (5, 3, -2029))) == 1

    def test_single_entry(self):
        assert extended_gcd_multi((1,)) == (1,)
        assert extended_gcd_multi((-1,)) == (-1,)

    def test_reconstruction_lambdas(self):
        # these produce the published generalized Lawrence form of Example E
        assert extended_gcd_multi((1, -3)) == (1, 0)
        assert extended_gcd_multi((6, -5)) == (1, 1)
        assert extended_gcd_multi((1, 2)) == (1, 0)
        assert extended_gcd_multi((3, -2, 7)) == (1, 1, 0)
        assert extended_gcd_multi((1, -1)) == (1, 0)

    def test_random_identity(self):
        rng = random.Random(29)
        for _ in range(200):
            m = rng.randint(1, 5)
            c = tuple(rng.choice([-7, -5, -3, -2, -1, 1, 2, 3, 5, 7, 11]) for _ in range(m))
            if math.gcd(*c) != 1:
                continue
            lam = extended_gcd_multi(c)
            assert sum(l * e for l, e in zip(lam, c)) == 1
            assert extended_gcd_multi(c) == lam  # deterministic

    def test_gcd_must_be_one(self):
        with pytest.raises(PreconditionError):
            extended_gcd_multi((2, 4))
        with pytest.raises(PreconditionError):
            extended_gcd_multi(())


class TestBuild:
    def test_printed_generator_example(self):
        spec = GenLawrenceSpec(T=GEN_T, c_vectors=GEN_C_VECTORS, lambda_vectors=GEN_LAMBDAS)
        built = build_gen_lawrence(spec)
        assert [list(r) for r in built.matrix.rows] == GEN_MATRIX_ROWS
        assert built.shape == (8, 10)
        assert is_strongly_robust(built.matrix).strongly_robust

    def test_classical_doubling(self):
        spec = GenLawrenceSpec(T=(4, 5, 6), c_vectors=((1, -1), (1, -1), (1, -1)))
        built = build_gen_lawrence(spec)
        assert is_strongly_robust(built.matrix).strongly_robust

    def test_two_entry_degenerate_blocks(self):
        spec = GenLawrenceSpec(T=(2, 3), c_vectors=((1,), (1,)))
        built = build_gen_lawrence(spec)
        assert built.matrix == IntMat.row_vector([2, 3])

    def test_hypothesis_violation_rejected(self):
        # all-positive coefficient vector away from the vertex {2}
        spec = GenLawrenceSpec(T=(4, 5, 6), c_vectors=((1, 2), (1, -1), (1, -1)))
        with pytest.raises(PreconditionError, match="not covered"):
            build_gen_lawrence(spec)
        built = build_gen_lawrence(spec, check_hypothesis=False)
        assert built.matrix.ncols == 6

    def test_all_positive_allowed_at_vertex(self):
        spec = GenLawrenceSpec(T=(4, 5, 6), c_vectors=((2, -1), (3, 1, 2), (1, -1)))
        built = build_gen_lawrence(spec)
        assert is_strongly_robust(built.matrix).strongly_robust

    def test_spec_validation(self):
        with pytest.raises(PreconditionError):
            GenLawrenceSpec(T=(4, 5), c_vectors=((1, -1),)).validate()
        with pytest.raises(PreconditionError):
            GenLawrenceSpec(T=(4, 5), c_vectors=((1, 0), (1,))).validate()
        with pytest.raises(PreconditionError):
            GenLawrenceSpec(T=(4, 5), c_vectors=((-1, -2), (1,))).validate()
        with pytest.raises(PreconditionError):
            GenLawrenceSpec(T=(4, 5), c_vectors=((2, -2), (1,))).validate()
        with pytest.raises(PreconditionError):
            GenLawrenceSpec(
                T=(4, 5), c_vectors=((1, -1), (1,)), lambda_vectors=((1, 1), (1,))
            ).validate()

    def test_float_entries_rejected_not_truncated(self):
        for fields in ({"T": (4.9, 5, 6), "c_vectors": ((1, -1),) * 3},
                       {"T": (4, 5, 6), "c_vectors": ((1, -1), (1, 2.5), (1, -3))},
                       {"T": (4, 5, 6), "c_vectors": ((1, -1),) * 3,
                        "lambda_vectors": ((1, 0.0),) * 3}):
            with pytest.raises(TypeError):
                GenLawrenceSpec(**fields)

    def test_lambda_identity_enforced(self):
        spec = GenLawrenceSpec(
            T=GEN_T, c_vectors=GEN_C_VECTORS,
            lambda_vectors=((1, 0, 0), (-1, 0, 1, 1), (2, -3, 0)),
        )
        with pytest.raises(PreconditionError):
            build_gen_lawrence(spec)


class TestReconstruct:
    def test_example_e_published_form(self):
        rec = reconstruct_gen_lawrence(example_e())
        assert rec.spec.T == T_BIG
        assert rec.column_permutation == EXAMPLE_E_PERMUTATION
        assert [list(r) for r in rec.matrix.rows] == EXAMPLE_E_APRIME_ROWS

    def test_kernel_preserved_up_to_permutation(self):
        A = example_e()
        rec = reconstruct_gen_lawrence(A)
        lat = kernel_lattice(A)
        permuted = [
            tuple(v[p - 1] for p in rec.column_permutation) for v in lat.vectors
        ]
        assert kernel_lattice(rec.matrix).spans_same_lattice_as(permuted)

    def test_round_trip_from_build(self):
        spec = GenLawrenceSpec(T=GEN_T, c_vectors=GEN_C_VECTORS, lambda_vectors=GEN_LAMBDAS)
        built = build_gen_lawrence(spec)
        rec = reconstruct_gen_lawrence(built.matrix)
        assert rec.spec.T == GEN_T
        assert rec.spec.c_vectors == GEN_C_VECTORS

    def test_bouquet_fidelity_of_build(self):
        spec = GenLawrenceSpec(T=GEN_T, c_vectors=GEN_C_VECTORS, lambda_vectors=GEN_LAMBDAS)
        dec = bouquet_decomposition(build_gen_lawrence(spec).matrix)
        assert tuple(b.c_restriction for b in dec.bouquets) == GEN_C_VECTORS
        top = dec.a_matrix.rows[0]
        g = math.gcd(*top)
        assert tuple(x // g for x in top) == tuple(x // math.gcd(*GEN_T) for x in GEN_T)

    def test_simple_curve_is_fixed_point(self):
        A = IntMat.row_vector([4, 5, 6])
        rec = reconstruct_gen_lawrence(A)
        assert rec.matrix == A
        assert rec.column_permutation == (1, 2, 3)

    def test_graver_sizes_match_through_reconstruction(self):
        A = example_e()
        rec = reconstruct_gen_lawrence(A)
        assert len(graver_basis(rec.matrix)) == len(graver_basis(A))

    def test_non_curve_bouquet_ideal_rejected(self):
        A = IntMat.from_rows([[1, 1, 1, 1], [0, 1, 2, 3]])
        with pytest.raises(PreconditionError, match="not a monomial curve"):
            reconstruct_gen_lawrence(A)

    def test_free_columns_rejected(self):
        A = IntMat.from_rows([[1, 0]])
        with pytest.raises(PreconditionError, match="free"):
            reconstruct_gen_lawrence(A)

    def test_unpointed_rejected(self):
        with pytest.raises(PreconditionError):
            reconstruct_gen_lawrence(IntMat.from_rows([[1, -1]]))

    def test_no_graver_basis_is_computed(self, graver_calls):
        spec = GenLawrenceSpec(T=GEN_T, c_vectors=GEN_C_VECTORS, lambda_vectors=GEN_LAMBDAS)
        built = build_gen_lawrence(spec)
        graver_calls.clear()
        for A in (example_e(), built.matrix, IntMat.row_vector([4, 5, 6])):
            reconstruct_gen_lawrence(A)
        assert graver_calls == []


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 2).flatmap(lambda r: st.lists(
    st.lists(st.integers(-3, 3), min_size=4, max_size=4), min_size=r, max_size=r)))
def test_unpointed_matrices_are_rejected(rows):
    # the free-column check and the curve extraction imply pointedness
    A = IntMat.from_rows(rows)
    if not assert_pointed(A):
        with pytest.raises(PreconditionError):
            reconstruct_gen_lawrence(A)


@st.composite
def gen_lawrence_specs(draw):
    """A monomial curve T in A^3 or A^4 and one coefficient vector per entry:
    positive at a drawn set of indices, mixed (length 2 or 3) elsewhere."""
    s = draw(st.sampled_from([3, 4]))
    index = st.integers(1, s)
    # omega is a singleton, as a vertex is, about half the time
    omega = draw(index.map(lambda i: {i}) | st.sets(index, max_size=s))
    T = draw(st.tuples(*[st.integers(2, 9)] * s).filter(lambda t: math.gcd(*t) == 1))
    positive = st.integers(1, 3)
    mixed = st.integers(1, 2).flatmap(
        lambda m: st.tuples(positive, *[st.integers(-3, 3).filter(bool)] * m)
    ).filter(lambda c: min(c) < 0)
    plain = st.integers(1, 3).flatmap(lambda m: st.tuples(*[positive] * m))
    cs = [draw((plain if j in omega else mixed).filter(lambda c: math.gcd(*c) == 1))
          for j in range(1, s + 1)]
    return GenLawrenceSpec(T=T, c_vectors=tuple(cs))


@settings(max_examples=80, deadline=None)
@given(gen_lawrence_specs())
def test_generated_matrices_obey_the_theorem(spec):
    # I_A is strongly robust iff its non-mixed bouquets form a face of Delta_T,
    # which for a monomial curve is {} or the one vertex; and A comes back as
    # the generalized Lawrence matrix of T and its c vectors
    built = build_gen_lawrence(spec, check_hypothesis=False)
    omega = {j for j, c in enumerate(spec.c_vectors, start=1) if min(c) > 0}
    face = not omega or omega == {robust_complex(spec.T).vertex()}
    assert is_strongly_robust(built.matrix).strongly_robust == face
    back = reconstruct_gen_lawrence(built.matrix).spec
    assert sorted(zip(back.T, back.c_vectors)) == sorted(zip(spec.T, spec.c_vectors))

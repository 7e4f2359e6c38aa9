"""Shared fixed data for the test suite: matrices, expected values and helpers."""

import heapq
import itertools
import math

import pytest

import graverkit.complexes as complexes_module
import graverkit.graver as graver_module
from graverkit import (
    CurveKind,
    IntMat,
    bouquet_decomposition,
    classify_curve3,
    d_map,
    graver_basis,
    lambda_matrix,
    robust_complex,
)
from graverkit.graver import DEFAULT_BUDGET, _lattice_graver
from graverkit.linalg import (
    kernel_lattice,
    negative_part,
    one_norm,
    positive_part,
    sign_canonical,
    vec_add,
    vec_neg,
    vec_sub,
)

# 8x11 matrix whose toric ideal is strongly robust with bouquet ideal the
# monomial curve (24, 40, 41, 60, 80)
EXAMPLE_E_ROWS = [
    [36, 60, 4, 40, 64, 39, 1, 72, 84, 12, 4],
    [12, 20, 4, 8, 24, -2, 1, 12, 4, 0, 4],
    [36, 80, 4, 48, 88, 39, 1, 84, 84, 12, 4],
    [60, 100, 12, 16, 112, 33, 4, 120, 104, 36, 24],
    [24, 40, 8, 24, 48, -4, 2, 36, 8, 0, 8],
    [12, 20, 4, -12, 24, -2, 1, 24, 8, 12, 8],
    [12, 20, 4, -12, 24, -2, 1, 24, 12, 12, 12],
    [24, 40, 0, 4, 40, 39, 1, 60, 84, 24, 4],
]

# its published 11x4 Gale transform (columns span the kernel lattice)
EXAMPLE_E_GALE_COLUMNS = [
    (5, -18, -15, 0, 15, 0, 0, 0, 0, 0, 0),
    (40, -162, -120, 6, 135, 0, 0, -4, 0, 14, 0),
    (779, -3198, -2337, 123, 2665, 4, 8, -82, 0, 287, 0),
    (-13642, 56004, 40926, -2154, -46670, -72, -144, 1436, 1, -5026, -1),
]

EXAMPLE_E_BOUQUET_MEMBERS = [(1, 3), (2, 5), (6, 7), (4, 8, 10), (9, 11)]

EXAMPLE_E_C_VECTORS = [
    (1, 0, -3, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 6, 0, 0, -5, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 1, 2, 0, 0, 0, 0),
    (0, 0, 0, 3, 0, 0, 0, -2, 0, 7, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 1, 0, -1),
]

T_BIG = (24, 40, 41, 60, 80)

EXAMPLE_E_AB_ROWS = [
    list(T_BIG),
    [0, 0, 0, 0, 0],
    list(T_BIG),
    list(T_BIG),
    [0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0],
    list(T_BIG),
]

# generalized Lawrence form of Example E, up to the permutation phi below
EXAMPLE_E_APRIME_ROWS = [
    [24, 0, 40, 40, 41, 0, 60, 60, 0, 80, 0],
    [3, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 5, 6, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, -2, 1, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 2, 3, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, -7, 0, 3, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1],
]

EXAMPLE_E_PERMUTATION = (1, 3, 2, 5, 6, 7, 4, 8, 10, 9, 11)

# strongly robust generator example over T = (4, 5, 6)
GEN_T = (4, 5, 6)
GEN_C_VECTORS = ((2, -1, -2023), (10, 2024, 7, 4), (5, 3, -2029))
GEN_LAMBDAS = ((0, -1, 0), (-1, 0, 1, 1), (2, -3, 0))
GEN_MATRIX_ROWS = [
    [0, -4, 0, -5, 0, 5, 5, 12, -18, 0],
    [1, 2, 0, 0, 0, 0, 0, 0, 0, 0],
    [2023, 0, 2, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, -2024, 10, 0, 0, 0, 0, 0],
    [0, 0, 0, -7, 0, 10, 0, 0, 0, 0],
    [0, 0, 0, -4, 0, 0, 10, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, -3, 5, 0],
    [0, 0, 0, 0, 0, 0, 0, 2029, 0, 5],
]

# classification table: T -> (c vector, kind string)
CLASSIFICATION_TABLE = [
    ((7, 15, 20), (5, 4, 3), "CIOn(1)"),
    ((5, 6, 15), (3, 5, 1), "CIOn(2)"),
    ((6, 8, 11), (4, 3, 2), "CIOn(3)"),
    ((6, 10, 15), (5, 3, 2), "CIOnAll"),
    ((3, 5, 7), (4, 2, 2), "NotCI"),
]


def example_e() -> IntMat:
    return IntMat.from_rows(EXAMPLE_E_ROWS)


def empty_graver_memos(monkeypatch):
    """Give `graver_basis` both memos, and `robust_complex` its memo, empty,
    for as long as `monkeypatch` holds."""
    monkeypatch.setattr(graver_module, "_GRAVER_MEMO", {})
    monkeypatch.setattr(graver_module, "_LATTICE_MEMO", {})
    monkeypatch.setattr(complexes_module, "_COMPLEX_MEMO", {})


def _complete_lattice(basis, n, budget):
    """Canonical sorted Gr of the lattice with this basis by one Pottier
    completion of the whole lattice, the reference the engines of
    `graver_basis` are held to, under a fresh `_Spent`; logged as
    `completion:` and its counters.

    Seeded with both signs of the basis, it pairs one sign of each stored
    element with every row stored before it that cancels it somewhere, by a
    plain tuple loop, and queues each sign-canonical sum not queued before.
    It pops by one-norm and reduces each popped sum to a normal form, one
    reducer at a time, until it is a stored row, as its own set of the
    stored rows tells: the lowest set bit of `ConformalIndex.below` gives
    the first stored row below it, which is subtracted, and the query is
    made again. A normal form that is not stored is stored with its
    negation and paired at once.
    At the fixpoint the conformally minimal stored rows are Gr. `scans`
    counts the queries; the clock is read before every pop and every row of
    the minimality filter.
    """
    if not basis:
        return []
    spent = graver_module._Spent(budget)
    index = graver_module.ConformalIndex(n)
    seen, stored, heap = {(0,) * n}, set(), []
    generated = pops = scans = subtractions = inserts = 0

    def insert(v):
        for w in (v, vec_neg(v)):
            index.add(w)
            stored.add(w)

    def pair_from(first):
        nonlocal generated
        for i in range(first, len(index), 2):
            v = index.vectors[i]
            for g in index.vectors[:i]:
                if any(a * b < 0 for a, b in zip(v, g)):
                    s = sign_canonical(vec_add(v, g))
                    if s not in seen:
                        seen.add(s)
                        generated += 1
                        heapq.heappush(heap, (one_norm(s), s))

    for b in basis:
        insert(b)
    pair_from(0)
    while heap:
        spent.check(generated)
        _, s = heapq.heappop(heap)
        pops += 1
        while s not in stored:
            hits = index.below(positive_part(s) + negative_part(s))
            scans += 1
            if not hits:
                first = len(index)
                insert(s)
                pair_from(first)
                inserts += 1
                break
            s = vec_sub(s, index.vectors[(hits & -hits).bit_length() - 1])
            subtractions += 1
    kept = []
    for i in range(0, len(index), 2):  # u is minimal iff -u is
        spent.check(generated)
        if index.dominators(i) == 1:
            kept.append(sign_canonical(index.vectors[i]))
    kept.sort()
    graver_module.log.debug("completion: %s", dict(
        pops=pops, scans=scans, subtractions=subtractions, inserts=inserts,
        generated=generated, index=len(index), kept=len(kept)))
    return kept


def fiber(T, b):
    """The monomials of degree b of the 1x3 curve T: every x in N^3 with T.x = b."""
    a1, a2, a3 = T
    found = []
    for x1 in range(b // a1 + 1):
        for x2 in range((b - a1 * x1) // a2 + 1):
            rest = b - a1 * x1 - a2 * x2
            if rest % a3 == 0:
                found.append((x1, x2, rest // a3))
    return found


def fiber_components(monomials):
    """The number of connected components of the graph on these monomials
    with an edge between two that share a variable."""
    parent = list(range(len(monomials)))

    def root(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for v in range(len(monomials[0]) if monomials else 0):
        holders = [k for k, x in enumerate(monomials) if x[v]]
        for k in holders[1:]:
            parent[root(k)] = root(holders[0])
    return len({root(k) for k in range(len(monomials))})


def betti_degrees(T):
    """{b: the number of minimal generators of I_T of degree b} over the Betti
    degrees b of the 1x3 curve T (gcd 1), counted from the definition.

    The minimal generators of I_T of degree b number (components of G_b) - 1,
    G_b being the graph on the monomials of degree b with an edge between two
    that share a variable (Diaconis and Sturmfels, Ann. Statist. 26, 1998;
    Charalambous, Katsabekis and Thoma, Proc. AMS 135, 2007); b is a Betti
    degree when that is positive. Every Betti degree is T.g+ for some g in
    Gr(T): take u, v of degree b in different components, with u - v
    conformally minimal among such pairs. Were u - v = g + h a proper
    conformal sum, w = u - g >= 0 (as g+ <= u) would have degree b and lie
    outside the component of u or of v, so (u, w) or (w, v) would be a pair
    with a smaller difference, g or h. So u - v is primitive. Its ends share
    no variable, so u = (u - v)+, and b = T.(u - v)+. The candidates are
    therefore the T.g+ over Gr(T), read from `graver_basis`.
    """
    G = graver_basis(IntMat.row_vector(T))
    candidates = {sum(t * x for t, x in zip(T, g) if x > 0) for g in G}
    counts = {b: fiber_components(fiber(T, b)) - 1 for b in sorted(candidates)}
    return {b: k for b, k in counts.items() if k}


def check_s3_theorem(bound):
    """Hold the paper's s = 3 theorem, with the Betti degrees counted from the
    fibers by `betti_degrees`, to `robust_complex(T).vertex()` and to Herzog's
    candidates in `classify_curve3` on every gcd-1 triple with entries <=
    bound: Delta_T has a vertex iff I_T is a complete intersection (2 minimal
    generators, as I_T has height 2) with exactly two Betti degrees.
    AssertionError names the first triple that disagrees; returns how many
    triples were checked and the set of their `CurveKind`s.
    """
    curves = [t for t in itertools.combinations_with_replacement(range(1, bound + 1), 3)
              if math.gcd(*t) == 1]
    kinds = set()
    for t in curves:
        betti = betti_degrees(t)
        cls = classify_curve3(t)
        vertex = robust_complex(list(t)).vertex()
        theorem = sum(betti.values()) == 2 and len(betti) == 2
        assert theorem == (vertex is not None) == (cls.kind is CurveKind.CI_ON), t
        assert vertex == cls.on, t
        assert set(betti) == set(cls.betti_candidates), t
        assert sum(betti.values()) == (3 if cls.kind is CurveKind.NOT_CI else 2), t
        kinds.add(cls.kind)
    return len(curves), kinds


def fresh_graver_basis(A, budget=None):
    """Gr(A) from a new completion; the shared memos are neither read nor written."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        empty_graver_memos(monkeypatch)
        return graver_basis(A, budget)


def engine_graver(A):
    """Canonical sorted Gr(A) by the engine, `_lattice_graver`, run on A's own
    kernel lattice: the reference the split of repeated columns is held to.
    It is bound at import, so a test that patches the miss path's engine
    away still has it."""
    lattice = kernel_lattice(A)
    return tuple(_lattice_graver(lattice.vectors, lattice.n, DEFAULT_BUDGET))


def repeated_curves(s, bound):
    """Every gcd-1 1xs curve with entries in 1..bound, in ascending order,
    that repeats an entry."""
    return [t for t in itertools.combinations_with_replacement(range(1, bound + 1), s)
            if len(set(t)) < s and math.gcd(*t) == 1]


def lifting_decomposition(T, omega):
    """Lambda(T)_omega and its bouquet decomposition: the D reference of the tests.

    Every bouquet of a lifting is anchored at one of the s columns of T, so a
    kernel vector of T is carried to bouquet coordinates through the anchors,
    whatever the decomposition's canonical bouquet order.
    """
    lam = lambda_matrix(T, omega)
    dec = bouquet_decomposition(lam.matrix)
    assert dec.free_bouquet is None
    assert sorted(b.anchor for b in dec.bouquets) == list(range(1, lam.T.ncols + 1))
    return lam, dec


def lift_curve_vector(dec, u):
    """D(u) in a lifting's ambient space, u a kernel vector of T in column order."""
    return d_map(dec, tuple(u[b.anchor - 1] for b in dec.bouquets))


def reduce_by_set(vec, pool):
    """Subtract conformal reducers from pool until none applies; return endpoint."""
    current = tuple(vec)
    zero = (0,) * len(current)
    changed = True
    while changed and current != zero:
        changed = False
        cp, cm = positive_part(current), negative_part(current)
        for g in pool:
            gp, gm = positive_part(g), negative_part(g)
            if all(a <= b for a, b in zip(gp, cp)) and all(a <= b for a, b in zip(gm, cm)):
                current = vec_sub(current, g)
                changed = True
                break
    return current


def random_unimodular(rng, k, steps=12):
    """Random product of elementary integer operations; determinant +-1."""
    mat = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    for _ in range(steps):
        kind = rng.choice(("add", "swap", "negate"))
        i = rng.randrange(k)
        j = rng.randrange(k)
        if kind == "add" and i != j:
            factor = rng.choice((-2, -1, 1, 2))
            for t in range(k):
                mat[i][t] += factor * mat[j][t]
        elif kind == "swap" and i != j:
            mat[i], mat[j] = mat[j], mat[i]
        elif kind == "negate":
            mat[i] = [-x for x in mat[i]]
    return mat

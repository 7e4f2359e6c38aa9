"""The strongly robust simplicial complex of a monomial curve.

A subset w of {1..s} is a face exactly when the lifted matrix Lambda(T)_w has
a strongly robust toric ideal. For monomial curves the complex is {0} or
{0,{i}} for a single i, and the singleton faces admit a fast test: {i} is a
face iff every projection of a Graver element (delete coordinate i) stays
primitive among all such projections. The expensive lifting route is kept as
an independent cross-check.

Delta_T is defined only for a simple toric ideal I_T. A row T with positive
entries is simple exactly when s >= 3 (see `_curve_row`), so the entry points
check that by arithmetic instead of decomposing T into bouquets.

Also houses the 1x3 complete-intersection classification driving the
structure theorems: the candidate generator degrees c_i * n_i, where c_i is
the least multiple of n_i lying in the numerical semigroup of the other two.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .bouquet import bouquet_decomposition, d_map
from .errors import GraverKitError, PreconditionError
from .graver import Budget, graver_basis
from .linalg import IntMat, IntVec
from .robustness import dispensability_witness, is_strongly_robust


def _as_row(T) -> IntMat:
    if isinstance(T, IntMat):
        if T.nrows != 1:
            raise PreconditionError(f"expected a 1xs matrix, got {T.nrows}x{T.ncols}")
        return T
    return IntMat.row_vector(T)


# ---------------------------------------------------------------------------
# Lawrence liftings

@dataclass(frozen=True)
class LambdaMatrix:
    """Second Lawrence lifting of T with row 1+i and column s+i removed, i in omega."""

    T: IntMat
    omega: frozenset[int]
    matrix: IntMat


def lambda_matrix(T, omega: Iterable[int]) -> LambdaMatrix:
    T = _as_row(T)
    s = T.ncols
    if s < 2:
        raise PreconditionError("lifting needs at least two columns")
    omega = frozenset(int(i) for i in omega)
    if not omega <= set(range(1, s + 1)):
        raise PreconditionError(f"omega {sorted(omega)} is not a subset of 1..{s}")
    keep = [j for j in range(1, s + 1) if j not in omega]
    rows = [list(T.rows[0]) + [0] * len(keep)]
    for i in keep:
        row = [0] * s
        row[i - 1] = 1
        row.extend(1 if j == i else 0 for j in keep)
        rows.append(row)
    return LambdaMatrix(T=T, omega=omega, matrix=IntMat.from_rows(rows))


# ---------------------------------------------------------------------------
# 1x3 classification

class CurveKind(enum.Enum):
    NOT_CI = "NotCI"
    CI_ON = "CIOn"
    CI_ON_ALL = "CIOnAll"


@dataclass(frozen=True)
class CurveClassification:
    T: tuple[int, int, int]  # gcd-normalized
    c: tuple[int, int, int]
    betti_candidates: tuple[int, int, int]  # c_i * n_i
    kind: CurveKind
    on: int | None  # 1-based slot when kind is CI_ON

    def describe(self) -> str:
        if self.kind is CurveKind.CI_ON:
            return f"CIOn({self.on})"
        return self.kind.value


def degree_t(T, u: Sequence[int]) -> int:
    """T-degree of the monomial x^u: the dot product T . u for u >= 0."""
    T = _as_row(T)
    u = tuple(int(x) for x in u)
    if len(u) != T.ncols:
        raise ValueError(f"vector length {len(u)} != {T.ncols}")
    if any(x < 0 for x in u):
        raise ValueError(f"negative entry in {u}")
    return sum(a * b for a, b in zip(T.rows[0], u))


def semigroup_min_multiple(n_i: int, n_j: int, n_k: int) -> int:
    """Least c >= 1 with c*n_i = a*n_j + b*n_k for some a, b >= 0.

    With g = gcd(n_j, n_k), a = n_j/g and b = n_k/g, x is in <n_j, n_k> iff g
    divides x and y = x/g has y >= a*((y * a^-1) mod b): of all y = a*s + b*t
    the one with 0 <= s < b has the largest t. c = n_j * n_k always works.
    """
    if n_i <= 0 or n_j <= 0 or n_k <= 0:
        raise PreconditionError("semigroup generators must be positive")
    g = math.gcd(n_j, n_k)
    a, b = n_j // g, n_k // g
    a_inv = pow(a, -1, b)
    for c in range(1, n_j * n_k + 1):
        x = c * n_i
        if x % g == 0 and x // g >= a * (x // g * a_inv % b):
            return c
    raise GraverKitError("unreachable: c = n_j*n_k is always representable")


def classify_curve3(T) -> CurveClassification:
    """CIOn(i) / CIOnAll / NotCI verdict from the candidate degree pattern."""
    T = _as_row(T)
    if T.ncols != 3:
        raise PreconditionError(f"classification needs a 1x3 matrix, got 1x{T.ncols}")
    n = T.rows[0]
    if any(x <= 0 for x in n):
        raise PreconditionError("entries must be positive")
    g = math.gcd(*n)
    n = tuple(x // g for x in n)
    c = (
        semigroup_min_multiple(n[0], n[1], n[2]),
        semigroup_min_multiple(n[1], n[0], n[2]),
        semigroup_min_multiple(n[2], n[0], n[1]),
    )
    d = tuple(ci * ni for ci, ni in zip(c, n))
    if d[0] == d[1] == d[2]:
        kind, on = CurveKind.CI_ON_ALL, None
    elif d[0] == d[1]:
        kind, on = CurveKind.CI_ON, 3
    elif d[0] == d[2]:
        kind, on = CurveKind.CI_ON, 2
    elif d[1] == d[2]:
        kind, on = CurveKind.CI_ON, 1
    else:
        kind, on = CurveKind.NOT_CI, None
    return CurveClassification(T=n, c=c, betti_candidates=d, kind=kind, on=on)


# ---------------------------------------------------------------------------
# faces of the complex

def _curve_row(T) -> IntMat:
    """T as a 1xs matrix with s >= 3 and positive entries: a simple monomial curve.

    Two columns share a bouquet when their Gale rows are parallel, and a column
    is free when its Gale row is zero. For s >= 3 neither happens: given i != j,
    pick k outside {i, j}; the circuit on {i, k} has u_i != 0 and u_j = 0, and
    the circuit on {j, k} has u_j != 0 and u_i = 0, so the rows i and j are
    nonzero and not parallel. For s <= 2 the kernel has rank at most 1, so its
    Gale rows are zero or pairwise parallel and T is never simple.
    """
    T = _as_row(T)
    if T.ncols < 3:
        raise PreconditionError(
            "complex computation needs s >= 3 (a 1x2 toric ideal is principal, never simple)"
        )
    if any(x <= 0 for x in T.rows[0]):
        raise PreconditionError("monomial curve entries must be positive")
    return T


def _lifting_decomposition(T: IntMat, omega: frozenset[int]):
    """Bouquet decomposition of Lambda(T)_omega with sanity checks.

    Every non-free bouquet is anchored at one of the original s columns, so a
    kernel vector of T is carried to bouquet coordinates through the anchors
    regardless of the decomposition's canonical bouquet order.
    """
    lam = lambda_matrix(T, omega)
    dec = bouquet_decomposition(lam.matrix)
    s = T.ncols
    if dec.free_bouquet is not None or dec.num_bouquets != s:
        raise GraverKitError("unexpected bouquet structure in a Lawrence lifting")
    if {b.anchor for b in dec.bouquets} != set(range(1, s + 1)):
        raise GraverKitError("lifting bouquets are not anchored at the original columns")
    return lam, dec


def lift_curve_vector(dec, u: Sequence[int]) -> IntVec:
    """D image of a kernel vector of T inside a lifting's ambient space."""
    reordered = tuple(int(u[b.anchor - 1]) for b in dec.bouquets)
    return d_map(dec, reordered)


def s_omega(T, omega: Iterable[int], budget: Budget | None = None) -> frozenset[IntVec]:
    """The elements u of Gr(T) whose image D(u) is indispensable in Lambda(T)_omega."""
    T = _curve_row(T)
    omega = frozenset(int(i) for i in omega)
    lam, dec = _lifting_decomposition(T, omega)
    G_T = graver_basis(T, budget=budget)
    G_lam = graver_basis(lam.matrix, budget=budget)
    kept = []
    for u in G_T.elements:
        image = lift_curve_vector(dec, u)
        if not G_lam.contains_up_to_sign(image):
            raise GraverKitError(
                "D image of a Graver element is missing from the lifted Graver basis"
            )
        if dispensability_witness(image, G_lam) is None:
            kept.append(u)
    return frozenset(kept)


def face_test_lifting(T, omega: Iterable[int], budget: Budget | None = None) -> bool:
    """omega is a face iff the lifted toric ideal is strongly robust."""
    T = _curve_row(T)
    lam = lambda_matrix(T, omega)
    return is_strongly_robust(lam.matrix, budget=budget).strongly_robust


def face_test_projection(T, i: int, budget: Budget | None = None) -> bool:
    """{i} is a face iff every deleted-coordinate projection of Gr(T) is primitive.

    Primitivity is among the projections of both signs of every element, as
    Graver sets are up to sign. Distinct vectors of +/-Gr(T) project to
    distinct vectors, as a collision would put a kernel vector supported on {i}
    into the lattice, and T_i > 0. So u's projection is primitive iff u is the
    only row of `signed_index` at or under u with coordinate i left free.
    """
    T = _curve_row(T)
    if not 1 <= i <= T.ncols:
        raise PreconditionError(f"index {i} out of range 1..{T.ncols}")
    index = graver_basis(T, budget=budget).signed_index
    return all(index.dominators(k, free=i - 1) == 1 for k in range(len(index)))


@dataclass(frozen=True)
class RobustComplex:
    T: tuple[int, ...]
    faces: frozenset[frozenset[int]]
    cross_checked: bool = False

    @property
    def dim(self) -> int:
        return max(len(f) for f in self.faces) - 1

    def vertex(self) -> int | None:
        """The unique singleton face, when present."""
        singles = sorted(min(f) for f in self.faces if len(f) == 1)
        if not singles:
            return None
        if len(singles) > 1:
            raise GraverKitError(f"multiple vertices {singles}: uniqueness violated")
        return singles[0]

    def sorted_faces(self) -> list[list[int]]:
        return sorted([sorted(f) for f in self.faces], key=lambda f: (len(f), f))


def robust_complex(T, verify: bool = False, budget: Budget | None = None) -> RobustComplex:
    """Delta_T for a monomial curve: the empty face plus the passing singletons.

    T is gcd-normalized first. With verify=True every singleton verdict is
    cross-checked against the Lambda(T)_{i} lifting test; a mismatch raises.
    """
    T = _curve_row(T)
    s = T.ncols
    g = math.gcd(*T.rows[0])
    T = IntMat.row_vector(tuple(x // g for x in T.rows[0]))
    faces = {frozenset()}
    for i in range(1, s + 1):
        fast = face_test_projection(T, i, budget=budget)
        if verify:
            slow = face_test_lifting(T, {i}, budget=budget)
            if fast != slow:
                raise GraverKitError(
                    f"face tests disagree at i={i}: projection={fast}, lifting={slow}"
                )
        if fast:
            faces.add(frozenset({i}))
    return RobustComplex(
        T=T.rows[0], faces=frozenset(faces), cross_checked=verify
    )

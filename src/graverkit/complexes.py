"""The strongly robust simplicial complex of a monomial curve.

A subset w of {1..s} is a face exactly when the lifted matrix Lambda(T)_w has
a strongly robust toric ideal. For monomial curves the complex is {0} or
{0,{i}} for a single i, and the singleton faces admit a fast test: {i} is a
face iff every projection of a Graver element (delete coordinate i) stays
primitive among all such projections; at s = 3 it is decided by counting
Graver elements (`_complex_on_miss`). For s >= 4, a curve that repeats an
entry is decided by the curve without the repeat, with no Gr(T)
(`_complex_on_miss`), and otherwise {i} is rejected without Gr(T) when i's
column is not the vertex of Delta_{T_J} for some 1x3 sub-curve T_J
(`_subcurve_rejects`), so a curve all of whose singletons are rejected
that way never reaches Gr(T)'s budget.

`robust_complex` has one compute path, `_complex_on_miss`, and one memo,
per gcd-normalised T, that `_read_complex` alone reads and writes, for
`robust_complex` and for the smaller curves a complex is read from; a
memoized verdict is returned whatever the budget. Its verify option checks
that answer against both face tests on every singleton; the lifting test, a
semiconformal witness search on Gr(Lambda(T)_w) = D(Gr(T)), reads the same
completion of T as the projection test.

Delta_T is defined only for a simple toric ideal I_T. A row T with positive
entries is simple exactly when s >= 3 (see `_curve_row`), so the entry points
check that by arithmetic instead of decomposing T into bouquets.

Also houses the 1x3 complete-intersection classification driving the
structure theorems: the candidate generator degrees c_i * n_i, where c_i is
the least multiple of n_i lying in the numerical semigroup of the other two.
"""

from __future__ import annotations

import enum
import itertools
import logging
import math
import operator
from collections.abc import Iterable, Sequence

from .errors import GraverKitError, PreconditionError
from .graver import (
    DEFAULT_BUDGET,
    Budget,
    _cone_count,
    _remember,
    _Spent,
    graver_basis,
)
from .linalg import Frozen, IntMat, IntVec, _xgcd_min, vec_neg
from .robustness import dispensability_witness, is_strongly_robust

log = logging.getLogger(__name__)
# the logger of the rank-2 walks, whose lines a 1x3 complex's cone counts replace
walk_log = logging.getLogger("graverkit.graver")


def _as_row(T) -> IntMat:
    if isinstance(T, IntMat):
        if T.nrows != 1:
            raise PreconditionError(f"expected a 1xs matrix, got {T.nrows}x{T.ncols}")
        return T
    return IntMat.row_vector(T)


# ---------------------------------------------------------------------------
# Lawrence liftings

class LambdaMatrix(Frozen):
    """Second Lawrence lifting of T with row 1+i and column s+i removed, i in omega."""

    _fields = ("T", "omega", "matrix")

    def __init__(self, T: IntMat, omega: frozenset[int], matrix: IntMat):
        self.__dict__.update(T=T, omega=omega, matrix=matrix)


def lambda_matrix(T, omega: Iterable[int]) -> LambdaMatrix:
    T = _as_row(T)
    s = T.ncols
    if s < 2:
        raise PreconditionError("lifting needs at least two columns")
    omega = frozenset(map(operator.index, omega))
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


class CurveClassification(Frozen):
    """The gcd-normalised T, its c, the Betti candidates c_i * n_i, its kind,
    and `on`, the 1-based slot when the kind is CI_ON, else None."""

    _fields = ("T", "c", "betti_candidates", "kind", "on")

    def __init__(self, T: tuple[int, int, int], c: tuple[int, int, int],
                 betti_candidates: tuple[int, int, int], kind: CurveKind, on: int | None):
        self.__dict__.update(T=T, c=c, betti_candidates=betti_candidates, kind=kind, on=on)

    def describe(self) -> str:
        if self.kind is CurveKind.CI_ON:
            return f"CIOn({self.on})"
        return self.kind.value


def degree_t(T, u: Sequence[int]) -> int:
    """T-degree of the monomial x^u: the dot product T . u for u >= 0."""
    T = _as_row(T)
    u = tuple(map(operator.index, u))
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


def s_omega(T, omega: Iterable[int], budget: Budget | None = None) -> frozenset[IntVec]:
    """S_omega: the u in Gr(T) whose lift D(u) is indispensable in Lambda(T)_omega.

    This is {v[:s] : v in G, v indispensable} for G = Gr(Lambda(T)_omega).
    The lifting's rows are T and, for each i not in omega, e_i + e_(s+i), so
    Ker Lambda(T)_omega = {(u, -u_i for i not in omega) : Tu = 0}, the lifts
    D(u). So v -> v[:s] is a lattice bijection onto Ker T; it keeps the
    conformal order, as each tail entry negates an entry of u, so it maps G
    onto Gr(T); and it keeps the sign-canonical form, as v and v[:s] share
    their first nonzero entry.
    """
    T = _curve_row(T)
    G = graver_basis(lambda_matrix(T, omega).matrix, budget=budget)
    return frozenset(v[:T.ncols] for v in G.elements if dispensability_witness(v, G) is None)


def face_test_lifting(T, omega: Iterable[int], budget: Budget | None = None) -> bool:
    """omega is a face iff the lifted toric ideal is strongly robust.

    Gr(Lambda(T)_omega) is D(Gr(T)), read off the memoized Gr(T) by the
    bouquet route of `graver_basis`, so this test shares T's completion with
    `face_test_projection`; what it adds is the semiconformal witness search
    of `is_strongly_robust` on the lifted basis.
    """
    T = _curve_row(T)
    lam = lambda_matrix(T, omega)
    return is_strongly_robust(lam.matrix, budget=budget).strongly_robust


def face_test_projection(T, i: int, budget: Budget | None = None) -> bool:
    """{i} is a face iff every deleted-coordinate projection of Gr(T) is primitive.

    Primitivity is among the projections of both signs of every element, as
    Graver sets are up to sign. Distinct vectors of +/-Gr(T) project to
    distinct vectors, as a collision would put a kernel vector supported on {i}
    into the lattice, and T_i > 0. So u's projection is primitive iff u is the
    only row of `signed_index` at or under u with coordinate i left free, and
    -u has the negated rows under it, so the basis's own elements decide.
    """
    T = _curve_row(T)
    i = operator.index(i)
    if not 1 <= i <= T.ncols:
        raise PreconditionError(f"index {i} out of range 1..{T.ncols}")
    G = graver_basis(T, budget=budget)
    index, elements = G.signed_index, G.as_set()
    return all(index.dominators(k, free=i - 1) == 1
               for k, u in enumerate(index.vectors) if u in elements)


class RobustComplex(Frozen):
    """Delta_T of the gcd-normalised curve T. Building one raises
    GraverKitError unless its faces take the shape the paper proves for
    every monomial curve, {0} or {0, {i}}, so no reader checks it again."""

    _fields = ("T", "faces", "cross_checked")

    def __init__(self, T: tuple[int, ...], faces: frozenset[frozenset[int]],
                 cross_checked: bool = False):
        self.__dict__.update(T=T, faces=faces, cross_checked=cross_checked)
        if frozenset() not in faces or len(faces) > 2 or any(len(f) > 1 for f in faces):
            raise GraverKitError(f"Delta_T of {T} has faces {self.sorted_faces()}, "
                                 "not [[]] or [[], [i]]")

    @property
    def dim(self) -> int:
        return max(len(f) for f in self.faces) - 1

    def vertex(self) -> int | None:
        """The vertex i when Delta_T = {0, {i}}, None when Delta_T = {0}."""
        return next((i for f in self.faces for i in f), None)

    def sorted_faces(self) -> list[list[int]]:
        return sorted([sorted(f) for f in self.faces], key=lambda f: (len(f), f))


def _subcurve_rejects(t: tuple[int, ...], budget: Budget | None = None) -> set[int]:
    """The i in 1..s that a 1x3 sub-curve rejects: i's position j in a
    3-subset J of the columns is not the vertex of Delta_{T_J}, read on the
    gcd-normalised T_J (same kernel) by `_read_complex`.
    `face_test_projection(T, i)` rejects every such i:

    1. The padding u' (zero off J) of u in Gr(T_J) is in +/-Gr(T): a nonzero
       v in Ker(T) conformally below u' is supported inside J, so it pads a
       vector of Ker(T_J) conformally below u, which is u as u is minimal.
    2. As {j} is not in Delta_{T_J}, the projection test fails on T_J: some
       w != u in +/-Gr(T_J) lies under u with coordinate j free. Padded, they
       are distinct rows of `graver_basis(T).signed_index`, both zero off J,
       so w' lies under u' with i free: u' has two dominators there.

    At most one i survives: any i != j lie in some 3-subset J, and
    Delta_{T_J} has at most one vertex, as every `RobustComplex` does, so
    J rejects i or j.

    The J are taken in combination order. A T_J already in `_COMPLEX_MEMO`
    is always read, which moves it to the memo's newest end; one that is
    not is computed only when J holds a column not yet rejected. The result
    is still the union over every J: J rejects only columns of its own, so
    a J that is skipped could reject none that is not rejected already.
    """
    rejected = set()
    for J, t_J in zip(itertools.combinations(range(len(t)), 3), itertools.combinations(t, 3)):
        g = math.gcd(*t_J)
        if g > 1:
            t_J = tuple(x // g for x in t_J)
        if t_J in _COMPLEX_MEMO or not rejected.issuperset(J):
            vertex = _read_complex(t_J, budget).vertex()
            rejected.update(c for j, c in enumerate(J, 1) if j != vertex)
    return {c + 1 for c in rejected}


# complexes by gcd-normalised T, the oldest out first, every read counting
# as an insert; never cross-checked; read and written by _read_complex alone,
# which alone moves an entry; _subcurve_rejects only tests membership
_COMPLEX_MEMO_SIZE = 4096
_COMPLEX_MEMO: dict[tuple[int, ...], RobustComplex] = {}


def _read_complex(t: tuple[int, ...], budget: Budget | None) -> RobustComplex:
    """Delta_T of the gcd-normalised t, from `_COMPLEX_MEMO` or computed by
    `_complex_on_miss` into it, the oldest entry out first when the memo
    holds `_COMPLEX_MEMO_SIZE`, and moved to the newest end either way, so
    that a scan pushes out first the complexes it no longer reads. The one
    reader and writer of the memo."""
    delta = _COMPLEX_MEMO.pop(t, None) or _complex_on_miss(t, budget)
    _remember(_COMPLEX_MEMO, t, delta, _COMPLEX_MEMO_SIZE)
    return delta


def robust_complex(T, verify: bool = False, budget: Budget | None = None) -> RobustComplex:
    """Delta_T for a monomial curve: the empty face plus the passing singletons.

    T is gcd-normalized first. Every call reads one answer through
    `_read_complex`: the complex memoized per normalised T in
    `_COMPLEX_MEMO` (its last `_COMPLEX_MEMO_SIZE` entries), returned
    whatever the budget, or on a miss the one `_complex_on_miss` computes;
    either way T becomes the memo's newest entry. With verify=True that
    answer is then checked: for every i, `{i} in faces`, the projection test
    and the Lambda(T)_{i} lifting test must agree, or GraverKitError is
    raised; the copy marked cross_checked is returned and not memoized.
    """
    T = _curve_row(T)
    g = math.gcd(*T.rows[0])
    t = tuple(x // g for x in T.rows[0])
    result = _read_complex(t, budget)
    if not verify:
        return result
    T = IntMat.row_vector(t)
    for i in range(1, len(t) + 1):
        listed = frozenset({i}) in result.faces
        fast = face_test_projection(T, i, budget=budget)
        slow = face_test_lifting(T, {i}, budget=budget)
        if not listed == fast == slow:
            raise GraverKitError(f"face tests disagree at i={i}: complex={listed}, "
                                 f"projection={fast}, lifting={slow}")
    return result.replace(cross_checked=True)


def _complex_on_miss(t: tuple[int, ...], budget: Budget | None) -> RobustComplex:
    """Delta_T computed, not memoized: `_read_complex` stores it. For
    s >= 4, a curve with a repeated entry is decided by the curve without
    the repeat, with no Gr(T) (below). Otherwise the singletons the 1x3
    sub-curves reject (`_subcurve_rejects`) skip the projection test; when
    none survive, Gr(T) is never completed, so the curve never reaches its
    budget.

    Let a_i = a_j, i < j the first such pair, and T' be T without column j,
    a curve with s - 1 >= 3 entries and gcd 1, whose complex is read by
    `_read_complex`. m merges coordinate j into i, mapping Ker T onto Ker T';
    pi_k deletes coordinate k, and u is below w when it is conformally below.
    {k} is a face iff no u != w in +/-Gr(T) has pi_k u below pi_k w (the
    projection test).

    - (A) +/-Gr(T) is +/-(e_i - e_j) and the same-sign splittings u of each
      g in +/-Gr(T'): u_i + u_j = g_i, u_i u_j >= 0, u = g elsewhere. So
      m(u) = g is in +/-Gr(T'). The proof is in `graver._matrix_graver`.
    - (B) Neither i nor j is a vertex. Delete column i: pi_i(e_i - e_j) =
      -e_j lies below pi_i of the circuit on {j, k}, for any third column
      k, taken with its j entry negative; the two are distinct. Likewise
      for j.
    - (C) For k not in {i, j}, {k} is a face of T iff it is one of T'.
      - If pi_k u' is below pi_k w' with u' != w' in +/-Gr(T'), split w' to
        some w, then u'_i, whose sign is w'_i's and |u'_i| <= |w'_i|, under
        w_i and w_j to some u. By (A) both are in +/-Gr(T), pi_k u is below
        pi_k w, and u != w as their merges differ.
      - Conversely let pi_k u be below pi_k w, u != w in +/-Gr(T). If
        neither is +/-(e_i - e_j), both are splittings, and m keeps the
        relation: u_i and u_j lie below w_i and w_j, which share a sign. And
        m(u) != m(w): equal merges with u below w off k force u = w. If
        u = +/-(e_i - e_j), then w_i w_j < 0, so w = u by (A). If
        w = +/-(e_i - e_j), say +, pi_k u is e_i or -e_j, as pi_k is
        injective on Ker T (a_k > 0); say e_i, the other is the mirror image.
        So u = e_i - (a_i / a_k) e_k with a_k | a_i, and m(u), the same
        vector on T''s columns, is in +/-Gr(T'). pi_k m(u) = e_i lies below
        pi_k of the circuit on {i, l}, l a third column of T' (s - 1 >= 3),
        taken with its i entry positive; it is zero at k, so it is not m(u).

    So T has no vertex when T' has none or has it at i, and otherwise its
    vertex is T''s, shifted past j. Applied again, this ends at a curve
    with distinct entries or at a 1x3 curve. Each reduced complex logs one
    debug line, `complex T: column j repeats column i, read from T'`, after
    T''s own lines.

    At s = 3, with L = Ker T and pi_i deleting coordinate i, {i} is a
    face iff |Gr(pi_i L)| = |Gr(L)|, the verdict of `face_test_projection`:

    - pi_i is injective on L, as T_i > 0.
    - Gr(pi_i L) lies in pi_i(+/-Gr L): x in L over z in Gr(pi_i L) is a
      conformal sum of elements of +/-Gr(L), whose projections are nonzero,
      conformal to z and add up to z, so as z is minimal there is one term.
    - pi_i(+/-Gr L), as large as +/-Gr(L), is an antichain iff it is
      +/-Gr(pi_i L), which the counts decide. A Graver basis is an
      antichain. Conversely each projection p is a conformal sum of elements
      of Gr(pi_i L), all in pi_i(+/-Gr L) and below p, so in an antichain p
      is one of them.

    Nothing is computed at s = 3 but six cone counts. For T = (a, b, c),
    g = gcd(a, b) and a*x + b*y = g, the rows (b/g, -a/g, 0) and
    (c*x, c*y, -g) lie in L, and their 2x2 minors are +-(c, b, a), of gcd 1,
    so they span a saturated rank-2 sublattice of L, which is L; their
    projections span pi_i L, a rank-2 lattice of Z^2. `_sector_walks` on a
    basis yields each Graver element once up to sign, one per lattice point
    of its sectors' walks, and `_cone_count` counts one sector's points, so:

    - The three Gale rows of L are nonzero and pairwise non-parallel
      (`_curve_row`), so in the coordinates x of the basis their lines give
      three rays r_0, r_1, r_2 at angles in (0, pi] (`_sector_rays`), and
      L's half-turn has three sectors S_0 = (r_0, r_1), S_1 = (r_1, r_2)
      and S_2 = (r_2, -r_0), with counts c_0, c_1, c_2, and
      |Gr(L)| = c_0 + c_1 + c_2. On this basis r_0, r_1, r_2 lie on the
      lines of columns 2, 1, 3: the Gale rows (b/g, c*x), (-a/g, c*y) and
      (0, -g) have lines along u = (-c*x, b/g), v = (c*y, a/g) and (-1, 0),
      at angles in (0, pi), (0, pi) and pi, and det(v, u) = c > 0. So
      `_curve3_rays` writes the rays down, with no `_sector_rays` sort.
    - As pi_i is injective on L, pi_i L is read in the same coordinates x,
      and its Gale rows are the other two rows. So deleting column i removes
      its line's ray r_p and merges the two sectors beside it into one cone
      M_p, and pi_i L's half-turn is M_p and S_{p+1}: M_1 = (r_0, r_2) is
      S_0 + S_1 and M_2 = (r_1, -r_0) is S_1 + S_2, while M_0 = (r_2, -r_1)
      is S_2 + (-S_0), and -S_0 has the points of S_0 negated, so as many.
    - So |Gr(pi_i L)| = count(M_p) + c_{p+1}, and {i} is a face iff
      count(M_p) = c_{p-1} + c_p, indices mod 3.

    The six counts share one budget ledger and log one debug line on the
    walks' logger, `graverkit.graver`: `cone counts: {'curve': T, 'sectors':
    [c_0, c_1, c_2], 'merged': [M_0, M_1, M_2]}`. No vector, kernel
    lattice, Graver basis or `signed_index` is built, so `graver_basis`'s
    memos are neither read nor written.
    """
    s = len(t)
    pair = _repeated_entry(t) if s >= 4 else None
    if pair is not None:
        i, j = pair
        reduced = t[:j] + t[j + 1:]
        vertex = _read_complex(reduced, budget).vertex()
        # by (B) and (C): T''s vertex, shifted past j, unless it is i
        passed = [] if vertex in (None, i + 1) else [vertex + (vertex > j)]
        log.debug("complex %s: column %d repeats column %d, read from %s",
                  t, j + 1, i + 1, reduced)
    else:
        rejected = _subcurve_rejects(t, budget) if s >= 4 else set()
        tested = [i for i in range(1, s + 1) if i not in rejected]
        if s == 3:
            spent = _Spent(budget or DEFAULT_BUDGET)
            r0, r1, r2 = _curve3_rays(t)
            sectors = [_cone_count(r0, r1, spent), _cone_count(r1, r2, spent),
                       _cone_count(r2, vec_neg(r0), spent)]
            merged = [_cone_count(r2, vec_neg(r1), spent), _cone_count(r0, r2, spent),
                      _cone_count(r1, vec_neg(r0), spent)]
            walk_log.debug("cone counts: %s", dict(curve=t, sectors=sectors, merged=merged))
            # r_0, r_1, r_2 lie on the lines of columns 2, 1, 3 (below)
            passed = [i for i, p in ((1, 1), (2, 0), (3, 2))
                      if merged[p] == sectors[p - 1] + sectors[p]]
        else:
            T = IntMat.row_vector(t)
            passed = [i for i in tested if face_test_projection(T, i, budget=budget)]
        log.debug("complex %s: sub-curves reject %s, face tests on %s",
                  t, sorted(rejected), tested)
    return RobustComplex(T=t, faces=frozenset({frozenset(), *(frozenset({i}) for i in passed)}))


def _repeated_entry(t: tuple[int, ...]) -> tuple[int, int] | None:
    """(i, j), i < j, for the first entry t_j equal to an earlier t_i; None
    when the entries are distinct. `graver._repeated_column` on a row."""
    first: dict[int, int] = {}
    for j, x in enumerate(t):
        if first.setdefault(x, j) != j:
            return first[x], j
    return None


def _curve3_rays(t: tuple[int, int, int]) -> tuple[tuple[int, int], ...]:
    """r_0, r_1, r_2 of the 1x3 curve t = (a, b, c): `_sector_rays` of the
    basis (b/g, -a/g, 0), (c*x, c*y, -g) of Ker T, g = gcd(a, b) = a*x + b*y
    (`_xgcd_min`), written down as `_complex_on_miss` derives them: the
    primitive vectors along (c*y, a/g) and (-c*x, b/g), then (-1, 0)."""
    a, b, c = t
    g, x, y = _xgcd_min(a, b)
    a, b = a // g, b // g
    e, f = math.gcd(c * y, a), math.gcd(c * x, b)
    return (c * y // e, a // e), (-c * x // f, b // f), (-1, 0)

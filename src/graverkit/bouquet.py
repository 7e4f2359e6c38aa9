"""Gale transforms, bouquet decompositions, and the kernel isomorphism D.

Columns whose Gale rows are mutual rational multiples (tested exactly via
cross products) form the bouquet graph's edges; connected components are the
bouquets. Every bouquet carries a coefficient vector whose anchor entry is
positive; the induced map D identifies the kernel of the bouquet-ideal matrix
with the kernel of the original matrix.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import PreconditionError
from .linalg import IntMat, IntVec, kernel_lattice

FREE = "free"
MIXED = "mixed"
NON_MIXED = "non-mixed"


@dataclass(frozen=True)
class Bouquet:
    """One bouquet: ordered 1-based member columns, kind, coefficient vector.

    The first member is the anchor; its coefficient is always positive and the
    coefficients' gcd is 1.
    """

    members: tuple[int, ...]
    kind: str
    c_restriction: IntVec

    @property
    def anchor(self) -> int:
        return self.members[0]


@dataclass(frozen=True)
class BouquetDecomposition:
    matrix: IntMat
    bouquets: tuple[Bouquet, ...]  # non-free bouquets, ordered by anchor column
    free_bouquet: Bouquet | None
    a_matrix: IntMat  # A_B: one column per non-free bouquet

    @property
    def n(self) -> int:
        return self.matrix.ncols

    @property
    def num_bouquets(self) -> int:
        return len(self.bouquets)

    def c_vector(self, i: int) -> IntVec:
        """Ambient c_B vector of non-free bouquet i (1-based), length n."""
        b = self.bouquets[i - 1]
        full = [0] * self.n
        for col, coeff in zip(b.members, b.c_restriction):
            full[col - 1] = coeff
        return tuple(full)

    def c_vectors(self) -> tuple[IntVec, ...]:
        return tuple(self.c_vector(i) for i in range(1, self.num_bouquets + 1))

    def non_mixed_indices(self) -> frozenset[int]:
        """1-based positions (in bouquet order) of the non-mixed bouquets."""
        return frozenset(
            i + 1 for i, b in enumerate(self.bouquets) if b.kind == NON_MIXED
        )

    def position_of_anchor(self, anchor: int) -> int:
        """1-based position of the non-free bouquet anchored at a column."""
        for i, b in enumerate(self.bouquets):
            if b.anchor == anchor:
                return i + 1
        raise KeyError(f"no bouquet anchored at column {anchor}")

    def free_columns(self) -> tuple[int, ...]:
        return self.free_bouquet.members if self.free_bouquet else ()


def gale_rows(A: IntMat) -> tuple[IntVec, ...]:
    """Rows G(a_1),...,G(a_n) of the Gale transform of A.

    The Gale transform is the n x (n-r) matrix whose columns are the kernel
    lattice basis. The rows depend on the basis choice, but bouquets and all
    coefficient vectors derived from them do not.
    """
    lat = kernel_lattice(A)
    return tuple(
        tuple(v[i] for v in lat.vectors) for i in range(A.ncols)
    )


def _parallel(u: IntVec, v: IntVec) -> bool:
    # exact rational-multiple test for nonzero vectors, no division
    for p, q in itertools.combinations(range(len(u)), 2):
        if u[p] * v[q] != u[q] * v[p]:
            return False
    return True


def bouquet_decomposition(A: IntMat, _gale: tuple[IntVec, ...] | None = None) -> BouquetDecomposition:
    # _gale injects alternative kernel-basis coordinates; the result must not
    # depend on that choice (basis invariance, exercised by the tests)
    n = A.ncols
    rows = gale_rows(A) if _gale is None else _gale
    free = [j for j in range(n) if all(x == 0 for x in rows[j])]
    nonfree = [j for j in range(n) if j not in set(free)]

    # union-find over non-free columns
    parent = {j: j for j in nonfree}

    def find(j: int) -> int:
        while parent[j] != j:
            parent[j] = parent[parent[j]]
            j = parent[j]
        return j

    for a, b in itertools.combinations(nonfree, 2):
        if _parallel(rows[a], rows[b]):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)

    groups: dict[int, list[int]] = {}
    for j in nonfree:
        groups.setdefault(find(j), []).append(j)

    with_columns = []
    for anchor in sorted(groups):
        members = sorted(groups[anchor])
        # a coordinate nonzero on every member row exists because the rows
        # are pairwise parallel and all nonzero
        width = len(rows[members[0]])
        ell = next(
            l for l in range(width) if all(rows[j][l] != 0 for j in members)
        )
        g = math.gcd(*(rows[j][ell] for j in members))
        eps = 1 if rows[members[0]][ell] > 0 else -1
        coeffs = tuple(eps * rows[j][ell] // g for j in members)
        kind = MIXED if any(c < 0 for c in coeffs) else NON_MIXED
        bouquet = Bouquet(
            members=tuple(j + 1 for j in members), kind=kind, c_restriction=coeffs
        )
        col = [0] * A.nrows
        for member, coeff in zip(bouquet.members, coeffs):
            column = A.column(member)
            for t in range(A.nrows):
                col[t] += coeff * column[t]
        with_columns.append((bouquet, tuple(col)))

    # canonical bouquet order: by the a_B column, anchors breaking ties;
    # for monomial-curve liftings with ascending entries this is the column order
    with_columns.sort(key=lambda pair: (pair[1], pair[0].anchor))
    bouquets = tuple(b for b, _ in with_columns)
    a_cols = [col for _, col in with_columns]

    free_bouquet = None
    if free:
        free_bouquet = Bouquet(
            members=tuple(j + 1 for j in free),
            kind=FREE,
            c_restriction=tuple(1 for _ in free),
        )

    a_matrix = IntMat(
        [[a_cols[i][t] for i in range(len(bouquets))] for t in range(A.nrows)],
        ncols=len(bouquets),
    )
    return BouquetDecomposition(
        matrix=A, bouquets=bouquets, free_bouquet=free_bouquet, a_matrix=a_matrix
    )


def d_map(dec: BouquetDecomposition, u) -> IntVec:
    """D(u): the ambient kernel vector with entry c_ij * u_i at column ij.

    u must live in Ker_Z(A_B); the image lies in Ker_Z(A).
    """
    u = tuple(int(x) for x in u)
    if len(u) != dec.num_bouquets:
        raise PreconditionError(
            f"expected a vector of length {dec.num_bouquets} (one per non-free bouquet)"
        )
    if any(x != 0 for x in dec.a_matrix.mul_vec(u)):
        raise PreconditionError(f"{u} is not in the kernel of the bouquet-ideal matrix")
    out = [0] * dec.n
    for i, b in enumerate(dec.bouquets):
        for member, coeff in zip(b.members, b.c_restriction):
            out[member - 1] = coeff * u[i]
    return tuple(out)


def is_simple(A: IntMat) -> bool:
    """True iff every bouquet is a singleton and there are no free columns."""
    dec = bouquet_decomposition(A)
    if dec.free_bouquet is not None:
        return False
    return all(len(b.members) == 1 for b in dec.bouquets)

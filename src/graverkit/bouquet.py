"""Gale transforms, bouquet decompositions, and the kernel isomorphism D.

Columns whose Gale rows are zero are free; the others are grouped by
primitive sign-canonical Gale row. Two nonzero rows are rational multiples of
each other iff they share that form, so each group is one bouquet, and its
first column is the anchor. Every bouquet carries a coefficient vector whose
anchor entry is positive; the induced map D identifies the kernel of the
bouquet-ideal matrix with the kernel of the original matrix.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .errors import PreconditionError
from .linalg import IntMat, IntVec, kernel_lattice, sign_canonical

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

    @property
    def simple(self) -> bool:
        """True iff every bouquet is a singleton and there are no free columns."""
        return self.free_bouquet is None and all(len(b.members) == 1 for b in self.bouquets)

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


def group_gale_rows(rows: tuple[IntVec, ...]) -> tuple[list[int], list[list[int]]]:
    """The free columns (zero Gale rows) and the bouquets of the others, 0-based.

    Nonzero rows are parallel iff their primitive sign-canonical forms agree;
    columns are visited in order, so every group is ascending from its anchor.
    """
    free: list[int] = []
    groups: dict[IntVec, list[int]] = {}
    for j, row in enumerate(rows):
        if not any(row):
            free.append(j)
            continue
        g = math.gcd(*row)
        groups.setdefault(sign_canonical([x // g for x in row]), []).append(j)
    return free, list(groups.values())


def simple_gale(rows: tuple[IntVec, ...]) -> bool:
    """True iff Gale rows `rows` are nonzero and pairwise non-parallel (A is simple)."""
    free, groups = group_gale_rows(rows)
    return not free and len(groups) == len(rows)


def bouquet_decomposition(A: IntMat, _gale: tuple[IntVec, ...] | None = None) -> BouquetDecomposition:
    # _gale supplies the Gale rows of any kernel basis; the result must not
    # depend on that choice (basis invariance, exercised by the tests)
    rows = gale_rows(A) if _gale is None else _gale
    free, groups = group_gale_rows(rows)

    with_columns = []
    for members in groups:
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
    u = tuple(map(operator.index, u))
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
    return bouquet_decomposition(A).simple

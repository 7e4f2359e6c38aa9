"""Generalized Lawrence matrices over monomial-curve bouquet ideals.

`build_gen_lawrence` assembles the block matrix with top blocks
A(n_j, c_j) = (lambda_1 n_j, ..., lambda_m n_j) and diagonal blocks C(c_j),
checking the mixedness hypothesis against the strongly robust complex of T.
`reconstruct_gen_lawrence` recovers that form (plus the column permutation
grouping bouquets) from any matrix whose bouquet ideal is a monomial curve;
the kernels agree up to the permutation. It works by arithmetic on the bouquet
decomposition alone and computes no Graver basis.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

from .bouquet import BouquetDecomposition, bouquet_decomposition
from .complexes import robust_complex
from .errors import GraverKitError, PreconditionError
from .graver import Budget
from .linalg import IntMat, IntVec, kernel_lattice


def _xgcd_min(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a*x + b*y = g = gcd(a,b) >= 0 and |x| minimal (ties: x > 0)."""
    if a == 0 and b == 0:
        return (0, 0, 0)
    if b == 0:
        return (abs(a), 1 if a > 0 else -1, 0)
    if a == 0:
        return (abs(b), 0, 1 if b > 0 else -1)
    g = math.gcd(a, b)
    period = abs(b) // g
    x = pow(a // g, -1, period)  # a*x = g (mod b); every solution is x + k*period
    if 2 * x > period:  # ties (2x == period) stay at the positive representative
        x -= period
    y = (g - a * x) // b
    return (g, x, y)


def extended_gcd_multi(c: Sequence[int]) -> IntVec:
    """Deterministic lambda with sum(lambda_t * c_t) = 1.

    Left fold of two-term extended gcds, minimal-|x| convention at each step,
    and trailing zeros once the running gcd hits 1.
    """
    c = tuple(int(x) for x in c)
    if not c:
        raise PreconditionError("empty coefficient vector")
    if math.gcd(*c) != 1:
        raise PreconditionError(f"gcd of {c} is not 1")
    lam = [1]
    g = c[0]
    for entry in c[1:]:
        if g == 1:
            lam.append(0)
            continue
        if g == -1:
            lam = [-x for x in lam]
            lam.append(0)
            g = 1
            continue
        g2, x, y = _xgcd_min(g, entry)
        lam = [x * l for l in lam]
        lam.append(y)
        g = g2
    if g == -1:
        lam = [-x for x in lam]
        g = 1
    if sum(l * e for l, e in zip(lam, c)) != 1:
        raise GraverKitError("extended gcd fold failed to reach 1")
    return tuple(lam)


@dataclass(frozen=True)
class GenLawrenceSpec:
    """T plus one coefficient vector per bouquet (and optional explicit lambdas)."""

    T: IntVec
    c_vectors: tuple[IntVec, ...]
    lambda_vectors: tuple[IntVec, ...] | None = None

    def __post_init__(self):
        # operator.index rejects floats rather than truncating them
        object.__setattr__(self, "T", tuple(map(operator.index, self.T)))
        object.__setattr__(
            self, "c_vectors", tuple(tuple(map(operator.index, c)) for c in self.c_vectors)
        )
        if self.lambda_vectors is not None:
            object.__setattr__(
                self,
                "lambda_vectors",
                tuple(tuple(map(operator.index, l)) for l in self.lambda_vectors),
            )

    def validate(self) -> None:
        if len(self.c_vectors) != len(self.T):
            raise PreconditionError(
                f"{len(self.T)} entries in T but {len(self.c_vectors)} coefficient vectors"
            )
        if any(x <= 0 for x in self.T):
            raise PreconditionError("entries of T must be positive")
        for j, c in enumerate(self.c_vectors, start=1):
            if not c or any(x == 0 for x in c):
                raise PreconditionError(f"c_{j} = {c} must have full support")
            if c[0] <= 0:
                raise PreconditionError(f"c_{j} = {c} must have positive first entry")
            if math.gcd(*c) != 1:
                raise PreconditionError(f"c_{j} = {c} must have gcd 1")
        if self.lambda_vectors is not None:
            if len(self.lambda_vectors) != len(self.c_vectors):
                raise PreconditionError("one lambda vector per c vector is required")
            for j, (lam, c) in enumerate(zip(self.lambda_vectors, self.c_vectors), start=1):
                if len(lam) != len(c):
                    raise PreconditionError(f"lambda_{j} has wrong length")
                if sum(l * x for l, x in zip(lam, c)) != 1:
                    raise PreconditionError(f"lambda_{j} . c_{j} != 1")

    def resolved_lambdas(self) -> tuple[IntVec, ...]:
        if self.lambda_vectors is not None:
            return self.lambda_vectors
        return tuple(extended_gcd_multi(c) for c in self.c_vectors)


@dataclass(frozen=True)
class GenLawrenceMatrix:
    spec: GenLawrenceSpec
    matrix: IntMat
    # new-order list of original 1-based column indices (reconstruction only)
    column_permutation: tuple[int, ...] | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return (self.matrix.nrows, self.matrix.ncols)


def _c_block(c: IntVec) -> list[list[int]]:
    """C(c): rows (-c_{t+1}, 0 ... 0, c_1 at slot t+1), an (m-1) x m block."""
    m = len(c)
    rows = []
    for t in range(1, m):
        row = [0] * m
        row[0] = -c[t]
        row[t] = c[0]
        rows.append(row)
    return rows


def _assemble(T: IntVec, cs: Sequence[IntVec], lams: Sequence[IntVec]) -> IntMat:
    s = len(T)
    sizes = [len(c) for c in cs]
    q = sum(sizes)
    top = []
    for n_j, lam in zip(T, lams):
        top.extend(l * n_j for l in lam)
    rows = [top]
    offset = 0
    for c in cs:
        for block_row in _c_block(c):
            row = [0] * q
            row[offset:offset + len(c)] = block_row
            rows.append(row)
        offset += len(c)
    return IntMat.from_rows(rows)


def build_gen_lawrence(
    spec: GenLawrenceSpec,
    check_hypothesis: bool = True,
    budget: Budget | None = None,
) -> GenLawrenceMatrix:
    """The p x q generalized Lawrence matrix of the spec.

    With check_hypothesis (the default), Delta_T is computed and every c_j at
    a non-vertex index must have a negative entry; otherwise the construction
    falls outside the covered territory and is rejected. Curves with s < 3
    give principal or zero toric ideals and are accepted as-is.
    """
    spec.validate()
    if check_hypothesis and len(spec.T) >= 3:
        complex_ = robust_complex(IntMat.row_vector(spec.T), budget=budget)
        vertex = complex_.vertex()
        for j, c in enumerate(spec.c_vectors, start=1):
            if j == vertex:
                continue
            if all(x > 0 for x in c):
                raise PreconditionError(
                    f"not covered by the generator theorem: c_{j} = {c} has no "
                    f"negative entry but {{{j}}} is not the vertex of the complex "
                    f"(vertex = {vertex})"
                )
    return GenLawrenceMatrix(spec=spec, matrix=_assemble(spec.T, spec.c_vectors, spec.resolved_lambdas()))


def reconstruct_gen_lawrence(A: IntMat) -> GenLawrenceMatrix:
    """Generalized Lawrence form of A, up to the returned column permutation.

    Requires A to have no free columns and its bouquet ideal to be a monomial
    curve: A_B has rank one with a primitive generator T > 0. The permutation
    lists, in new column order, the original 1-based column of each block
    slot; the permuted kernels coincide.

    These checks imply that A is pointed. Every u in Ker(A) is, on each
    bouquet B, lambda_B * c_B with A_B lambda = 0 (Gale rows), and
    Ker(A_B) = Ker(T) since A_B has rank one. If u >= 0, a mixed c_B forces
    lambda_B = 0 and a non-mixed one (all entries positive) lambda_B >= 0;
    then T lambda = 0 with T > 0 gives lambda = 0, so u = 0.
    """
    dec = bouquet_decomposition(A)
    if dec.free_bouquet is not None:
        raise PreconditionError(
            "matrix has free columns; a generalized Lawrence matrix over a "
            "monomial curve has none"
        )
    T = _extract_curve(dec)
    cs = tuple(b.c_restriction for b in dec.bouquets)
    spec = GenLawrenceSpec(T=T, c_vectors=cs)
    spec.validate()
    matrix = _assemble(T, cs, spec.resolved_lambdas())
    permutation = tuple(col for b in dec.bouquets for col in b.members)
    _check_kernel_preserved(A, matrix, permutation)
    return GenLawrenceMatrix(spec=spec, matrix=matrix, column_permutation=permutation)


def _extract_curve(dec: BouquetDecomposition) -> IntVec:
    """Primitive positive generator of the rank-one row space of A_B."""
    AB = dec.a_matrix
    if AB.rank() != 1:
        raise PreconditionError(
            f"bouquet ideal is not a monomial curve: A_B has row-space rank {AB.rank()}"
        )
    row = next(r for r in AB.rows if any(r))
    g = math.gcd(*row)
    T = tuple(x // g for x in row)
    if any(x < 0 for x in T):
        if all(x <= 0 for x in T):
            T = tuple(-x for x in T)
        else:
            raise PreconditionError("bouquet-ideal generator has mixed signs; not a monomial curve")
    if any(x == 0 for x in T):
        raise PreconditionError("bouquet-ideal generator has a zero entry; not pointed")
    return T


def _check_kernel_preserved(A: IntMat, B: IntMat, permutation: tuple[int, ...]) -> None:
    lat_a = kernel_lattice(A)
    permuted = [tuple(v[p - 1] for p in permutation) for v in lat_a.vectors]
    lat_b = kernel_lattice(B)
    if not lat_b.spans_same_lattice_as(permuted):
        raise GraverKitError("reconstruction changed the kernel lattice")

"""Exact integer vectors, matrices, and kernel lattices.

Vectors are plain tuples of Python ints (arbitrary precision). A matrix is a
thin immutable wrapper around a tuple of row tuples. The kernel lattice is
computed by a deterministic row Hermite reduction of ``[A^T | I]``, which
yields a basis of the *saturated* integer kernel, i.e. the full lattice
``Ker_Z(A)``, never a finite-index sublattice.

`Frozen` is the base of every immutable value class of the toolkit, this
module's `IntMat` and `LatticeBasis` among them. It gives what frozen
dataclasses gave, equality, hashing, repr, immutability and `replace`,
without importing `dataclasses`, which with `inspect` would cost every CLI
process several milliseconds of start-up, and more for each class built.
"""

from __future__ import annotations

import hashlib
import math
import operator
from collections.abc import Iterable, Sequence

IntVec = tuple[int, ...]


# ---------------------------------------------------------------------------
# vector helpers

def positive_part(u: Sequence[int]) -> IntVec:
    return tuple([x if x > 0 else 0 for x in u])


def negative_part(u: Sequence[int]) -> IntVec:
    """The vector u^- with u = u^+ - u^-; nonnegative, support disjoint from u^+."""
    return tuple([-x if x < 0 else 0 for x in u])


def sign_canonical(u: Sequence[int]) -> IntVec:
    """One representative of {u, -u}: the one whose first nonzero entry is positive."""
    for x in u:
        if x > 0:
            return tuple(u)
        if x < 0:
            return tuple(-y for y in u)
    return tuple(u)


def vec_add(u: Sequence[int], v: Sequence[int]) -> IntVec:
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u: Sequence[int], v: Sequence[int]) -> IntVec:
    return tuple(a - b for a, b in zip(u, v))


def vec_neg(u: Sequence[int]) -> IntVec:
    return tuple(-a for a in u)


def one_norm(u: Sequence[int]) -> int:
    return sum(abs(a) for a in u)


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


def _check_same_length(u: Sequence[int], v: Sequence[int], w: Sequence[int]) -> None:
    if not (len(u) == len(v) == len(w)):
        raise ValueError(
            f"length mismatch: {len(u)}, {len(v)}, {len(w)}"
        )


def is_conformal_sum(u: Sequence[int], v: Sequence[int], w: Sequence[int]) -> bool:
    """True iff u = v +_c w: u = v+w, u^+ = v^+ + w^+ and u^- = v^- + w^-.

    Equivalently the sum has no cancellation: in every coordinate v and w
    agree in sign with u (or vanish).
    """
    _check_same_length(u, v, w)
    for a, b, c in zip(u, v, w):
        if a != b + c:
            return False
        if max(b, 0) + max(c, 0) != max(a, 0):
            return False
    return True


def is_semiconformal_sum(u: Sequence[int], v: Sequence[int], w: Sequence[int]) -> bool:
    """True iff u = v +_sc w: u = v+w with v_i>0 => w_i>=0 and w_i<0 => v_i<=0."""
    _check_same_length(u, v, w)
    # The two defining implications are contrapositives of each other; both
    # reduce to forbidding v_i > 0 together with w_i < 0.
    for a, b, c in zip(u, v, w):
        if a != b + c:
            return False
        if b > 0 and c < 0:
            return False
    return True


def project_out(u: Sequence[int], i: int) -> IntVec:
    """Delete the i-th component (1-based) of u."""
    if not 1 <= i <= len(u):
        raise IndexError(f"index {i} out of range 1..{len(u)}")
    return tuple(u[:i - 1]) + tuple(u[i:])


# ---------------------------------------------------------------------------
# value classes

class Frozen:
    """Base of the immutable value classes: a subclass names its fields in
    `_fields` and its `__init__` writes them into the instance dict.

    Two values are equal when they are of the same class with equal fields,
    and a value hashes as the tuple of its fields, so sets of values keep
    the order they would have as tuples. The repr is `Name(field=value,
    ...)`. Assigning or deleting an attribute raises AttributeError;
    `replace` builds a changed copy through `__init__`, which checks it
    again. A `functools.cached_property` still caches, as it writes the
    instance dict directly.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # read as self._values(self), since an attrgetter does not bind; it
        # gives a tuple, as every value class has two fields or more
        cls._values = operator.attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self._fields, self._values(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def replace(self, **changes):
        """A copy with the given fields changed, built and checked by `__init__`."""
        return self.__class__(**{**dict(zip(self._fields, self._values(self))), **changes})


# ---------------------------------------------------------------------------
# matrices

class IntMat(Frozen):
    """Immutable integer matrix with exact arithmetic.

    Entries are taken through `operator.index`, so a float is rejected, not
    truncated. `ncols` defaults to the length of the first row; a matrix with
    no rows keeps the column count it is given.
    """

    _fields = ("rows", "ncols")

    def __init__(self, rows: Iterable[Iterable[int]], ncols: int | None = None):
        rows = tuple(tuple(map(operator.index, row)) for row in rows)
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        if any(len(row) != ncols for row in rows):
            raise ValueError(f"ragged rows: each row must have {ncols} entries")
        self.__dict__.update(rows=rows, ncols=ncols)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "IntMat":
        return cls(tuple(map(tuple, rows)))

    @classmethod
    def row_vector(cls, entries: Iterable[int]) -> "IntMat":
        return cls.from_rows([entries])

    @classmethod
    def parse(cls, text: str) -> "IntMat":
        """Parse the 4ti2-style text format: "m n" then m*n integers, row-major."""
        tokens = text.split()
        if len(tokens) < 2:
            raise ValueError("matrix text must start with 'm n'")
        try:
            m, n = int(tokens[0]), int(tokens[1])
        except ValueError as exc:
            raise ValueError(f"bad matrix header: {tokens[:2]}") from exc
        if m < 0 or n < 0:
            raise ValueError(f"negative dimensions {m}x{n}")
        body = tokens[2:]
        if len(body) != m * n:
            raise ValueError(f"expected {m * n} entries for a {m}x{n} matrix, got {len(body)}")
        try:
            entries = [int(t) for t in body]
        except ValueError as exc:
            raise ValueError("non-integer matrix entry") from exc
        return cls(tuple(entries[i * n:(i + 1) * n] for i in range(m)), n)

    # -- basic shape -------------------------------------------------------

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def column(self, j: int) -> IntVec:
        """Column j, 1-based."""
        if not 1 <= j <= self.ncols:
            raise IndexError(f"column {j} out of range 1..{self.ncols}")
        return tuple(row[j - 1] for row in self.rows)

    # -- arithmetic --------------------------------------------------------

    def mul_vec(self, u: Sequence[int]) -> IntVec:
        if len(u) != self.ncols:
            raise ValueError(f"vector length {len(u)} != {self.ncols} columns")
        return tuple(sum(r * x for r, x in zip(row, u)) for row in self.rows)

    def in_kernel(self, u: Sequence[int]) -> bool:
        return all(x == 0 for x in self.mul_vec(u))

    def rank(self) -> int:
        work = [list(row) for row in self.rows]
        _, r = _row_hermite(work, self.ncols)
        return r

    # -- serialization -----------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form: header line then one line per row, single spaces."""
        lines = [f"{self.nrows} {self.ncols}"]
        lines.extend(" ".join(str(e) for e in row) for row in self.rows)
        return "\n".join(lines) + "\n"

    def content_hash(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()

    def __str__(self) -> str:
        return self.to_text()


# ---------------------------------------------------------------------------
# Hermite reduction and kernel lattices

def _row_hermite(rows: list[list[int]], ncols: int) -> tuple[list[list[int]], int]:
    """In-place row Hermite form over the first `ncols` columns.

    Deterministic pivoting: Euclidean reduction in each column, pivot chosen
    as the entry of least absolute value (ties by row index). Pivots end up
    positive with entries above them reduced into [0, pivot).
    Returns (rows, rank).
    """
    m = len(rows)
    r = 0
    for c in range(ncols):
        if r == m:
            break
        while True:
            nz = [i for i in range(r, m) if rows[i][c] != 0]
            if not nz:
                pivot = -1
                break
            i0 = min(nz, key=lambda i: (abs(rows[i][c]), i))
            if len(nz) == 1:
                pivot = i0
                break
            p = rows[i0][c]
            for i in nz:
                if i == i0:
                    continue
                q = rows[i][c] // p
                if q:
                    rows[i] = [a - q * b for a, b in zip(rows[i], rows[i0])]
        if pivot < 0:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        if rows[r][c] < 0:
            rows[r] = [-a for a in rows[r]]
        p = rows[r][c]
        for i in range(r):
            q = rows[i][c] // p
            if q:
                rows[i] = [a - q * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return rows, r


class LatticeBasis(Frozen):
    """Basis of the full integer kernel lattice of a matrix."""

    _fields = ("n", "vectors")

    def __init__(self, n: int, vectors: tuple[IntVec, ...]):
        self.__dict__.update(n=n, vectors=vectors)

    @property
    def rank(self) -> int:
        return len(self.vectors)

    def spans_same_lattice_as(self, other_vectors: Sequence[Sequence[int]]) -> bool:
        """Exact lattice equality with another generating set (same ambient n)."""
        mine = [list(v) for v in self.vectors]
        theirs = [list(map(operator.index, v)) for v in other_vectors]
        a, _ = _row_hermite([row[:] for row in mine], self.n)
        b, _ = _row_hermite([row[:] for row in theirs], self.n)
        strip = lambda rows: [tuple(r) for r in rows if any(r)]
        return strip(a) == strip(b)


def kernel_lattice(A: IntMat) -> LatticeBasis:
    """Deterministic basis of Ker_Z(A), saturated by construction.

    Row-reduces [A^T | I_n]; rows whose A^T part vanishes carry a kernel
    basis in their right half. The kernel rows are then Hermite-reduced,
    sign-normalized, and sorted for a canonical result.
    """
    m, n = A.nrows, A.ncols
    ext = []
    for i in range(n):
        row = [A.rows[k][i] for k in range(m)]
        row.extend(1 if j == i else 0 for j in range(n))
        ext.append(row)
    ext, r = _row_hermite(ext, m)
    kernel_rows = [row[m:] for row in ext[r:]]
    kernel_rows, k = _row_hermite(kernel_rows, n)
    basis = [sign_canonical(row) for row in kernel_rows[:k]]
    basis.sort()
    return LatticeBasis(n=n, vectors=tuple(basis))

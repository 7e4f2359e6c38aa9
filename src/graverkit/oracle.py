"""Brute-force reference routines.

These are the independent oracles the test suite checks the fast paths
against: boxed enumeration of kernel points, a conformal-minimality filter
(giving the Graver basis whenever the box provably contains it), and an
exhaustive semiconformal witness search for indispensability. They run on
plain Python loops and share no code with the completion.

The minimality filter visits the points in order of one-norm and tests each
one only against the minimal points found so far. This is exact:

- v ⊑ u with v ≠ u forces ‖v‖₁ < ‖u‖₁, so every dominator comes first;
- a dominated u is also dominated by a minimal point, which lies in the box.

The cost is O(P·|Gr|) for P points instead of O(P²).

`indispensable_by_enumeration` enumerates the box once per matrix, at
max(box, wbox), and takes both the Graver candidates and the witness points
from that one list. The enumeration is lexicographic, so each filtered list is
in the order a separate enumeration at its own box would give.
"""

from __future__ import annotations

from operator import index, le
from typing import Sequence

from .errors import PreconditionError
from .linalg import (
    IntMat,
    IntVec,
    is_semiconformal_sum,
    negative_part,
    one_norm,
    positive_part,
    sign_canonical,
    vec_sub,
)


def kernel_points_in_box(A: IntMat, box: int) -> list[IntVec]:
    """All nonzero u with A*u = 0 and |u_i| <= box, both signs included.

    Depth-first over coordinates with a per-row residual bound; the final
    coordinate is solved instead of enumerated. The points come out in
    lexicographic order.
    """
    if box < 0:
        raise ValueError("box must be nonnegative")
    m, n = A.nrows, A.ncols
    if n == 0:
        return []
    cols = [A.column(j + 1) for j in range(n)]
    # suffix_reach[j][t]: max possible |contribution| of coordinates j.. to row t
    suffix_reach = [[0] * m for _ in range(n + 1)]
    for j in range(n - 1, -1, -1):
        for t in range(m):
            suffix_reach[j][t] = suffix_reach[j + 1][t] + box * abs(cols[j][t])
    last = cols[n - 1]
    # the row that solves for the last coordinate; None if that column is zero
    t0 = next((t for t in range(m) if last[t] != 0), None)

    out: list[IntVec] = []
    partial = [0] * n

    def descend(j: int, residual: list[int]) -> None:
        if j == n - 1:
            if t0 is None:
                if any(residual):
                    return
                for x in range(-box, box + 1):
                    partial[j] = x
                    if any(partial):
                        out.append(tuple(partial))
                partial[j] = 0
                return
            if residual[t0] % last[t0] != 0:
                return
            x = -residual[t0] // last[t0]
            if abs(x) > box:
                return
            if any(residual[t] + x * last[t] != 0 for t in range(m)):
                return
            partial[j] = x
            if any(partial):
                out.append(tuple(partial))
            partial[j] = 0
            return
        reach = suffix_reach[j + 1]
        col = cols[j]
        for x in range(-box, box + 1):
            nxt = [residual[t] + x * col[t] for t in range(m)]
            ok = True
            for t in range(m):
                if abs(nxt[t]) > reach[t]:
                    ok = False
                    break
            if not ok:
                continue
            partial[j] = x
            descend(j + 1, nxt)
            partial[j] = 0

    descend(0, [0] * m)
    return out


def _conformally_minimal(points: list[IntVec]) -> list[IntVec]:
    """The points no other point conformally precedes, in their given order."""
    minimal: list[IntVec] = []  # u⁺ followed by u⁻, for each minimal point
    keep = set()
    for u in sorted(points, key=one_norm):
        parts = positive_part(u) + negative_part(u)
        if not any(all(map(le, v, parts)) for v in minimal):
            minimal.append(parts)
            keep.add(u)
    return [u for u in points if u in keep]


def _graver_of_points(points: list[IntVec], box: int) -> tuple[IntVec, ...]:
    minimal = _conformally_minimal(points)
    for u in minimal:
        if max(map(abs, u)) == box:
            raise PreconditionError(
                f"oracle box {box} too small: minimal element {u} touches the boundary"
            )
    return tuple(sorted({sign_canonical(u) for u in minimal}))


def graver_by_enumeration(A: IntMat, box: int) -> tuple[IntVec, ...]:
    """Conformally minimal nonzero kernel vectors inside the box, canonical.

    Raises if any minimal element touches the box boundary: the box is then
    not certified to contain the whole Graver basis.
    """
    return _graver_of_points(kernel_points_in_box(A, box), box)


def _witness(u: IntVec, points: list[IntVec]) -> tuple[IntVec, IntVec] | None:
    """The first w in points with u = (u - w) +_sc w and u - w nonzero."""
    for w in points:
        if w == u:
            continue
        v = vec_sub(u, w)
        if is_semiconformal_sum(u, v, w):
            return (v, w)
    return None


def dispensability_witness_by_enumeration(
    A: IntMat, u: Sequence[int], box: int
) -> tuple[IntVec, IntVec] | None:
    """Search u = v +_sc w over ALL kernel points w with |w_i| <= box.

    v = u - w is unrestricted (it is a kernel vector automatically). Returns
    a proper witness (v, w) or None.
    """
    u = tuple(map(index, u))
    if not A.in_kernel(u):
        raise PreconditionError(f"{u} is not in the kernel")
    return _witness(u, kernel_points_in_box(A, box))


def indispensable_by_enumeration(A: IntMat, box: int, wbox: int) -> tuple[IntVec, ...]:
    """Brute-force indispensable set: Graver-by-box filtered by witness search.

    One enumeration at max(box, wbox) serves both the Graver candidates and
    the witness points.
    """
    if box < 0 or wbox < 0:
        raise ValueError("box must be nonnegative")
    points = kernel_points_in_box(A, max(box, wbox))
    graver = _graver_of_points([u for u in points if max(map(abs, u)) <= box], box)
    witnesses = [w for w in points if max(map(abs, w)) <= wbox]
    return tuple(u for u in graver if _witness(u, witnesses) is None)

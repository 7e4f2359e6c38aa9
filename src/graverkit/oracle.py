"""Brute-force reference routines.

These are the independent oracles the test suite checks the fast paths
against: boxed enumeration of kernel points, a conformal-minimality filter
(giving the Graver basis whenever the box provably contains it), and an
exhaustive semiconformal witness search for indispensability. They run on
plain Python loops and share no code with the completion.

The enumeration is depth-first over the coordinates, in lexicographic order,
and visits only the box points that can still close:

- at each depth x ranges over the exact interval where every row's residual
  stays within what the later coordinates can still cancel. That interval is
  the complement of the test that would reject x after trying it, computed
  by floor division and cut to [-box, box];
- the last coordinate is solved, not enumerated, so at the second-to-last one
  only the x with residual[t0] + x·col[t0] ≡ 0 (mod |last[t0]|) can close:
  no x when g = gcd(col[t0], last[t0]) does not divide residual[t0], and
  otherwise one class mod |last[t0]|/g. Every other x fails the last
  coordinate's divisibility test.

The minimality filter visits the points in order of one-norm and tests each
one only against the minimal points found so far. This is exact:

- v ⊑ u with v ≠ u forces ‖v‖₁ < ‖u‖₁, so every dominator comes first;
- a dominated u is also dominated by a minimal point, which lies in the box;
- v ⊑ u iff -v ⊑ -u, and the points of a box are closed under negation, so
  u is minimal iff -u is: the filter tests only the sign-canonical points
  (first nonzero entry positive) and stores both signs of each minimal one.

The cost is O(P·|Gr|) for P points instead of O(P²).

`indispensable_by_enumeration` enumerates the box once per matrix, at
max(box, wbox), and takes both the Graver candidates and the witness points
from that one list. The enumeration is lexicographic, so each filtered list is
in the order a separate enumeration at its own box would give.

A witness w ≠ u gives u = (u - w) +_sc w unless some coordinate has w_i < 0
and u_i - w_i > 0, that is w_i < min(u_i, 0). So the witness search compares
each point with min(u, 0) and confirms the first that passes by the
definition, `is_semiconformal_sum`.
"""

from __future__ import annotations

from math import gcd
from operator import ge, index, le
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
    vec_neg,
    vec_sub,
)


def _interval(residual: list[int], col: IntVec, reach: list[int], box: int) -> tuple[int, int]:
    """The x in [-box, box] with |residual[t] + x*col[t]| <= reach[t] for every t.

    Returned as (lo, hi); lo > hi when there is none.
    """
    lo, hi = -box, box
    for r, c, R in zip(residual, col, reach):
        if c > 0:
            lo = max(lo, -((R + r) // c))
            hi = min(hi, (R - r) // c)
        elif c < 0:
            lo = max(lo, -((R - r) // -c))
            hi = min(hi, (R + r) // -c)
        elif abs(r) > R:
            return 1, 0
    return lo, hi


def kernel_points_in_box(A: IntMat, box: int) -> list[IntVec]:
    """All nonzero u with A*u = 0 and |u_i| <= box, both signs included.

    Depth-first over coordinates, each over its exact interval under a
    per-row residual bound; the second-to-last coordinate steps through the
    one congruence class that lets the final coordinate close, and the final
    coordinate is solved instead of enumerated. The points come out in
    lexicographic order.
    """
    box = index(box)
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

    def close(residual: list[int]) -> None:
        if t0 is None:
            if any(residual):
                return
            for x in range(-box, box + 1):
                partial[n - 1] = x
                if any(partial):
                    out.append(tuple(partial))
            partial[n - 1] = 0
            return
        if residual[t0] % last[t0] != 0:
            return
        x = -residual[t0] // last[t0]
        if abs(x) > box:
            return
        if any(residual[t] + x * last[t] != 0 for t in range(m)):
            return
        partial[n - 1] = x
        if any(partial):
            out.append(tuple(partial))
        partial[n - 1] = 0

    def descend(j: int, residual: list[int]) -> None:
        col = cols[j]
        lo, hi = _interval(residual, col, suffix_reach[j + 1], box)
        step = 1
        if j == n - 2 and t0 is not None:
            r0, c0 = residual[t0], col[t0]
            g = gcd(c0, last[t0])
            if r0 % g:
                return
            step = abs(last[t0]) // g
            lo += ((-r0 // g) * pow(c0 // g, -1, step) - lo) % step
        for x in range(lo, hi + 1, step):
            partial[j] = x
            nxt = [r + x * c for r, c in zip(residual, col)]
            if j == n - 2:
                close(nxt)
            else:
                descend(j + 1, nxt)
        partial[j] = 0

    if n == 1:
        close([0] * m)
    else:
        descend(0, [0] * m)
    return out


def _conformally_minimal(points: list[IntVec]) -> list[IntVec]:
    """The points no other point conformally precedes, in their given order.

    `points` is closed under negation, so only its sign-canonical half is tested.
    """
    zero = (0,) * len(points[0]) if points else ()
    minimal: list[IntVec] = []  # u⁺ followed by u⁻, for both signs of each minimal point
    keep = set()
    for u in sorted((u for u in points if u > zero), key=one_norm):
        pos, neg = positive_part(u), negative_part(u)
        if not any(all(map(le, v, pos + neg)) for v in minimal):
            minimal += (pos + neg, neg + pos)
            keep.update((u, vec_neg(u)))
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
    box = index(box)
    return _graver_of_points(kernel_points_in_box(A, box), box)


def _witness(u: IntVec, points: list[IntVec]) -> tuple[IntVec, IntVec] | None:
    """The first w in points with u = (u - w) +_sc w and u - w nonzero.

    Only a w with w >= min(u, 0) componentwise can give that sum, so each
    point is compared with min(u, 0) first and the definition decides the
    one that passes.
    """
    floor = tuple(min(x, 0) for x in u)
    for w in points:
        if w != u and all(map(ge, w, floor)) and is_semiconformal_sum(u, v := vec_sub(u, w), w):
            return (v, w)
    return None


def dispensability_witness_by_enumeration(
    A: IntMat, u: Sequence[int], box: int
) -> tuple[IntVec, IntVec] | None:
    """Search u = v +_sc w over ALL kernel points w with |w_i| <= box.

    v = u - w is unrestricted (it is a kernel vector automatically). Returns
    a proper witness (v, w) or None.
    """
    box = index(box)
    u = tuple(map(index, u))
    if not A.in_kernel(u):
        raise PreconditionError(f"{u} is not in the kernel")
    return _witness(u, kernel_points_in_box(A, box))


def indispensable_by_enumeration(A: IntMat, box: int, wbox: int) -> tuple[IntVec, ...]:
    """Brute-force indispensable set: Graver-by-box filtered by witness search.

    One enumeration at max(box, wbox) serves both the Graver candidates and
    the witness points.
    """
    box, wbox = index(box), index(wbox)
    if box < 0 or wbox < 0:
        raise ValueError("box must be nonnegative")
    points = kernel_points_in_box(A, max(box, wbox))
    graver = _graver_of_points([u for u in points if max(map(abs, u)) <= box], box)
    witnesses = [w for w in points if max(map(abs, w)) <= wbox]
    return tuple(u for u in graver if _witness(u, witnesses) is None)

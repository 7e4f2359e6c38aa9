"""Indispensable elements and the strongly robust decision Gr(A) = S(A).

An element of the Graver basis is indispensable when it admits no proper
semiconformal decomposition into kernel vectors. The witness search may
restrict the second summand to Graver elements: conformally splitting a
non-primitive second summand w = w' +_c w'' turns u = v +_sc w into the
semiconformal sums u = (v+w') +_sc w'' and u = (v+w'') +_sc w', so a second
summand of minimal 1-norm is primitive. The brute-force oracle in
`graverkit.oracle` guards this reduction in the test suite.

The search over that summand w in +-Gr(A), w != u, is one
`ConformalIndex.below` query per ordering, the other half left free:
u = (u-w) +_sc w forbids u_i - w_i > 0 together with w_i < 0, which is
exactly w- <= u-, and likewise u = w +_sc (u-w) holds iff w+ <= u+. Both
summands are nonzero because w != u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import GraverKitError, PreconditionError
from .graver import Budget, GraverBasis, VectorSet, assert_pointed, graver_basis
from .linalg import (
    IntMat,
    IntVec,
    is_semiconformal_sum,
    negative_part,
    positive_part,
    sign_canonical,
    vec_sub,
)

Witness = tuple[IntVec, IntVec]


@dataclass(frozen=True)
class IndispensableSet(VectorSet):
    """S(A): Graver elements with no proper semiconformal decomposition."""


@dataclass(frozen=True)
class RobustnessCertificate:
    strongly_robust: bool
    graver_size: int
    indispensable_size: int
    # (u, v, w): u in Gr(A) with proper semiconformal decomposition u = v + w
    witness: tuple[IntVec, IntVec, IntVec] | None = None


def dispensability_witness(u: Sequence[int], G: GraverBasis) -> Witness | None:
    """A proper semiconformal decomposition u = v +_sc w, or None.

    Takes the first w != u of +-G, in `full_set()` order, with w- <= u- or
    w+ <= u+, and returns (u-w, w) in the first case, else (w, u-w); both
    orderings matter because semiconformality is not symmetric. The verdict
    is shared by u and -u. +-G is an antichain, so u is in it exactly when
    the one row below u is u itself.
    """
    u = sign_canonical(u)
    index = G.signed_index
    pos, neg, free = positive_part(u), negative_part(u), (math.inf,) * index.n
    own = index.below(pos + neg)
    if not own or own & (own - 1) or index.vectors[own.bit_length() - 1] != u:
        raise PreconditionError(f"{u} is not a Graver basis element (up to sign)")
    minus = index.below(free + neg)
    hits = (minus | index.below(pos + free)) & ~own
    if not hits:
        return None
    first = hits & -hits
    w = index.vectors[first.bit_length() - 1]
    v = vec_sub(u, w)
    witness = (v, w) if first & minus else (w, v)
    if not is_semiconformal_sum(u, *witness):
        raise GraverKitError(f"dominance query returned a non-semiconformal pair for {u}")
    return witness


def is_indispensable(u: Sequence[int], G: GraverBasis) -> bool:
    return dispensability_witness(u, G) is None


def indispensable_set(
    A: IntMat, budget: Budget | None = None, G: GraverBasis | None = None
) -> IndispensableSet:
    """Filter the Graver basis down to S(A). Requires a pointed kernel."""
    if G is None:
        G = graver_basis(A, budget=budget)
    if not assert_pointed(A, G):
        raise PreconditionError("matrix is not pointed: Ker(A) meets N^n \\ {0}")
    kept = tuple(u for u in G.elements if dispensability_witness(u, G) is None)
    return IndispensableSet(n=G.n, elements=kept)


def is_strongly_robust(
    A: IntMat, budget: Budget | None = None, G: GraverBasis | None = None
) -> RobustnessCertificate:
    """Decide Gr(A) = S(A); on failure include a validated witness triple."""
    if G is None:
        G = graver_basis(A, budget=budget)
    S = indispensable_set(A, G=G).as_set()
    u = next((u for u in G.elements if u not in S), None)
    return RobustnessCertificate(
        strongly_robust=u is None,
        graver_size=len(G),
        indispensable_size=len(S),
        witness=None if u is None else (u, *dispensability_witness(u, G)),
    )

"""Graver bases, circuits, and generalized primitive sets.

The Graver basis is computed by a Pottier-style completion over the saturated
kernel lattice: seed with a lattice basis and its negations, repeatedly form
pairwise sums with cancellation, conformally reduce each sum to a normal form
against the current set, and insert nonzero normal forms. At the fixpoint the
conformally minimal elements are exactly the Graver basis. Pair generation
pairs each new element with every stored vector in one numpy pass over the
index's stack. Reduction finds each reducer with one index scan that resumes
past the previous one and subtracts all its multiples that still divide; the
chains are those of one reducer per step.

All arithmetic is exact. Every conformal-dominance test outside the oracles
goes through `ConformalIndex`, which has one code path for each operation.
Its stack is int64 while every entry is provably far below the int64 range,
and holds exact Python ints (dtype object) from then on.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import logging
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import BudgetExceededError, PreconditionError
from .linalg import (
    IntMat,
    IntVec,
    kernel_lattice,
    negative_part,
    one_norm,
    positive_part,
    sign_canonical,
    vec_neg,
    vec_sub,
)

log = logging.getLogger(__name__)

# Above this magnitude the index leaves int64 for exact Python ints; sums of
# two in-range vectors must stay representable.
_NP_SAFE_BOUND = 1 << 60


@dataclass(frozen=True)
class Budget:
    """Resource caps for one completion run."""

    max_candidates: int = 2_000_000
    max_seconds: float = 600.0


DEFAULT_BUDGET = Budget()


@dataclass(frozen=True)
class GraverBasis:
    """Canonical Graver basis: one sign-normalized representative per +/- pair."""

    n: int
    elements: tuple[IntVec, ...]
    matrix_hash: str

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def as_set(self) -> frozenset[IntVec]:
        return frozenset(self.elements)

    def full_set(self) -> frozenset[IntVec]:
        """Both signs of every element."""
        return frozenset(self.elements) | frozenset(vec_neg(u) for u in self.elements)

    def contains_up_to_sign(self, u: Sequence[int]) -> bool:
        return sign_canonical(u) in self.as_set()

    @functools.cached_property
    def signed_index(self) -> ConformalIndex:
        """Both signs of every element, in `full_set()` order, indexed once."""
        return ConformalIndex(self.n, self.full_set())


@dataclass(frozen=True)
class CircuitSet:
    n: int
    elements: tuple[IntVec, ...]

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def as_set(self) -> frozenset[IntVec]:
        return frozenset(self.elements)


# ---------------------------------------------------------------------------
# conformal dominance

class ConformalIndex:
    """A set of vectors under conformal-dominance queries (g+ <= p and g- <= m).

    Row i of the stack holds (g+, g-) of stored vector i. A query bounds g+,
    g- or both; a half left as None is bounded by the largest stored entry,
    which every row meets. Vectors stored early have small norms and satisfy
    most later queries, so `find` scans geometrically growing chunks from the
    front. Every operation has one code path, and the stack's dtype makes it
    exact: int64 while every entry stays far below the int64 range, converted
    once to Python ints (dtype object) by the first `add` that crosses it.
    """

    _FIRST_CHUNK = 128

    def __init__(self, n: int, vectors: Iterable[IntVec] = ()):
        self.n = n
        self.vectors: list[IntVec] = []
        self.members: set[IntVec] = set()
        self.parts: list[tuple[int, ...]] = []  # concatenated (pos, neg)
        self._top = 0
        self._cap = 256
        self._stack = np.zeros((self._cap, 2 * n), dtype=np.int64)
        self._np_ok = True
        for v in vectors:
            self.add(v)

    def __len__(self) -> int:
        return len(self.vectors)

    def add(self, v: IntVec) -> None:
        row = positive_part(v) + negative_part(v)
        k = len(self.vectors)
        self.vectors.append(v)
        self.members.add(v)
        self.parts.append(row)
        self._top = max([self._top, *row])
        if self._np_ok and self._top >= _NP_SAFE_BOUND // 2:
            self._np_ok = False
            self._stack = self._stack.astype(object)
        if k == self._cap:
            self._cap *= 2
            grown = np.zeros((self._cap, 2 * self.n), dtype=self._stack.dtype)
            grown[:k] = self._stack[:k]
            self._stack = grown
        self._stack[k] = row

    def find(self, pos: IntVec | None, neg: IntVec | None, start: int = 0) -> int:
        """First index >= start of a stored g with g+ <= pos and g- <= neg, or -1."""
        if pos is None or neg is None:
            free = (self._top,) * self.n
            pos, neg = (free if pos is None else pos), (free if neg is None else neg)
        return self._scan(pos + neg, False, start)

    def dominators(self, idx: int) -> int:
        """How many stored vectors are conformally <= vector idx (including itself)."""
        return self._scan(self.parts[idx], True, 0)

    def pair_sums(self, v: IntVec) -> list[IntVec]:
        """Sign-canonical nonzero v + g for every stored g that cancels v somewhere.

        The sums come in stack order. Cancellation is read off signs, so no
        product can overflow.
        """
        safe = self._np_ok and max(map(abs, v), default=0) < _NP_SAFE_BOUND // 2
        # on an int64 stack entries are < _NP_SAFE_BOUND // 2, so the pair sums fit in int64
        stack = self._stack[: len(self)]
        G = stack[:, : self.n] - stack[:, self.n :]
        u = np.array(v, dtype=np.int64 if safe else object)
        S = G[(np.sign(G) * np.sign(u) < 0).any(axis=1)] + u
        S = S[(S != 0).any(axis=1)]
        S *= np.sign(S[np.arange(len(S)), (S != 0).argmax(axis=1)])[:, None]
        return list(map(tuple, S.tolist()))

    def _scan(self, query: tuple[int, ...], count_all: bool, start: int) -> int:
        """First index >= start with row <= query, or the number of such rows."""
        k = len(self.vectors)
        if start >= k:
            return 0 if count_all else -1
        safe = self._np_ok and max(query, default=0) < _NP_SAFE_BOUND
        q = np.array(query, dtype=np.int64 if safe else object)
        if count_all:
            return int((self._stack[:k] <= q).all(axis=1).sum())
        chunk = self._FIRST_CHUNK
        while start < k:
            end = min(k, start + chunk)
            mask = (self._stack[start:end] <= q).all(axis=1)
            hit = int(mask.argmax())
            if mask[hit]:
                return start + hit
            start = end
            chunk *= 8
        return -1


# ---------------------------------------------------------------------------
# completion engine

def _complete_lattice(
    basis: Sequence[IntVec], n: int, budget: Budget
) -> list[IntVec]:
    """Run the completion; return canonical sorted Graver representatives."""
    if not basis:
        return []
    index = ConformalIndex(n)
    members = index.members

    def insert(v: IntVec) -> None:
        # keep +/- side by side so reduction chains mirror under negation
        for w in (v, vec_neg(v)):
            if w not in members:
                index.add(w)

    for b in basis:
        insert(b)

    heap: list[tuple[int, IntVec]] = []
    queued: set[IntVec] = set()
    generated = 0

    def enqueue_pairs(v: IntVec) -> None:
        nonlocal generated
        for s in index.pair_sums(v):
            if s not in queued:
                queued.add(s)
                generated += 1
                heapq.heappush(heap, (one_norm(s), s))

    for v in index.vectors:
        enqueue_pairs(v)

    start = time.monotonic()
    pops = scans = subtractions = inserts = 0
    while heap:
        if generated > budget.max_candidates:
            raise BudgetExceededError("elements", budget.max_candidates, generated)
        if time.monotonic() - start > budget.max_seconds:
            raise BudgetExceededError("time", budget.max_seconds, generated)
        _, s = heapq.heappop(heap)
        pops += 1
        if s in members:
            continue
        # Normal form of s. Each step subtracts a g conformal to s, so q = (s+, s-)
        # only shrinks and a row that fails q fails it for good: reducer i is
        # subtracted while it divides (k times at once on q), then scan from i + 1.
        q, i = positive_part(s) + negative_part(s), -1
        while s is not None:
            i = index._scan(q, False, i + 1)
            scans += 1
            if i < 0:
                break
            p, g = index.parts[i], index.vectors[i]
            k = min(a // b for a, b in zip(q, p) if b)
            q = tuple(a - k * b for a, b in zip(q, p))
            for _ in range(k):
                s = vec_sub(s, g)
                subtractions += 1
                if not any(s) or s in members:
                    s = None
                    break
        if s is not None:
            insert(s)
            inserts += 1
            enqueue_pairs(s)

    minimal = []
    for i, v in enumerate(index.vectors):
        if time.monotonic() - start > budget.max_seconds:
            raise BudgetExceededError("time", budget.max_seconds, generated)
        if index.dominators(i) == 1:
            minimal.append(sign_canonical(v))
    kept = sorted(set(minimal))
    log.debug("completion: %s", dict(pops=pops, scans=scans, subtractions=subtractions,
              inserts=inserts, generated=generated, index=len(index), kept=len(kept)))
    return kept


_GRAVER_MEMO: dict[tuple, GraverBasis] = {}


def graver_basis(A: IntMat, budget: Budget | None = None) -> GraverBasis:
    """Exact Graver basis of Ker_Z(A), canonical order, one element per +/- pair.

    Raises BudgetExceededError when the completion outgrows its caps; that is
    a resource condition, reported distinctly from any mathematical failure.
    """
    key = (A.rows, A.ncols)
    if key in _GRAVER_MEMO:
        return _GRAVER_MEMO[key]
    budget = budget or DEFAULT_BUDGET
    lattice = kernel_lattice(A)
    elements = _complete_lattice(lattice.vectors, A.ncols, budget)
    result = GraverBasis(n=A.ncols, elements=tuple(elements), matrix_hash=A.content_hash())
    _GRAVER_MEMO[key] = result
    return result


# ---------------------------------------------------------------------------
# primitive elements of arbitrary sets

def is_primitive_in(u: Sequence[int], S: Iterable[IntVec]) -> bool:
    """True iff no v in S, v != u, has v+ <= u+ and v- <= u-."""
    u = tuple(u)
    pool = list(set(map(tuple, S)))
    if u not in pool:
        raise PreconditionError(f"{u} is not a member of the given set")
    return ConformalIndex(len(u), pool).dominators(pool.index(u)) == 1


def graver_of_set(S: Iterable[IntVec]) -> frozenset[IntVec]:
    """The primitive elements of S (with respect to membership in S itself)."""
    pool = list(set(map(tuple, S)))
    if not pool:
        return frozenset()
    index = ConformalIndex(len(pool[0]), pool)
    return frozenset(v for i, v in enumerate(pool) if index.dominators(i) == 1)


# ---------------------------------------------------------------------------
# circuits

def circuits(A: IntMat) -> CircuitSet:
    """All circuits of A up to sign: minimal-support primitive kernel vectors.

    A column subset J supports a circuit iff rank(A_J) = |J| - 1 and the
    kernel vector of A_J has full support; the vector itself comes out of the
    saturated rank-one kernel, hence with coprime entries.
    """
    n = A.ncols
    found: set[IntVec] = set()

    # zero columns are circuits on their own
    for j in range(n):
        if all(A.rows[k][j] == 0 for k in range(A.nrows)):
            u = [0] * n
            u[j] = 1
            found.add(tuple(u))

    r = A.rank()
    for k in range(2, min(r + 1, n) + 1):
        for J in itertools.combinations(range(n), k):
            sub = IntMat.from_rows(
                [[A.rows[t][j] for j in J] for t in range(A.nrows)]
            )
            lat = kernel_lattice(sub)
            if lat.rank != 1:
                continue
            u = lat.vectors[0]
            if any(x == 0 for x in u):
                continue
            full = [0] * n
            for pos, j in enumerate(J):
                full[j] = u[pos]
            found.add(sign_canonical(full))
    return CircuitSet(n=n, elements=tuple(sorted(found)))


# ---------------------------------------------------------------------------
# pointedness

def assert_pointed(A: IntMat, G: GraverBasis | None = None) -> bool:
    """True iff Ker_Z(A) meets the nonnegative orthant only in 0.

    A nonzero nonnegative kernel vector exists iff a conformally minimal one
    does, so scanning the Graver basis decides the question exactly.
    """
    if G is None:
        G = graver_basis(A)
    for g in G.elements:
        if all(x >= 0 for x in g) or all(x <= 0 for x in g):
            return False
    return True

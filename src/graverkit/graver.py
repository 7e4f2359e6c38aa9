"""Graver bases, circuits, and generalized primitive sets.

The Graver basis is computed by a Pottier-style completion over the saturated
kernel lattice: seed with a lattice basis and its negations, repeatedly form
pairwise sums with cancellation, conformally reduce each sum to a normal form
against the current set, and insert nonzero normal forms. At the fixpoint the
conformally minimal elements are exactly the Graver basis. Pair generation
pairs each new element with every stored vector in one numpy pass over the
index's stack and drops the sums queued before while they are still rows of
that pass, so only new sums become tuples. Reduction makes one ascending pass
over the stored vectors below the popped sum and subtracts each while it
still divides the shrinking remainder; the chains are those of one reducer
per step.

All arithmetic is exact. Every conformal-dominance test outside the oracles
goes through `ConformalIndex`, which has one code path for each operation.
Queries for the rows below a bound, and dominator counts, are answered from
per-column threshold bitsets on Python ints. Pair generation alone runs on a
numpy stack, int64 while every entry is provably far below the int64 range and
exact Python ints (dtype object) from then on; numpy is imported by the first
pair sum, so a process that computes no Graver basis never loads it.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import logging
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import gt, sub
from typing import Iterable, Iterator, Sequence

from .errors import BudgetExceededError, PreconditionError
from .linalg import (
    IntMat,
    IntVec,
    kernel_lattice,
    negative_part,
    positive_part,
    sign_canonical,
    vec_neg,
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
        return tuple(u) in self.signed_index.members

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

    Row i, `parts[i]`, holds (g+, g-) of stored vector i. A query bounds g+,
    g- or both; a half left as None is bounded by the largest stored entry,
    which every row meets.

    `below`, `find` and `dominators` read threshold bitsets: for each of the
    2n columns, the sorted distinct entries and, per entry, a Python int whose
    bit i is set iff row i's entry in that column is <= it. A query is one
    bisection and one `&` per column, exact at any size; `dominators` is the
    popcount of the query by the row itself. The rows added since the last
    query are folded in by the next one, a column at a time, in time linear
    in the column's distinct entries and the new rows.

    `pair_sums` alone uses numpy, on a stack of the rows that it builds at its
    first call and extends at later ones. The stack is int64 while every entry
    stays far below the int64 range (`_np_ok`, kept by `add`), and is converted
    once to Python ints (dtype object) by the first `pair_sums` after an `add`
    crosses it.
    """

    def __init__(self, n: int, vectors: Iterable[IntVec] = ()):
        self.n = n
        self.vectors: list[IntVec] = []
        self.members: set[IntVec] = set()
        self.parts: list[tuple[int, ...]] = []  # concatenated (pos, neg)
        self._top = 0
        self._np_ok = True
        self._stack = None  # numpy rows 0.._stacked-1 of parts, spare rows after
        self._stacked = 0
        self._sums: set = set()  # keys of the pair sums returned so far
        self._byte_keys = True
        self._folded = 0  # rows 0.._folded-1 are in the bitsets
        self._values: list[list[int]] = [[] for _ in range(2 * n)]
        self._masks: list[list[int]] = [[] for _ in range(2 * n)]
        for v in vectors:
            self.add(v)

    def __len__(self) -> int:
        return len(self.vectors)

    def add(self, v: IntVec) -> None:
        row = tuple([x if x > 0 else 0 for x in v] + [-x if x < 0 else 0 for x in v])
        self.vectors.append(v)
        self.members.add(v)
        self.parts.append(row)
        self._top = max([self._top, *row])
        if self._np_ok and self._top >= _NP_SAFE_BOUND // 2:
            self._np_ok = False

    def _fold(self) -> None:
        """Fold the rows stored since the last query into the bitsets.

        Per column: group the new rows by entry, insert each new entry as a
        threshold that copies the mask below it, then one ascending walk ORs
        the running union of the new rows into every threshold from the
        smallest new entry up.
        """
        first, k = self._folded, len(self.parts)
        bits = [1 << i for i in range(first, k)]
        for values, masks, column in zip(self._values, self._masks, zip(*self.parts[first:])):
            new: dict[int, int] = {}  # entry -> the new rows holding it
            for x, bit in zip(column, bits):
                new[x] = new.get(x, 0) | bit
            entries = sorted(new)
            at = []  # each entry's threshold; inserting in ascending order keeps them valid
            for x in entries:
                j = bisect_left(values, x)
                if j == len(values) or values[j] != x:
                    values.insert(j, x)
                    masks.insert(j, masks[j - 1] if j else 0)
                at.append(j)
            at.append(len(values))
            union = 0
            for x, lo, hi in zip(entries, at, at[1:]):
                union |= new[x]
                for t in range(lo, hi):
                    masks[t] |= union
        self._folded = k

    def _hits(self, query: tuple[int, ...], start: int = 0) -> int:
        """The bitset of the rows i >= start whose row (g+, g-) is <= query."""
        k = len(self.parts)
        if self._folded < k:
            self._fold()
        hits = ((1 << k) - 1) >> start << start
        for values, masks, x in zip(self._values, self._masks, query):
            j = bisect_right(values, x)
            if not j:
                return 0
            hits &= masks[j - 1]
        return hits

    def below(self, query: tuple[int, ...], start: int = 0) -> Iterator[int]:
        """Every index i >= start whose row (g+, g-) is <= query, in ascending order."""
        hits = self._hits(query, start)
        while hits:
            low = hits & -hits
            yield low.bit_length() - 1
            hits ^= low

    def find(self, pos: IntVec | None, neg: IntVec | None, start: int = 0) -> int:
        """First index >= start of a stored g with g+ <= pos and g- <= neg, or -1."""
        if pos is None or neg is None:
            free = (self._top,) * self.n
            pos, neg = (free if pos is None else pos), (free if neg is None else neg)
        return next(self.below(pos + neg, start), -1)

    def dominators(self, idx: int) -> int:
        """How many stored vectors are conformally <= vector idx (including itself)."""
        return self._hits(self.parts[idx]).bit_count()

    def pair_sums(self, v: IntVec) -> list[tuple[int, IntVec]]:
        """(|s|_1, s) for each sign-canonical nonzero s = v + g, g stored and
        cancelling v somewhere, that no earlier call returned.

        The sums come in stack order. Cancellation is read off signs, so no
        product can overflow. While every sum has been int64, the sums returned
        are remembered by their row bytes, so repeats are dropped before any
        tuple is built; the first sum computed on exact ints turns those keys
        into tuples, once, as the stack is converted once.
        """
        import numpy as np  # here only: no other operation of the package needs numpy

        k, stack = len(self.parts), self._stack
        if stack is None:
            stack = np.zeros((max(k, 256), 2 * self.n), dtype=np.int64 if self._np_ok else object)
        elif not self._np_ok and stack.dtype != object:
            stack = stack.astype(object)
        if k > len(stack):
            grown = np.zeros((max(k, 2 * len(stack)), 2 * self.n), dtype=stack.dtype)
            grown[: self._stacked] = stack[: self._stacked]
            stack = grown
        if k > self._stacked:
            stack[self._stacked : k] = self.parts[self._stacked : k]
        self._stack, self._stacked = stack, k
        stack = stack[:k]

        safe = self._np_ok and max(map(abs, v), default=0) < _NP_SAFE_BOUND // 2
        # on an int64 stack entries are < _NP_SAFE_BOUND // 2, so the pair sums fit in int64
        u = np.array(v, dtype=np.int64 if safe else object)
        R = stack[(stack != 0) @ np.concatenate([u < 0, u > 0])]  # rows of the g that cancel v
        S = R[:, : self.n] - R[:, self.n :] + u
        S = S[S.any(axis=1)]
        S *= np.sign(S[np.arange(len(S)), (S != 0).argmax(axis=1)])[:, None]
        if self._byte_keys and not safe:
            self._byte_keys = False
            rows = np.frombuffer(b"".join(self._sums), dtype=np.int64).reshape(-1, self.n)
            self._sums = set(map(tuple, rows.tolist()))
        if self._byte_keys:
            keys = S.view(np.dtype((np.void, S.itemsize * self.n))).ravel().tolist()
        else:
            keys = list(map(tuple, S.tolist()))
        seen = self._sums
        new = [j for j, key in enumerate(keys) if key not in seen and not seen.add(key)]
        return [(sum(map(abs, s)), s) for s in map(tuple, S[new].tolist())]


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
        # v is never a member, and members stays closed under negation, so
        # rows 2k and 2k+1 are always a +/- pair (reduction chains mirror)
        index.add(v)
        index.add(vec_neg(v))

    for b in basis:
        insert(b)

    heap: list[tuple[int, IntVec]] = []
    generated = 0

    def enqueue_pairs(v: IntVec) -> None:
        nonlocal generated
        sums = index.pair_sums(v)
        generated += len(sums)
        for entry in sums:
            heapq.heappush(heap, entry)

    start = time.monotonic()
    for v in index.vectors:
        enqueue_pairs(v)

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
        # only shrinks and a row that fails q fails it for good: one ascending
        # pass over the rows <= the first q, skipping those the shrunk q has
        # dropped, meets the reducers in order; each is subtracted while it
        # divides. s is never a member before a subtraction, so s - g != 0.
        q = positive_part(s) + negative_part(s)
        for i in index.below(q):
            p = index.parts[i]
            if any(map(gt, p, q)):
                continue
            scans += 1
            g = index.vectors[i]
            s = tuple(map(sub, s, g))
            subtractions += 1
            while s not in members:
                q = tuple(map(sub, q, p))
                if any(map(gt, p, q)):
                    break
                s = tuple(map(sub, s, g))
                subtractions += 1
            else:
                break  # s reduced to a stored vector
        else:
            scans += 1  # the scan that finds no reducer
            insert(s)
            inserts += 1
            enqueue_pairs(s)

    # u is conformally minimal iff -u is, so one sign of each pair decides
    minimal = []
    for i in range(0, len(index), 2):
        if time.monotonic() - start > budget.max_seconds:
            raise BudgetExceededError("time", budget.max_seconds, generated)
        if index.dominators(i) == 1:
            minimal.append(sign_canonical(index.vectors[i]))
    kept = sorted(minimal)
    log.debug("completion: %s", dict(pops=pops, scans=scans, subtractions=subtractions,
              inserts=inserts, generated=generated, index=len(index), kept=len(kept)))
    return kept


_GRAVER_MEMO: dict[tuple, GraverBasis] = {}


def graver_basis(A: IntMat, budget: Budget | None = None) -> GraverBasis:
    """Exact Graver basis of Ker_Z(A), canonical order, one element per +/- pair.

    Raises BudgetExceededError when the completion outgrows its caps; that is
    a resource condition, reported distinctly from any mathematical failure.
    A budget caps computation, not lookups: a basis this process has already
    computed is returned from memory whatever the budget.
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

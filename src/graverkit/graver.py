"""Graver bases, circuits, and generalized primitive sets.

The Graver basis is computed by a Pottier-style completion over the saturated
kernel lattice: seed with a lattice basis and its negations, repeatedly form
pairwise sums with cancellation, conformally reduce each sum to a normal form
against the current set, and insert nonzero normal forms. At the fixpoint the
conformally minimal elements are exactly the Graver basis. Pair generation
pairs each new element with the stored vectors that cancel it, read off the
index's bitsets, and drops the sums queued before by a packed integer key
that is one add per sum, so only new sums become tuples. Reduction makes one
ascending pass over the stored vectors below the popped sum and subtracts
each while it still divides the shrinking remainder; the chains are those of
one reducer per step.

All arithmetic is exact, on Python ints alone. Every conformal-dominance
test outside the oracles goes through `ConformalIndex`, which has one code
path for each operation: queries for the rows below a bound, dominator
counts and the rows that cancel a vector are all answered from per-column
threshold bitsets.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import logging
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import gt, lshift, neg, sub
from typing import Iterable, Iterator, Sequence

from .errors import BudgetExceededError, PreconditionError
from .linalg import (
    IntMat,
    IntVec,
    kernel_lattice,
    negative_part,
    positive_part,
    sign_canonical,
    vec_add,
    vec_neg,
)

log = logging.getLogger(__name__)

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
    popcount of the query by the row itself, optionally with one coordinate
    left free (both its columns bounded by the largest entry). The rows added since the last
    query are folded in by the next one, a column at a time, in time linear
    in the column's distinct entries and the new rows.

    `pair_sums` reads the rows that cancel a vector off the lowest threshold
    of each column, and drops repeated sums by packed integer keys, which it
    alone builds: one per row, and a set of the keys of the sums it has
    returned.
    """

    def __init__(self, n: int, vectors: Iterable[IntVec] = ()):
        self.n = n
        self.vectors: list[IntVec] = []
        self.members: set[IntVec] = set()
        self.parts: list[tuple[int, ...]] = []  # concatenated (pos, neg)
        self._top = 0
        self._width = 0  # W of the packed keys; 0 until the first pair_sums
        self._keys: list[int] = []  # packed keys of rows 0..len-1
        self._sums: list[IntVec] = []  # every pair sum returned so far
        self._seen: set[int] = set()  # 0 and the keys of both signs of each
        self._folded = 0  # rows 0.._folded-1 are in the bitsets
        self._values: list[list[int]] = [[] for _ in range(2 * n)]
        self._masks: list[list[int]] = [[] for _ in range(2 * n)]
        for v in vectors:
            self.add(v)

    def __len__(self) -> int:
        return len(self.vectors)

    def add(self, v: IntVec) -> None:
        if len(v) != self.n:
            raise ValueError(f"{v} has {len(v)} entries, not {self.n}")
        row = tuple([x if x > 0 else 0 for x in v] + [-x if x < 0 else 0 for x in v])
        self.vectors.append(v)
        self.members.add(v)
        self.parts.append(row)
        self._top = max([self._top, *row])

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

    def dominators(self, idx: int, free: int | None = None) -> int:
        """How many stored vectors are conformally <= vector idx (including
        itself), leaving coordinate `free` (0-based) unbounded if given."""
        query = list(self.parts[idx])
        if free is not None:
            query[free] = query[free + self.n] = self._top
        return self._hits(query).bit_count()

    def pair_sums(self, v: IntVec) -> list[tuple[int, IntVec]]:
        """(|s|_1, s) for each sign-canonical nonzero s = v + g, g stored and
        cancelling v somewhere, that no earlier call returned, in row order.

        The rows that cancel v are read off the bitsets: those with g+ > 0 in
        a column where v < 0, or g- > 0 where v > 0. Repeats are dropped by
        the packed key key(u) = sum of u_c * 2^(W*c), which is linear, so a
        sum's key is one add of two stored keys. It is injective on vectors
        whose entries all have |u_c| < 2^(W-1): the difference d of two such
        vectors has |d_c| < 2^W, so if c is the first column with d_c != 0,
        key(d) is d_c * 2^(W*c) modulo 2^(W*(c+1)), which is not 0. W is
        at least bit_length(m) + 2 for m the largest |entry| of v and of the
        rows, so every sum v + g, and every sum returned before, meets that
        bound. When W must grow it at least doubles, and the row keys and
        the seen set are rebuilt. The seen set holds 0 and both signs of
        every sum returned so far, so only new sums become tuples.
        """
        k = len(self.parts)
        if not k:
            return []
        if self._folded < k:
            self._fold()
        need = max(self._top, *map(abs, v)).bit_length() + 2
        if need > self._width:
            self._width = max(need, 2 * self._width)
            self._keys = list(map(self._key, self.vectors))
            keys = list(map(self._key, self._sums))
            self._seen = {0, *keys, *map(neg, keys)}
        elif len(self._keys) < k:
            self._keys += map(self._key, self.vectors[len(self._keys):])
        every, rows = (1 << k) - 1, 0
        for c, x in enumerate(v):
            if x:
                col = c if x < 0 else c + self.n  # the half where g has the other sign
                rows |= every ^ self._masks[col][0] if self._values[col][0] == 0 else every
        kv, seen, new = self._key(v), self._seen, []
        cancelling = map("1".__eq__, bin(rows)[:1:-1])  # the bits of rows, lowest first
        for kg, g in itertools.compress(zip(self._keys, self.vectors), cancelling):
            key = kv + kg
            if key not in seen:
                seen.add(key)
                seen.add(-key)
                s = sign_canonical(vec_add(v, g))
                self._sums.append(s)
                new.append((sum(map(abs, s)), s))
        return new

    def _key(self, u: IntVec) -> int:
        return sum(map(lshift, u, range(0, self._width * self.n, self._width)))


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


_GRAVER_MEMO_SIZE = 64
_GRAVER_MEMO: dict[tuple, GraverBasis] = {}  # at most _GRAVER_MEMO_SIZE, oldest out first


def graver_basis(A: IntMat, budget: Budget | None = None) -> GraverBasis:
    """Exact Graver basis of Ker_Z(A), canonical order, one element per +/- pair.

    Raises BudgetExceededError when the completion outgrows its caps; that is
    a resource condition, reported distinctly from any mathematical failure.
    A budget caps computation, not lookups: a basis still in the memo (the
    last `_GRAVER_MEMO_SIZE` computed) is returned whatever the budget.
    """
    key = (A.rows, A.ncols)
    if key in _GRAVER_MEMO:
        return _GRAVER_MEMO[key]
    budget = budget or DEFAULT_BUDGET
    lattice = kernel_lattice(A)
    elements = _complete_lattice(lattice.vectors, A.ncols, budget)
    result = GraverBasis(n=A.ncols, elements=tuple(elements), matrix_hash=A.content_hash())
    if len(_GRAVER_MEMO) >= _GRAVER_MEMO_SIZE:
        del _GRAVER_MEMO[next(iter(_GRAVER_MEMO))]
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

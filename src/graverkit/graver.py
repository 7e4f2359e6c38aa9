"""Graver bases, circuits, and generalized primitive sets.

Only the kernel lattices of simple matrices are computed. Any other matrix
with a nonzero kernel is answered from its bouquet ideal, Gr(A) = D(Gr(A_B))
and likewise for circuits, where D is the kernel isomorphism of the bouquet
decomposition (proof in `graver_basis`). Graver bases are memoized under the
canonical basis of the kernel lattice, so every matrix with one lattice, and
every lifting of one monomial curve, shares one computation.

A lattice of rank 2, such as that of every 1x3 monomial curve, is answered
in closed form by `_rank2_graver`: its Graver basis is the union of the
Hilbert bases of its sign sectors, the plane cones between the lines where
one coordinate vanishes, and each is a Hirzebruch-Jung continued-fraction
walk (proof in its docstring). A lattice of rank d >= 3, such as that of
every 1xs curve with s >= 4, is computed by project-and-lift
(`_project_and_lift`): complete its projection onto d columns, a full-rank
lattice of Z^d, then lift the other columns one at a time, each by a
completion that forms only the pairs its lifting lemma needs. A lattice of
rank 0 or 1 is its own Graver basis up to sign: nothing, or the primitive
generator of its saturated basis.

A completion is Pottier-style: seed with a lattice basis and its negations,
repeatedly form pairwise sums with cancellation, and insert what the stored
vectors do not reduce away. At the fixpoint the conformally minimal
elements of the projection stage are exactly its Graver basis, and a lift
stage stores its Graver basis and nothing else. Pair generation pairs one
sign of each new element with the vectors stored before it that cancel it,
read off the index's bitsets, and drops the sums queued before by value: a
set holds the sign-canonical form of every sum queued so far. A lift also
skips, unformed, every pair whose sum a vector stored below one of its
parents is sure to reduce (the kappa rule). Both stages decide a popped
sum by one loop of index queries for the first stored vector below it:
none, and the sum is inserted. Otherwise the projection stage subtracts
that vector and queries again, so it inserts the sum's normal form when
that is not stored already, and the chains are those of one reducer per
step; a lift stage drops the sum unreduced. A lift pops its sums level by
level, by their one-norm off the lifted column, decides a level's pops
against the index as the level began and stores the level's irreducible
sums together, in one fold of the index (proofs in `_project_and_lift`).

All arithmetic is exact, on Python ints alone. Every conformal-dominance
test outside the oracles goes through `ConformalIndex`, which has one code
path for each operation: the first row below a bound, dominator counts and
the rows that cancel a vector are all answered from per-column threshold
bitsets.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import logging
import math
import operator
import time
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from operator import add, sub
from typing import Iterable, Sequence

from .bouquet import BouquetDecomposition, bouquet_decomposition, d_map, simple_gale
from .errors import BudgetExceededError, PreconditionError
from .linalg import (
    IntMat,
    IntVec,
    _xgcd_min,
    kernel_lattice,
    negative_part,
    positive_part,
    sign_canonical,
    vec_neg,
)

log = logging.getLogger(__name__)

@dataclass(frozen=True)
class Budget:
    """Resource caps for one Graver basis computation.

    `max_candidates` caps the candidates: the pair sums formed in every
    stage of project-and-lift together, or the vectors the rank-2 walks
    emit. A pair that a lift skips by its kappa rule forms no sum and is
    no candidate. `max_seconds` caps the wall time, from the first seed to
    the last pop or minimality filter; only the projection stage has a
    filter, a lift stores nothing to filter out. A lattice of rank 0 or 1, answered in
    closed form, spends neither. ValueError for a negative or NaN cap.
    """

    max_candidates: int = 2_000_000
    max_seconds: float = 600.0

    def __post_init__(self):
        object.__setattr__(self, "max_candidates", operator.index(self.max_candidates))
        if self.max_candidates < 0:
            raise ValueError(f"max_candidates must be >= 0, got {self.max_candidates}")
        if not self.max_seconds >= 0:  # false for NaN as well
            raise ValueError(f"max_seconds must be >= 0, got {self.max_seconds}")


DEFAULT_BUDGET = Budget()


@dataclass(frozen=True)
class VectorSet:
    """n and a tuple of vectors of length n; equal only to the same class."""

    n: int
    elements: tuple[IntVec, ...]

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def as_set(self) -> frozenset[IntVec]:
        return frozenset(self.elements)


@dataclass(frozen=True)
class GraverBasis(VectorSet):
    """Canonical Graver basis: one sign-normalized representative per +/- pair."""

    def full_set(self) -> frozenset[IntVec]:
        """Both signs of every element."""
        return frozenset(self.elements) | frozenset(vec_neg(u) for u in self.elements)

    @functools.cached_property
    def signed_index(self) -> ConformalIndex:
        """Both signs of every element, in `full_set()` order, indexed once."""
        return ConformalIndex(self.n, self.full_set())


@dataclass(frozen=True)
class CircuitSet(VectorSet):
    """Circuits up to sign: the minimal-support primitive kernel vectors."""


# ---------------------------------------------------------------------------
# conformal dominance

class ConformalIndex:
    """A set of vectors under conformal-dominance queries (g+ <= p and g- <= m).

    Row i, `parts[i]`, holds (g+, g-) of stored vector i. A query bounds g+,
    g- or both; a half left as None, or a coordinate left free, is bounded
    by infinity, which every row meets.

    Each of the 2n columns keeps a map from each of its entries to the
    bitset of the rows that hold it (a Python int, bit i for row i), its
    sorted distinct entries, and per entry a threshold bitset: the union of
    the map's bitsets over every entry <= it, so bit i is set iff row i's
    entry in the column is <= it. `find` and `dominators` are one bisection
    and one `&` per column, exact at any size: `find` reads the lowest set
    bit, `dominators` the popcount of the query by the row itself,
    optionally with one coordinate left free, and `kappa` the first entry of
    one column whose rows meet that query's hits. The rows added since the
    last query are folded in by the next one (see `_fold`).

    `pair_sums` reads the rows that cancel a vector off each column's map at
    0, or, by the lift rule of project-and-lift, those that cancel it in one
    column and share its signs in the others, optionally only the rows
    below a given one and less the pairs the lift's kappa rule skips, and
    drops repeated sums by value, through the one set of the sign-canonical
    sums it has returned, seeded with the zero vector.
    """

    def __init__(self, n: int, vectors: Iterable[IntVec] = ()):
        self.n = n
        self.vectors: list[IntVec] = []
        self.members: set[IntVec] = set()
        self.parts: list[tuple[int, ...]] = []  # concatenated (pos, neg)
        self._seen: set[IntVec] = {(0,) * n}  # 0 and every pair sum returned so far
        self._folded = 0  # rows 0.._folded-1 are in the bitsets
        self._rows: list[dict[int, int]] = [{} for _ in range(2 * n)]  # entry -> its rows
        self._values: list[list[int]] = [[] for _ in range(2 * n)]  # sorted keys of _rows
        self._masks: list[list[int]] = [[] for _ in range(2 * n)]  # thresholds of _values
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

    def _fold(self) -> None:
        """Fold the rows stored since the last query into the bitsets.

        Per column, the invariant is that masks[j] is the union of rows[x]
        over every entry x <= values[j]. Each new row's bit joins its entry's
        bitset, a new entry is inserted into the sorted values, and the
        thresholds from lo = bisect_left(values, min(new entries)) up are
        recomputed as running unions from masks[lo - 1]. The thresholds
        below lo cover no new row and no new entry, so they stay exact.
        """
        first, k = self._folded, len(self.parts)
        bits = [1 << i for i in range(first, k)]
        for values, masks, rows, column in zip(
                self._values, self._masks, self._rows, zip(*self.parts[first:])):
            for x, bit in zip(column, bits):
                if x in rows:
                    rows[x] |= bit
                else:
                    rows[x] = bit
                    insort(values, x)
            lo = bisect_left(values, min(column))
            union = masks[lo - 1] if lo else 0
            masks[lo:] = [union := union | rows[x] for x in values[lo:]]
        self._folded = k

    def _hits(self, query: tuple[int, ...], start: int = 0) -> int:
        """The bitset of the rows i >= start whose row (g+, g-) is <= query;
        an entry of inf bounds nothing."""
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

    def find(self, pos: IntVec | None, neg: IntVec | None, start: int = 0) -> int:
        """First index >= start of a stored g with g+ <= pos and g- <= neg, or -1."""
        if pos is None or neg is None:
            free = (math.inf,) * self.n
            pos, neg = pos or free, neg or free
        hits = self._hits(pos + neg, start)
        return (hits & -hits).bit_length() - 1

    def _below(self, idx: int, free: int | None) -> int:
        """The bitset of the rows conformally <= row idx, itself included,
        leaving coordinate `free` (0-based) unbounded if given."""
        query = list(self.parts[idx])
        if free is not None:
            query[free] = query[free + self.n] = math.inf
        return self._hits(query)

    def dominators(self, idx: int, free: int | None = None) -> int:
        """How many stored vectors are conformally <= vector idx (including
        itself), leaving coordinate `free` (0-based) unbounded if given."""
        return self._below(idx, free).bit_count()

    def kappa(self, idx: int, c: int) -> int | float:
        """kappa of row idx, v, in a lift on column c, J being every other
        column: |v_c| + min |r_c| over the stored rows r != v with r_J
        conformally below v_J and r_c v_c < 0, or inf when there is none
        (always when v_c = 0). The r are the rows below v with c left free,
        less v, that are nonzero in the half of column c opposite v_c's
        sign; the first entry of that half, in ascending order, whose rows
        meet them is the least |r_c|."""
        x = self.vectors[idx][c]
        if not x:
            return math.inf
        hits = self._below(idx, c) & ~(1 << idx)  # folds first
        col = c if x < 0 else c + self.n  # the half where r has the other sign
        rows = self._rows[col]
        hits &= ~rows.get(0, 0)
        if hits:
            for y in self._values[col]:
                if rows[y] & hits:
                    return abs(x) + y
        return math.inf

    def pair_sums(self, v: IntVec, lift: int | None = None, before: int | None = None,
                  kappa: Sequence[int | float] | None = None
                  ) -> tuple[list[tuple[int, IntVec]], int]:
        """(|s|_1, s) for each sign-canonical nonzero s = v + g, g stored and
        cancelling v somewhere, that no earlier call returned, in row order;
        and how many pairs the kappa rule skipped. With `before` a row index,
        only the g of rows below it. With `lift` a column c, only the g of
        the lift rule of `_project_and_lift`: g cancels v at c and
        g_i * v_i >= 0 in every other column i; none when v_c = 0. With
        `kappa` too, the lift's `kappa` of every stored row, v being row
        `before`, a pair with kappa(g) <= |v_c| or kappa(v) <= |g_c| is
        skipped: its sum is not formed.

        The rows that cancel v are read off the bitsets: those with g+ > 0 in
        a column where v < 0, or g- > 0 where v > 0; the others have
        g_c * v_c >= 0 there. Those with |g_c| < kappa(v) are a threshold of
        the half of column c where g has the other sign. Repeats are dropped
        by value: the seen set holds the zero vector and every sign-canonical
        sum returned so far, so a sum is new iff its sign-canonical form is
        not in it.
        """
        k = len(self.parts) if before is None else before
        if not k or lift is not None and not v[lift]:
            return [], 0
        if self._folded < len(self.parts):
            self._fold()
        every, rows = (1 << k) - 1, 0 if lift is None else (1 << k) - 1
        for c, x in enumerate(v):
            if x:
                col = c if x < 0 else c + self.n  # the half where g has the other sign
                same = self._rows[col].get(0, 0) & every
                if lift is None:
                    rows |= every ^ same
                else:
                    rows &= every ^ same if c == lift else same
        skipped, reach = 0, -1  # a row g with kappa(g) <= reach is skipped
        if kappa is not None:
            col = lift if v[lift] < 0 else lift + self.n
            j = bisect_left(self._values[col], kappa[before])  # entries < kappa(v)
            near = rows & self._masks[col][j - 1] if j else 0
            skipped, rows, reach = (rows ^ near).bit_count(), near, abs(v[lift])
        vectors, seen, new = self.vectors, self._seen, []
        # the set bits of rows, lowest first: one find per row, however sparse
        bits = bin(rows)[:1:-1]
        i = bits.find("1")
        while i >= 0:
            if reach >= 0 and kappa[i] <= reach:
                skipped += 1
            else:
                s = sign_canonical(tuple(map(add, v, vectors[i])))
                if s not in seen:
                    seen.add(s)
                    new.append((sum(map(abs, s)), s))
            i = bits.find("1", i + 1)
        return new, skipped


# ---------------------------------------------------------------------------
# completion engine

class _Spent:
    """The candidates and seconds one computation has spent over its stages:
    the clock runs from the first seed and is read before every pop, every
    row of the projection's minimality filter and every vector a walk
    emits, and the candidates are the pair sums of every finished stage, or
    the vectors the rank-2 walks have emitted."""

    def __init__(self, budget: Budget):
        self.budget = budget
        self.start = time.monotonic()
        self.generated = 0

    def check(self, generated: int) -> None:
        """Raise BudgetExceededError when the running stage's `generated`
        candidates, with the earlier stages', or the seconds pass their caps."""
        total = self.generated + generated
        if total > self.budget.max_candidates:
            raise BudgetExceededError("elements", self.budget.max_candidates, total)
        if time.monotonic() - self.start > self.budget.max_seconds:
            raise BudgetExceededError("time", self.budget.max_seconds, total)


def _completion_stage(
    seeds: Sequence[IntVec], n: int, spent: _Spent, lift: int | None = None
) -> tuple[list[IntVec], dict]:
    """Complete `seeds` to the conformally minimal vectors of the lattice they
    generate; their canonical sorted representatives and the stage's counters.

    Each popped sum s that is not a member runs one loop of `find` queries,
    which `scans` counts: with no stored vector below s, s is irreducible;
    with a first one g, a lift stage, `lift` a column c, drops s unreduced,
    and the projection stage subtracts g and queries again. The projection
    pops by |s|_1, stores each irreducible sum at once and keeps the stored
    rows that its minimality filter finds minimal. A lift pops by the
    J-norm |s_J|_1, J being every column but c, stores a level's irreducible
    sums together after the level's last pop, so one fold of the index
    covers the level, and keeps every row it stores. It forms only the pairs
    of `pair_sums`'s lift rule that its kappa rule does not skip, taking the
    kappa of the seeds once all are stored and of a level's rows once the
    level is stored; `_project_and_lift` proves all this exact when the
    seeds, with column c dropped, hold that projection's Graver basis. Each
    stage pairs one sign of each element with the rows stored before it:
    v + g and -v - g are one sum, so that forms every pair sum the stage
    would form against every row, once.

    The projection's reducers are those of one ascending pass, each
    subtracted while it divides. A step subtracts a g conformal to s, so the
    bound (s+, s-) only shrinks: the rows before g, not below s, are not
    below s - g, so the next `find` returns g while it still divides, and
    otherwise the next reducer in ascending order. No row is inserted during
    one pop, and s - g != 0, as s is never a member before a subtraction.
    """
    index = ConformalIndex(n)
    members = index.members
    kappa = None if lift is None else []  # a lift's kappa of every stored row

    def insert(v: IntVec) -> None:
        # v is never a member, and members stays closed under negation, so
        # rows 2k and 2k+1 are always a +/- pair (reduction chains mirror)
        index.add(v)
        index.add(vec_neg(v))

    heap: list[tuple[int, IntVec]] = []
    generated = skipped = 0

    def pair_from(first: int) -> None:
        # v + g and -v - g are one sum, so one sign of each element stored
        # from row `first` on is paired, with the rows stored before it
        nonlocal generated, skipped
        rows = range(first, len(index), 2)
        if kappa is not None:
            for i in rows:
                kappa.extend([index.kappa(i, lift)] * 2)  # kappa(-v) = kappa(v)
        for i in rows:
            sums, skips = index.pair_sums(index.vectors[i], lift, i, kappa)
            generated += len(sums)
            skipped += skips
            for norm, s in sums:
                # a lift pops by the J-norm, |s_J|_1, J being every column but c
                heapq.heappush(heap, (norm if lift is None else norm - abs(s[lift]), s))

    for b in seeds:
        insert(b)
    pair_from(0)

    pops = scans = subtractions = inserts = 0
    found: list[IntVec] = []  # the irreducible sums not yet stored
    while heap:
        spent.check(generated)
        level, s = heapq.heappop(heap)
        pops += 1
        while s not in members:
            i = index.find(positive_part(s), negative_part(s))
            scans += 1
            if i < 0:
                found.append(s)
                break
            if lift is not None:
                break  # a lift drops a reducible sum unreduced (proof in `_project_and_lift`)
            s = tuple(map(sub, s, index.vectors[i]))
            subtractions += 1
        # the projection stores each sum at once, a lift each level after its
        # last pop; all are stored before any is paired, so one fold covers them
        if found and (lift is None or not heap or heap[0][0] > level):
            first = len(index)
            for v in found:
                insert(v)
            pair_from(first)
            inserts += len(found)
            found.clear()

    if lift is None:
        # u is conformally minimal iff -u is, so one sign of each pair decides.
        # Only the clock can raise here: every sum is pushed and the drained
        # heap popped each one after a check, so the last check saw this
        # `generated` (or none ran and it is 0), and earlier stages' totals
        # passed the same way
        minimal = []
        for i in range(0, len(index), 2):
            spent.check(generated)
            if index.dominators(i) == 1:
                minimal.append(sign_canonical(index.vectors[i]))
    else:  # every stored row is in Gr (proof in `_project_and_lift`)
        minimal = [sign_canonical(v) for v in index.vectors[::2]]
    spent.generated += generated
    kept = sorted(minimal)
    counts = dict(pops=pops, scans=scans, subtractions=subtractions, inserts=inserts,
                  generated=generated, index=len(index), kept=len(kept))
    if lift is not None:
        counts["skipped"] = skipped  # the projection skips no pair
    return kept, counts


def _project_and_lift(basis: Sequence[IntVec], n: int, spent: _Spent) -> list[IntVec]:
    """Gr(L) of the rank-d lattice L with this basis, d >= 3, by project-and-lift
    (Hemmecke, "On the computation of Hilbert bases of cones", ICMS 2002; De
    Loera, Hemmecke and Koeppe, Algebraic and Geometric Ideas in the Theory of
    Discrete Optimization, 2013, ch. 3); canonical sorted representatives.

    - Project. P, the basis's columns S = `_projected_columns(basis)`, has
      det(P) != 0, so projecting onto any set of columns J that holds S is
      injective on L: a vector of L is known by its projection pi_J. pi_S(L)
      is the full-rank lattice of Z^d spanned by the rows of P, and its
      Graver basis is the completion's. The vector of L over u in pi_S(L)
      is u P^-1 B, B being the basis, so its column j is u.y / det(P) with
      y = adj(P) b_j, b_j the basis's column j; by Cramer's rule y_i is the
      determinant of P with its column i replaced by b_j. That is exact.
    - Lift. The other columns j are lifted one at a time, in ascending
      order. Let J be the columns done so far, S among them, and G the
      stage's seeds, with pi_J(G) = Gr(pi_J(L)). The stage completes
      pi_{J+j}(G) in pi_{J+j}(L), but forms the sum of two stored vectors
      only when they have the same sign (g_c h_c >= 0) on every column c
      of J and opposite signs at j; a v with v_j = 0 forms none. It never
      reduces: a popped sum is stored as it is when no stored vector lies
      conformally below it on J + j, and dropped otherwise. Its minimal
      vectors are Gr(pi_{J+j}(L)): every z in that Graver basis is stored
      at the fixpoint, by strong induction on |z_J|_1. z is a sum of
      stored vectors conformal to z on J, as pi_J(z) is a conformal sum of
      elements of Gr(pi_J(L)) and the projection is injective. Among these
      representations choose z = sum_i g_i with the least sum_i |g_ij|. If
      it is not conformal to z at j, a term against z's sign at j (or
      nonzero where z_j = 0) is offset by one of the other sign, as the
      g_ij add up to z_j: two terms g, h have g_j h_j < 0, and, both
      conformal to z on J, the same sign on J, so their sum s = g + h is a
      pair the stage formed and popped, or skipped by the kappa rule below.
      s was stored, or dropped or skipped for a stored r conformally below
      it: then s = r + w with w conformal to s, and |w_J|_1 < |s_J|_1 <=
      |z_J|_1, as r_J != 0 (pi_J is injective on pi_{J+j}(L)). So w is a
      conformal sum of elements of Gr(pi_{J+j}(L)), each of J-norm below
      |z_J|_1 and so stored by the induction. Either way s is a sum of
      stored vectors conformal to s, hence to z on J, whose entries at j
      sum in absolute value to |g_j + h_j| < |g_j| + |h_j|. Putting them in
      place of g and h gives a representation with a smaller sum at j,
      which contradicts the choice. So the representation is conformal on J + j, and z,
      conformally minimal, is one of its terms: a stored vector. The
      argument never uses the order of the pops. The projection stage
      has no such induction, as it starts from a bare lattice basis, and
      reduces every popped sum to a normal form.
    - Levels. The stage pops its sums by |s_J|_1, decides each pop of one
      level against the rows stored before the level began, and stores the
      level's irreducible sums together after its last pop. Then it stores
      exactly Gr(pi_{J+j}(L)), with no minimality filter:
      1. A pair g, h has the same signs on J, so |(g+h)_J|_1 = |g_J|_1 +
         |h_J|_1, and both terms are nonzero, as pi_J is injective on
         pi_{J+j}(L). So every sum sits at a higher level than both of its
         parents, and the levels are popped in ascending order.
      2. If r != s and r is conformally below s, then |r_J|_1 < |s_J|_1:
         equality would force r_J = s_J, and so r = s by injectivity. So a
         level-m sum can be reduced only by rows below level m, which are
         all stored before level m begins, and no two sums of one level can
         reduce each other. A pop is thus stored iff no stored row lies
         below it, as in the lemma above, which holds for any pop order.
      3. The seeds are minimal in pi_{J+j}(L): pi_J of a seed is in
         Gr(pi_J(L)), and pi_J is injective. By 2, every stored sum is
         minimal among the stored rows. By the lemma, the stored rows
         contain Gr(pi_{J+j}(L)). So a stored row not in it would lie above
         a stored element of it: the stored rows are exactly that basis.
    - The kappa rule. For a stored row x let kappa(x) = |x_j| + min |r_j|
      over the stored rows r != x with r_J conformally below x_J and
      r_j x_j < 0, or infinity when there is none; kappa(-x) = kappa(x).
      The stage takes kappa of the seeds once all are stored, and of a
      level's rows once the level is stored, before it pairs any of them,
      and it never forms the sum s = v + w of a pair with kappa(w) <= |v_j|
      or kappa(v) <= |w_j|. Such an s has a stored r != s conformally below
      it, stored before the level of s began, so the stage would have
      dropped it. Take kappa(w) <= |v_j|, reached through r; the other case
      is the mirror image. v and w have the same signs on J, so r_J is
      below w_J, which is below s_J. |v_j| >= |w_j| + |r_j| > |w_j| and
      v_j w_j < 0, so s_j has v_j's sign, and |s_j| = |v_j| - |w_j| >=
      |r_j|; r_j has the sign opposite to w_j's, v_j's. So r is
      conformally below s. |r_J|_1 < |w_J|_1 by 2, as r != w, and
      |w_J|_1 < |s_J|_1 by 1, so r != s. r was stored when kappa(w) was
      taken, before the pair was formed, hence before the level of s, above
      both parents' levels, began. So a skipped sum is dropped for a stored
      r below it, as the lemma needs. Taking kappa once is sound: a kappa
      taken early is no smaller than one taken later, so it skips fewer
      pairs, never a wrong one. It also loses little: a row stored after a
      stored sum x has at least x's J-norm, so it is not below x on J, and
      only a seed's kappa could still fall. Taking the seeds' kappa again at
      every level skipped no more pairs on perfbench's 297 gated
      `completion` curves, so it is not done.

    `spent` caps the sums formed in all stages together, and the seconds from
    the first seed to the last pop or minimality filter. Each stage logs one
    debug line: `completion:` and the stage's counters for the projection,
    `lift: {column, seeds, generated, skipped, pops, inserts, kept}` for
    each lift, whose `skipped` counts the pairs the kappa rule skipped and
    whose `kept` is `seeds + inserts`.
    """
    cols = _projected_columns(basis)
    P = [[b[c] for c in cols] for b in basis]
    det = _det(P)
    G, counts = _completion_stage([tuple(row) for row in P], len(P), spent)
    log.debug("completion: %s", counts)
    rest = [j for j in range(n) if j not in cols]
    for j in rest:
        b_j = [b[j] for b in basis]
        y = [_det([[*row[:i], x, *row[i + 1:]] for row, x in zip(P, b_j)])
             for i in range(len(P))]
        # the first d entries of a stage's vectors are their columns S
        seeds = [(*u, sum(map(operator.mul, u, y)) // det) for u in G]
        G, counts = _completion_stage(seeds, len(seeds[0]), spent, lift=len(seeds[0]) - 1)
        log.debug("lift: %s", dict(column=j, seeds=len(seeds), generated=counts["generated"],
                  skipped=counts["skipped"], pops=counts["pops"], inserts=counts["inserts"],
                  kept=counts["kept"]))
    # a stage's vectors hold the columns cols + rest; at[c] is where column c is
    at = sorted(range(n), key=[*cols, *rest].__getitem__)
    return sorted(sign_canonical([u[i] for i in at]) for u in G)


def _projected_columns(basis: Sequence[IntVec]) -> tuple[int, ...]:
    """The d columns, d = len(basis), on which the basis has the least
    nonzero |det|, the first such in lexicographic order. For a 1xs curve
    (a_1, ..., a_s) with gcd 1 the minor off column k is +-a_k, so they are
    all the columns but that of its smallest entry."""
    least, cols = 0, ()
    for J in itertools.combinations(range(len(basis[0])), len(basis)):
        det = abs(_det([[b[c] for c in J] for b in basis]))
        if det and (not least or det < least):
            least, cols = det, J
            if det == 1:
                break
    return cols


def _det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss's fraction-free
    elimination, whose every division is exact."""
    m = [list(row) for row in rows]
    k, sign, prev = len(m), 1, 1
    for i in range(k):
        p = next((r for r in range(i, k) if m[r][i]), None)
        if p is None:
            return 0
        if p != i:
            m[i], m[p], sign = m[p], m[i], -sign
        for r in range(i + 1, k):
            for c in range(i + 1, k):
                m[r][c] = (m[r][c] * m[i][i] - m[r][i] * m[i][c]) // prev
        prev = m[i][i]
    return sign * prev


def _rank2_graver(basis: Sequence[IntVec], spent: _Spent) -> list[IntVec]:
    """Gr(L) of the rank-2 lattice L = Z b1 + Z b2 in Z^n, by Hirzebruch-Jung
    walks over its sign sectors; canonical sorted representatives.

    This is exact:

    - Orthants. For a closed orthant O, L n O is a pointed monoid, and a
      nonzero u in it is conformally minimal in L iff it is irreducible in
      L n O: v conformally below u, v != 0, u, is a splitting u = v + (u - v)
      inside L n O, and conversely. So Gr(L) is the union over O of the
      Hilbert bases of L n O (Sturmfels, Groebner Bases and Convex Polytopes,
      ch. 7).
    - Sectors. x -> x1*b1 + x2*b2 is a lattice isomorphism Z^2 -> L, and
      coordinate c of the image is x.w_c, w_c = (b1_c, b2_c) being the Gale
      row. The distinct lines x.w_c = 0 (a zero row cuts nothing, parallel
      rows cut one line) number m >= 2, as the w_c span R^2, and cut Z^2
      into 2m closed sectors of angle < pi. The preimage of an orthant O is
      a cone on which each x.w_c keeps one sign, so it is a sector, a ray
      or 0: a ray's primitive vector is in the Hilbert basis of either
      sector it bounds. Every sector is the preimage of the orthant of the
      signs inside it. So Gr(L) is the union of the sectors' Hilbert
      bases; those of -S are the negatives of those of S, so up to sign the
      m sectors of the half-turn from r_0 to -r_0 suffice, r_0, ..., r_{m-1}
      being the primitive directions of the lines at angles in (0, pi], in
      angular order.
    - The walk in a sector cone(r1, r2), det(r1, r2) > 0 (Oda, Convex
      Bodies and Algebraic Geometry, 1.6). Take p with det(r1, p) = 1, set
      h_{-1} = -p, h_0 = r1 and h_{i+1} = a_i*h_i - h_{i-1} with
      a_i = ceil(d_{i-1} / d_i), d_i = det(h_i, r2). p -> p + k*r1 turns
      a_0 into a_0 - k and leaves h_1 = a_0*r1 + p unchanged, so the walk
      does not depend on the Bezout pair that gives p. Then
      det(h_i, h_{i+1}) = det(h_{i-1}, h_i) = 1 and d_{i+1} = a_i*d_i - d_{i-1}
      lies in [0, d_i), so the d_i fall to d_k = 0, where h_k is primitive,
      on the side of r2, hence r2. Each step turns counterclockwise
      (det(h_i, h_{i+1}) = 1) without passing r2 (d_{i+1} >= 0), so the
      h_i lie in the cone in angular order, the unimodular cones
      cone(h_i, h_{i+1}) tile it, and the h_i generate its lattice points. For 0 < i < k, d_i < d_{i-1}
      gives a_i >= 2; the integral form l with l(h_{i-1}) = l(h_i) = 1 then
      has l(h_{j+1}) - l(h_j) = (a_j - 2)*l(h_j) + l(h_j) - l(h_{j-1}) >= 0
      for j >= i, and the mirror bound for j < i, so l >= 1 on every h_j and
      on every nonzero lattice point of the cone: h_i = u + v with u, v
      nonzero would give 1 >= 2. r1 and r2 are primitive extreme rays. So
      the Hilbert basis is exactly h_0, ..., h_k.

    Each sector emits h_0, ..., h_{k-1}: h_k starts the next sector, and
    -r_0, ending the last one, is r_0 up to sign. So every element is emitted
    once, and `spent` checks both caps per emitted vector, each counting as
    a candidate that stays on `spent`, so walks sharing it count together.
    """
    b1, b2 = basis
    lines = set()  # the primitive direction of each line at an angle in (0, pi]
    for w1, w2 in zip(b1, b2):
        if w1 or w2:
            g = math.gcd(w1, w2)
            x, y = -w2 // g, w1 // g
            lines.add((x, y) if y > 0 else (-x, -y))
    # at angles in (0, pi], u comes before v iff det(u, v) > 0
    rays = sorted(lines, key=functools.cmp_to_key(lambda u, v: u[1] * v[0] - u[0] * v[1]))
    ends = rays[1:] + [(-rays[0][0], -rays[0][1])]
    found = []
    for r1, r2 in zip(rays, ends):
        _, s, t = _xgcd_min(*r1)  # p = (-t, s) has det(r1, p) = 1
        prev, h = (t, -s), r1
        d_prev, d = t * r2[1] + s * r2[0], r1[0] * r2[1] - r1[1] * r2[0]
        while d:
            found.append(sign_canonical([h[0] * x + h[1] * y for x, y in zip(b1, b2)]))
            spent.check(len(found))
            a = -(-d_prev // d)
            prev, h = h, (a * h[0] - prev[0], a * h[1] - prev[1])
            d_prev, d = d, a * d - d_prev
    spent.generated += len(found)
    kept = sorted(found)
    log.debug("rank-2 walk: %s", dict(sectors=len(rays), candidates=len(found), kept=len(kept)))
    return kept


def _lattice_graver(basis: Sequence[IntVec], n: int, budget: Budget) -> list[IntVec]:
    """Canonical sorted Gr of the lattice with this basis: the walk for rank 2,
    project-and-lift for rank 3 and up, both under one budget ledger.

    Below rank 2 it is the basis up to sign, spending no budget: Gr(Z b) is
    +-b for b primitive (Sturmfels, Groebner Bases and Convex Polytopes,
    ch. 7), as the saturated basis of `kernel_lattice` is.
    """
    if len(basis) < 2:
        return [sign_canonical(b) for b in basis]
    spent = _Spent(budget)
    if len(basis) == 2:
        return _rank2_graver(basis, spent)
    return _project_and_lift(basis, n, spent)


_GRAVER_MEMO_SIZE = 64
_GRAVER_MEMO: dict[tuple, GraverBasis] = {}  # by (A.rows, A.ncols)
_LATTICE_MEMO: dict[tuple, GraverBasis] = {}  # by (canonical kernel basis, n)
# each holds at most _GRAVER_MEMO_SIZE entries, oldest out first


def graver_basis(A: IntMat, budget: Budget | None = None) -> GraverBasis:
    """Exact Graver basis of Ker_Z(A), canonical order, one element per +/- pair.

    Gr(A) depends only on the lattice Ker(A). The lattice of a simple A (no
    free column, no two parallel Gale rows) is computed by `_lattice_graver`:
    the sector walk when it has rank 2, project-and-lift when it has rank 3
    or more, and the basis itself up to sign below that. Any other
    A with Ker(A) != 0 is answered as Gr(A) = D(Gr(A_B)), with A_B simple.
    Each result is memoized under the canonical basis of the lattice it
    answers and its width n: `kernel_lattice(X).vectors`, the rows of the
    Hermite form of the saturated kernel, which the lattice alone
    determines, X being A when A is simple and A_B when it is not. So every
    matrix with that lattice, simple or not, shares one computation and one
    `GraverBasis`: the liftings of a curve, Example E, its A_B and every
    multiple of its curve. This is exact:

    - D is a lattice bijection Ker(A_B) -> Ker(A). On a bouquet B with
      coefficients c_B (gcd 1), every Gale row is c_j * q_B for one row q_B,
      which is integral because q_B = sum_j l_j * (c_j * q_B) for integers
      l_j with sum_j l_j * c_j = 1. Every v in Ker(A) is the Gale matrix
      times an integer vector x, as its columns are a lattice basis; so
      v_j = c_j * w_B with w_B = <q_B, x> an integer, v_j = 0 on free
      columns, and A v = A_B w; conversely A_B w = 0 gives A D(w) = 0,
      and w_B = D(w)_anchor / c_anchor makes D injective.
    - |D(w)_j| = |c_j| * |w_B|, with the sign of c_j * w_B. Every bouquet has
      a member, so D(u) is conformally below D(w) iff u is below w; D thus
      carries the conformally minimal nonzero vectors of Ker(A_B) onto those
      of Ker(A).
    - A_B is simple: its Gale rows are the q_B, nonzero and pairwise
      non-parallel as the bouquets are distinct. So the computed lattice
      is always that of a simple matrix.
    - The Graver basis is the set of conformally minimal nonzero vectors of
      the lattice, so two matrices with one kernel lattice in Z^n have one
      Graver basis. The key carries n because Ker = 0 has the empty basis
      at every width.

    A hit in `_GRAVER_MEMO`, keyed by A itself, is one dict lookup; a miss
    there computes Ker(A) and probes `_LATTICE_MEMO`. Each keeps its own
    last `_GRAVER_MEMO_SIZE` entries: one shared bound would spend two of
    them on every simple matrix and so hold half as many matrices.

    Raises BudgetExceededError when the computation outgrows its caps; that is
    a resource condition, reported distinctly from any mathematical failure.
    A budget caps computation, not lookups: a basis still in either memo is
    returned whatever the budget.
    """
    key = (A.rows, A.ncols)
    if key in _GRAVER_MEMO:
        return _GRAVER_MEMO[key]
    return _graver_basis_on_miss(A, key, budget)


def _remember(memo: dict, key: tuple, value, size: int) -> None:
    """Store value under key, first dropping the oldest entry if `size` are held."""
    if len(memo) >= size:
        del memo[next(iter(memo))]
    memo[key] = value


def _graver_basis_on_miss(A: IntMat, key: tuple, budget: Budget | None) -> GraverBasis:
    # kept apart from graver_basis so that a memo hit runs in a small frame
    lattice = kernel_lattice(A)
    dec = _bouquet_route(A, lattice.vectors)
    if dec is not None:
        lattice = kernel_lattice(dec.a_matrix)
    lattice_key = (lattice.vectors, lattice.n)
    result = _LATTICE_MEMO.get(lattice_key)
    hit = result is not None
    if not hit:
        elements = _lattice_graver(lattice.vectors, lattice.n, budget or DEFAULT_BUDGET)
        result = GraverBasis(n=lattice.n, elements=tuple(elements))
        _remember(_LATTICE_MEMO, lattice_key, result, _GRAVER_MEMO_SIZE)
    if dec is not None:
        log.debug("bouquet route: %d -> %d columns, Gr(A_B) %s", A.ncols, lattice.n,
                  "from the memo" if hit else "computed")
        lifted = sorted(sign_canonical(d_map(dec, u)) for u in result.elements)
        result = GraverBasis(n=A.ncols, elements=tuple(lifted))
    _remember(_GRAVER_MEMO, key, result, _GRAVER_MEMO_SIZE)
    return result


def _bouquet_route(A: IntMat, kernel: Sequence[IntVec]) -> BouquetDecomposition | None:
    """A's bouquet decomposition, or None when A is simple or Ker(A) = 0,
    which the engines take directly.

    `kernel` is a basis of Ker(A); its coordinates are A's Gale rows, so
    simplicity is decided before any decomposition is built.
    """
    rows = tuple(zip(*kernel))
    if not rows or simple_gale(rows):
        return None
    return bouquet_decomposition(A, _gale=rows)


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

    A simple A is enumerated: a column subset J supports a circuit iff
    rank(A_J) = |J| - 1 and the kernel vector of A_J has full support (a
    zero column is a circuit on its own, |J| = 1); the vector itself comes
    out of the saturated rank-one kernel, hence with coprime entries. Any
    other A with Ker(A) != 0 is answered as D(circuits(A_B)), A_B being
    simple and enumerated the same way. With D the lattice bijection of
    `graver_basis`, the support of D(w) is the union of the bouquets B with
    w_B != 0, so D preserves support inclusion both ways and maps the
    support-minimal vectors onto each other; and gcd(D(w)) = gcd(w), as
    each c_B has gcd 1, so D(w) is primitive iff w is.
    """
    dec = _bouquet_route(A, kernel_lattice(A).vectors)
    X = A if dec is None else dec.a_matrix
    n = X.ncols
    found: set[IntVec] = set()
    for k in range(1, min(X.rank() + 1, n) + 1):
        for J in itertools.combinations(range(n), k):
            lat = kernel_lattice(IntMat([[row[j] for j in J] for row in X.rows], ncols=k))
            if lat.rank != 1:
                continue
            u = lat.vectors[0]
            if any(x == 0 for x in u):
                continue
            full = [0] * n
            for pos, j in enumerate(J):
                full[j] = u[pos]
            found.add(sign_canonical(full))
    if dec is not None:
        found = {sign_canonical(d_map(dec, u)) for u in found}
    return CircuitSet(n=A.ncols, elements=tuple(sorted(found)))


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

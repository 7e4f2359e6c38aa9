"""Graver bases, circuits, and generalized primitive sets.

Only the kernel lattices of simple matrices, and of the matrices a split
reduces them to (below), are computed. Any other matrix with a nonzero
kernel is answered from its bouquet ideal, Gr(A) = D(Gr(A_B)) and likewise
for circuits, where D is the kernel isomorphism of the bouquet decomposition
(proof in `graver_basis`). Graver bases are memoized under the canonical
basis of the kernel lattice, so every matrix with one lattice, and every
lifting of one monomial curve, shares one computation.

A lattice of rank 2, such as that of every 1x3 monomial curve, is answered
in closed form by `_rank2_graver`: its Graver basis is the union of the
Hilbert bases of its sign sectors, the plane cones between the lines where
one coordinate vanishes, and each is a Hirzebruch-Jung continued-fraction
walk (`_sector_walks`, proof in its docstring). A lattice of rank d >= 3,
such as that of every 1xs curve with s >= 4, is computed by project-and-lift
(`_project_and_lift`): find the Graver basis of its projection onto d
columns, a full-rank lattice of Z^d, then lift the other columns one at a
time, each by a completion that forms only the pairs its lifting lemma
needs. The projection is a congruence lattice {u : u.y_j = 0 mod D for each
lifted column j}, whose Graver basis descends through the reduced lattice
of those congruences, of smaller modulus at each level, like Euclid's
algorithm, down to modulus 1 and the unit vectors (`_descent`). A lattice of
rank 0 or 1 is its own Graver basis up to sign: nothing, or the primitive
generator of its saturated basis.

A matrix with two equal nonzero columns i < j is not completed at all
(`_split_graver`): its Graver basis is +-(e_i - e_j) and the same-sign
splittings of each element of the Graver basis of the matrix without column
j, each of its entry at i into two entries of one sign at i and j. That
matrix is split again while it repeats a column, and its own basis comes
from the engines above. Equal zero columns are not split.

A lift stage is a Pottier-style completion: seed with the Graver basis of
the columns done so far, lifted, and its negations, repeatedly form
pairwise sums with cancellation, and store what no stored vector lies
below. At the
fixpoint it has stored its Graver basis and nothing else. Pair generation
pairs one sign of each new element with the vectors stored before it that
cancel it in the lifted column and share its signs in the others, read off
the index's bitsets, and drops the sums queued before by value: a set holds
the sign-canonical form of every sum queued so far. It also skips,
unformed, every pair whose sum a vector stored below one of its parents is
sure to reduce (the kappa rule). A popped sum takes one index query for a
stored vector below it: none, and the sum is stored; one, and it is dropped
unreduced. A lift pops its sums level by level, by their one-norm off the
lifted column, decides a level's pops against the index as the level began
and stores the level's irreducible sums together, in one fold of the index
(proofs in `_project_and_lift`).

All arithmetic is exact, on Python ints alone. Every conformal-dominance
test outside the oracles goes through `ConformalIndex`, which has one code
path for each operation: the rows below a bound, dominator counts and the
rows that cancel a vector are all answered from per-column threshold
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
from operator import add
from typing import Iterable, Iterator, Sequence

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
    """Resource caps for one Graver basis computation, or for the four
    rank-2 walks that decide a 1x3 complex, which share one ledger.

    `max_candidates` caps the candidates: the pair sums formed in every
    lift of project-and-lift together, or the vectors the rank-2 walks
    emit. The projection's Graver basis comes by a descent through reduced
    lattices, and their lifts' sums and walks' vectors count too. A pair
    that a lift skips by its kappa rule forms no sum and is no candidate.
    A matrix with two equal nonzero columns is split, and each splitting,
    one element of its Graver basis other than +-(e_i - e_j), is a
    candidate, on top of those of the bases it is split from.
    `max_seconds` caps the wall time, from the first seed to the last pop,
    minimality filter or splitting; each level of a descent has a filter,
    a lift stores nothing to filter out. A lattice of rank 0 or 1, answered
    in closed form, spends neither. ValueError for a negative or NaN cap.
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

    Row i, `parts[i]`, holds (g+, g-) of stored vector i. The one bound
    query, `below`, bounds all 2n entries of a row; an entry left free is
    bounded by infinity, which every row meets.

    Each of the 2n columns keeps a map from each of its entries to the
    bitset of the rows that hold it (a Python int, bit i for row i), its
    sorted distinct entries, and per entry a threshold bitset: the union of
    the map's bitsets over every entry <= it, so bit i is set iff row i's
    entry in the column is <= it. `below` is one bisection and one `&` per
    column, exact at any size. `dominators` is the popcount of `below` the
    row itself, optionally with one coordinate left free, and `kappa` the
    first entry of one column whose rows meet that bitset. The rows added
    since the last query are folded in by the next one (see `_fold`).

    `pair_sums` reads off each column's map at 0 the rows of the lift rule
    of project-and-lift, those below a given row that cancel a vector in
    one column and share its signs in the others, less the pairs the lift's
    kappa rule skips, and drops repeated sums by value, through the one set
    of the sign-canonical sums it has returned, seeded with the zero
    vector.
    """

    def __init__(self, n: int, vectors: Iterable[IntVec] = ()):
        self.n = n
        self.vectors: list[IntVec] = []
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

    def below(self, query: Sequence[int | float]) -> int:
        """The bitset of the rows whose (g+, g-) is <= query, 2n entries, bit
        i for row i; an entry of inf bounds nothing."""
        k = len(self.parts)
        if self._folded < k:
            self._fold()
        hits = (1 << k) - 1
        for values, masks, x in zip(self._values, self._masks, query):
            j = bisect_right(values, x)
            if not j:
                return 0
            hits &= masks[j - 1]
        return hits

    def _below_row(self, idx: int, free: int | None) -> int:
        """The bitset of the rows conformally <= row idx, itself included,
        leaving coordinate `free` (0-based) unbounded if given."""
        query = list(self.parts[idx])
        if free is not None:
            query[free] = query[free + self.n] = math.inf
        return self.below(query)

    def dominators(self, idx: int, free: int | None = None) -> int:
        """How many stored vectors are conformally <= vector idx (including
        itself), leaving coordinate `free` (0-based) unbounded if given."""
        return self._below_row(idx, free).bit_count()

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
        hits = self._below_row(idx, c) & ~(1 << idx)  # folds first
        col = c if x < 0 else c + self.n  # the half where r has the other sign
        rows = self._rows[col]
        hits &= ~rows.get(0, 0)
        if hits:
            for y in self._values[col]:
                if rows[y] & hits:
                    return abs(x) + y
        return math.inf

    def pair_sums(self, v: IntVec, lift: int, before: int, kappa: Sequence[int | float]
                  ) -> tuple[list[tuple[int, IntVec]], int]:
        """(|s|_1, s) for each sign-canonical nonzero s = v + g, g a row below
        `before` of the lift rule of `_project_and_lift` at column c = `lift`,
        that no earlier call returned, in row order; and how many pairs the
        kappa rule skipped. The rule: g cancels v at c and g_i * v_i >= 0 in
        every other column i; no g when v_c = 0. `kappa` holds the lift's
        `kappa` of every stored row, v's at `before`; a pair with
        kappa(g) <= |v_c| or kappa(v) <= |g_c| is skipped: its sum is not
        formed.

        The rows are read off the bitsets. In a column where v is nonzero,
        those with a zero in the half of the other sign share v's sign or
        vanish there, and the others cancel v. Those with |g_c| < kappa(v)
        are a threshold of the half of column c where g has the other sign.
        Repeats are dropped by value: the seen set holds the zero vector and
        every sign-canonical sum returned so far, so a sum is new iff its
        sign-canonical form is not in it.
        """
        if not before or not v[lift]:
            return [], 0
        if self._folded < len(self.parts):
            self._fold()
        every = rows = (1 << before) - 1
        for c, x in enumerate(v):
            if x:
                col = c if x < 0 else c + self.n  # the half where g has the other sign
                same = self._rows[col].get(0, 0) & every
                rows &= every ^ same if c == lift else same
        col = lift if v[lift] < 0 else lift + self.n
        j = bisect_left(self._values[col], kappa[before])  # entries < kappa(v)
        near = rows & self._masks[col][j - 1] if j else 0
        skipped, rows, reach = (rows ^ near).bit_count(), near, abs(v[lift])
        vectors, seen, new = self.vectors, self._seen, []
        # the set bits of rows, lowest first: one find per row, however sparse
        bits = bin(rows)[:1:-1]
        i = bits.find("1")
        while i >= 0:
            if kappa[i] <= reach:  # a row g with kappa(g) <= |v_c| is skipped
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
    row of a descent level's minimality filter and every vector a walk or a
    split emits, and the candidates are the pair sums of every finished
    lift, the vectors the rank-2 walks have emitted and the splittings of
    every finished split."""

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


def _completion_stage(seeds: Sequence[IntVec], spent: _Spent) -> tuple[list[IntVec], dict]:
    """Lift `seeds` on their last column c: complete them to the conformally
    minimal vectors of the lattice they generate; their canonical sorted
    representatives and the stage's counters, in the order of its `lift:`
    line. `_project_and_lift` proves it exact when the seeds, with c
    dropped, hold that projection's Graver basis.

    The stage pops its sums by the J-norm |s_J|_1, J being every column but
    c. A popped sum takes one `below` query: with no stored vector below
    it, itself included, it is irreducible, and otherwise it is dropped
    unreduced. A level's irreducible sums are stored together after the
    level's last pop, so one fold of the index covers the level, and every
    stored row is kept. It forms only the pairs of `pair_sums`'s lift rule
    that its kappa rule does not skip, setting the seeds' kappa to inf and
    taking that of a level's rows once the level is stored. It pairs one
    sign of each element with the rows stored before it: v + g and -v - g
    are one sum, so that forms every pair sum it would form against every
    row, once.
    """
    n = len(seeds[0])
    lift = n - 1
    index = ConformalIndex(n)
    # the kappa of every stored row; a seed's is inf (proof in `_project_and_lift`)
    kappa = [math.inf] * (2 * len(seeds))

    def insert(v: IntVec) -> None:
        # v is never stored already, as a stored v lies below itself, and
        # the rows stay closed under negation, so rows 2k and 2k+1 are
        # always a +/- pair
        index.add(v)
        index.add(vec_neg(v))

    heap: list[tuple[int, IntVec]] = []
    generated = skipped = 0

    def pair_from(first: int) -> None:
        # v + g and -v - g are one sum, so one sign of each element stored
        # from row `first` on is paired, with the rows stored before it
        nonlocal generated, skipped
        for i in range(len(kappa), len(index), 2):  # none for the seeds
            kappa.extend([index.kappa(i, lift)] * 2)  # kappa(-v) = kappa(v)
        for i in range(first, len(index), 2):
            sums, skips = index.pair_sums(index.vectors[i], lift, i, kappa)
            generated += len(sums)
            skipped += skips
            for norm, s in sums:
                heapq.heappush(heap, (norm - abs(s[lift]), s))  # by |s_J|_1

    for b in seeds:
        insert(b)
    pair_from(0)

    pops = inserts = 0
    found: list[IntVec] = []  # the irreducible sums not yet stored
    while heap:
        spent.check(generated)
        level, s = heapq.heappop(heap)
        pops += 1
        if not index.below(positive_part(s) + negative_part(s)):
            found.append(s)
        # a level is stored after its last pop, all of it before any is
        # paired, so one fold covers it
        if found and (not heap or heap[0][0] > level):
            first = len(index)
            for v in found:
                insert(v)
            pair_from(first)
            inserts += len(found)
            found.clear()

    spent.generated += generated
    kept = sorted(sign_canonical(v) for v in index.vectors[::2])  # every row is in Gr
    return kept, dict(seeds=len(seeds), generated=generated, skipped=skipped, pops=pops,
                      inserts=inserts, kept=len(kept))


def _minimal_rows(index: ConformalIndex, spent: _Spent) -> list[IntVec]:
    """The conformally minimal vectors of an index whose rows 2k and 2k + 1
    are a +/- pair, one sign each: u is minimal iff -u is, so the even rows
    decide. The clock is read before each."""
    minimal = []
    for i in range(0, len(index), 2):
        spent.check(0)
        if index.dominators(i) == 1:
            minimal.append(index.vectors[i])
    return minimal


def _project_and_lift(basis: Sequence[IntVec], n: int, spent: _Spent) -> list[IntVec]:
    """Gr(L) of the rank-d lattice L with this saturated basis, d >= 3, by
    project-and-lift (Hemmecke, "On the computation of Hilbert bases of
    cones", ICMS 2002; De Loera, Hemmecke and Koeppe, Algebraic and Geometric
    Ideas in the Theory of Discrete Optimization, 2013, ch. 3); canonical
    sorted representatives.

    - Project. P, the basis's columns S = `_projected_columns(basis)`, has
      det(P) != 0, so projecting onto any set of columns J that holds S is
      injective on L: a vector of L is known by its projection pi_J. pi_S(L)
      is the full-rank lattice of Z^d spanned by the rows of P, of index
      D = |det(P)| in Z^d. The vector of L over u in pi_S(L) is u P^-1 B, B
      being the basis, so its column j is u.y_j / det(P) with
      y_j = adj(P) b_j, b_j the basis's column j; by Cramer's rule y_{j,i}
      is the determinant of P with its column i replaced by b_j. That is
      exact. Gr(pi_S(L)) comes from the descent below, at every corank.
    - Descend. Let L be saturated, L = (L (x) Q) n Z^n, as every
      `kernel_lattice` basis is, and let k = n - d columns j be left to
      lift. For u in Z^d, the vector over u lies in L (x) Q, so it is in L
      iff it is integral: pi_S(L) = Lambda = {u in Z^d : u.r_j = 0 mod D for
      every j}, with r_j = y_j mod D. `_descent` is given, per coordinate i,
      the tuple of its k residues r_{j,i}, and gets Gr(Lambda) exactly:
      1. Each coordinate i whose residues are all 0 splits off: Lambda is
         the direct sum of Z e_i and the vectors of Lambda that vanish at i,
         on disjoint supports, and the Graver basis of such a sum is the
         union of the summands' (a conformal sum splits by support). So e_i
         is in Gr(Lambda). At corank 0 there are no residues, L = Z^d and
         D = 1, so Gr(L) is the unit vectors and nothing is lifted.
      2. The rest is Lambda' = {u' : u'.r'_j = 0 mod D for every j} on the
         m live coordinates, those with a nonzero residue, r'_j being r_j
         there. A congruence whose r'_j is 0 holds for every u' and is
         dropped; the k' others are the rows of Y'. Then Lambda' = pi(K) for
         the reduced lattice K = Ker(Y' | D I), I the k' x k' identity and pi
         dropping K's last k' columns: u' is in Lambda' iff some integral z
         has u'.r'_j + D z_j = 0 for every j. pi is injective on K, as
         D != 0. At corank 1, K is the reduced curve Ker(r' | D).
      3. Gr(Lambda') is the set of conformally minimal vectors of
         pi(Gr(K)). Restricting a conformal sum to some columns keeps it
         conformal, and pi sends no nonzero vector to 0. So if z is in
         Gr(Lambda'), the vector of K over it is in Gr(K): a proper
         conformal sum there would project to one of z. So Gr(Lambda') lies
         in pi(Gr(K)), and is minimal there as it is in Lambda'. Every other
         vector of pi(Gr(K)) lies in Lambda', so it is a conformal sum of
         elements of Gr(Lambda') and lies above one of them.
      4. K is again saturated, of rank m, so the same engine gives Gr(K)
         under the same `spent`: closed form below rank 2, the sector walk
         at rank 2, project-and-lift at rank 3 and up. Its own projection
         has a modulus below D. The m x m minors of a saturated lattice's
         basis have gcd 1, and up to sign they are the complementary k' x k'
         minors of M = (Y' | D I), whose kernel it is, over their gcd g.
         K's minor on the live columns is the index of Lambda' in Z^m, which
         is D, as Lambda = Z^{d-m} (+) Lambda' has index D; M's minor on its
         last k' columns is D^k', so g = D^(k'-1). K's minor on every live
         column but i, plus the extra column of row j, is M's minor on
         column i and the other extra columns, +-r'_{j,i} D^(k'-1), over g:
         +-r'_{j,i}, in [0, D), and nonzero for some j as i is live. So
         K's least nonzero |minor| is below D. The modulus falls at every
         level, as in Euclid's algorithm, down to D = 1, where every residue
         is 0 and Gr(Lambda) is the unit vectors.
      The minimal vectors of step 3 are found by one `dominators` pass over
      a `ConformalIndex` of +-pi(Gr(K)), which reads the clock before each
      row.
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
      argument never uses the order of the pops.
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
      A seed's kappa is infinity, and stays so: a stored r != x with r_J
      conformally below x_J, x a seed, would make r_J a nonzero vector of
      pi_J(L) other than x_J (pi_J is injective on pi_{J+j}(L)) below
      x_J, which lies in Gr(pi_J(L)). So the stage sets the seeds' kappa
      without a query, takes the kappa of a level's rows once the level is
      stored, before it pairs any of them, and never forms the sum
      s = v + w of a pair with kappa(w) <= |v_j| or kappa(v) <= |w_j|.
      Such an s has a stored r != s conformally below it, stored before
      the level of s began, so the stage would have dropped it. Take
      kappa(w) <= |v_j|, reached through r; the other case is the mirror
      image. v and w have the same signs on J, so r_J is
      below w_J, which is below s_J. |v_j| >= |w_j| + |r_j| > |w_j| and
      v_j w_j < 0, so s_j has v_j's sign, and |s_j| = |v_j| - |w_j| >=
      |r_j|; r_j has the sign opposite to w_j's, v_j's. So r is
      conformally below s. |r_J|_1 < |w_J|_1 by 2, as r != w, and
      |w_J|_1 < |s_J|_1 by 1, so r != s. r was stored when kappa(w) was
      taken, before the pair was formed, hence before the level of s, above
      both parents' levels, began. So a skipped sum is dropped for a stored
      r below it, as the lemma needs. Taking kappa once loses nothing: no
      kappa falls later. A row stored after a stored sum x has at least x's
      J-norm, so by 2 it is not below x on J, and a seed's kappa stays
      infinity.

    `spent` caps the sums formed in all stages together, the descent's
    included, and the seconds from the first seed to the last pop or
    minimality filter. Each stage logs one debug line: `descent: {modulus,
    zeros, projected, kept}` for each level of the descent, after the
    reduced lattice's own lines, `projected` being |Gr(K)| and `kept`
    |Gr(Lambda)|, and `lift: {column, seeds, generated, skipped, pops,
    inserts, kept}` for each lift, whose `skipped` counts the pairs the
    kappa rule skipped and whose `kept` is `seeds + inserts`.
    """
    cols = _projected_columns(basis)
    P = [[b[c] for c in cols] for b in basis]
    det = _det(P)
    rest = [j for j in range(n) if j not in cols]
    # by Cramer's rule, y_i is det(P) with its column i replaced by b_j
    cramer = [[_det([[*row[:i], x, *row[i + 1:]] for row, x in zip(P, b_j)])
               for i in range(len(P))] for b_j in ([b[j] for b in basis] for j in rest)]
    D = abs(det)
    G = _descent(D, [tuple(y[i] % D for y in cramer) for i in range(len(P))], spent)
    for j, y in zip(rest, cramer):
        # the first d entries of a stage's vectors are their columns S
        seeds = [(*u, sum(map(operator.mul, u, y)) // det) for u in G]
        G, counts = _completion_stage(seeds, spent)
        log.debug("lift: %s", dict(column=j, **counts))
    # a stage's vectors hold the columns cols + rest; at[c] is where column c is
    at = sorted(range(n), key=[*cols, *rest].__getitem__)
    return sorted(sign_canonical([u[i] for i in at]) for u in G)


def _descent(modulus: int, residues: Sequence[tuple[int, ...]], spent: _Spent
             ) -> list[IntVec]:
    """Gr of the lattice {u in Z^d : u.r_j = 0 mod modulus for every j}, of
    index `modulus` in Z^d, given per coordinate i the tuple of its residues
    r_{j,i}, each in [0, modulus); canonical sorted representatives. Each
    coordinate whose residues are all 0 gives the unit vector e_i; the other
    elements are the conformally minimal projections of the Graver basis of
    the reduced lattice Ker(Y' | modulus I), Y' holding one row per nonzero
    congruence on the live coordinates, which `_graver` computes under the
    same `spent`, off every memo. The proof is in `_project_and_lift`.
    """
    d = len(residues)
    live = [i for i, r in enumerate(residues) if any(r)]
    # Y', one row per congruence that is nonzero on the live coordinates
    rows = [row for row in zip(*(residues[i] for i in live)) if any(row)]
    m, k = len(live), len(rows)
    reduced = kernel_lattice(IntMat(
        tuple((*row, *(modulus * (j == l) for l in range(k))) for j, row in enumerate(rows)),
        ncols=m + k))
    projected = [g[:m] for g in _graver(reduced.vectors, m + k, spent)]
    index = ConformalIndex(m, [w for g in projected for w in (g, vec_neg(g))])
    found = [tuple(int(i == j) for j in range(d)) for i, r in enumerate(residues) if not any(r)]
    for g in _minimal_rows(index, spent):
        u = [0] * d
        for i, x in zip(live, g):
            u[i] = x
        found.append(tuple(u))
    log.debug("descent: %s", dict(modulus=modulus, zeros=d - m,
                                  projected=len(projected), kept=len(found)))
    return sorted(found)


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


def _sector_walks(basis: Sequence[IntVec], spent: _Spent) -> Iterator[tuple[int, int]]:
    """Each element of Gr(L), L = Z b1 + Z b2 in Z^n, once up to sign, as its
    coordinates x, the element being x1*b1 + x2*b2: the Hirzebruch-Jung walks
    over L's sign sectors.

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

    Each sector yields h_0, ..., h_{k-1}: h_k starts the next sector, and
    -r_0, ending the last one, is r_0 up to sign. So every element is yielded
    once, and `spent` checks both caps before each point, each counting as
    a candidate that stays on `spent`, so walks sharing it count together.
    The finished walks log one debug line; their `kept` is their count.
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
    found = 0
    for r1, r2 in zip(rays, ends):
        _, s, t = _xgcd_min(*r1)  # p = (-t, s) has det(r1, p) = 1
        prev, h = (t, -s), r1
        d_prev, d = t * r2[1] + s * r2[0], r1[0] * r2[1] - r1[1] * r2[0]
        while d:
            found += 1
            spent.check(found)
            yield h
            a = -(-d_prev // d)
            prev, h = h, (a * h[0] - prev[0], a * h[1] - prev[1])
            d_prev, d = d, a * d - d_prev
    spent.generated += found
    log.debug("rank-2 walk: %s", dict(sectors=len(rays), candidates=found, kept=found))


def _rank2_graver(basis: Sequence[IntVec], spent: _Spent) -> list[IntVec]:
    """Gr(L) of the rank-2 lattice L = Z b1 + Z b2 in Z^n: the points of
    `_sector_walks` mapped to Z^n; canonical sorted representatives."""
    b1, b2 = basis
    return sorted(sign_canonical([x1 * p + x2 * q for p, q in zip(b1, b2)])
                  for x1, x2 in _sector_walks(basis, spent))


def _lattice_graver(basis: Sequence[IntVec], n: int, budget: Budget) -> list[IntVec]:
    """Canonical sorted Gr of the lattice with this basis, under one budget
    ledger for all its stages (see `_graver`)."""
    return _graver(basis, n, _Spent(budget))


def _graver(basis: Sequence[IntVec], n: int, spent: _Spent) -> list[IntVec]:
    """Canonical sorted Gr of the lattice with this saturated basis: the walk
    for rank 2, project-and-lift for rank 3 and up, spending `spent`.

    Below rank 2 it is the basis up to sign, spending no budget: Gr(Z b) is
    +-b for b primitive (Sturmfels, Groebner Bases and Convex Polytopes,
    ch. 7), as the saturated basis of `kernel_lattice` is.
    """
    if len(basis) < 2:
        return [sign_canonical(b) for b in basis]
    if len(basis) == 2:
        return _rank2_graver(basis, spent)
    return _project_and_lift(basis, n, spent)


def _repeated_column(X: IntMat) -> tuple[int, int] | None:
    """(i, j), i < j, for the first column j of X equal to an earlier
    nonzero column i; None when X repeats no nonzero column."""
    first: dict[IntVec, int] = {}
    for j, column in enumerate(zip(*X.rows)):
        if any(column) and first.setdefault(column, j) != j:
            return first[column], j
    return None


def _split_graver(X: IntMat, pair: tuple[int, int], spent: _Spent) -> list[IntVec]:
    """Canonical sorted Gr(X) for X whose columns i < j of `pair` are equal
    and nonzero, from Gr(X'), X' being X without column j: +-(e_i - e_j)
    and every same-sign splitting of each g in Gr(X'), the u with u_i + u_j
    = g_i and u_i u_j >= 0 that agree with g elsewhere. No sum is formed.

    This is exact. Let m merge coordinate j into i: m(u)_i = u_i + u_j,
    column j dropped. X' m(u) = X u, as X_i = X_j, so m maps Ker X onto
    Ker X' (v' lifts with v_j = 0), with kernel Z(e_i - e_j).

    - e_i - e_j is in Gr(X): the nonzero vectors below it are itself, e_i
      and -e_j, and X_i != 0 keeps e_i and e_j out of Ker X. A u in Gr(X)
      with u_i u_j < 0 lies above one sign of it, so it is that sign.
    - A u in Gr(X) with u_i u_j >= 0 merges into Gr(X'). m(u) != 0, as u is
      not a nonzero multiple of e_i - e_j. A nonzero v' in Ker X'
      conformally below m(u), other than it, splits its entry v'_i, whose
      sign is that of u_i and u_j and |v'_i| <= |u_i| + |u_j|, into entries
      conformally below u_i and u_j: a v in Ker X, nonzero and below u, with
      m(v) = v' != m(u), so v != u, against u's minimality.
    - Every same-sign splitting u of a g in Gr(X') is in Gr(X); it is in
      Ker X, as u minus the lift of g lies in Z(e_i - e_j). Let v in Ker X
      be nonzero and conformally below u. Then m(v) is below m(u) = g, so it
      is 0 or g. m(v) = 0 needs v_i = -v_j, which signs shared with u_i and
      u_j allow only at v = 0. m(v) = g gives v = u off {i, j} and
      |v_i| + |v_j| = |u_i| + |u_j|, with |v_i| <= |u_i| and |v_j| <= |u_j|,
      so v = u.

    The |g_i| + 1 splittings of each g (u_i from 0 to g_i) merge back to g, so
    they are distinct across Gr(X'), one per +-pair as its g are, and none
    is e_i - e_j. So |Gr(X)| = 1 + sum over Gr(X') of (|g_i| + 1), which
    grows with the multiplicities as the basis itself does.

    Equal zero columns are not a case: e_i and e_j are then in Ker X, and
    so in Gr(X), and e_i - e_j lies above e_i. `_repeated_column` passes
    them over.

    While X' still repeats a nonzero column it is split again, else its Gr
    comes from `_graver` on its kernel lattice, under the same `spent` and
    off every memo, as a descent's reduced lattices are. Each splitting is a
    candidate on `spent`, which reads the clock as each is emitted. Each
    split logs one debug line, `split: column j repeats column i`, and its
    counters, after X''s own lines.
    """
    i, j = pair
    reduced = IntMat(tuple(row[:j] + row[j + 1:] for row in X.rows), ncols=X.ncols - 1)
    inner = _repeated_column(reduced)
    if inner is None:
        lattice = kernel_lattice(reduced)
        G = _graver(lattice.vectors, lattice.n, spent)
    else:
        G = _split_graver(reduced, inner, spent)
    found = [tuple(int(k == i) - int(k == j) for k in range(X.ncols))]
    for g in G:
        x = g[i]
        head, middle, tail = g[:i], g[i + 1:j], g[j:]
        step = 1 if x >= 0 else -1
        for a in range(0, x + step, step):  # u_i from 0 to g_i, u_j = g_i - u_i
            spent.check(len(found))
            found.append(sign_canonical(head + (a,) + middle + (x - a,) + tail))
    spent.generated += len(found) - 1
    log.debug("split: column %d repeats column %d: %s", j, i,
              dict(reduced=len(G), splittings=len(found) - 1))
    return sorted(found)


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
    When the matrix whose lattice is computed, A or A_B, has two equal
    nonzero columns, its Graver basis is split in closed form from that of
    the matrix without one of them (`_split_graver`, which proves it), and
    `_lattice_graver` is not called.
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
    X, dec = A, _bouquet_route(A, lattice.vectors)
    if dec is not None:
        X = dec.a_matrix
        lattice = kernel_lattice(X)
    lattice_key = (lattice.vectors, lattice.n)
    result = _LATTICE_MEMO.get(lattice_key)
    hit = result is not None
    if not hit:
        budget = budget or DEFAULT_BUDGET
        pair = _repeated_column(X)
        if pair is None:
            elements = _lattice_graver(lattice.vectors, lattice.n, budget)
        else:
            elements = _split_graver(X, pair, _Spent(budget))
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

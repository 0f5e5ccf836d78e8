"""Serving plans: disjoint recovery-set systems for multiset queries.

A query asks for t information symbols, repeats allowed. A serving plan
assigns each query position its own recovery set, all pairwise disjoint,
so t reads can proceed in parallel on distinct servers. Searching only
minimal recovery sets loses nothing: any recovery set contains a minimal
one, and shrinking a set in a valid plan keeps the plan valid.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import combinations_with_replacement, repeat
from typing import Iterable, Sequence

from .errors import InvalidQueryError, check_cap, check_int
from .gf2 import BitVector, LinearCode
# perfbench/tracer.py patches `enumerate_recovery_sets` and
# `max_disjoint_packing` here by name.
from .recovery import (
    RecoveryEnumeration,
    RecoverySet,
    _conflict_bitsets,
    circuit_sets,
    enumerate_recovery_sets,
    max_disjoint_packing,
)

__all__ = [
    "Query",
    "ServingPlan",
    "QueryPlanner",
    "serve_query",
    "is_servable_all",
    "plan_is_valid",
]

# First enumeration cap per symbol; doubled whenever a failed plan search
# might have been starved by a truncated candidate list.
_INITIAL_CAP = 64
# Failed (group, used-columns) states one plan search remembers. A hard
# query can fail in tens of thousands of distinct states; the first few
# hundred recorded already skip most repeats, at a fixed memory cost.
_MEMO_LIMIT = 256
# Each byte value with its 8 bits in reverse order.
_REVERSED_BYTES = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


@dataclass(frozen=True)
class Query:
    """Multiset of requested information symbols, stored sorted (canonical).

    Indices must be integers >= 1 (`errors.check_int`): 1.7, 2.0 and
    "2" are rejected, not truncated or converted. `parse` reads query
    text.
    """

    indices: tuple[int, ...]

    def __post_init__(self):
        indices = [
            check_int("query index", i, error=InvalidQueryError) for i in self.indices
        ]
        if not indices:
            raise InvalidQueryError("query must request at least one symbol")
        object.__setattr__(self, "indices", tuple(sorted(indices)))

    def check_within(self, k: int) -> None:
        """Reject a query naming a symbol above k."""
        if self.indices[-1] > k:
            raise InvalidQueryError(
                f"query index {self.indices[-1]} exceeds k = {k}"
            )

    @classmethod
    def parse(cls, text: str) -> "Query":
        """Parse a comma-separated index list such as "1,1,2,2". Each
        part, stripped, must be ASCII decimal digits: no sign, no "_"
        and no other script's digits, which `int` would accept."""
        parts = [p.strip() for p in text.split(",")]
        if not all(p.isascii() and p.isdigit() for p in parts):
            raise InvalidQueryError(f"malformed query text {text!r}")
        return cls(tuple(int(p) for p in parts))

    @property
    def t(self) -> int:
        return len(self.indices)

    def counts(self) -> list[tuple[int, int]]:
        """Distinct symbols with multiplicities, ascending by symbol."""
        return sorted(Counter(self.indices).items())

    def __str__(self) -> str:
        return ",".join(str(i) for i in self.indices)


@dataclass(frozen=True)
class ServingPlan:
    """Pairwise-disjoint recovery sets, one per query position 1..t."""

    assignments: tuple[tuple[int, RecoverySet], ...]

    @property
    def t(self) -> int:
        return len(self.assignments)

    def recovery_sets(self) -> tuple[RecoverySet, ...]:
        return tuple(rs for _, rs in self.assignments)

    def columns_read(self) -> int:
        return sum(rs.size for _, rs in self.assignments)

    def __str__(self) -> str:
        return "; ".join(f"T{pos}={rs}" for pos, rs in self.assignments)


class _Candidates(RecoveryEnumeration):
    """One symbol's candidate list, with the tables the planner derives
    from it, each built from this record's masks on first read and kept
    with them. A list enumerated again is a new record, so nothing
    derived from an older list outlives it.
    """

    @cached_property
    def conflicts(self) -> tuple[int, list[int], list[list[int]]]:
        """Conflict bitsets over the candidates: (full, meets, nibbles).

        Bit i of each bitset stands for candidate i, and `full` holds
        them all. `meets[i]` holds the candidates sharing a column with
        candidate i (i included). `nibbles[b][v]` holds the candidates
        touching a column of 4b+1..4b+4 selected by the 4-bit value v,
        so the candidates clashing with a used-column mask take one
        lookup per 4 columns. The tables stop at the highest column a
        candidate touches: the columns above it clash with none. `meets`
        and the per-column bitsets the nibbles are made from come from
        `recovery._conflict_bitsets`, which the packing search runs on.
        """
        touch, meets = _conflict_bitsets(self.masks)
        nibbles = []
        for base in range(0, len(touch), 4):
            quad = touch[base : base + 4] + [0] * 3  # no set past touch[-1]
            nib = [0] * 16
            for v in range(1, 16):
                low = v & -v
                nib[v] = nib[v ^ low] | quad[low.bit_length() - 1]
            nibbles.append(nib)
        return (1 << len(self.masks)) - 1, meets, nibbles

    @cached_property
    def by_size(self) -> "_Candidates":
        """The same list stably sorted by set size: sets of equal size
        stay in this list's order, lexicographic for a list
        `enumerate_recovery_sets` found."""
        masks = tuple(sorted(self.masks, key=int.bit_count))
        return _Candidates(self.target, masks, self.truncated)


class _StoreList(_Candidates):
    """A complete list that `QueryPlanner.packings` read off the code's
    circuit store: {sigma(i)}, then the store's circuits through
    sigma(i) less sigma(i), in the store's order, which is by size. The
    packing search and the batch sweep read it in this order. The
    planner puts it in lexicographic order (`_lexicographic`), as a new
    record that replaces this one, the first time its candidates or
    plans read it (`QueryPlanner._ordered`).
    """

    @cached_property
    def by_size(self) -> _Candidates:
        """The same masks as a record of the size-ordered view: they
        are in size order already."""
        return _Candidates(self.target, self.masks, self.truncated)


def _lexicographic(masks: Sequence[int], n: int) -> tuple[int, ...]:
    """Column masks over n columns, none of which contains another (the
    minimal recovery sets of one target), in lexicographic order of
    their sorted column tuples.

    Of two such sets, the one holding the lowest column in which they
    differ comes first in lexicographic order: the other shares every
    column below it and, not being a subset, has a larger one next. A
    mask's little-endian bytes, each bit-reversed, put columns 1, 2,
    ... from the most significant bit of the first byte on, so that
    column is the first differing bit and the order is descending order
    of those bytes, a sort key built in C.
    """
    to_bytes = partial(int.to_bytes, length=(n + 7) // 8, byteorder="little")
    keys = map(bytes.translate, map(to_bytes, masks), repeat(_REVERSED_BYTES))
    return tuple(m for _, m in sorted(zip(keys, masks), reverse=True))


class QueryPlanner:
    """Plan searcher for one code and one recovery-set size cap.

    Candidate recovery sets are enumerated per symbol on demand, or
    for all symbols at once by `packings`, and reused across queries
    and packings, so sweeping all queries of a given size
    shares the expensive enumeration work. Each symbol has one record
    of its current list (`_Candidates`, a `RecoveryEnumeration`): a
    list is cut exactly when it is `truncated`, and its `RecoverySet`s
    are decoded only when a plan or `candidates` returns them. The
    record also carries, each built on first read from its masks, the
    list's conflict bitsets, with which the plan search tests
    disjointness in a few integer operations per node instead of a
    scan (made from `recovery._conflict_bitsets`, the representation
    the packing search runs on too), and its view sorted by size for
    the batch sweep. A list enumerated again is a new record, so
    neither can outlive the list it was built from. Packing numbers
    are computed from a symbol's complete list on each request.

    A list enumerated per symbol is in lexicographic order. A list that
    `packings` reads off the circuit store is in the store's size order
    (`_StoreList`), which is all the packings and the batch sweep need;
    the first read of it in order, by `candidates` or a plan search,
    replaces its record with the lexicographic one (`_ordered`).
    """

    def __init__(self, code: LinearCode, r: int | None = None):
        self._code = code
        self._r = check_cap("r", r)
        self._lists: dict[int, _Candidates] = {}
        self._classes: tuple[tuple[int, ...], ...] | None = None

    @property
    def code(self) -> LinearCode:
        return self._code

    @property
    def r(self) -> int | None:
        return self._r

    def candidates(self, symbol: int) -> tuple[RecoverySet, ...]:
        """Complete list of minimal recovery sets for e_symbol within the cap."""
        symbol = check_int("symbol", symbol, most=self._code.k, error=InvalidQueryError)
        self._list(symbol, None)
        return self._ordered(symbol).sets

    def max_packing(self, symbol: int) -> int:
        """Exact maximum number of pairwise-disjoint recovery sets for e_symbol."""
        symbol = check_int("symbol", symbol, most=self._code.k, error=InvalidQueryError)
        return max_disjoint_packing(self._list(symbol, None).masks)

    def packings(self) -> tuple[int, ...]:
        """`max_packing` of every symbol 1..k, in order.

        When the code has every unit column, the complete lists of all
        symbols are read at cap r from the code's circuit store over
        the identity columns (`recovery.circuit_sets`). The store holds
        every circuit of the code up to its size, each found once
        however many identity columns it holds, and is shared with the
        repair profiles and every other planner of the code; it
        searches only when r exceeds its size. A minimal set of e_i
        either is the identity column sigma(i) alone or avoids it, so
        each list is {sigma(i)} followed by e_i's sets from the store,
        in the store's order, which is by size (`_StoreList`). Neither
        the packings nor the batch sweep depends on list order, so the
        lists stay in that order until `candidates` or `serve` reads
        one; only then is it sorted into the lexicographic order those
        return. Without every unit column, each symbol is enumerated on
        its own, in lexicographic order.

        Each packing search is given e_i's codeword-weight bound
        (`LinearCode.packing_bounds`) and stops once a packing reaches
        it.
        """
        code = self._code
        k = code.k
        colmap = code._identity_columns
        lists = self._lists
        stale = [
            s for s in range(1, k + 1) if s not in lists or lists[s].truncated
        ]
        if colmap is not None and stale:
            found = circuit_sets(code, list(colmap.values()), self._r)
            for sym in stale:
                masks = (1 << (colmap[sym] - 1), *found[sym - 1])
                lists[sym] = _StoreList(BitVector.unit(k, sym), masks, False)
        units, _ = code.packing_bounds
        return tuple(
            max_disjoint_packing(self._list(sym, None).masks, units[sym - 1])
            for sym in range(1, k + 1)
        )

    def serve(self, query: Query | Iterable[int]) -> ServingPlan | None:
        """A serving plan for `query`, or None when provably none exists.

        Which plan is returned depends on how far the symbols' candidate
        lists have been enumerated: groups are placed in order of their
        current candidate counts, and a fresh list stops at the first
        cap. So a planner warmed by `candidates`, `max_packing`,
        `packings` or `servable_all` (which complete lists) or by
        earlier queries may return a different valid plan than a fresh
        one. Only the verdict is independent of that history. The lists
        a plan is searched on are always in lexicographic order
        (`_ordered`).
        """
        q = query if isinstance(query, Query) else Query(tuple(query))
        q.check_within(self._code.k)
        groups = q.counts()
        while True:
            for sym, _ in groups:
                self._list(sym, _INITIAL_CAP)
            chosen = self._search(groups)
            if chosen is not None:
                # Sorted indices: positions 1..t run through the groups.
                lists = self._lists
                sets = (lists[s].sets[i] for s, _ in groups for i in chosen[s])
                return ServingPlan(tuple(enumerate(sets, 1)))
            starving = [s for s, _ in groups if self._lists[s].truncated]
            if not starving:
                return None
            for sym in starving:
                self._list(sym, 2 * len(self._lists[sym]))

    def symbol_classes(self) -> tuple[tuple[int, ...], ...]:
        """Classes of interchangeable symbols, ascending, covering 1..k.

        Symbols i and j are interchangeable when swapping rows i and j
        of the generator maps its column multiset onto itself. That is
        an equivalence: if (i j) and (j l) fix the multiset, so does
        their conjugate (i l) = (i j)(j l)(i j). So each class is found
        by testing the symbols after its least member against that
        member alone, and the transpositions inside a class generate
        the full symmetric group on it.
        """
        if self._classes is None:
            k = self._code.k
            cols = self._code.column_words
            ordered = sorted(cols)
            weight = [w.bit_count() for w in self._code.generator.row_words]
            classes = []
            left = list(range(k))
            while left:
                i = left.pop(0)
                cls = [i]
                for j in left:
                    if weight[j] != weight[i]:
                        continue
                    flip = (1 << i) | (1 << j)
                    swapped = sorted(
                        c ^ flip if (c >> i ^ c >> j) & 1 else c for c in cols
                    )
                    if swapped == ordered:
                        cls.append(j)
                left = [j for j in left if j not in cls]
                classes.append(tuple(s + 1 for s in cls))
            self._classes = tuple(classes)
        return self._classes

    def servable_all(self, t: int) -> tuple[bool, Query | None]:
        """Whether every size-t query is servable; on failure, the
        lexicographically first failing query is the witness.

        One query is tested per orbit under the permutations of symbols
        within `symbol_classes` (see `_sweep_queries`), in increasing
        lexicographic order. Servability is constant on an orbit, so the
        first failing query is the minimum of its orbit and is tested,
        and every query before it is servable.

        The queries are tested on `_size_ordered`, a planner whose
        complete candidate lists put the smallest sets first. Each query
        starts from the previous query's plan, kept as a stack of
        used-column masks, one per position: the positions the two
        queries share keep their sets, and each later position takes
        the first candidate of its symbol that avoids the columns used
        so far. Only when that greedy extension fails is the query
        served by the exact search (`serve`), whose plan becomes the
        stack for the next query. A greedy plan is a plan, and every
        other query gets the exact search, so the verdict and the
        witness are those of serving every query.

        List order cannot change a verdict: the search returns None only
        after ruling out every disjoint choice of candidates, whatever
        their order, and with complete lists no cap doubling is left to
        try. This planner's own lists are left as they were, and `serve`
        keeps its plans.
        """
        t = check_int("t", t)
        view = self._size_ordered()
        lists = {sym: enum.masks for sym, enum in view._lists.items()}
        # used[p]: the columns of the current plan's first p positions.
        used = [0]
        last: tuple[int, ...] = ()
        for combo in self._sweep_queries(t):
            keep = 0
            while keep < len(last) and last[keep] == combo[keep]:
                keep += 1
            del used[keep + 1 :]
            for sym in combo[keep:]:
                acc = used[-1]
                pick = next((m for m in lists[sym] if not m & acc), None)
                if pick is None:
                    break
                used.append(acc | pick)
            if len(used) <= t:  # the greedy extension stopped short
                q = Query(combo)
                plan = view.serve(q)
                if plan is None:
                    return False, q
                used = [0]
                for rs in plan.recovery_sets():
                    used.append(used[-1] | rs.column_mask())
            last = combo
        return True, None

    def _sweep_queries(self, t: int) -> Iterable[tuple[int, ...]]:
        """The size-t queries `servable_all` tests, as sorted index
        tuples in increasing lexicographic order: those whose
        multiplicities are non-increasing along each class of
        `symbol_classes`, which are the lexicographic minima of their
        orbits.

        A permutation fixing the column multiset maps each recovery set
        of e_i onto one of e_pi(i) of the same size, and disjoint sets
        onto disjoint sets, so servability is constant on an orbit. Any
        subgroup of the symbol stabilizer gives a sound reduction; the
        classes give one that is cheap to find, where listing the whole
        stabilizer is not.
        """
        steps = [
            (a, b)
            for cls in self.symbol_classes()
            for a, b in zip(cls, cls[1:])
        ]
        for combo in combinations_with_replacement(
            range(1, self._code.k + 1), t
        ):
            if not any(combo.count(a) < combo.count(b) for a, b in steps):
                yield combo

    def _size_ordered(self) -> "QueryPlanner":
        """A planner for the same code and cap whose candidate lists are
        the `by_size` views of this planner's complete lists. A list
        read off the circuit store is in size order already and is
        viewed as it is; any other is copied, stably sorted by size, so
        sets of equal size stay in lexicographic order.

        The view enumerates nothing itself, and its lists, with their
        conflict tables, are kept on this planner's records, so every
        sweep of this planner reuses them. This planner's own lists are
        not reordered, so its `serve` keeps its lexicographic plans.
        """
        view = QueryPlanner(self._code, self._r)
        for sym in range(1, self._code.k + 1):
            view._lists[sym] = self._list(sym, None).by_size
        return view

    def _list(self, symbol: int, cap: int | None) -> _Candidates:
        """The record of `symbol`, an integer in 1..k, enumerated anew at
        `cap` unless the current list already serves it. A complete list
        from `packings` comes back in the store's order; `_ordered`
        gives the lexicographic one."""
        # A cut list holds exactly the cap it was enumerated at.
        known = self._lists.get(symbol)
        if known is not None and (
            not known.truncated or cap is not None and len(known) >= cap
        ):
            return known
        found = enumerate_recovery_sets(
            self._code,
            BitVector.unit(self._code.k, symbol),
            max_size=self._r,
            max_count=cap,
        )
        known = _Candidates(found.target, found.masks, found.truncated)
        self._lists[symbol] = known
        return known

    def _ordered(self, symbol: int) -> _Candidates:
        """The current record of `symbol`, in lexicographic order: a list
        read off the circuit store is sorted now and its record
        replaced, so it is sorted once, and only when read in order."""
        known = self._lists[symbol]
        if type(known) is _StoreList:
            masks = _lexicographic(known.masks, self._code.n)
            known = self._lists[symbol] = _Candidates(known.target, masks, False)
        return known

    def _search(self, groups: Sequence[tuple[int, int]]) -> dict[int, list[int]] | None:
        """Backtracking assignment of disjoint candidate sets to groups.

        Groups with the fewest candidates are placed first; within a
        group, copies take candidates at strictly increasing positions,
        so the first plan found is the lexicographic depth-first one.
        A node is cut when fewer candidates remain open than copies are
        left to place; the failed-state record below is the only other
        cut.

        Two functions, made once per search, walk the tree. `place(gi,
        used)` starts group gi with the columns in `used` taken;
        `pick` places the group's copies one at a time, with the
        group's tables passed as arguments. The last copy walks its
        open candidates and calls `place` for the next group directly.
        `pick` expects at least `left` open candidates: both of its
        callers test the open count before the call, so no call is made
        only to fail that test. A search that
        succeeds records its picks on the way out, one list per group,
        so no node keeps a record of its own.

        The open candidates of a group are a bitset `avail`: on entry,
        the candidates touching no used column; after a pick i, what
        was open and misses candidate i (`avail & ~meets[i]`), less the
        positions up to i. The walk over its set bits in increasing
        order visits the same nodes in the same order as a scan of the
        candidate list would, so plans and verdicts do not depend on
        the representation.

        Within one search the groups' order and candidate lists are
        fixed, so whether `place(gi, used)` succeeds depends on
        (gi, used) alone. A state seen to fail is recorded, and later
        visits to it fail at once. Skipping a subtree known to hold no
        plan leaves every other node in its order, so the first plan
        found and a None verdict are the same as without the record.
        It is made once per search and holds at most `_MEMO_LIMIT`
        states.
        """
        order = sorted(groups, key=lambda g: (len(self._lists[g[0]]), g[0]))
        infos = []
        for sym, cnt in order:
            if len(self._lists[sym]) < cnt:
                return None
            cands = self._ordered(sym)
            infos.append((cnt, cands.masks, *cands.conflicts))
        last = len(infos)
        # picks[gi]: group gi's candidate indices, appended deepest first
        # as a successful search returns.
        picks: list[list[int]] = [[] for _ in infos]
        # failed[gi] holds used-column masks known to fail at group gi.
        failed: list[set[int]] = [set() for _ in infos]
        room = _MEMO_LIMIT

        def place(gi: int, used: int) -> bool:
            nonlocal room
            if gi == last:
                return True
            if used in failed[gi]:
                return False
            cnt, masks, full, meets, nibbles = infos[gi]
            clash = 0
            rest = used
            for nib in nibbles:
                if not rest:
                    break
                clash |= nib[rest & 15]
                rest >>= 4
            avail = full & ~clash
            if avail.bit_count() >= cnt and pick(gi, cnt, used, avail, masks, meets):
                return True
            if room:
                failed[gi].add(used)
                room -= 1
            return False

        def pick(
            gi: int, left: int, used: int, avail: int, masks: tuple[int, ...], meets: list[int]
        ) -> bool:
            if left == 1:
                # The group's last copy: each open candidate goes
                # straight on to the next group.
                while avail:
                    low = avail & -avail
                    i = low.bit_length() - 1
                    avail ^= low
                    if place(gi + 1, used | masks[i]):
                        picks[gi].append(i)
                        return True
                return False
            while avail:
                low = avail & -avail
                i = low.bit_length() - 1
                avail ^= low
                child = avail & ~meets[i]
                if child.bit_count() >= left - 1 and pick(
                    gi, left - 1, used | masks[i], child, masks, meets
                ):
                    picks[gi].append(i)
                    return True
            return False

        if place(0, 0):
            return {sym: chosen[::-1] for (sym, _), chosen in zip(order, picks)}
        return None


def serve_query(
    code: LinearCode, query: Query | Iterable[int], r: int | None = None
) -> ServingPlan | None:
    """One-shot serving plan search; see QueryPlanner.serve."""
    return QueryPlanner(code, r).serve(query)


def is_servable_all(
    code: LinearCode, t: int, r: int | None = None
) -> tuple[bool, Query | None]:
    """One-shot servability sweep; see QueryPlanner.servable_all."""
    return QueryPlanner(code, r).servable_all(t)


def plan_is_valid(
    code: LinearCode,
    query: Query | Iterable[int],
    plan: ServingPlan,
    r: int | None = None,
) -> bool:
    """Independent revalidation of a plan against code, query, and cap.

    Recomputes every recovery-set sum straight from the generator
    columns; shares no logic with the planner search. A position or
    column that is not an integer (`operator.index`) makes the plan
    invalid; the cap `r` must be None or an integer >= 1 (ValueError).
    """
    q = query if isinstance(query, Query) else Query(tuple(query))
    r = check_cap("r", r)
    try:
        positions = [operator.index(pos) for pos, _ in plan.assignments]
        members = [
            [operator.index(j) for j in rs.columns] for _, rs in plan.assignments
        ]
    except TypeError:
        return False
    if positions != list(range(1, q.t + 1)):
        return False
    cols = code.column_words
    used = 0
    for symbol, columns in zip(q.indices, members):
        if r is not None and len(columns) > r:
            return False
        if len(set(columns)) != len(columns):
            return False
        mask = 0
        acc = 0
        for j in columns:
            if not 1 <= j <= code.n:
                return False
            mask |= 1 << (j - 1)
            acc ^= cols[j - 1]
        if acc != 1 << (symbol - 1):
            return False
        if mask & used:
            return False
        used |= mask
    return True

"""Enumeration of minimal recovery sets and exact disjoint set packing.

A recovery set for a target vector v is a set of column indices whose
generator columns XOR to v; it is minimal when no proper subset works.
Over GF(2) a recovery set for a nonzero target is minimal exactly when
its columns are linearly independent: if the chosen columns were
dependent, some nonempty subset would sum to zero and its complement
would still sum to v. Minimal sets therefore never exceed k columns,
and a depth-first search can discard any branch whose next column lies
in the span of the columns already chosen.

The search works in coordinates over pivot columns, found by one
elimination from the last column to the first: a residual can still be
completed from the columns at positions >= i exactly when its
coordinate mask has no bit below i. So one lowest-bit test bounds each
node's loop, and the last slot of a set is a lookup of the columns
equal to the residual rather than a scan (see `minimal_set_masks`).

Each code has one pivot basis, computed on first use and cached on the
`LinearCode` (`LinearCode.pivot_basis`), so every search of the code,
whatever its target, excluded columns or caps, runs on the same
elimination. Excluded columns are a skip mask tested in the loop and in
the last-slot lookup; excluding columns only removes completions, so
the lowest-bit bound stays a necessary condition.

A minimal recovery set of a column's word that avoids that column is,
with the column, a circuit of the column matroid. Each code keeps one
value, its size and a flat tuple of every circuit of 2 to size + 1
columns, which `circuit_sets` replaces whole when a request asks for a
larger size. The circuits are the minimal supports of the nonzero
codewords of the dual code, the cycle space, which the fundamental
cycles of the pivot basis span (Ashikhmin and Barg, "Minimal vectors in
linear codes", 1998). Where the cycle space is small, one walk over its
2^m cycles fills the store completely, at size k, so no request fills
it again: in weight order, a cycle is a circuit when no lighter circuit
lies inside it, and each circuit marks all the cycles holding it at
once, an AND of per-column bitsets over the cycles. Elsewhere a sweep
of the columns in index order searches at the size asked, and each
circuit is enumerated once, from its lowest column. Both give the same
tuple. The repair profiles and the planner's complete unit-vector
lists read it, in the store's size order.

Sets stay column masks, as the search finds them, until a caller asks
for `RecoverySet`s: `RecoveryEnumeration.sets` decodes its masks the
first time it is read. The planner searches and packs on the masks and
decodes only the lists it returns plans or candidates from.

Disjointness has one representation: over a list of sets, bitsets of
the sets holding each column (`_touch`) and of the sets meeting one
set (`_meets`, an OR of `touch` entries). The planner's plan search
builds its conflict tables from both, for every set at once
(`_conflict_bitsets`). `max_disjoint_packing` first takes the greedy
packing in one pass and returns it when the search's root cut already
shows it is the maximum, which settles most lists before any bitset is
built; otherwise it branches on them, a node's open sets being one
integer, and builds a set's `meets` entry only when it first branches
on that set. A caller may pass an upper bound on the packing, and the
search returns as soon as a packing reaches it, after the greedy pass
or inside the branching. The planner and the profiles pass the
code's codeword-weight bounds (`LinearCode.packing_bounds`): a
codeword with m_i = 1 has odd weight on every recovery set of e_i, so
e_i has no more disjoint sets than the codeword has nonzero columns.

Arguments go through the package's one integer rule (`errors.check_int`):
an excluded column must be an integer in 1..n (DimensionError), and the
`max_size` and `max_count` caps None or an integer >= 1 (ValueError).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import DimensionError, InvalidTargetError, check_cap, check_int
from .gf2 import BitVector, LinearCode, _reverse_bits

__all__ = [
    "RecoverySet",
    "RecoveryEnumeration",
    "enumerate_recovery_sets",
    "max_disjoint_packing",
]

# The circuit store fills from its 2^m cycles, m the number of
# fundamental cycles, for a request of any size when m <= _CYCLES_ANY
# and for a request of size k when m <= _CYCLES_COMPLETE; otherwise by
# DFS at the size asked (see `circuit_sets`). On the analyze benchmark's
# random codes (k 4..7, m <= 10) a complete cycle fill took 0.4 to 0.6
# of the time of a complete DFS fill; at m = 12 it won from k = 6 up
# and lost below. From m = 8 it cost more than a DFS fill at size 2 or
# 3, which is all a capped profile may need.
_CYCLES_ANY = 7
_CYCLES_COMPLETE = 12


@dataclass(frozen=True)
class RecoverySet:
    """Minimal set of 1-indexed columns whose sum is `target`."""

    target: BitVector
    columns: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.columns)

    def column_mask(self) -> int:
        """Bitmask over [n] with bit j-1 set for each member column j."""
        mask = 0
        for j in self.columns:
            mask |= 1 << (j - 1)
        return mask

    def __str__(self) -> str:
        return "{" + ",".join(str(j) for j in self.columns) + "}"


@dataclass(frozen=True)
class RecoveryEnumeration:
    """Minimal recovery sets of one target.

    `masks` are the sets' column masks (bit j-1 for column j), in the
    order of whoever built the record: lexicographic order of their
    sorted column tuples from `enumerate_recovery_sets`; by size in the
    lists `QueryPlanner` keeps for its packings and batch sweeps, read
    off the circuit store in the store's order or stably sorted from a
    lexicographic list. `truncated` means more sets exist beyond the
    count cap. `sets` holds the same sets as `RecoverySet`s, in the
    same order, decoded on first read; iteration runs over `sets`, and
    `len` counts `masks`.
    """

    target: BitVector
    masks: tuple[int, ...]
    truncated: bool

    @cached_property
    def sets(self) -> tuple[RecoverySet, ...]:
        return tuple(RecoverySet(self.target, _columns(m)) for m in self.masks)

    def __iter__(self):
        return iter(self.sets)

    def __len__(self) -> int:
        return len(self.masks)


def enumerate_recovery_sets(
    code: LinearCode,
    target: BitVector,
    excluded: Iterable[int] = (),
    max_size: int | None = None,
    max_count: int | None = None,
) -> RecoveryEnumeration:
    """All minimal recovery sets for `target`, in lexicographic order of
    their sorted column tuples.

    `excluded` columns are never used. `max_size` caps the set size,
    `max_count` caps how many sets are returned; when more than
    `max_count` exist the result is marked truncated. The target must
    be a nonzero length-k vector.
    """
    if target.length != code.k:
        raise DimensionError(
            f"target length {target.length} != k = {code.k}"
        )
    if target.is_zero():
        raise InvalidTargetError("recovery target must be nonzero")
    skip = 0
    for j in excluded:
        j = check_int("excluded column", j, most=code.n, error=DimensionError)
        skip |= 1 << (j - 1)
    max_size = check_cap("max_size", max_size)
    max_count = check_cap("max_count", max_count)
    masks, truncated = minimal_set_masks(
        code, target.word, skip, max_size, max_count
    )
    return RecoveryEnumeration(target, tuple(masks), truncated)


def _columns(mask: int) -> tuple[int, ...]:
    """Sorted 1-indexed columns of a column mask."""
    columns = []
    while mask:
        low = mask & -mask
        columns.append(low.bit_length())
        mask ^= low
    return tuple(columns)


def minimal_set_masks(
    code: LinearCode,
    target: int,
    skip: int,
    max_size: int | None,
    max_count: int | None = None,
) -> tuple[list[int], bool]:
    """Column masks of the minimal recovery sets of the nonzero length-k
    word `target` that avoid the columns in the mask `skip` and have at
    most `max_size` columns (None: k), in lexicographic order of their
    sorted column tuples; the flag says more than `max_count` exist.

    DFS over the columns in index order, on the code's pivot basis
    (`LinearCode.pivot_basis`): minimal sets surface in preorder, which
    is lexicographic order. A residual can be completed from the columns
    at positions >= idx only while idx is at most the position of its
    lowest set bit, which bounds the loop; skipped columns only remove
    completions, so the bound still holds. A column's own coordinate
    mask has no bit below its position, so the bound also covers the
    last slot, and a branch whose child would have an empty range is
    not entered. When one slot is left, only columns equal to the
    residual complete a set; they are looked up by coordinate, and their
    independence from the path is tested once, since they are all the
    same vector.
    """
    basis = code.pivot_basis
    coords, by_coord = basis.coords, basis.by_coord
    hard_cap = None if max_count is None else max_count + 1
    out: list[int] = []
    # Low-bit basis of the path's coordinate masks, one entry per column.
    path_span: dict[int, int] = {}
    last = (code.k if max_size is None else min(max_size, code.k)) - 1

    def dfs(start: int, residual: int, used: int) -> bool:
        # Returns True when the hard cap is reached and search must stop.
        if len(path_span) == last:
            cur = residual
            while cur:
                row = path_span.get(cur & -cur)
                if row is None:
                    break
                cur ^= row
            else:
                return False  # the completing column depends on the path
            for idx in by_coord.get(residual, ()):
                if idx < start or skip >> idx & 1:
                    continue
                out.append(used | 1 << idx)
                if len(out) == hard_cap:
                    return True
            return False
        # Past the lowest set bit of `residual`, no completion remains.
        for idx in range(start, (residual & -residual).bit_length()):
            if skip >> idx & 1:
                continue
            coord = coords[idx]
            reduced = coord
            while reduced:
                low = reduced & -reduced
                row = path_span.get(low)
                if row is None:
                    break
                reduced ^= row
            else:
                continue  # dependent on the current path: never minimal
            if coord == residual:
                out.append(used | 1 << idx)
                if len(out) == hard_cap:
                    return True
                continue  # supersets of a recovery set are dependent
            rest = residual ^ coord
            if (rest & -rest).bit_length() <= idx + 1:
                continue  # the child's bound leaves it nothing to try
            path_span[low] = reduced
            stop = dfs(idx + 1, rest, used | 1 << idx)
            del path_span[low]
            if stop:
                return True
        return False

    dfs(0, basis.coordinates(target), 0)
    truncated = hard_cap is not None and len(out) == hard_cap
    if truncated:
        out.pop()
    return out, truncated


def circuit_sets(
    code: LinearCode, columns: list[int], size: int | None
) -> list[list[int]]:
    """For each column c of `columns`, the masks of the minimal recovery
    sets of c's word that avoid c and have at most `size` columns
    (None: k), in no fixed order; none for a zero column or a coloop.

    Such a set, together with c, is a circuit of the column matroid.
    The code's store is one value, `LinearCode._circuits = (size,
    circuits)`: `circuits` holds, once each and as column masks, every
    circuit of 2 to size + 1 columns, so it depends only on the code
    and the size. Only a request for a larger size fills it, in one of
    two ways, chosen by m, the number of fundamental cycles
    (`PivotBasis.cycles`), against the constants above:
    - from the cycle space (`_cycle_circuits`), for a request of any
      size when m <= _CYCLES_ANY and for one of size k when m <=
      _CYCLES_COMPLETE. The store is then complete, at size k, and
      every later request reads it;
    - otherwise by DFS at the size asked, in one sweep that searches
      each column lying in some circuit (nonzero, not a coloop) once,
      in index order, avoiding itself and every column searched before
      it, so each circuit is found once, from its lowest column.
    Both fills give the same tuple at size k: the circuits by size, and
    at equal size in lexicographic order of their sorted column tuples.
    The new store replaces the old one only after the fill has
    returned, so a request that a fill cuts short (an interrupt, an
    error) leaves it as it was. As the store is sorted by size, every
    other request reads only the circuits of at most size + 1 columns,
    in one pass that deals each of them, less c, to every requested
    column c it holds.
    """
    size = code.k if size is None else min(size, code.k)
    stored, circuits = code._circuits
    if size > stored:
        basis = code.pivot_basis
        if len(basis.cycles) <= (_CYCLES_COMPLETE if size == code.k else _CYCLES_ANY):
            stored, circuits = code.k, _cycle_circuits(code.n, code.k, basis.cycles)
        else:
            found, skip = [], 0
            for i, word in enumerate(code.column_words):
                bit = 1 << i
                if word and not basis.coloops & bit:
                    skip |= bit
                    masks, _ = minimal_set_masks(code, word, skip, size)
                    found += [m | bit for m in masks]
            stored, circuits = size, tuple(sorted(found, key=int.bit_count))
        code._circuits = stored, circuits
    lists = {1 << (c - 1): [] for c in columns}
    wanted = sum(lists)
    for m in circuits:
        if m.bit_count() > size + 1:
            break
        hit = m & wanted
        while hit:
            low = hit & -hit
            lists[low].append(m ^ low)
            hit ^= low
    return [lists[1 << (c - 1)] for c in columns]


def _cycle_circuits(n: int, k: int, cycles: Sequence[int]) -> tuple[int, ...]:
    """Every circuit of 2 to k + 1 columns of a matroid on n columns of
    rank k, whose cycle space the column masks `cycles` span (its
    fundamental cycles), by size and at equal size in lexicographic
    order of their sorted column tuples.

    The table of the 2^m cycles doubles once per fundamental cycle, and
    `has[c]`, the bitset of the table indices of the cycles holding
    column c, doubles with it: one shift and XOR per column. The cycles
    of at most k + 1 columns, the most a circuit has, are visited in
    the order above; at equal weight that is the descending order of
    the masks reversed over n bits, since the first column where two
    tuples differ is the highest bit where their reversed masks do.
    Over GF(2) a cycle that is not a circuit is a disjoint union of
    lighter circuits, and no circuit lies inside another of its own
    weight, so a cycle is a circuit exactly when it is not yet marked.
    Each circuit marks at once every cycle holding it, the AND of `has`
    over its columns.
    """
    table, reversed_table = [0], [0]
    has = [0] * n
    for cycle in cycles:
        half = len(table)
        table += [c ^ cycle for c in table]
        flipped = _reverse_bits(cycle, n)
        reversed_table += [c ^ flipped for c in reversed_table]
        flip = (1 << half) - 1
        for c in range(n):
            h = has[c]
            has[c] = h | (h ^ flip if cycle >> c & 1 else h) << half
    # Weight first, then the reversed mask descending. A nonzero cycle's
    # reversed mask lies in 1..2^n - 1, so its key is at most
    # (k + 1) << n exactly when it has at most k + 1 columns.
    keys = [(c.bit_count() << n) - r for c, r in zip(table, reversed_table)]
    top = (k + 1) << n
    order = sorted((i for i in range(1, len(table)) if keys[i] <= top), key=keys.__getitem__)
    # The heaviest cycles visited need not mark: none after them is heavier.
    heaviest = table[order[-1]].bit_count() if order else 0
    dead = 0
    circuits = []
    for i in order:
        if dead >> i & 1:
            continue
        circuit = table[i]
        circuits.append(circuit)
        if circuit.bit_count() == heaviest:
            continue
        sup = -1
        while circuit:
            low = circuit & -circuit
            sup &= has[low.bit_length() - 1]
            circuit ^= low
        dead |= sup
    return tuple(circuits)


def _touch(masks: Sequence[int]) -> list[int]:
    """Bitsets of the sets holding each column: bit i of `touch[c]` is
    set when masks[i] has column c + 1, up to the highest column a set
    has."""
    touch = [0] * max(masks, default=0).bit_length()
    for i, mask in enumerate(masks):
        bit = 1 << i
        while mask:
            touch[(mask & -mask).bit_length() - 1] |= bit
            mask &= mask - 1
    return touch


def _meets(touch: list[int], mask: int) -> int:
    """The sets sharing a column with `mask`, as a bitset over the
    positions `touch` (from `_touch`) indexes."""
    hit = 0
    while mask:
        hit |= touch[(mask & -mask).bit_length() - 1]
        mask &= mask - 1
    return hit


def _conflict_bitsets(masks: Sequence[int]) -> tuple[list[int], list[int]]:
    """Disjointness of the sets `masks` (column bitmasks) as bitsets over
    their positions: (touch, meets).

    Bit i of each bitset stands for masks[i]. `touch[c]` holds the sets
    with column c + 1 (`_touch`); `meets[i]` holds the sets sharing a
    column with masks[i] (i included, unless it is empty; `_meets`).
    The planner's plan search tests disjointness on these, and the
    packing search below on the same two helpers.
    """
    touch = _touch(masks)
    return touch, [_meets(touch, mask) for mask in masks]


def max_disjoint_packing(masks: Sequence[int], bound: int | None = None) -> int:
    """Exact maximum number of pairwise-disjoint sets among `masks`
    (column bitmasks), by branch and bound over the sets in size order.

    `bound`, when given, must be an upper bound on the answer, such as
    the codeword-weight bounds of `LinearCode.packing_bounds`: the
    search returns as soon as a packing reaches it (or takes every
    set).

    The size-first greedy packing, taken in one pass, is the first
    lower bound. It is the answer, and nothing is built, when it
    reaches that limit or when the greedy + 1 smallest sets need more
    columns than the list touches: the search's cut at its root.
    Otherwise the search starts from it. A node's open sets are a
    bitset `avail` over the size order: the sets after the last one
    taken that miss every taken set. Taking set i leaves open what was
    open after it and misses it, `avail & ~meets[i]`, with `meets[i]`
    built from the column bitsets (`_touch`, `_meets`) the first time
    branch i is taken; `free` counts the columns no taken set has.
    """
    # Size order is all the cut below needs: the result is exact
    # whatever the order of sets of equal size. The lists read off the
    # circuit store, the profiles' and the planner's, arrive in size
    # order and sort at once.
    items = sorted((m for m in masks if m), key=int.bit_count)
    sizes = [m.bit_count() for m in items]
    best = used = cover = 0
    for m in items:
        cover |= m
        if not m & used:
            used |= m
            best += 1
    free = cover.bit_count()
    limit = len(items) if bound is None else min(bound, len(items))
    if best >= limit or sum(sizes[: best + 1]) > free:
        return best
    touch = _touch(items)
    # meets[i] is 0 until branch i is first taken: a nonempty set meets itself.
    meets = [0] * len(items)

    def dfs(avail: int, free: int, depth: int) -> bool:
        # Returns True once the best packing reaches `limit`.
        nonlocal best
        if depth > best:
            best = depth
            if best == limit:
                return True
        while avail:
            # Beating `best` takes `need` more disjoint open sets. They
            # fit in the free columns only if the `need` smallest do,
            # the lowest set bits of `avail`. `best` can rise in any
            # child, so the cut is retested before each branch, and
            # once it fails it fails for every later branch.
            need = best - depth + 1
            room = free
            rest = avail
            while need and rest:
                room -= sizes[(rest & -rest).bit_length() - 1]
                rest &= rest - 1
                need -= 1
            if need or room < 0:
                break
            i = (avail & -avail).bit_length() - 1
            avail &= avail - 1
            hit = meets[i]
            if not hit:
                hit = meets[i] = _meets(touch, items[i])
            if dfs(avail & ~hit, free - sizes[i], depth + 1):
                return True
        return False

    dfs((1 << len(items)) - 1, free, 0)
    return best

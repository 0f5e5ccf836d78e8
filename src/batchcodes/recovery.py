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
store of the circuits found so far (`circuit_sets`), which searches a
column on its first request, a larger size by re-searching only the
columns already searched, and enumerates each circuit once, from the
first searched column in it. The repair profiles and the planner's
complete unit-vector lists read it.

Sets stay column masks, as the search finds them, until a caller asks
for `RecoverySet`s: `RecoveryEnumeration.sets` decodes its masks the
first time it is read. The planner searches and packs on the masks and
decodes only the lists it returns plans or candidates from.

Arguments go through the package's one integer rule (`errors.check_int`):
an excluded column must be an integer in 1..n (DimensionError), and the
`max_size` and `max_count` caps None or an integer >= 1 (ValueError).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import DimensionError, InvalidTargetError, check_cap, check_int
from .gf2 import BitVector, LinearCode

__all__ = [
    "RecoverySet",
    "RecoveryEnumeration",
    "enumerate_recovery_sets",
    "max_disjoint_packing",
]


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
    sorted column tuples from `enumerate_recovery_sets` and
    `QueryPlanner.packings`, by size in the planner's sweep view
    (`QueryPlanner._size_ordered`). `truncated` means more sets exist
    beyond the count cap. `sets` holds the same sets as `RecoverySet`s,
    in the same order, decoded on first read; iteration runs over
    `sets`, and `len` counts `masks`.
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


class _CircuitStore:
    """The circuits of one code's column matroid found so far, kept on
    the code (`LinearCode._circuits`) and filled by `circuit_sets`.

    Each column in `columns`, in search order, was searched for minimal
    sets of at most `size` columns avoiding itself and every column
    before it. `sets[c]` holds the circuits found through column c,
    less c, as column masks.
    """

    def __init__(self) -> None:
        self.size = 0
        self.columns: list[int] = []
        self.sets: dict[int, list[int]] = {}


def circuit_sets(
    code: LinearCode, columns: list[int], size: int | None
) -> list[list[int]]:
    """For each column c of `columns`, which must be nonzero, the masks
    of the minimal recovery sets of c's word that avoid c and have at
    most `size` columns (None: k), in no fixed order.

    Such a set, together with c, is a circuit of the column matroid.
    The code's store enumerates each circuit once, from the first
    searched column it holds, and searches only columns asked for:
    - a larger size than the store's first re-searches the columns
      already searched, in search order and avoiding the same columns,
      keeping only the sets above the old size;
    - then each new column is searched at the store's size, avoiding
      itself and every column searched before it.
    Each circuit found goes, less c', to every column c' in it. The
    store changes only after every search has returned, so a request
    that a search cuts short (an interrupt, an error) leaves it as it
    was.
    """
    store = code._circuits
    size = code.k if size is None else min(size, code.k)
    grown = max(store.size, size)
    new = [c for c in dict.fromkeys(columns) if c not in store.columns]
    found, skip = [], 0
    for c in store.columns + new:
        skip |= 1 << (c - 1)
        done = store.size if c in store.columns else 0
        if done < grown:
            masks, _ = minimal_set_masks(code, code.column_words[c - 1], skip, grown)
            found += (m | 1 << (c - 1) for m in masks if m.bit_count() > done)
    store.size, store.columns = grown, store.columns + new
    for circuit in found:
        for j in _columns(circuit):
            store.sets.setdefault(j, []).append(circuit ^ 1 << (j - 1))
    return [[m for m in store.sets.get(c, ()) if m.bit_count() <= size] for c in columns]


def max_disjoint_packing(masks: Sequence[int]) -> int:
    """Exact maximum number of pairwise-disjoint sets among `masks`
    (column bitmasks), by branch and bound seeded with a greedy packing.
    """
    items = sorted((m for m in masks if m), key=lambda m: (m.bit_count(), m))
    universe = 0
    for m in items:
        universe |= m
    sizes = [m.bit_count() for m in items]

    best = 0
    used = 0
    for m in items:
        if not m & used:
            used |= m
            best += 1

    def dfs(start: int, used: int, depth: int) -> None:
        nonlocal best
        if depth > best:
            best = depth
        avail = [i for i in range(start, len(items)) if not items[i] & used]
        free = (universe & ~used).bit_count()
        for pos, i in enumerate(avail):
            # Beating `best` takes `need` more disjoint sets from avail[pos:].
            # They fit in the free columns only if the `need` smallest do,
            # a prefix, as `avail` is in size order. `best` can rise in any
            # child, so the cut is retested before each branch, and once it
            # fails it fails for every later branch.
            need = best - depth + 1
            rest = avail[pos : pos + need]
            if len(rest) < need or sum(sizes[j] for j in rest) > free:
                break
            dfs(i + 1, used | items[i], depth + 1)

    dfs(0, 0, 0)
    return best

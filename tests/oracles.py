"""Brute-force reference implementations for cross-checking the engines.

Everything here favors obviousness over speed and shares no code with
the package internals: subset sums come from a full 2^n table, planning
searches all recovery sets (not only minimal ones), packing is plain
recursion, and the distance oracle evaluates every dot product directly.
`gray_min_distance` is the package's earlier Gray-code distance loop,
for k too large for the dot-product oracle.
`reference_max_packing` is the package's earlier list-based packing
search, for lists too long for plain recursion.
`reference_plan` is the one search over minimal sets only: it follows
the planner's documented search order, without any of its pruning, so
that plans can be compared exactly. `reference_lrc_profile` rebuilds the
profiler's locality and availability from the brute-force minimal sets
and packing alone. `brute_circuits` finds the circuits of the column
matroid as the minimal zero-sum column sets of the subset-sum table.
`reference_servable_all` sweeps every query, with no
symmetry reduction. `reference_min_length` is the optimal-length
sweep with no distance filter and no skipped candidates.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, combinations_with_replacement, product
from typing import Sequence

from batchcodes import BitVector, LinearCode, RecoverySet, ServingPlan


def subset_sum_table(code: LinearCode) -> list[int]:
    """sums[mask] = XOR of the generator columns selected by mask."""
    cols = code.column_words
    sums = [0] * (1 << code.n)
    for mask in range(1, 1 << code.n):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] ^ cols[low.bit_length() - 1]
    return sums


def _mask_to_columns(mask: int) -> tuple[int, ...]:
    out = []
    j = 1
    while mask:
        if mask & 1:
            out.append(j)
        mask >>= 1
        j += 1
    return tuple(out)


def brute_summing_masks(
    code: LinearCode,
    target_word: int,
    excluded: frozenset[int] = frozenset(),
    max_size: int | None = None,
    sums: list[int] | None = None,
) -> list[int]:
    """All nonempty column masks XOR-summing to the target."""
    if sums is None:
        sums = subset_sum_table(code)
    banned = 0
    for j in excluded:
        banned |= 1 << (j - 1)
    out = []
    for mask in range(1, 1 << code.n):
        if mask & banned:
            continue
        if max_size is not None and mask.bit_count() > max_size:
            continue
        if sums[mask] == target_word:
            out.append(mask)
    return out


def brute_minimal_recovery_sets(
    code: LinearCode,
    target_word: int,
    excluded: frozenset[int] = frozenset(),
    max_size: int | None = None,
    sums: list[int] | None = None,
) -> list[tuple[int, ...]]:
    """Minimal recovery sets as sorted column tuples, lexicographic order."""
    summing = brute_summing_masks(code, target_word, excluded, None, sums)
    minimal = [
        m
        for m in summing
        if not any(o != m and o & m == o for o in summing)
    ]
    if max_size is not None:
        minimal = [m for m in minimal if m.bit_count() <= max_size]
    tuples = sorted(_mask_to_columns(m) for m in minimal)
    return tuples


def brute_circuits(
    code: LinearCode, max_size: int, sums: list[int] | None = None
) -> list[int]:
    """Column masks of the circuits of the column matroid, the minimal
    nonempty column sets summing to zero, that have 2 to max_size
    columns."""
    if sums is None:
        sums = subset_sum_table(code)
    dependent = sorted(
        (m for m in range(1, 1 << code.n) if not sums[m] and m.bit_count() <= max_size),
        key=lambda m: m.bit_count(),
    )
    circuits: list[int] = []
    for m in dependent:
        if not any(c & m == c for c in circuits):
            circuits.append(m)
    return [c for c in circuits if c.bit_count() >= 2]


def brute_plan_exists(
    code: LinearCode,
    indices: tuple[int, ...],
    r: int | None = None,
    sums: list[int] | None = None,
) -> bool:
    """Plain DFS over ALL recovery sets per position, in query order.

    Copies of one symbol are interchangeable, so they take their sets
    at increasing positions of the symbol's list (disjoint sets differ).
    """
    if sums is None:
        sums = subset_sum_table(code)
    order = sorted(indices)
    options = {
        i: brute_summing_masks(code, 1 << (i - 1), frozenset(), r, sums)
        for i in set(order)
    }

    def place(pos: int, used: int, first: int) -> bool:
        if pos == len(order):
            return True
        masks = options[order[pos]]
        for at in range(first, len(masks)):
            if masks[at] & used:
                continue
            same = pos + 1 < len(order) and order[pos + 1] == order[pos]
            if place(pos + 1, used | masks[at], at + 1 if same else 0):
                return True
        return False

    return place(0, 0, 0)


def reference_servable_all(
    code: LinearCode,
    t: int,
    r: int | None = None,
    sums: list[int] | None = None,
) -> tuple[bool, tuple[int, ...] | None]:
    """Every size-t query in lexicographic order through
    `brute_plan_exists`; the first failing one is the witness."""
    if sums is None:
        sums = subset_sum_table(code)
    for combo in combinations_with_replacement(range(1, code.k + 1), t):
        if not brute_plan_exists(code, combo, r, sums):
            return False, combo
    return True, None


def reference_min_length(
    k: int, t: int, mode: str, r: int | None, n_max: int
) -> tuple[int | None, list[str] | None, int]:
    """Every systematic [I | A] with k <= n <= n_max, in the search's
    order: parity columns as k-bit values, most significant bit in row
    1, in nondecreasing tuples, shorter codes first. Each candidate
    passes when `brute_plan_exists` serves every size-t query (mode
    "batch") or every uniform one (mode "pir"). Returns (n, witness
    rows, candidates tested) for the first passing candidate, or
    (None, None, candidates tested)."""
    nodes = 0
    for n in range(k, n_max + 1):
        for combo in combinations_with_replacement(range(1 << k), n - k):
            nodes += 1
            rows = [
                "".join("1" if j == i else "0" for j in range(k))
                + "".join(str(v >> (k - 1 - i) & 1) for v in combo)
                for i in range(k)
            ]
            code = LinearCode.from_text("\n".join(rows))
            sums = subset_sum_table(code)
            if mode == "batch":
                queries = combinations_with_replacement(range(1, k + 1), t)
            else:
                queries = ((i,) * t for i in range(1, k + 1))
            if all(brute_plan_exists(code, q, r, sums) for q in queries):
                return n, rows, nodes
    return None, None, nodes


def reference_plan(
    code: LinearCode,
    indices: tuple[int, ...],
    r: int | None = None,
    sums: list[int] | None = None,
) -> ServingPlan | None:
    """The first plan in the planner's documented order, by an unpruned
    backtrack over brute-force minimal recovery sets.

    Groups of equal symbols are placed in order of (candidate count,
    symbol); the copies of a group take candidates at strictly
    increasing positions of the lexicographic candidate list, tried in
    lexicographic order of those position tuples. Copies of a symbol
    serve its query positions in ascending order.
    """
    if sums is None:
        sums = subset_sum_table(code)
    counts = Counter(indices)
    cands = {
        s: brute_minimal_recovery_sets(code, 1 << (s - 1), frozenset(), r, sums)
        for s in counts
    }
    order = sorted(counts, key=lambda s: (len(cands[s]), s))
    chosen: dict[int, tuple[tuple[int, ...], ...]] = {}

    def place(gi: int, used: int) -> bool:
        if gi == len(order):
            return True
        s = order[gi]
        for combo in combinations(cands[s], counts[s]):
            union = used
            for cols in combo:
                mask = sum(1 << (j - 1) for j in cols)
                if union & mask:
                    break
                union |= mask
            else:
                if place(gi + 1, union):
                    chosen[s] = combo
                    return True
        return False

    if not place(0, 0):
        return None
    taken = Counter()
    assignments = []
    for pos, s in enumerate(sorted(indices), 1):
        cols = chosen[s][taken[s]]
        taken[s] += 1
        assignments.append((pos, RecoverySet(BitVector.unit(code.k, s), cols)))
    return ServingPlan(tuple(assignments))


def brute_max_packing(masks: list[int]) -> int:
    """Maximum pairwise-disjoint subfamily by unpruned recursion."""

    def go(i: int, used: int) -> int:
        if i == len(masks):
            return 0
        best = go(i + 1, used)
        if not masks[i] & used:
            best = max(best, 1 + go(i + 1, used | masks[i]))
        return best

    return go(0, 0)


def reference_max_packing(masks: Sequence[int]) -> int:
    """Exact maximum number of pairwise-disjoint sets among `masks`:
    the list-based branch and bound the package used before its bitset
    search, kept as it was. It seeds the search with a greedy packing
    and rebuilds each node's open sets as a list, so it reaches lists
    far past `brute_max_packing`'s, with an independent representation.
    """
    # Size order is all the cut below needs: the result is exact
    # whatever the order of sets of equal size. The profiler's lists
    # arrive in size order from the circuit store, and sort at once.
    items = sorted((m for m in masks if m), key=int.bit_count)
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


def reference_lrc_profile(
    code: LinearCode,
    targets: list[tuple[int, int, frozenset[int]]],
    cap: int | None,
    sums: list[int] | None = None,
) -> tuple:
    """Repair profile of `targets`, given as (index, word, excluded)
    triples, at set-size cap `cap` (None: unbounded).

    Returns (cap, locality, availability, symbols) with one
    (index, min_size, packing) per target. min_size is the size of the
    smallest minimal recovery set at any size, None when there is none;
    packing is the most pairwise-disjoint minimal sets of size at most
    cap. A zero target is trivially recoverable: (index, 0, None).
    locality is the largest min_size, None when any is None;
    availability is the smallest packing that is not None, 0 when none
    is.
    """
    symbols = []
    for index, word, excluded in targets:
        if word == 0:
            symbols.append((index, 0, None))
            continue
        sets = brute_minimal_recovery_sets(code, word, excluded, None, sums)
        min_size = min((len(s) for s in sets), default=None)
        masks = [
            sum(1 << (j - 1) for j in s)
            for s in sets
            if cap is None or len(s) <= cap
        ]
        symbols.append((index, min_size, brute_max_packing(masks)))
    sizes = [s[1] for s in symbols]
    locality = None if None in sizes else max(sizes, default=0)
    packings = [s[2] for s in symbols if s[2] is not None]
    availability = min(packings, default=0)
    return cap, locality, availability, tuple(symbols)


def brute_min_distance(code: LinearCode) -> int:
    """Minimum nonzero codeword weight by direct dot products."""
    cols = code.column_words
    best = code.n
    for bits in product((0, 1), repeat=code.k):
        if not any(bits):
            continue
        weight = 0
        for col in cols:
            parity = 0
            for i, b in enumerate(bits):
                parity ^= b & (col >> i) & 1
            weight += parity
        best = min(best, weight)
    return best


def gray_min_distance(code: LinearCode) -> int:
    """Minimum nonzero codeword weight by Gray-code enumeration of all
    2^k - 1 nonzero messages, one row added per step."""
    rows = code.generator.row_words
    word = 0
    best = code.n + 1
    for step in range(1, 1 << code.k):
        word ^= rows[(step & -step).bit_length() - 1]
        w = word.bit_count()
        if w < best:
            best = w
            if best == 1:
                break
    return best

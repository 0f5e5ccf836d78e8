"""Exhaustive search for length-optimal codes at small k.

Candidates are systematic generator matrices [I | A]; searching these
is enough because any code can be brought to systematic form without
changing n, k, or servability. Parity columns run through all k-bit
values (zero included, so the candidate space is exactly the stated
matrix family) in increasing big-endian integer value, and tuples of
columns are nondecreasing, so the first passing matrix is a canonical,
reproducible witness.

A code that serves t copies of every symbol has minimum distance
d >= t: if e_i has t disjoint recovery sets, every codeword mG with
m_i = 1 has odd, so nonzero, weight on each of them. This holds in both
modes and under any size cap, so candidates with a codeword lighter
than t are rejected from their parity values alone, before any code or
planner is built.

Two more skips drop candidates that an earlier candidate already
decided:

- A zero parity column is never in a minimal recovery set, so a
  candidate with one serves exactly what it serves without it. Sorted,
  the zero comes first, and the candidate without it was tested at
  n - 1 and failed (the sweep would have stopped otherwise).
- Swapping two bits of every parity value swaps two rows of [I | A];
  swapping the matching identity columns back gives the same code with
  two symbols relabeled, so servability in both modes and under any cap
  is unchanged. When the swap maps a candidate to a smaller sorted
  tuple, that tuple came earlier at the same n and failed. So the first
  passing candidate is the least member of its orbit and is never
  skipped. Only the k(k-1)/2 transpositions are tried, not all k! bit
  permutations: a full canonicity test costs more than it saves.

Every skipped candidate still counts in `nodes_explored`, so the
witness and the count are those of the unfiltered sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

from .constructions import _code_from_columns
from .errors import CapacityError, check_cap, check_int
from .gf2 import LinearCode, _reverse_bits
from .planner import QueryPlanner
from .profiler import _batch_floor

__all__ = ["SearchResult", "min_length", "redundancy_table"]

_MODES = ("batch", "pir")


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one optimal-length sweep.

    optimal_n is None when no code passed up to n_max; the sweep range
    k..n_max and the number of candidate matrices tested certify what
    was searched either way.
    """

    k: int
    t: int
    mode: str
    r_cap: int | None
    n_max: int
    optimal_n: int | None
    witness: LinearCode | None
    nodes_explored: int

    @property
    def redundancy(self) -> int | None:
        return None if self.optimal_n is None else self.optimal_n - self.k

    @property
    def found(self) -> bool:
        return self.optimal_n is not None


def min_length(
    k: int,
    t: int,
    mode: str = "batch",
    r_cap: int | None = None,
    n_max: int | None = None,
    *,
    max_k: int = 5,
    max_slack: int = 5,
) -> SearchResult:
    """Smallest n admitting a [n, k] code that serves every size-t query
    (mode "batch") or every uniform size-t query (mode "pir"), with
    recovery sets capped at r_cap columns when given.

    Sweeps n = k, k+1, ..., n_max (default k + max_slack). The guards
    max_k and max_slack bound the doubly exponential candidate space;
    raise them deliberately or not at all.

    A candidate with minimum distance below t cannot pass (each codeword
    with m_i = 1 meets every recovery set of e_i in an odd number of
    columns), so it is skipped before its code is built. So is one with
    a zero parity column (it serves what the shorter candidate without
    the column served, and that one failed) and one that a swap of two
    bits in every parity value maps to a smaller sorted tuple (the same
    code with two symbols relabeled, tested earlier). Skipped
    candidates still count in `nodes_explored`, so the witness and the
    count are those of the plain sweep.
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    k = check_int("k", k)
    t = check_int("t", t)
    r_cap = check_cap("r_cap", r_cap)
    max_slack = check_int("max_slack", max_slack, least=0)
    max_k = check_int("max_k", max_k)
    if k > max_k:
        raise CapacityError(f"k = {k} exceeds the search guard max_k = {max_k}")
    if n_max is None:
        n_max = k + max_slack
    n_max = check_int("n_max", n_max, least=k)
    if n_max - k > max_slack:
        raise CapacityError(
            f"n_max - k = {n_max - k} exceeds the search guard max_slack = {max_slack}"
        )

    start, parity_bits, high = _distance_filter(k, t, n_max)
    swaps = _transposition_tables(k)
    nodes = 0
    for n in range(k, n_max + 1):
        # Both tuples run in the same order, so bits[j] is the entry of
        # parity_bits for combo[j].
        for combo, bits in zip(
            combinations_with_replacement(range(1 << k), n - k),
            combinations_with_replacement(parity_bits, n - k),
        ):
            nodes += 1
            # A zero column: combo[1:] was tested at n - 1 and failed.
            if combo and not combo[0]:
                continue
            if sum(bits, start) & high != high:
                continue
            if any(
                tuple(sorted(map(swap.__getitem__, combo))) < combo for swap in swaps
            ):
                continue
            code = _systematic_candidate(k, combo)
            if _passes(code, t, mode, r_cap):
                return SearchResult(k, t, mode, r_cap, n_max, n, code, nodes)
    return SearchResult(k, t, mode, r_cap, n_max, None, None, nodes)


def _distance_filter(k: int, t: int, n_max: int) -> tuple[int, list[int], int]:
    """Packed weight test for d >= t on candidates [I | A] with up to n_max
    columns.

    One field per nonzero message m, at offset (m - 1) * width, holds
    wt(mG) + top - t, where top is the field's high bit. Messages are
    written in the parity values' big-endian bit order, so parity value
    v adds popcount(m & v) & 1 to the weight of m. Returns (start,
    parity_bits, high): start holds wt(m) + top - t, the identity part,
    and parity_bits[v] holds the bits that v adds, so the candidate has
    d >= t exactly when
    (start + sum(parity_bits[v] for v in parity_values)) & high == high.
    Each field stays in [0, 2 * top) because top > max(n_max, t), so no
    field carries into the next.
    """
    width = max(n_max, t).bit_length() + 1
    top = 1 << (width - 1)
    start = high = 0
    parity_bits = [0] * (1 << k)
    for m in range(1, 1 << k):
        shift = (m - 1) * width
        start += (m.bit_count() + top - t) << shift
        high |= top << shift
        for v in range(1 << k):
            if (m & v).bit_count() & 1:
                parity_bits[v] |= 1 << shift
    return start, parity_bits, high


def _transposition_tables(k: int) -> list[list[int]]:
    """For each pair of bits i < j, the table mapping every k-bit value
    to the value with bits i and j swapped."""
    tables = []
    for i in range(k):
        for j in range(i + 1, k):
            flip = (1 << i) | (1 << j)
            tables.append(
                [v ^ flip if (v >> i ^ v >> j) & 1 else v for v in range(1 << k)]
            )
    return tables


def _systematic_candidate(k: int, parity_values: tuple[int, ...]) -> LinearCode:
    # Unchecked: k and the parity values come from min_length's loop.
    return _code_from_columns(
        k, [1 << i for i in range(k)] + [_reverse_bits(v, k) for v in parity_values]
    )


def _passes(code: LinearCode, t: int, mode: str, r_cap: int | None) -> bool:
    planner = QueryPlanner(code, r_cap)
    # Packing per symbol decides uniform queries; it is also a cheap
    # necessary condition before the full multiset sweep, which a t at
    # or below the batch floor of a candidate (always systematic) does
    # not need once every packing reaches t.
    for i in range(1, code.k + 1):
        if planner.max_packing(i) < t:
            return False
    if mode == "pir" or t <= _batch_floor(code):
        return True
    return planner.servable_all(t)[0]


def redundancy_table(
    k_max: int,
    t_max: int,
    mode: str = "batch",
    n_slack: int = 3,
    r_cap: int | None = None,
    *,
    max_k: int = 5,
) -> list[SearchResult]:
    """min_length for every (k, t) in [1, k_max] x [1, t_max], each swept
    up to n = k + n_slack. Entries that found nothing stay in the table
    as not-found rows (rendered as unknown). A k_max above max_k raises
    CapacityError before any row is swept."""
    k_max = check_int("k_max", k_max)
    t_max = check_int("t_max", t_max)
    n_slack = check_int("n_slack", n_slack, least=0)
    max_k = check_int("max_k", max_k)
    if k_max > max_k:
        raise CapacityError(
            f"k_max = {k_max} exceeds the search guard max_k = {max_k}"
        )
    rows = []
    for k in range(1, k_max + 1):
        for t in range(1, t_max + 1):
            rows.append(
                min_length(
                    k,
                    t,
                    mode,
                    r_cap,
                    n_max=k + n_slack,
                    max_k=max_k,
                    max_slack=n_slack,
                )
            )
    return rows

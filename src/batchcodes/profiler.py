"""Exact code parameters: batch t, PIR t, locality, and availability.

batch_t(r) is the largest t for which every multiset query of t symbols
has a serving plan with recovery sets of size at most r; pir_t(r) only
requires the t-fold repeated queries to be servable, which reduces to a
disjoint-packing number per symbol. A uniform query (i, i, ..., i) is
servable exactly when e_i admits t pairwise-disjoint recovery sets, so
batch_t never exceeds pir_t. Servability is also monotone in t: every
query of t-1 symbols extends to one of t symbols, and dropping a
position from a plan for it leaves a plan.

Below a floor, batch_t = pir_t needs no sweep. A query of one symbol i
is servable exactly when e_i has a recovery set, so pir_t <= 1 is
batch_t on any code. On a code with every unit column, every query of
t <= min(pir_t, 3) symbols is servable: at most one of its symbols
repeats. A query of distinct symbols takes their identity columns. A
query in which only symbol i repeats, a times, takes {sigma(j)} for
each other symbol j; those t - a columns meet at most t - a of e_i's
t disjoint recovery sets, so a of them are left for the copies of i.
So `_batch` returns pir_t when it is at most the floor (`_batch_floor`:
3 on such a code, 1 otherwise); above it, it sweeps t = pir_t first,
steps down only while a sweep fails, and returns the floor unswept when
it gets there. Where batch_t equals pir_t, as it does for every named
family, that is one sweep, or none. The search's candidate test
(`search._passes`) reads the same floor.

A minimal recovery set of column j that avoids j is, together with j,
a circuit of the generator's column matroid. The repair profiles read
these circuits from the code's circuit store (`recovery.circuit_sets`),
one tuple per code of every circuit up to the store's size, which
enumerates each circuit once, however many target columns it holds,
and which the packings below share. The store gives every symbol's
smallest set size too: an uncapped request holds it outright, and a
capped one is deepened until every symbol in some circuit has a set,
which happens by size k. Where the store fills from the cycle space,
the first request fills it completely and the deepening only reads
it; where it fills by DFS, each deeper size fills it afresh, searching
every live column again at that size.

The PIR packings and the information-symbol entries of `profile` are
read off the query planner that serves its batch sweeps, once per
profile. On a code with every unit column, `QueryPlanner.packings`
reads all k complete lists from the circuit store over the identity
columns, in the store's size order, and keeps them as the planner's
size-ordered lists. Neither the packings nor the batch sweeps depend
on list order, and both read those lists, so `profile` enumerates no
symbol on its own and never sorts a list. Each batch sweep tests one
query per orbit of interchangeable symbols, and serves most of them by
extending the previous query's plan (`QueryPlanner.servable_all`).
Every packing of the planner and of the repair profiles is given its
codeword-weight bound (`LinearCode.packing_bounds`) and stops once it
reaches it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NotSystematicError, check_cap, check_int
from .gf2 import LinearCode
from .planner import QueryPlanner
# perfbench/tracer.py patches `enumerate_recovery_sets` and
# `max_disjoint_packing` here by name.
from .recovery import (  # noqa: F401
    circuit_sets,
    enumerate_recovery_sets,
    max_disjoint_packing,
)

__all__ = [
    "SymbolRecovery",
    "LrcProfile",
    "CodeProfile",
    "pir_t",
    "batch_t",
    "lrc_profile",
    "info_lrc_profile",
    "corollary_check",
    "profile",
]


@dataclass(frozen=True)
class SymbolRecovery:
    """Per-symbol repair summary.

    min_size is None when the symbol has no recovery set at all; packing
    is None only for a trivially recoverable symbol (zero column), whose
    supply of disjoint recovery sets is unbounded.
    """

    index: int
    min_size: int | None
    packing: int | None


@dataclass(frozen=True)
class LrcProfile:
    """Locality and availability at a given size cap.

    locality is the max over symbols of the smallest recovery-set size,
    None when some symbol is unrecoverable. availability is the min over
    symbols of the number of pairwise-disjoint recovery sets of size at
    most `cap` (0 when some symbol has none within the cap).
    """

    cap: int | None
    locality: int | None
    availability: int
    symbols: tuple[SymbolRecovery, ...]


@dataclass(frozen=True)
class CodeProfile:
    """Full parameter sheet for one code at one analysis cap r_cap."""

    n: int
    k: int
    d: int
    rate: Fraction
    systematic: bool
    r_cap: int | None
    batch_t: int
    pir_t: int
    all_symbol: LrcProfile
    info_symbol: LrcProfile | None


def pir_t(code: LinearCode, r: int | None = None) -> int:
    """Largest t with every uniform query servable: the smallest, over
    information symbols, of the disjoint recovery-set packing number."""
    return _pir(QueryPlanner(code, r))


def batch_t(code: LinearCode, r: int | None = None) -> int:
    """Largest t with every multiset query of t symbols servable."""
    planner = QueryPlanner(code, r)
    return _batch(planner, _pir(planner))


def _pir(planner: QueryPlanner) -> int:
    return min(planner.packings())


def _batch_floor(code: LinearCode) -> int:
    """The floor below which batch_t = pir_t needs no sweep (module
    docstring): every query of t <= min(pir_t, floor) symbols is
    servable, with floor 3 on a code with every unit column and 1 on
    any other."""
    return 3 if code.is_systematic else 1


def _batch(planner: QueryPlanner, pir: int) -> int:
    """batch_t from the planner's pir_t: every t up to the floor is
    servable by proof, so pir_t at or below it is the answer. Above it,
    sweep t = pir_t first and step down while a sweep fails; since
    servability is monotone in t, the first t that passes is batch_t,
    and reaching the floor ends the steps."""
    low = _batch_floor(planner.code)
    t = pir
    while t > low and not planner.servable_all(t)[0]:
        t -= 1
    return t


def _repair_profile(
    code: LinearCode,
    targets: list[tuple[int, int]],
    r: int | None,
    cap_at_locality: bool,
) -> LrcProfile:
    """Repair profile of (index, column) targets: a target's word is its
    column's, and its recovery sets avoid that column.

    The packing cap is r. With r=None it is unbounded, or, when
    `cap_at_locality` and no nonzero target is a coloop, the locality.
    The sets come from the code's circuit store, asked for the targets
    in some circuit (the live ones) at size k when the cap is
    unbounded, and otherwise at sizes deepening from r (from 1 for the
    locality) until every live target has a set. The last answer holds
    each target's smallest set and every set up to the packing cap. A
    live column lies in a circuit of at most k + 1 columns, so the
    deepening ends by size k, or the store is broken.
    """
    words = code.column_words
    nonzero = [c for _, c in targets if words[c - 1]]
    coloops = code.pivot_basis.coloops
    live = [c for c in nonzero if not coloops >> (c - 1) & 1]
    unbounded = r is None and (not cap_at_locality or len(live) < len(nonzero))
    size = code.k if unbounded else r or 1
    sets = circuit_sets(code, live, size)
    # A circuit has at most rank + 1 = k + 1 columns.
    while not all(sets) and size < code.k:
        size += 1
        sets = circuit_sets(code, live, size)
    if not all(sets):
        raise RuntimeError(
            "broken invariant: a nonzero column that is not a coloop lies in a circuit"
        )
    cap = r if r is not None or unbounded else size
    by_column = dict(zip(live, sets))
    _, bounds = code.packing_bounds
    entries = []
    for index, c in targets:
        if not words[c - 1]:
            entries.append(SymbolRecovery(index, 0, None))
            continue
        masks = by_column.get(c, [])  # a coloop has none
        min_size = min((m.bit_count() for m in masks), default=None)
        fit = [m for m in masks if cap is None or m.bit_count() <= cap]
        packing = max_disjoint_packing(fit, bounds[c - 1])
        entries.append(SymbolRecovery(index, min_size, packing))
    return _aggregate(cap, entries)


def _aggregate(cap: int | None, entries: list[SymbolRecovery]) -> LrcProfile:
    sizes = [e.min_size for e in entries]
    locality = None if None in sizes else max(sizes, default=0)
    packings = [e.packing for e in entries if e.packing is not None]
    return LrcProfile(cap, locality, min(packings, default=0), tuple(entries))


def lrc_profile(code: LinearCode, r: int | None = None) -> LrcProfile:
    """All-symbol repair profile: each coded symbol j must be rebuilt
    from columns other than j.

    With r=None the availability cap defaults to the code's own
    locality, pairing the two parameters the way a locality/availability
    claim is normally stated; pass an explicit r to cap differently.
    Sizes and packings come from the code's circuit store, which lists
    each circuit once rather than once per column in it.
    """
    r = check_cap("r", r)
    targets = [(j, j) for j in range(1, code.n + 1)]
    return _repair_profile(code, targets, r, cap_at_locality=True)


def info_lrc_profile(
    code: LinearCode, r: int | None = None, include_self: bool = True
) -> LrcProfile:
    """Information-symbol repair profile for a systematic code.

    Targets are the unit vectors e_i over all n columns, so the identity
    column itself counts as a size-1 recovery set. include_self=False
    removes column sigma(i) from play, the strict repair reading. r=None
    leaves set sizes unbounded.

    With the identity columns in play, every smallest set has size 1
    and the packings are those of a `QueryPlanner(code, r)`.
    include_self=False reads each e_i off the code's circuit store
    over the identity columns, the way `lrc_profile` does over all.
    """
    r = check_cap("r", r)
    colmap = code.identity_column_map()
    if colmap is None:
        raise NotSystematicError(
            "info-symbol profile requires a systematic code"
        )
    if include_self:
        return _info_profile(r, QueryPlanner(code, r).packings())
    return _repair_profile(
        code, list(colmap.items()), r, cap_at_locality=False
    )


def _info_profile(r: int | None, packings: tuple[int, ...]) -> LrcProfile:
    """Info-symbol profile (identity columns in play) of a systematic
    code at cap r, from its planner's packings at r. Every smallest set
    has size 1: the identity column of e_i is one, under any cap."""
    entries = [SymbolRecovery(i, 1, p) for i, p in enumerate(packings, 1)]
    return _aggregate(r, entries)


def corollary_check(
    code: LinearCode, t: int, r: int | None = None
) -> bool:
    """Equivalence self-test relating PIR servability to info-symbol repair.

    For a systematic code, [pir_t(code, r) >= t] must coincide with
    [every e_i admits t-1 pairwise-disjoint recovery sets of size at
    most r avoiding column sigma(i)]. The two sides take different
    paths: the left packs each symbol's list from its own recovery-set
    search (`QueryPlanner.max_packing`, one `enumerate_recovery_sets`
    per symbol), the right reads the strict profile off the code's
    circuit store over the identity columns (`info_lrc_profile` with
    include_self=False) and enumerates nothing. Returns whether they
    agree (always True unless something is broken).
    """
    t = check_int("t", t)
    if not code.is_systematic:
        raise NotSystematicError("corollary_check requires a systematic code")
    planner = QueryPlanner(code, r)
    lhs = min(planner.max_packing(i) for i in range(1, code.k + 1)) >= t
    info = info_lrc_profile(code, r=r, include_self=False)
    rhs = info.availability >= t - 1
    return lhs == rhs


def profile(code: LinearCode, r_cap: int | None = None) -> CodeProfile:
    """Everything at once: distance, batch/PIR parameters at r_cap,
    all-symbol profile at the code's locality, info-symbol profile at
    r_cap when systematic.

    The distance comes first, so a code past its guard (`min_distance`'s
    max_k) raises CapacityError before any recovery set is searched.
    """
    r_cap = check_cap("r_cap", r_cap)
    d = code.min_distance()
    planner = QueryPlanner(code, r_cap)
    packings = planner.packings()
    pir = min(packings)
    batch = _batch(planner, pir)
    info = _info_profile(r_cap, packings) if code.is_systematic else None
    return CodeProfile(
        n=code.n,
        k=code.k,
        d=d,
        rate=code.rate,
        systematic=code.is_systematic,
        r_cap=r_cap,
        batch_t=batch,
        pir_t=pir,
        all_symbol=lrc_profile(code),
        info_symbol=info,
    )

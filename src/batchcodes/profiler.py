"""Exact code parameters: batch t, PIR t, locality, and availability.

batch_t(r) is the largest t for which every multiset query of t symbols
has a serving plan with recovery sets of size at most r; pir_t(r) only
requires the t-fold repeated queries to be servable, which reduces to a
disjoint-packing number per symbol. A uniform query (i, i, ..., i) is
servable exactly when e_i admits t pairwise-disjoint recovery sets, so
batch_t never exceeds pir_t. Servability is also monotone in t: every
query of t-1 symbols extends to one of t symbols, and dropping a
position from a plan for it leaves a plan. So the batch sweep starts
at t = pir_t and steps down only while a sweep fails; where batch_t
equals pir_t, as it does for every named family, that is one sweep.

Every target is enumerated at most once per analysis. A symbol's
smallest recovery-set size comes from deepening the size cap from 1
(`_min_size`), so its sets are then listed only up to the cap the
profile needs. The information-symbol entries of `profile` are read off
the query planner that already serves its batch and PIR sweeps.
Each batch sweep tests one query per orbit of interchangeable symbols
(`QueryPlanner.servable_all`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NotSystematicError
from .gf2 import BitVector, LinearCode
from .planner import QueryPlanner
from .recovery import enumerate_recovery_sets, max_disjoint_packing

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
    return _batch(QueryPlanner(code, r))


def _pir(planner: QueryPlanner) -> int:
    return min(
        planner.max_packing(i) for i in range(1, planner.code.k + 1)
    )


def _batch(planner: QueryPlanner) -> int:
    """Sweep t = pir_t first and step down while a sweep fails; since
    servability is monotone in t (module docstring), the first t that
    passes is batch_t."""
    t = _pir(planner)
    while t > 0 and not planner.servable_all(t)[0]:
        t -= 1
    return t


def _min_size(
    code: LinearCode, word: int, excluded: frozenset[int]
) -> int | None:
    """Smallest minimal recovery set for a nonzero target, by deepening
    the size cap from 1: the first cap with a set is the answer. None
    when no set of up to k columns exists, i.e. the target lies outside
    the span of the allowed columns."""
    target = BitVector(code.k, word)
    for size in range(1, code.k + 1):
        enum = enumerate_recovery_sets(
            code, target, excluded=excluded, max_size=size, max_count=1
        )
        if enum.sets:
            return size
    return None


def _symbol_entry(
    code: LinearCode,
    index: int,
    target_word: int,
    excluded: frozenset[int],
    cap: int | None,
    min_size: int | None,
) -> SymbolRecovery:
    """Entry for a target whose smallest set size is already known:
    one enumeration up to `cap`, and none when no set fits under it."""
    if target_word == 0:
        return SymbolRecovery(index, 0, None)
    if min_size is None:
        return SymbolRecovery(index, None, 0)
    if cap is not None and min_size > cap:
        return SymbolRecovery(index, min_size, 0)
    enum = enumerate_recovery_sets(
        code, BitVector(code.k, target_word), excluded=excluded, max_size=cap
    )
    masks = [rs.column_mask() for rs in enum.sets]
    return SymbolRecovery(index, min_size, max_disjoint_packing(masks))


def _aggregate(cap: int | None, entries: list[SymbolRecovery]) -> LrcProfile:
    locality: int | None = 0
    for e in entries:
        if e.min_size is None:
            locality = None
            break
        if locality is not None and e.min_size > locality:
            locality = e.min_size
    packings = [e.packing for e in entries if e.packing is not None]
    availability = min(packings) if packings else 0
    return LrcProfile(cap, locality, availability, tuple(entries))


def lrc_profile(code: LinearCode, r: int | None = None) -> LrcProfile:
    """All-symbol repair profile: each coded symbol j must be rebuilt
    from columns other than j.

    With r=None the availability cap defaults to the code's own
    locality, pairing the two parameters the way a locality/availability
    claim is normally stated; pass an explicit r to cap differently.
    Each symbol's smallest set size comes from deepening probes, and its
    sets are enumerated once, up to the cap, for the packing number.
    """
    if r is not None and r < 1:
        raise ValueError(f"size cap r must be >= 1, got {r}")
    targets = [
        (j, w, frozenset((j,))) for j, w in enumerate(code.column_words, 1)
    ]
    sizes = [0 if w == 0 else _min_size(code, w, excl) for _, w, excl in targets]
    if r is not None:
        cap = r
    elif None in sizes:
        cap = None
    else:
        cap = max(sizes, default=0)
    entries = [
        _symbol_entry(code, j, w, excl, cap, size)
        for (j, w, excl), size in zip(targets, sizes)
    ]
    return _aggregate(cap, entries)


def info_lrc_profile(
    code: LinearCode, r: int | None = None, include_self: bool = True
) -> LrcProfile:
    """Information-symbol repair profile for a systematic code.

    Targets are the unit vectors e_i over all n columns, so the identity
    column itself counts as a size-1 recovery set. include_self=False
    removes column sigma(i) from play, the strict repair reading. r=None
    leaves set sizes unbounded.

    With the identity columns in play, the entries are exactly what a
    `QueryPlanner(code, r)` holds: its candidate lists and packing
    numbers. include_self=False probes and enumerates each e_i the way
    `lrc_profile` does.
    """
    if r is not None and r < 1:
        raise ValueError(f"size cap r must be >= 1, got {r}")
    colmap = code.identity_column_map()
    if colmap is None:
        raise NotSystematicError(
            "info-symbol profile requires a systematic code"
        )
    if include_self:
        return _info_profile(QueryPlanner(code, r))
    entries = []
    for i in range(1, code.k + 1):
        word = 1 << (i - 1)
        excluded = frozenset((colmap[i],))
        size = _min_size(code, word, excluded)
        entries.append(_symbol_entry(code, i, word, excluded, r, size))
    return _aggregate(r, entries)


def _info_profile(planner: QueryPlanner) -> LrcProfile:
    """Info-symbol profile (identity columns in play) of a systematic
    code at the planner's cap, read off the planner's candidates."""
    entries = [
        SymbolRecovery(
            i,
            min(rs.size for rs in planner.candidates(i)),
            planner.max_packing(i),
        )
        for i in range(1, planner.code.k + 1)
    ]
    return _aggregate(planner.r, entries)


def corollary_check(
    code: LinearCode, t: int, r: int | None = None
) -> bool:
    """Equivalence self-test relating PIR servability to info-symbol repair.

    For a systematic code, [pir_t(code, r) >= t] must coincide with
    [every e_i admits t-1 pairwise-disjoint recovery sets of size at
    most r avoiding column sigma(i)]. Both sides are computed
    independently; returns whether they agree (always True unless
    something is broken).
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    if not code.is_systematic:
        raise NotSystematicError("corollary_check requires a systematic code")
    lhs = pir_t(code, r) >= t
    info = info_lrc_profile(code, r=r, include_self=False)
    rhs = info.availability >= t - 1
    return lhs == rhs


def profile(code: LinearCode, r_cap: int | None = None) -> CodeProfile:
    """Everything at once: distance, batch/PIR parameters at r_cap,
    all-symbol profile at the code's locality, info-symbol profile at
    r_cap when systematic."""
    if r_cap is not None and r_cap < 1:
        raise ValueError(f"size cap r_cap must be >= 1, got {r_cap}")
    planner = QueryPlanner(code, r_cap)
    pir = _pir(planner)
    batch = _batch(planner)
    info = _info_profile(planner) if code.is_systematic else None
    return CodeProfile(
        n=code.n,
        k=code.k,
        d=code.min_distance(),
        rate=code.rate,
        systematic=code.is_systematic,
        r_cap=r_cap,
        batch_t=batch,
        pir_t=pir,
        all_symbol=lrc_profile(code),
        info_symbol=info,
    )

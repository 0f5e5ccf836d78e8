"""Closed-form length and cardinality bounds, evaluated in exact integer
arithmetic.

Length bounds state n >= rhs for any code with the given parameters;
the cardinality bound states q^k <= rhs. Each helper returns the rhs
(plus maximizing witnesses where a parameter is swept). evaluate_bounds
is the bound table: it alone decides which rows appear, in what order,
and with which skip reasons, witnesses and attainment. `batchcodes
bounds` renders it for given parameters, and evaluate_all for a
computed CodeProfile (`batchcodes analyze`).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial
from typing import Mapping

from .errors import InsufficientDataError, NotApplicableError, check_int
from .profiler import CodeProfile

__all__ = [
    "BoundVerdict",
    "singleton",
    "gopalan_lrc",
    "wang_zhang",
    "plotkin_batch",
    "zs_base",
    "zs_best",
    "zs_systematic",
    "zs_refined",
    "redundancy_bound",
    "evaluate_bounds",
    "evaluate_all",
]


@dataclass(frozen=True)
class BoundVerdict:
    """One bound applied to one code.

    kind is "length" (n >= rhs) or "cardinality" (q^k <= rhs). witness
    records the parameters the bound was evaluated at, including any
    maximizing choices, so the number can be reproduced by hand.
    """

    name: str
    kind: str
    applicable: bool
    rhs: int | None
    attained: bool
    reason: str | None = None
    witness: dict[str, int] | None = None


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _require_positive(**params: int) -> None:
    for name, value in params.items():
        check_int(name, value)


def singleton(k: int, d: int) -> int:
    """n >= k + d - 1."""
    _require_positive(k=k, d=d)
    return k + d - 1


def gopalan_lrc(k: int, d: int, r: int) -> int:
    """n >= k + d + ceil(k/r) - 2 for all-symbol locality r."""
    _require_positive(k=k, d=d, r=r)
    return k + d + _ceil_div(k, r) - 2


def wang_zhang(k: int, d: int, r: int, delta: int) -> int:
    """n >= k + d + ceil((delta(k-1)+1) / (delta(r-1)+1)) - 2 for
    all-symbol locality r and availability delta."""
    _require_positive(k=k, d=d, r=r, delta=delta)
    return k + d + _ceil_div(delta * (k - 1) + 1, delta * (r - 1) + 1) - 2


def plotkin_batch(n: int, k: int, t: int, q: int = 2) -> BoundVerdict:
    """q^k <= floor(qt / (qt - (q-1)n)), applicable only when qt > (q-1)n;
    attained means equality."""
    _require_positive(n=n, k=k)
    t = check_int("t", t, least=0)
    q = check_int("q", q, least=2)
    slack = q * t - (q - 1) * n
    witness = {"t": t, "q": q}
    if slack <= 0:
        return BoundVerdict(
            "plotkin_batch",
            "cardinality",
            applicable=False,
            rhs=None,
            attained=False,
            reason=f"requires q*t > (q-1)*n ({q * t} <= {(q - 1) * n})",
            witness=witness,
        )
    cap = (q * t) // slack
    return BoundVerdict(
        "plotkin_batch",
        "cardinality",
        applicable=True,
        rhs=cap,
        attained=(q**k == cap),
        witness=witness,
    )


def _zs(k: int, d: int, beta: int, num: int, denom: int) -> int:
    """k + d + (beta-1)(ceil(num / denom) - 1) - 1: the form every
    Zhang-Skachek bound below takes, at its own numerator and divisor."""
    return k + d + (beta - 1) * (_ceil_div(num, denom) - 1) - 1


def zs_base(k: int, d: int, r: int, t: int) -> int:
    """n >= k + d + (t-1)(ceil(k / (rt - t + 1)) - 1) - 1."""
    _require_positive(k=k, d=d, r=r, t=t)
    return _zs(k, d, t, k, r * t - t + 1)


def zs_best(k: int, d: int, r: int, t: int) -> tuple[int, int]:
    """Best sub-query bound: max over beta in [1, t] of zs_base at
    t = beta. Returns (rhs, smallest maximizing beta)."""
    _require_positive(k=k, d=d, r=r, t=t)
    # max keeps the first of equal values: the smallest beta.
    beta = max(range(1, t + 1), key=lambda b: zs_base(k, d, r, b))
    return zs_base(k, d, r, beta), beta


def zs_systematic(k: int, d: int, r: int, t: int) -> tuple[int, int]:
    """Systematic-code strengthening: max over beta in [2, t] of
    k + d + (beta-1)(ceil(k / (r*beta - beta - r + 2)) - 1) - 1.
    Returns (rhs, smallest maximizing beta); needs t >= 2."""
    _require_positive(k=k, d=d, r=r, t=t)
    if t < 2:
        raise NotApplicableError(f"requires t >= 2, got t = {t}")

    def rhs(beta: int) -> int:
        # The divisor is (r-1)(beta-1) + 1, never below 1.
        return _zs(k, d, beta, k, r * beta - beta - r + 2)

    beta = max(range(2, t + 1), key=rhs)
    return rhs(beta), beta


def zs_refined(k: int, d: int, r: int, t: int) -> tuple[int, dict[str, int]]:
    """Refined bound: max over beta in [1, min(t, (k-3) // (2(r-1)))] and
    epsilon, lambda in [1, r*beta - beta] of min(A, B, C) where

        A = k + d + (beta-1)(ceil((k+epsilon) / (r*beta - beta + 1)) - 1) - 1
        B = k + d + (beta-1)(ceil((k+lambda)  / (r*beta - beta + 1)) - 1) - 1
        C = (r*beta - lambda + 1) k - C(k,2)(epsilon - 1)

    Needs r >= 2 and k >= 2(rt - t + 1) + 1. Returns (rhs, witness) with
    the first maximizing (beta, epsilon, lambda) in iteration order."""
    _require_positive(k=k, d=d, r=r, t=t)
    if r < 2:
        raise NotApplicableError(f"requires r >= 2, got r = {r}")
    floor_k = 2 * (r * t - t + 1) + 1
    if k < floor_k:
        raise NotApplicableError(
            f"requires k >= 2(rt-t+1)+1 = {floor_k}, got k = {k}"
        )
    beta_hi = min(t, (k - 3) // (2 * (r - 1)))
    if beta_hi < 1:
        raise NotApplicableError("no admissible beta")
    pairs = comb(k, 2)
    best = None
    witness: dict[str, int] = {}
    for beta in range(1, beta_hi + 1):
        width = r * beta - beta
        denom = width + 1
        for eps in range(1, width + 1):
            a_val = _zs(k, d, beta, k + eps, denom)
            for lam in range(1, width + 1):
                b_val = _zs(k, d, beta, k + lam, denom)
                c_val = (r * beta - lam + 1) * k - pairs * (eps - 1)
                val = min(a_val, b_val, c_val)
                if best is None or val > best:
                    best = val
                    witness = {"beta": beta, "epsilon": eps, "lambda": lam}
    assert best is not None
    return best, witness


def redundancy_bound(
    k: int, t: int, table: Mapping[tuple[int, int], int]
) -> int:
    """Recursive redundancy lower bound for systematic batch codes:

        rP(k, t) + h * ceil(log_{1/(1-h!/h^h)} C(k, h)) * rP(ceil(k/h), t-2)

    with h = floor(t/2); the second term vanishes for h <= 1. `table`
    maps (k', t') to known optimal-redundancy values rP; a missing entry
    raises InsufficientDataError naming it. The logarithm ceiling is the
    smallest integer c with b^c >= C(k,h) * a^c for 1 - h!/h^h = a/b,
    computed without floating point.
    """
    _require_positive(k=k, t=t)
    base = _table_lookup(table, k, t)
    h = t // 2
    if h <= 1:
        return base
    big_n = comb(k, h)
    b = h**h
    a = b - factorial(h)
    c = 0
    while b**c < big_n * a**c:
        c += 1
    sub = _table_lookup(table, _ceil_div(k, h), t - 2)
    return base + h * c * sub


def _table_lookup(
    table: Mapping[tuple[int, int], int], k: int, t: int
) -> int:
    try:
        return table[(k, t)]
    except KeyError:
        raise InsufficientDataError(
            f"redundancy table has no entry for (k={k}, t={t})", (k, t)
        )


def evaluate_bounds(
    n: int | None,
    k: int,
    d: int,
    t: int,
    r: int,
    locality: int | None,
    delta: int,
    systematic: bool,
    q: int = 2,
) -> list[BoundVerdict]:
    """The bound table: every bound, in a fixed order, at the given
    parameters.

    The LRC rows take the all-symbol locality and availability delta,
    and are skipped when locality is None. The Zhang-Skachek rows take
    the recovery-set size cap r and batch parameter t, and are skipped
    when t is 0; zs_systematic also when the code is not systematic. A
    length row is attained when its rhs equals n. With n None the
    cardinality row is skipped and no row is attained.
    """
    q = check_int("q", q, least=2)
    t = check_int("t", t, least=0)
    out: list[BoundVerdict] = []

    def length(name: str, rhs: int, witness: dict[str, int] | None = None) -> None:
        out.append(
            BoundVerdict(
                name, "length", True, rhs, attained=(rhs == n), witness=witness
            )
        )

    def skip(name: str, reason: str) -> None:
        out.append(BoundVerdict(name, "length", False, None, False, reason))

    length("singleton", singleton(k, d))

    if locality is None:
        reason = "some coded symbol has no recovery set"
        skip("gopalan_lrc", reason)
        skip("wang_zhang", reason)
    else:
        length("gopalan_lrc", gopalan_lrc(k, d, locality), {"r": locality})
        length(
            "wang_zhang",
            wang_zhang(k, d, locality, delta),
            {"r": locality, "delta": delta},
        )

    if n is None:
        out.append(
            BoundVerdict(
                "plotkin_batch",
                "cardinality",
                False,
                None,
                False,
                reason="needs --n",
                witness={"t": t, "q": q},
            )
        )
    else:
        out.append(plotkin_batch(n, k, t, q))

    if t < 1:
        for name in ("zs_base", "zs_best", "zs_systematic", "zs_refined"):
            skip(name, "batch parameter t is 0")
        return out

    length("zs_base", zs_base(k, d, r, t), {"r": r, "t": t})
    rhs, beta = zs_best(k, d, r, t)
    length("zs_best", rhs, {"r": r, "t": t, "beta": beta})

    if not systematic:
        skip("zs_systematic", "code is not systematic")
    else:
        try:
            rhs, beta = zs_systematic(k, d, r, t)
            length("zs_systematic", rhs, {"r": r, "t": t, "beta": beta})
        except NotApplicableError as exc:
            skip("zs_systematic", str(exc))

    try:
        rhs, wit = zs_refined(k, d, r, t)
        length("zs_refined", rhs, {"r": r, "t": t, **wit})
    except NotApplicableError as exc:
        skip("zs_refined", str(exc))

    return out


def evaluate_all(prof: CodeProfile, q: int = 2) -> list[BoundVerdict]:
    """Every bound applied at the profile's parameters.

    Restricted-size bounds use r = r_cap, or r = n when the analysis cap
    was unbounded (a set never exceeds n columns); t is the profile's
    batch_t. The locality pair (r, delta) comes from the all-symbol
    profile, whose availability is capped at the locality itself so the
    pair is exactly what the LRC bounds quantify over. A full-rank code
    has a nonzero column, so that locality is None or at least 1, and
    then every symbol has a set within it: the availability is >= 1.
    """
    r = prof.r_cap if prof.r_cap is not None else prof.n
    lrc = prof.all_symbol
    return evaluate_bounds(
        prof.n, prof.k, prof.d, prof.batch_t, r,
        lrc.locality, lrc.availability, prof.systematic, q,
    )

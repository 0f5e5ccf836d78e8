"""Closed-form bound arithmetic and verdict assembly."""

import random
from math import ceil, comb

import pytest
from hypothesis import given, settings

from batchcodes import (
    InsufficientDataError,
    NotApplicableError,
    evaluate_all,
    evaluate_bounds,
    gopalan_lrc,
    identity,
    lrc_profile,
    paired_parity,
    plotkin_batch,
    profile,
    redundancy_bound,
    simplex,
    singleton,
    wang_zhang,
    zs_base,
    zs_best,
    zs_refined,
    zs_systematic,
)
from conftest import small_codes


class TestClosedForms:
    def test_singleton(self):
        assert singleton(3, 4) == 6
        assert singleton(1, 1) == 1
        with pytest.raises(ValueError):
            singleton(0, 1)
        # Every closed form takes integers >= 1 and names the one it
        # rejects.
        forms = [
            (singleton, "k d"),
            (gopalan_lrc, "k d r"),
            (wang_zhang, "k d r delta"),
            (zs_base, "k d r t"),
            (zs_best, "k d r t"),
            (zs_systematic, "k d r t"),
            (zs_refined, "k d r t"),
        ]
        for form, names in forms:
            params = names.split()
            for i, name in enumerate(params):
                message = f"^{name} must be an integer >= 1,"
                for bad in (0, 1.5, "2"):
                    args = [3] * len(params)
                    args[i] = bad
                    with pytest.raises(ValueError, match=message):
                        form(*args)

    def test_gopalan(self):
        assert gopalan_lrc(4, 4, 2) == 8
        assert gopalan_lrc(3, 4, 2) == 7
        # At r >= k the repair term vanishes into the singleton bound.
        assert gopalan_lrc(4, 2, 4) == singleton(4, 2)

    def test_wang_zhang(self):
        assert wang_zhang(4, 4, 2, 2) == 9
        assert wang_zhang(3, 4, 2, 3) == 7

    def test_wang_zhang_at_availability_one_is_gopalan(self):
        rng = random.Random(51)
        for _ in range(50):
            k = rng.randint(1, 12)
            d = rng.randint(1, 8)
            r = rng.randint(1, 6)
            assert wang_zhang(k, d, r, 1) == gopalan_lrc(k, d, r)

    def test_zs_base(self):
        assert zs_base(3, 4, 2, 4) == 6
        assert zs_base(4, 4, 2, 2) == 4 + 4 + 1 * (ceil(4 / 3) - 1) - 1

    def test_zs_best(self):
        assert zs_best(3, 4, 2, 4) == (6, 1)
        rng = random.Random(52)
        for _ in range(60):
            k = rng.randint(1, 10)
            d = rng.randint(1, 6)
            r = rng.randint(1, 4)
            t = rng.randint(1, 5)
            rhs, beta = zs_best(k, d, r, t)
            assert 1 <= beta <= t
            assert rhs >= zs_base(k, d, r, t)
            assert rhs >= singleton(k, d)
            # The reported beta must reproduce the reported value.
            assert rhs == k + d + (beta - 1) * (ceil(k / (r * beta - beta + 1)) - 1) - 1

    def test_zs_systematic(self):
        assert zs_systematic(3, 4, 2, 4) == (7, 2)
        assert zs_systematic(5, 2, 2, 2) == (8, 2)
        with pytest.raises(NotApplicableError):
            zs_systematic(3, 4, 2, 1)

    def test_zs_systematic_attained_by_paired_parity(self):
        for k in range(2, 7):
            code = paired_parity(k)
            rhs, beta = zs_systematic(k, 2, 2, 2)
            assert beta == 2
            assert rhs == code.n == k + ceil(k / 2)


class TestPlotkin:
    def test_simplex_attains(self):
        for m in (2, 3, 4):
            code = simplex(m)
            v = plotkin_batch(code.n, code.k, 2 ** (m - 1))
            assert v.applicable
            assert v.rhs == 2**m
            assert v.attained

    def test_not_applicable(self):
        v = plotkin_batch(10, 3, 2)
        assert not v.applicable
        assert v.rhs is None
        assert "4 <= 10" in v.reason

    def test_applicable_not_attained(self):
        # qt - (q-1)n = 8 - 6 = 2, cap 4 > 2^1.
        v = plotkin_batch(6, 1, 4)
        assert v.applicable and v.rhs == 4 and not v.attained

    def test_validation(self):
        with pytest.raises(ValueError):
            plotkin_batch(0, 1, 1)
        with pytest.raises(ValueError):
            plotkin_batch(3, 2, -1)
        with pytest.raises(ValueError):
            plotkin_batch(3, 2, 2, q=1)
        # A fractional t would otherwise read as an applicable row (rhs 4
        # at t = 4.5).
        limits = [("n", 1), ("k", 1), ("t", 0), ("q", 2)]
        for i, (name, least) in enumerate(limits):
            message = f"^{name} must be an integer >= {least},"
            for bad in (least - 1, 1.5, 4.5, "2"):
                args = [7, 3, 4, 2]
                args[i] = bad
                with pytest.raises(ValueError, match=message):
                    plotkin_batch(*args)
        # The bound table checks its own t and q by the same rule.
        for bad in (-1, 1.5, "2"):
            with pytest.raises(ValueError, match="^t must be an integer >= 0,"):
                evaluate_bounds(7, 3, 4, bad, 2, 2, 1, False)
        for bad in (1, 2.5, "2"):
            with pytest.raises(ValueError, match="^q must be an integer >= 2,"):
                evaluate_bounds(7, 3, 4, 4, 2, 2, 1, False, bad)


def grid_refined(k, d, r, t):
    """Independent re-derivation of the refined bound by plain loops."""
    best = None
    for beta in range(1, min(t, (k - 3) // (2 * (r - 1))) + 1):
        width = r * beta - beta
        for eps in range(1, width + 1):
            for lam in range(1, width + 1):
                a = k + d + (beta - 1) * (ceil((k + eps) / (width + 1)) - 1) - 1
                b = k + d + (beta - 1) * (ceil((k + lam) / (width + 1)) - 1) - 1
                c = (r * beta - lam + 1) * k - comb(k, 2) * (eps - 1)
                val = min(a, b, c)
                if best is None or val > best:
                    best = val
    return best


class TestZsRefined:
    def test_matches_grid_oracle(self):
        for k, d, r, t in [(9, 2, 2, 2), (11, 3, 2, 2), (13, 2, 3, 2), (9, 4, 2, 1)]:
            rhs, witness = zs_refined(k, d, r, t)
            assert rhs == grid_refined(k, d, r, t), (k, d, r, t)
            beta = witness["beta"]
            eps = witness["epsilon"]
            lam = witness["lambda"]
            width = r * beta - beta
            a = k + d + (beta - 1) * (ceil((k + eps) / (width + 1)) - 1) - 1
            b = k + d + (beta - 1) * (ceil((k + lam) / (width + 1)) - 1) - 1
            c = (r * beta - lam + 1) * k - comb(k, 2) * (eps - 1)
            assert rhs == min(a, b, c)

    def test_not_applicable(self):
        with pytest.raises(NotApplicableError):
            zs_refined(9, 2, 1, 2)
        with pytest.raises(NotApplicableError):
            zs_refined(4, 2, 2, 2)


class TestRedundancyBound:
    def test_no_recursion_below_t4(self):
        assert redundancy_bound(4, 2, {(4, 2): 1}) == 1
        assert redundancy_bound(5, 3, {(5, 3): 2}) == 2

    def test_recursive_term(self):
        # h=2: a=2, b=4, C(4,2)=6; smallest c with 4^c >= 6*2^c is 3.
        table = {(4, 4): 5, (2, 2): 1}
        assert redundancy_bound(4, 4, table) == 5 + 2 * 3 * 1
        # C(2,2)=1 makes the log ceiling 0, killing the second term.
        assert redundancy_bound(2, 4, {(2, 4): 3, (1, 2): 0}) == 3

    def test_missing_entry(self):
        with pytest.raises(InsufficientDataError) as exc:
            redundancy_bound(4, 4, {(4, 4): 5})
        assert exc.value.missing == (2, 2)
        with pytest.raises(InsufficientDataError):
            redundancy_bound(4, 2, {})

    def test_validation(self):
        with pytest.raises(ValueError):
            redundancy_bound(0, 2, {})
        for bad in (0, 1.5, "2"):
            with pytest.raises(ValueError, match="^k must be an integer >= 1"):
                redundancy_bound(bad, 2, {})
            with pytest.raises(ValueError, match="^t must be an integer >= 1"):
                redundancy_bound(2, bad, {})


class TestEvaluateAll:
    def test_simplex3_verdicts(self):
        verdicts = evaluate_all(profile(simplex(3), r_cap=2))
        rows = {
            v.name: (v.kind, v.applicable, v.rhs, v.attained, v.witness)
            for v in verdicts
        }
        assert rows["singleton"] == ("length", True, 6, False, None)
        assert rows["gopalan_lrc"] == ("length", True, 7, True, {"r": 2})
        assert rows["wang_zhang"] == ("length", True, 7, True, {"r": 2, "delta": 3})
        assert rows["plotkin_batch"] == (
            "cardinality",
            True,
            8,
            True,
            {"t": 4, "q": 2},
        )
        assert rows["zs_base"] == ("length", True, 6, False, {"r": 2, "t": 4})
        assert rows["zs_best"] == (
            "length",
            True,
            6,
            False,
            {"r": 2, "t": 4, "beta": 1},
        )
        assert rows["zs_systematic"] == (
            "length",
            True,
            7,
            True,
            {"r": 2, "t": 4, "beta": 2},
        )
        assert not rows["zs_refined"][1]

    def test_identity_skips(self):
        verdicts = {v.name: v for v in evaluate_all(profile(identity(2)))}
        assert not verdicts["gopalan_lrc"].applicable
        assert "no recovery set" in verdicts["gopalan_lrc"].reason
        assert not verdicts["wang_zhang"].applicable
        assert not verdicts["plotkin_batch"].applicable
        assert verdicts["singleton"].applicable and verdicts["singleton"].attained
        assert verdicts["zs_base"].rhs == 2
        assert not verdicts["zs_systematic"].applicable

    def test_every_code_gets_all_rows(self, corpus):
        names = {
            "singleton",
            "gopalan_lrc",
            "wang_zhang",
            "plotkin_batch",
            "zs_base",
            "zs_best",
            "zs_systematic",
            "zs_refined",
        }
        for name, code in corpus:
            if code.n > 9:
                continue
            verdicts = evaluate_all(profile(code))
            assert {v.name for v in verdicts} == names, name


@settings(max_examples=150)
@given(code=small_codes())
def test_all_symbol_locality_feeds_the_lrc_rows(code):
    """A full-rank code has a nonzero column, so its locality is None or
    at least 1; at that cap every symbol has a set, so the availability
    is at least 1. evaluate_all relies on both for the LRC rows."""
    lrc = lrc_profile(code)
    assert lrc.locality is None or (lrc.locality >= 1 and lrc.availability >= 1)

"""Exhaustive optimal-length search and the redundancy table."""

import random
from itertools import combinations_with_replacement

import pytest

import batchcodes.search as search_module
from batchcodes import (
    CapacityError,
    QueryPlanner,
    batch_t,
    min_length,
    pir_t,
    redundancy_table,
)
from batchcodes.search import _distance_filter, _passes, _systematic_candidate
from oracles import brute_plan_exists, reference_min_length, subset_sum_table


def witness_rows(result):
    gen = result.witness.generator
    return [str(gen.row(i)) for i in range(1, gen.k + 1)]


class TestMinLength:
    def test_trivial_t1(self):
        for k in (2, 3, 4):
            res = min_length(k, 1)
            assert res.optimal_n == k
            assert res.redundancy == 0
            assert res.found

    def test_known_optima_t2(self):
        res = min_length(2, 2)
        assert res.optimal_n == 3
        assert witness_rows(res) == ["101", "011"]
        assert res.nodes_explored == 5
        res = min_length(3, 2)
        assert res.optimal_n == 4
        assert witness_rows(res) == ["1001", "0101", "0011"]
        res = min_length(4, 2)
        assert res.optimal_n == 5
        assert witness_rows(res) == ["10001", "01001", "00101", "00011"]

    def test_known_optimum_t3(self):
        res = min_length(2, 3)
        assert res.optimal_n == 5
        assert witness_rows(res) == ["10011", "01101"]

    def test_witness_actually_passes(self):
        for k, t, mode in [(2, 2, "batch"), (3, 2, "batch"), (2, 2, "pir")]:
            res = min_length(k, t, mode)
            code = res.witness
            assert code.n == res.optimal_n
            assert code.is_systematic
            value = batch_t(code) if mode == "batch" else pir_t(code)
            assert value >= t

    def test_not_found_certificate(self):
        res = min_length(2, 3, n_max=4)
        assert not res.found
        assert res.optimal_n is None
        assert res.redundancy is None
        assert res.witness is None
        assert res.n_max == 4
        # 1 candidate at n=2, 4 at n=3, C(5,2)=10 at n=4.
        assert res.nodes_explored == 15

    def test_optimality_certificate(self):
        assert not min_length(2, 2, n_max=2).found
        assert not min_length(3, 2, n_max=3).found

    def test_size_cap_changes_optimum(self):
        # With singleton recovery sets only, both symbols need two
        # plain copies each.
        res = min_length(2, 2, r_cap=1)
        assert res.optimal_n == 4

    def test_pir_never_longer_than_batch(self):
        for k in (2, 3):
            for t in (1, 2, 3):
                b = min_length(k, t, "batch")
                p = min_length(k, t, "pir")
                assert b.found and p.found
                assert p.optimal_n <= b.optimal_n

    def test_guards(self):
        with pytest.raises(CapacityError):
            min_length(6, 2)
        with pytest.raises(CapacityError):
            min_length(2, 2, n_max=9)
        with pytest.raises(ValueError):
            min_length(0, 1)
        with pytest.raises(ValueError):
            min_length(2, 0)
        with pytest.raises(ValueError):
            min_length(2, 2, mode="best")
        for bad in (0, 1.5, "2"):
            with pytest.raises(ValueError):
                min_length(2, 2, r_cap=bad)
        with pytest.raises(ValueError):
            min_length(2, 2, n_max=1)
        for bad in (0, 1.5, "2"):
            with pytest.raises(ValueError, match="^k must be an integer >= 1,"):
                min_length(bad, 2)
            with pytest.raises(ValueError, match="^t must be an integer >= 1,"):
                min_length(2, bad)
        for bad in (2, 5.5, "5"):
            with pytest.raises(ValueError, match="^n_max must be an integer >= 3,"):
                min_length(3, 2, n_max=bad)
        for bad in (-1, 2.5, "2"):
            with pytest.raises(ValueError, match="^max_slack must be an integer >= 0,"):
                min_length(2, 2, max_slack=bad)
        for bad in (0, 4.5, "5", None):
            with pytest.raises(ValueError, match="^max_k must be an integer >= 1,"):
                min_length(2, 2, max_k=bad)

    def test_raised_guards_allow_more(self):
        res = min_length(2, 3, n_max=8, max_slack=6)
        assert res.optimal_n == 5

    @pytest.mark.parametrize(
        "k, t, mode, r_cap, optimal_n, nodes, rows",
        [
            (4, 3, "batch", None, 8, 2283,
             ["10000011", "01000101", "00100110", "00011001"]),
            (4, 4, "batch", None, 9, 11248,
             ["100000111", "010001011", "001001101", "000110011"]),
            (4, 4, "pir", 2, None, 20349, None),
            (5, 3, "batch", None, 9, 26050,
             ["100000011", "010000101", "001000110", "000101001", "000011010"]),
            (5, 3, "batch", 1, None, 435897, None),
            (5, 2, "batch", 1, 10, 117736,
             ["1000000001", "0100000010", "0010000100", "0001001000",
              "0000110000"]),
            (5, 3, "pir", 2, 10, 208926,
             ["1000000011", "0100000101", "0010001010", "0001010100",
              "0000111000"]),
        ],
    )
    def test_k4_k5_cells(self, k, t, mode, r_cap, optimal_n, nodes, rows):
        res = min_length(k, t, mode, r_cap)
        assert res.optimal_n == optimal_n
        assert res.nodes_explored == nodes
        assert (witness_rows(res) if res.found else None) == rows

    @pytest.mark.parametrize(
        "ks, ts",
        [((1, 2, 3), (1, 2, 3, 4)), ((4,), (1, 2))],
        ids=["k<=3", "k=4,t<=2"],
    )
    def test_matches_plain_sweep(self, ks, ts):
        # The oracle has no distance filter and no skips, so equal
        # witnesses and counts show that every skipped candidate fails.
        for k in ks:
            for t in ts:
                for mode in ("batch", "pir"):
                    for r in (None, 1, 2):
                        res = min_length(k, t, mode, r)
                        got = (
                            res.optimal_n,
                            witness_rows(res) if res.found else None,
                            res.nodes_explored,
                        )
                        want = reference_min_length(k, t, mode, r, res.n_max)
                        assert got == want, (k, t, mode, r)

    @pytest.mark.parametrize(
        "k, t, mode, r_cap, nodes, tested",
        [(5, 3, "batch", 1, 435897, 1060), (4, 4, "pir", 2, 20349, 15)],
    )
    def test_few_candidates_reach_the_planner(
        self, monkeypatch, k, t, mode, r_cap, nodes, tested
    ):
        calls = []

        def counting(*args):
            calls.append(args)
            return _passes(*args)

        monkeypatch.setattr(search_module, "_passes", counting)
        res = min_length(k, t, mode, r_cap)
        assert not res.found
        assert res.nodes_explored == nodes
        assert len(calls) == tested

    @pytest.mark.parametrize("t, swept", [(1, False), (2, False), (3, False), (4, True)])
    def test_batch_floor_skips_the_sweep(self, monkeypatch, t, swept):
        # Every candidate is systematic and has passed its packings, so
        # the batch floor of 3 settles t <= 3 without a sweep.
        calls = []
        real = QueryPlanner.servable_all

        def counting(self, t):
            calls.append(t)
            return real(self, t)

        monkeypatch.setattr(QueryPlanner, "servable_all", counting)
        res = min_length(3, t)
        assert res.found
        assert bool(calls) == swept
        assert set(calls) <= {t}


def filter_accepts(k: int, t: int, n_max: int, parity_values: tuple[int, ...]) -> bool:
    start, parity_bits, high = _distance_filter(k, t, n_max)
    return (start + sum(parity_bits[v] for v in parity_values)) & high == high


class TestDistanceFilter:
    def test_rejected_candidates_cannot_pass(self):
        # Every [I | A] with k <= 3 and at most 3 parity columns.
        rejections = 0
        for k in (1, 2, 3):
            for p in range(4):
                for combo in combinations_with_replacement(range(1 << k), p):
                    code = _systematic_candidate(k, combo)
                    sums = subset_sum_table(code)
                    for t in range(1, 5):
                        if filter_accepts(k, t, k + 3, combo):
                            continue
                        for r in (None, 1, 2):
                            assert not all(
                                brute_plan_exists(code, (i,) * t, r, sums)
                                for i in range(1, k + 1)
                            ), (k, combo, t, r)
                            for mode in ("batch", "pir"):
                                assert not _passes(code, t, mode, r)
                                rejections += 1
        assert rejections == 3048

    def test_packed_weights_match_min_distance(self):
        rng = random.Random(4)
        cases = [(rng.randint(1, 5), rng.randint(0, 10)) for _ in range(60)]
        # n > 256: an 8-bit field would carry into its neighbour.
        cases += [(2, 300), (3, 260), (4, 280), (5, 253)]
        for k, p in cases:
            combo = tuple(sorted(rng.randrange(1 << k) for _ in range(p)))
            d = _systematic_candidate(k, combo).min_distance()
            n = k + p
            for n_max in (n, n + 5):
                for t in sorted({1, d, d + 1, n, n + 1, 4 * n_max}):
                    assert filter_accepts(k, t, n_max, combo) == (t <= d), (
                        k, combo, n_max, t,
                    )

    def test_light_candidates_are_never_built(self, monkeypatch):
        built = []

        def counting(k, parity_values):
            built.append(parity_values)
            return _systematic_candidate(k, parity_values)

        monkeypatch.setattr(search_module, "_systematic_candidate", counting)
        res = min_length(4, 4)
        # 11 245 of the 11 248 candidates have a codeword of weight < 4,
        # and one of the other three, (0, 7, 11, 13, 14), is another,
        # (7, 11, 13, 14), with a zero column added.
        assert res.nodes_explored == 11248
        assert len(built) == 2
        assert all(
            _systematic_candidate(4, combo).min_distance() >= 4 for combo in built
        )


class TestRedundancyTable:
    def test_small_grid(self):
        rows = redundancy_table(3, 2)
        got = [(r.k, r.t, r.redundancy) for r in rows]
        assert got == [
            (1, 1, 0),
            (1, 2, 1),
            (2, 1, 0),
            (2, 2, 1),
            (3, 1, 0),
            (3, 2, 1),
        ]

    def test_not_found_rows_stay(self):
        rows = redundancy_table(1, 3, n_slack=0)
        assert [(r.k, r.t, r.found) for r in rows] == [
            (1, 1, True),
            (1, 2, False),
            (1, 3, False),
        ]

    def test_guards(self):
        with pytest.raises(ValueError):
            redundancy_table(0, 1)
        with pytest.raises(ValueError):
            redundancy_table(1, 0)
        for bad in (0, 1.5, "2"):
            with pytest.raises(ValueError, match="^k_max must be an integer >= 1,"):
                redundancy_table(bad, 1)
            with pytest.raises(ValueError, match="^t_max must be an integer >= 1,"):
                redundancy_table(1, bad)
        for bad in (-1, 0.5, "1"):
            with pytest.raises(ValueError, match="^n_slack must be an integer >= 0,"):
                redundancy_table(1, 1, n_slack=bad)
        for bad in (0, 4.5, "5", None):
            with pytest.raises(ValueError, match="^max_k must be an integer >= 1,"):
                redundancy_table(1, 1, max_k=bad)

    def test_k_guard_before_any_sweep(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            search_module, "min_length", lambda *a, **kw: calls.append(a)
        )
        with pytest.raises(
            CapacityError, match="^k_max = 6 exceeds the search guard max_k = 5$"
        ):
            redundancy_table(6, 3, n_slack=5, r_cap=1)
        assert calls == []

"""End-to-end acceptance gates.

One test per promised behavior, each wholly self-contained: frozen
expected values, independent brute-force cross-checks, and wall-clock
budgets where a budget is part of the promise. Run with -v to get one
pass/fail line per gate.
"""

import random
import time
from itertools import combinations_with_replacement
from math import ceil

from batchcodes import (
    BitVector,
    LinearCode,
    Query,
    QueryPlanner,
    batch_t,
    blockwise_subcube_allones,
    corollary_check,
    enumerate_recovery_sets,
    evaluate_all,
    info_lrc_profile,
    lrc_profile,
    min_length,
    paired_parity,
    pir_t,
    plan_is_valid,
    plotkin_batch,
    profile,
    serve_query,
    simplex,
    subcube,
    triplicated_parity,
    zs_systematic,
)
from conftest import K8_COLUMNS, column_matrix, random_systematic
from oracles import brute_minimal_recovery_sets, brute_plan_exists, subset_sum_table


def test_criterion_01_small_subcube_analysis_under_1s():
    start = time.perf_counter()
    code = subcube(2, 1)
    prof = profile(code)
    assert (prof.n, prof.k, prof.d) == (3, 2, 2)
    assert (prof.batch_t, prof.pir_t) == (2, 2)
    plan = serve_query(code, Query((1, 1)))
    assert [rs.columns for rs in plan.recovery_sets()] == [(1,), (2, 3)]
    assert plan_is_valid(code, Query((1, 1)), plan)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print(f"criterion 1: [3,2,2] batch=pir=2, plan {{1}},{{2,3}} in {elapsed:.3f}s")


def test_criterion_02_two_dimensional_subcube_under_5s():
    start = time.perf_counter()
    code = subcube(2, 2)
    prof = profile(code)
    assert (prof.n, prof.k, prof.d) == (9, 4, 4)
    assert prof.batch_t == 4
    query = Query((1, 1, 2, 2))
    plan = serve_query(code, query)
    assert plan is not None
    assert plan_is_valid(code, query, plan)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    print(f"criterion 2: [9,4,4] batch=4, 1,1,2,2 servable in {elapsed:.3f}s")


def test_criterion_03_simplex_meets_its_bounds_under_5s():
    start = time.perf_counter()
    code = simplex(3)
    assert code.min_distance() == 4
    assert batch_t(code, r=2) == 4
    rhs, beta = zs_systematic(3, 4, 2, 4)
    assert (rhs, beta) == (7, 2)
    assert rhs == code.n
    verdict = plotkin_batch(code.n, code.k, 4)
    assert verdict.applicable and verdict.rhs == 8 and verdict.attained
    verdicts = {v.name: v for v in evaluate_all(profile(code, r_cap=2))}
    assert verdicts["zs_systematic"].rhs == 7
    assert verdicts["zs_systematic"].attained
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    print(f"criterion 3: simplex(3) attains length 7 and cap 8 in {elapsed:.3f}s")


def test_criterion_04_simplex_family_extremal():
    for m in (2, 3, 4):
        code = simplex(m)
        t = batch_t(code)
        assert t == 2 ** (m - 1)
        q, n, k = 2, code.n, code.k
        assert q * t > (q - 1) * n
        assert q**k == (q * t) // (q * t - (q - 1) * n)
        verdict = plotkin_batch(n, k, t)
        assert verdict.applicable and verdict.attained
    print("criterion 4: simplex(2..4) attain the cardinality cap exactly")


def test_criterion_05_parameter_chain(corpus):
    for name, code in corpus:
        b, p, d = batch_t(code), pir_t(code), code.min_distance()
        assert b <= p <= d, (name, b, p, d)
    rng = random.Random(20260822)
    for _ in range(200):
        code = random_systematic(rng, k_max=5, n_max=10)
        b, p, d = batch_t(code), pir_t(code), code.min_distance()
        assert b <= p <= d, (code.generator.row_words, b, p, d)
    print("criterion 5: batch <= pir <= d on corpus and 200 random codes")


def test_criterion_06_engines_match_brute_force(corpus):
    checked_enum = checked_plan = 0
    for name, code in corpus:
        if code.n <= 14:
            sums = subset_sum_table(code)
            for i in range(1, code.k + 1):
                got = [
                    rs.columns
                    for rs in enumerate_recovery_sets(code, BitVector.unit(code.k, i))
                ]
                assert got == brute_minimal_recovery_sets(
                    code, 1 << (i - 1), sums=sums
                ), (name, i)
                checked_enum += 1
            for j, word in enumerate(code.column_words, 1):
                if word == 0:
                    continue
                got = [
                    rs.columns
                    for rs in enumerate_recovery_sets(
                        code, BitVector(code.k, word), excluded=(j,)
                    )
                ]
                assert got == brute_minimal_recovery_sets(
                    code, word, frozenset((j,)), sums=sums
                ), (name, j)
                checked_enum += 1
        if code.n <= 10:
            sums = subset_sum_table(code)
            planner = QueryPlanner(code)
            for t in (1, 2, 3):
                for combo in combinations_with_replacement(
                    range(1, code.k + 1), t
                ):
                    plan = planner.serve(Query(combo))
                    want = brute_plan_exists(code, combo, sums=sums)
                    assert (plan is not None) == want, (name, combo)
                    if plan is not None:
                        assert plan_is_valid(code, Query(combo), plan)
                    checked_plan += 1
    assert checked_enum > 100 and checked_plan > 400
    print(
        f"criterion 6: {checked_enum} enumerations and "
        f"{checked_plan} plans match brute force"
    )


def test_criterion_07_repair_profiles():
    for k in (3, 4, 5):
        code = triplicated_parity(k)
        lp = lrc_profile(code)
        assert lp.locality == 1, k
        assert lp.availability == 2, k
        enum = enumerate_recovery_sets(code, BitVector.unit(k, k))
        assert min(rs.size for rs in enum) == k
    for kappa in (2, 3):
        code = blockwise_subcube_allones(kappa)
        assert batch_t(code, r=2) == 2
        lp = lrc_profile(code)
        assert lp.symbols[-1].min_size >= kappa, kappa
    print("criterion 7: triplicated and blockwise repair profiles as promised")


def test_criterion_08_paired_parity_is_length_optimal():
    for k in range(2, 7):
        code = paired_parity(k)
        assert code.min_distance() == 2
        assert code.n == k + ceil(k / 2)
        assert batch_t(code, r=2) == 2
        rhs, _ = zs_systematic(k, 2, 2, 2)
        assert rhs == code.n, k
    print("criterion 8: paired parity meets the systematic length bound, t=2")


def test_criterion_09_exhaustive_search_each_under_60s():
    for k in (2, 3, 4):
        start = time.perf_counter()
        res = min_length(k, 1)
        assert res.optimal_n == k, k
        assert time.perf_counter() - start < 60.0
        start = time.perf_counter()
        res = min_length(k, 2)
        assert res.optimal_n == k + 1, k
        assert time.perf_counter() - start < 60.0
    for k in (2, 3):
        for t in (1, 2):
            start = time.perf_counter()
            batch = min_length(k, t, "batch")
            pir = min_length(k, t, "pir")
            assert time.perf_counter() - start < 60.0
            assert batch.found and pir.found
            assert batch.optimal_n >= pir.optimal_n, (k, t)
    print("criterion 9: optimal lengths k..k+1 found, batch >= pir, in budget")


def test_criterion_10_servability_repair_equivalence(corpus):
    checked = 0
    for name, code in corpus:
        if not code.is_systematic:
            continue
        for r in (1, 2, 3):
            top = batch_t(code, r) + 1
            for t in range(1, top + 1):
                assert corollary_check(code, t, r), (name, r, t)
                checked += 1
    assert checked >= 100
    print(f"criterion 10: {checked} servability/repair equivalences hold")


def test_criterion_11_no_applicable_bound_exceeded(corpus):
    checked = 0
    for name, code in corpus:
        for r_cap in (None, 1, 2, 3):
            prof = profile(code, r_cap)
            for v in evaluate_all(prof):
                if v.kind == "length" and v.applicable:
                    assert v.rhs <= code.n, (name, r_cap, v)
                    checked += 1
                if v.kind == "cardinality" and v.applicable:
                    assert 2**code.k <= v.rhs, (name, r_cap, v)
                    checked += 1
    assert checked >= 200
    print(f"criterion 11: {checked} bound applications sound on the corpus")


def test_criterion_12_capped_simplex5_batch_under_20s():
    start = time.perf_counter()
    assert batch_t(simplex(5), r=2) == 16
    elapsed = time.perf_counter() - start
    assert elapsed < 20.0, f"took {elapsed:.2f}s"
    print(f"criterion 12: simplex(5) at r=2 serves every 16-query in {elapsed:.3f}s")


def test_criterion_13_uncapped_simplex5_pir_under_2s():
    start = time.perf_counter()
    assert pir_t(simplex(5)) == 16
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"took {elapsed:.2f}s"
    print(f"criterion 13: simplex(5) packs 16 disjoint sets per symbol in {elapsed:.3f}s")


def test_criterion_14_capped_subcube23_batch_under_5s():
    start = time.perf_counter()
    assert batch_t(subcube(2, 3), r=4) == 8
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    print(f"criterion 14: subcube(2,3) at r=4 serves every 8-query in {elapsed:.3f}s")


def test_criterion_15_uncapped_subcube23_sweep_under_10s():
    start = time.perf_counter()
    assert QueryPlanner(subcube(2, 3)).servable_all(8) == (True, None)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    print(f"criterion 15: uncapped subcube(2,3) serves every 8-query in {elapsed:.3f}s")


def test_criterion_16_uncapped_subcube23_pir_under_10s():
    start = time.perf_counter()
    assert pir_t(subcube(2, 3)) == 8
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    print(f"criterion 16: uncapped subcube(2,3) packs 8 disjoint sets per symbol in {elapsed:.3f}s")


def test_criterion_17_uncapped_subcube23_profile_under_15s():
    start = time.perf_counter()
    prof = profile(subcube(2, 3))
    assert (prof.batch_t, prof.pir_t) == (8, 8)
    assert (prof.all_symbol.locality, prof.all_symbol.availability) == (2, 3)
    elapsed = time.perf_counter() - start
    assert elapsed < 15.0, f"took {elapsed:.2f}s"
    print(f"criterion 17: uncapped subcube(2,3) profile in {elapsed:.3f}s")


def test_criterion_18_strict_subcube23_info_availability_under_10s():
    start = time.perf_counter()
    prof = info_lrc_profile(subcube(2, 3), include_self=False)
    assert prof.availability == 7
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    print(f"criterion 18: strict subcube(2,3) info availability 7 in {elapsed:.3f}s")


def test_criterion_19_capped_k5_searches_under_4s():
    cells = [
        ((5, 3, "batch", 1), None, 435897, None),
        ((5, 2, "batch", 1), 10, 117736,
         ["1000000001", "0100000010", "0010000100", "0001001000", "0000110000"]),
        ((5, 3, "pir", 2), 10, 208926,
         ["1000000011", "0100000101", "0010001010", "0001010100", "0000111000"]),
    ]
    start = time.perf_counter()
    for args, optimal_n, nodes, rows in cells:
        res = min_length(*args)
        assert (res.optimal_n, res.nodes_explored) == (optimal_n, nodes), args
        if res.found:
            gen = res.witness.generator
            assert [str(gen.row(i)) for i in range(1, 6)] == rows, args
    elapsed = time.perf_counter() - start
    assert elapsed < 4.0, f"took {elapsed:.2f}s"
    print(f"criterion 19: capped (5,3), (5,2) and PIR (5,3) searches in {elapsed:.3f}s")


def test_criterion_20_uncapped_k8_profile_under_5s():
    # Each uncapped symbol list holds 1287-1826 recovery sets, and the
    # packing search visits about 177 000 nodes.
    code = LinearCode(column_matrix(8, K8_COLUMNS))
    start = time.perf_counter()
    prof = profile(code)
    assert (prof.n, prof.k, prof.d) == (24, 8, 4)
    assert (prof.batch_t, prof.pir_t) == (4, 4)
    assert (prof.all_symbol.locality, prof.all_symbol.availability) == (3, 2)
    assert prof.info_symbol.availability == 4
    assert info_lrc_profile(code, include_self=False).availability == 3
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    print(f"criterion 20: uncapped k=8, n=24 profile in {elapsed:.3f}s")

"""Query parsing and serving-plan search."""

import json
import random
from collections import Counter
from itertools import combinations_with_replacement
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import batchcodes.planner as planner_module
from batchcodes import (
    BitMatrix,
    BitVector,
    InvalidQueryError,
    LinearCode,
    Query,
    QueryPlanner,
    RecoverySet,
    ServingPlan,
    batch_t,
    enumerate_recovery_sets,
    identity,
    is_servable_all,
    max_disjoint_packing,
    paired_parity,
    plan_is_valid,
    profile,
    recovery,
    serve_query,
    simplex,
    subcube,
    triplicated_parity,
)
from conftest import (
    assert_circuits_stored_once,
    assert_one_fill,
    column_matrix,
    counting_searches,
    random_systematic,
    small_codes,
    symmetric_codes,
    systematic_codes,
)
from oracles import (
    brute_plan_exists,
    reference_plan,
    reference_servable_all,
    subset_sum_table,
)

GOLDEN = Path(__file__).parent / "golden"

# Column order used in worked examples elsewhere: identity first, then
# the remaining nonzero vectors ordered as (110), (101), (011), (111).
EXAMPLE_SIMPLEX3 = LinearCode.from_rows(
    [
        [1, 0, 0, 1, 1, 0, 1],
        [0, 1, 0, 1, 0, 1, 1],
        [0, 0, 1, 0, 1, 1, 1],
    ]
)


class TestQuery:
    def test_canonical_order(self):
        assert Query((2, 1, 1)).indices == (1, 1, 2)
        assert Query((3,)).indices == (3,)

    def test_parse(self):
        q = Query.parse("2, 1,1")
        assert q.indices == (1, 1, 2)
        assert q.t == 3
        assert q.counts() == [(1, 2), (2, 1)]
        assert str(q) == "1,1,2"

    def test_parse_errors(self):
        # Only ASCII decimal digits: int() would read "1_0" as 10, the
        # Arabic-Indic digits as 1,2 and "+1" as 1.
        for text in ("", "1,,2", "1,a", "0", "-1,2", "1_0", "\u0661,\u0662", "+1"):
            with pytest.raises(InvalidQueryError):
                Query.parse(text)
        with pytest.raises(InvalidQueryError):
            Query(())
        for bad in (1.7, 2.0, "2"):
            with pytest.raises(InvalidQueryError):
                Query((bad, 2))
        with pytest.raises(InvalidQueryError):
            serve_query(simplex(3), [2.9])


class TestServingPlan:
    def test_rendering(self):
        plan = ServingPlan(
            (
                (1, RecoverySet(BitVector.unit(2, 1), (1,))),
                (2, RecoverySet(BitVector.unit(2, 1), (2, 3))),
            )
        )
        assert str(plan) == "T1={1}; T2={2,3}"
        assert plan.t == 2
        assert plan.columns_read() == 3


class TestServe:
    def test_worked_example_small(self):
        code = subcube(2, 1)
        plan = serve_query(code, Query((1, 1)))
        assert str(plan) == "T1={1}; T2={2,3}"
        assert plan_is_valid(code, Query((1, 1)), plan)
        assert serve_query(code, Query((1, 1, 1))) is None

    def test_worked_example_simplex(self):
        plan = serve_query(EXAMPLE_SIMPLEX3, Query((1, 1, 2, 2)))
        assert str(plan) == "T1={1}; T2={2,4}; T3={3,6}; T4={5,7}"
        plan = serve_query(simplex(3), Query((1, 1, 2, 3)))
        assert str(plan) == "T1={1}; T2={2,6}; T3={5,7}; T4={3}"

    def test_index_above_k_rejected(self):
        with pytest.raises(InvalidQueryError):
            serve_query(subcube(2, 1), Query((1, 3)))

    def test_size_cap_restricts_plans(self):
        code = subcube(2, 1)
        assert serve_query(code, Query((1, 1)), r=2) is not None
        # With r=1 only column 1 recovers symbol 1.
        assert serve_query(code, Query((1, 1)), r=1) is None

    def test_matches_brute_planner_on_corpus(self, corpus):
        from itertools import combinations_with_replacement

        for name, code in corpus:
            if code.n > 10:
                continue
            sums = subset_sum_table(code)
            for r in (None, 2):
                planner = QueryPlanner(code, r)
                for t in (1, 2, 3):
                    for combo in combinations_with_replacement(
                        range(1, code.k + 1), t
                    ):
                        q = Query(combo)
                        plan = planner.serve(q)
                        want = brute_plan_exists(code, combo, r, sums)
                        assert (plan is not None) == want, (name, r, combo)
                        if plan is not None:
                            assert plan_is_valid(code, q, plan, r), (name, r, combo)
                        ref = reference_plan(code, combo, r, sums)
                        assert str(plan) == str(ref), (name, r, combo)

    def test_matches_brute_planner_on_random_codes(self):
        rng = random.Random(31)
        for _ in range(25):
            code = random_systematic(rng, k_max=4, n_max=8)
            sums = subset_sum_table(code)
            planner = QueryPlanner(code)
            for _ in range(6):
                t = rng.randint(1, 3)
                combo = tuple(sorted(rng.randint(1, code.k) for _ in range(t)))
                q = Query(combo)
                plan = planner.serve(q)
                assert (plan is not None) == brute_plan_exists(code, combo, sums=sums)
                if plan is not None:
                    assert plan_is_valid(code, q, plan)

    def test_deterministic(self):
        code = simplex(3)
        a = QueryPlanner(code).serve(Query((1, 2, 3, 3)))
        b = QueryPlanner(code).serve(Query((1, 2, 3, 3)))
        assert a == b

    def test_escalation_reaches_same_plan(self, monkeypatch):
        code = subcube(2, 1)
        want = str(QueryPlanner(code).serve(Query((1, 1))))
        # A starvation-level initial cap forces the doubling retry path.
        monkeypatch.setattr(planner_module, "_INITIAL_CAP", 1)
        planner = QueryPlanner(code)
        plan = planner.serve(Query((1, 1)))
        assert str(plan) == want
        assert plan_is_valid(code, Query((1, 1)), plan)

    @pytest.mark.parametrize("initial_cap", [1, 2])
    def test_escalation_rebuilds_conflict_tables(self, monkeypatch, initial_cap):
        # simplex(4) has 92 candidates per symbol, so a tiny first cap
        # re-enumerates every symbol many times; a conflict table left
        # over from a shorter list would change or lose plans.
        code = simplex(4)
        rng = random.Random(5)
        queries = [
            Query(tuple(rng.randint(1, 4) for _ in range(t)))
            for t in (6, 7, 8)
            for _ in range(4)
        ]
        want = [str(QueryPlanner(code).serve(q)) for q in queries]
        monkeypatch.setattr(planner_module, "_INITIAL_CAP", initial_cap)
        planner = QueryPlanner(code)
        got = [planner.serve(q) for q in queries]
        assert [str(plan) for plan in got] == want
        for q, plan in zip(queries, got):
            assert plan_is_valid(code, q, plan)

    @pytest.mark.parametrize("limit", [0, 1])
    def test_failed_state_memo_keeps_plans(self, monkeypatch, corpus, limit):
        # With the memo off (0) or full after one state (1), every plan
        # and every None must be those of the default limit.
        rng = random.Random(13)
        queries = [
            (simplex(4), None, Query(combo))
            for combo in rng.sample(
                [
                    combo
                    for t in (6, 7, 8)
                    for combo in combinations_with_replacement(range(1, 5), t)
                ],
                60,
            )
        ]
        queries += [
            (simplex(5), 2, Query(tuple(rng.randint(1, 5) for _ in range(t))))
            for t in (12, 13, 14, 15)
            for _ in range(10)
        ]
        frozen = Path(__file__).resolve().parents[1] / "perfbench/data/frozen.json"
        codes = dict(corpus)
        for name, listed in json.loads(frozen.read_text())["unservable"].items():
            if codes[name].n <= 12:
                queries += [(codes[name], None, Query(tuple(q))) for q in listed]

        def serve_all():
            planners = {}
            return [
                str(planners.setdefault((code, r), QueryPlanner(code, r)).serve(q))
                for code, r, q in queries
            ]

        want = serve_all()
        assert "None" in want
        monkeypatch.setattr(planner_module, "_MEMO_LIMIT", limit)
        assert serve_all() == want

    def test_validation(self):
        for bad in (0, 1.5, "2"):
            with pytest.raises(ValueError):
                QueryPlanner(subcube(2, 1), r=bad)
            with pytest.raises(ValueError):
                serve_query(simplex(3), (1, 1, 1), bad)
        with pytest.raises(ValueError):
            QueryPlanner(subcube(2, 1)).servable_all(0)
        for bad in (0, 1.5, 2.0, "2"):
            with pytest.raises(ValueError, match="^t must be an integer >= 1,"):
                QueryPlanner(subcube(2, 1)).servable_all(bad)


def test_warm_plans_match_golden(corpus):
    """Warm planners (every list complete) return the recorded plans on
    hard queries: simplex(4) uncapped at t = 7 and 8, and t = 9, which
    it cannot serve; simplex(5) at r = 2 and t = 15, and quick t = 16
    ones; and two unservable queries per code of the frozen benchmark
    data. A change to the plan search that moves a plan fails here."""
    codes = dict(corpus, **{"simplex(5)": simplex(5)})
    planners = {}
    got, want = [], []
    for entry in json.loads((GOLDEN / "plans.json").read_text()):
        key = entry["code"], entry["r"]
        if key not in planners:
            code = codes[entry["code"]]
            planners[key] = QueryPlanner(code, entry["r"])
            for symbol in range(1, code.k + 1):
                planners[key].candidates(symbol)
        plan = planners[key].serve(Query.parse(entry["query"]))
        got.append((key, entry["query"], None if plan is None else str(plan)))
        want.append((key, entry["query"], entry["plan"]))
    assert got == want
    assert None in [plan for *_, plan in want]


@settings(max_examples=150)
@given(
    code=small_codes(),
    r=st.sampled_from([None, 1, 2]),
    data=st.data(),
)
def test_plan_is_reference_plan(code, r, data):
    """The pruned bitset search returns the first plan of the unpruned
    lexicographic backtrack, and None exactly when it does."""
    symbol = st.integers(1, code.k)
    queries = data.draw(
        st.lists(st.lists(symbol, min_size=1, max_size=6), min_size=1, max_size=4)
    )
    sums = subset_sum_table(code)
    planner = QueryPlanner(code, r)
    for indices in queries:
        q = Query(tuple(indices))
        plan = planner.serve(q)
        assert str(plan) == str(reference_plan(code, q.indices, r, sums))
        assert plan is None or plan_is_valid(code, q, plan, r)
    # The reference orders groups by complete candidate counts, which is
    # the planner's order only when no list was cut at the first cap.
    assert all(
        len(planner.candidates(s)) <= planner_module._INITIAL_CAP
        for s in range(1, code.k + 1)
    )


def test_unservable_query_matches_reference_plan():
    """An unservable query that a free-column bound and a positional cut
    would prune 9 and 3 times: the search, which cuts only on the open
    candidate count and its failed-state record, agrees with the
    reference."""
    code = LinearCode(column_matrix(3, [6, 7, 6, 3, 4, 5, 6, 4, 7]))
    q = Query.parse("1,2,2,3,3")
    plan = QueryPlanner(code).serve(q)
    assert plan is None
    assert str(plan) == str(
        reference_plan(code, q.indices, None, subset_sum_table(code))
    )


@settings(max_examples=100)
@given(
    code=st.one_of(small_codes(), symmetric_codes()),
    r=st.sampled_from([None, 1, 2]),
    data=st.data(),
)
def test_unservable_verdicts_match_brute_force(code, r, data):
    """Every None from serve, on queries up to t = batch_t + 1, is
    confirmed by the brute-force search over all recovery sets."""
    top = batch_t(code, r) + 1
    planner = QueryPlanner(code, r)
    ok, witness = planner.servable_all(top)
    assert not ok
    drawn = data.draw(
        st.lists(
            st.lists(st.integers(1, code.k), min_size=1, max_size=top),
            max_size=6,
        )
    )
    sums = subset_sum_table(code)
    for q in [witness] + [Query(tuple(indices)) for indices in drawn]:
        plan = planner.serve(q)
        if plan is None:
            assert not brute_plan_exists(code, q.indices, r, sums), q
        else:
            assert plan_is_valid(code, q, plan, r), q


class TestServableAll:
    def test_witness_is_lex_first(self):
        code = LinearCode.from_rows([[1, 0], [0, 1]])
        ok, witness = is_servable_all(code, 2)
        assert not ok
        assert witness.indices == (1, 1)
        ok, witness = is_servable_all(code, 1)
        assert ok and witness is None

    def test_positive_sweep(self):
        ok, witness = is_servable_all(subcube(2, 1), 2)
        assert ok and witness is None
        ok, witness = is_servable_all(subcube(2, 1), 3)
        assert not ok
        assert witness.indices == (1, 1, 1)

    @pytest.mark.parametrize(
        "code, t, tested", [(subcube(2, 3), 8, 6435), (subcube(3, 2), 4, 495)]
    )
    def test_sweep_extends_the_previous_plan(self, code, t, tested, monkeypatch):
        """On these codes every symbol is its own class, so the sweep
        tests every query, and extending the previous query's plan
        greedily serves each one: the exact search never runs."""
        served = []
        serve = QueryPlanner.serve

        def counting(self, query):
            served.append(query)
            return serve(self, query)

        monkeypatch.setattr(QueryPlanner, "serve", counting)
        planner = QueryPlanner(code)
        assert len(list(planner._sweep_queries(t))) == tested
        assert planner.servable_all(t) == (True, None)
        assert served == []


class TestSymbolClasses:
    @pytest.mark.parametrize(
        "code, classes",
        [
            (simplex(2), [(1, 2)]),
            (simplex(3), [(1, 2, 3)]),
            (simplex(4), [(1, 2, 3, 4)]),
            (simplex(5), [(1, 2, 3, 4, 5)]),
            (identity(3), [(1, 2, 3)]),
            (paired_parity(6), [(1, 2), (3, 4), (5, 6)]),
            (triplicated_parity(5), [(1, 2, 3, 4), (5,)]),
            (subcube(2, 2), [(1, 4), (2, 3)]),
        ],
    )
    def test_family_classes(self, code, classes):
        assert list(QueryPlanner(code).symbol_classes()) == classes

    def test_swaps_inside_classes_only_fix_columns(self, corpus):
        rng = random.Random(7)
        codes = [code for _, code in corpus]
        codes += [random_systematic(rng, k_max=5, n_max=9) for _ in range(40)]
        for code in codes:
            classes = QueryPlanner(code).symbol_classes()
            assert sorted(s for cls in classes for s in cls) == list(
                range(1, code.k + 1)
            )
            label = {s: ci for ci, cls in enumerate(classes) for s in cls}
            rows = code.generator.row_words
            want = sorted(code.column_words)
            for i in range(code.k):
                for j in range(i + 1, code.k):
                    swapped = list(rows)
                    swapped[i], swapped[j] = rows[j], rows[i]
                    image = LinearCode(BitMatrix(code.n, tuple(swapped)))
                    fixed = sorted(image.column_words) == want
                    assert fixed == (label[i + 1] == label[j + 1]), (
                        rows,
                        i + 1,
                        j + 1,
                    )

    def test_sweep_serves_one_query_per_orbit(self, monkeypatch):
        served = []
        serve = QueryPlanner.serve

        def counting(self, query):
            served.append(query)
            return serve(self, query)

        monkeypatch.setattr(QueryPlanner, "serve", counting)
        planner = QueryPlanner(simplex(4))
        tested = list(planner._sweep_queries(8))
        # The partitions of 8 into at most 4 parts, not all 165 queries.
        partitions = {
            m for m in combinations_with_replacement(range(8, -1, -1), 4)
            if sum(m) == 8
        }
        assert len(tested) == len(partitions) == 15
        assert {tuple(c.count(s) for s in range(1, 5)) for c in tested} == partitions
        ok, witness = planner.servable_all(8)
        assert ok and witness is None
        # The sweep serves only the queries it tests, each at most once.
        assert {q.indices for q in served} <= set(tested)
        assert len(served) == len({q.indices for q in served})


@settings(max_examples=150)
@given(
    code=st.one_of(small_codes(), symmetric_codes()),
    r=st.sampled_from([None, 1, 2]),
)
def test_sweep_matches_reference(code, r):
    """The symmetry-reduced sweep gives the verdict and witness of the
    full brute-force sweep."""
    sums = subset_sum_table(code)
    planner = QueryPlanner(code, r)
    for t in range(1, 5):
        ok, witness = planner.servable_all(t)
        got = (ok, None if witness is None else witness.indices)
        assert got == reference_servable_all(code, t, r, sums), t


def lexicographic_sweep(planner: QueryPlanner, t: int):
    """The orbit-minimal queries of `servable_all`, in its order, each
    served on `planner`'s own lexicographic candidate lists."""
    steps = [
        (a, b) for cls in planner.symbol_classes() for a, b in zip(cls, cls[1:])
    ]
    for combo in combinations_with_replacement(range(1, planner.code.k + 1), t):
        if any(combo.count(a) < combo.count(b) for a, b in steps):
            continue
        if planner.serve(Query(combo)) is None:
            return False, combo
    return True, None


@settings(max_examples=100)
@given(code=small_codes(k_max=7, n_max=15), r=st.sampled_from([None, 2, 3]))
def test_sweep_matches_lexicographic_sweep(code, r):
    """On codes too large for the brute-force oracles, the size-ordered
    sweep gives the verdict and witness of a sweep on the lexicographic
    lists, for every t up to batch_t + 1."""
    swept = QueryPlanner(code, r)
    lex = QueryPlanner(code, r)
    for t in range(1, batch_t(code, r) + 2):
        ok, witness = swept.servable_all(t)
        got = (ok, None if witness is None else witness.indices)
        assert got == lexicographic_sweep(lex, t), t


class TestPlannerState:
    """A sweep leaves the planner's lists, and so its plans, as they were."""

    @pytest.mark.parametrize("code, r", [(simplex(4), None), (subcube(2, 2), 3)])
    def test_lists_stay_lexicographic(self, code, r):
        planner = QueryPlanner(code, r)
        planner.servable_all(code.k + 1)
        for i in range(1, code.k + 1):
            got = [rs.columns for rs in planner.candidates(i)]
            assert got == sorted(got), i
            assert len({len(c) for c in got}) > 1, i

    def test_sweeps_reuse_size_ordered_lists(self, monkeypatch):
        # Each sweep serves its queries on a view of the planner's lists
        # sorted by size. The sorted lists are kept with the planner's
        # own, and so are the conflict tables the exact search builds on
        # them, each once: a second sweep rebuilds neither.
        views = []
        size_ordered = QueryPlanner._size_ordered

        def keeping(self):
            views.append(size_ordered(self))
            return views[-1]

        built = []
        tables = planner_module._Candidates.conflicts
        build = tables.func

        def building(record):
            built.append(record)
            return build(record)

        monkeypatch.setattr(QueryPlanner, "_size_ordered", keeping)
        monkeypatch.setattr(tables, "func", building)
        planner = QueryPlanner(simplex(4))
        for _ in range(2):
            assert planner.servable_all(8) == (True, None)
        before, after = (view._lists for view in views)
        assert before.keys() == after.keys() == {1, 2, 3, 4}
        for sym in before:
            assert after[sym] is before[sym], sym
        assert built
        shared = {id(record) for record in before.values()}
        assert len({id(record) for record in built}) == len(built)
        assert {id(record) for record in built} <= shared

    def test_serve_after_sweep_matches_warm_planner(self):
        code = simplex(4)
        swept = QueryPlanner(code)
        warm = QueryPlanner(code)
        for i in range(1, code.k + 1):
            warm.candidates(i)
        rng = random.Random(3)
        for t in (6, 7, 8):
            swept.servable_all(t)
            combos = list(combinations_with_replacement(range(1, code.k + 1), t))
            for combo in rng.sample(combos, 20):
                q = Query(combo)
                assert str(swept.serve(q)) == str(warm.serve(q)), combo


class TestPackings:
    """`packings` fills every complete list from the code's circuit
    store when the code has every unit column."""

    def test_enumerates_each_circuit_once(self, monkeypatch):
        # The four lists of simplex(4) hold 91 sets each besides the
        # identity column. They come from one fill of the store at
        # size 4 (= k): one search per column, each avoiding the
        # columns before it, so each circuit is found once. A second
        # planner of the same code reads the store and searches nothing.
        # `candidates` then enumerates each symbol on its own.
        calls: list = []
        monkeypatch.setattr(recovery, "minimal_set_masks", counting_searches(calls))
        code = simplex(4)
        planner = QueryPlanner(code)
        assert planner.packings() == (8, 8, 8, 8)
        assert_one_fill(calls, code, 4)
        assert QueryPlanner(code, 3).packings() == (8, 8, 8, 8)
        assert len(calls) == code.n
        assert_circuits_stored_once(code)
        assert [len(planner.candidates(i)) for i in range(1, 5)] == [92] * 4

    def test_without_every_unit_column_enumerates_each_symbol(self, monkeypatch):
        code = triplicated_parity(5)
        calls: list = []
        monkeypatch.setattr(recovery, "minimal_set_masks", counting_searches(calls))
        planner = QueryPlanner(code)
        assert planner.packings() == (3,) * 5
        lengths = [len(planner.candidates(i)) for i in range(1, 6)]
        assert lengths == [3, 3, 3, 3, 243]
        assert calls == [(0, None, count) for count in lengths]

    @pytest.mark.parametrize(
        "code, r",
        [
            (simplex(4), None),
            (subcube(2, 2), 3),
            (LinearCode(column_matrix(3, [6, 4, 0, 1, 7, 2, 1, 3])), None),
        ],
    )
    def test_serve_after_packings_or_sweep_matches_warm(self, code, r):
        # `packings` and `servable_all` fill the size-ordered lists;
        # `candidates` and `serve` then return the lists and plans of a
        # planner warmed symbol by symbol. On simplex(4), 3,3,4,4 gets
        # another plan from a fresh planner, whose lists are cut at 64.
        warm = QueryPlanner(code, r)
        for i in range(1, code.k + 1):
            warm.candidates(i)
        packed = QueryPlanner(code, r)
        packed.packings()
        swept = QueryPlanner(code, r)
        swept.servable_all(2)
        queries = [(1,) * 3, tuple(range(1, code.k + 1)), (1, 1, 2, 2, 3)]
        if code.k >= 4:
            queries.append((3, 3, 4, 4))
        for planner in (packed, swept):
            for i in range(1, code.k + 1):
                sizes = [m.bit_count() for m in planner._sized[i].masks]
                assert sizes == sorted(sizes), i
            for indices in queries:
                assert str(planner.serve(indices)) == str(warm.serve(indices)), indices
            for i in range(1, code.k + 1):
                assert planner.candidates(i) == warm.candidates(i), i

    def test_serve_then_packings_then_serve(self):
        # A list cut by a first `serve` is enumerated complete once
        # `packings` has filled the size-ordered lists from the store.
        code = simplex(4)
        warm = QueryPlanner(code)
        for i in range(1, code.k + 1):
            warm.candidates(i)
        query = (3, 3, 4, 4)
        planner = QueryPlanner(code)
        fresh = planner.serve(query)
        assert [len(planner._lists[s]) for s in (3, 4)] == [64, 64]
        assert str(fresh) != str(warm.serve(query))
        planner.packings()
        assert str(planner.serve(query)) == str(warm.serve(query))
        assert [len(planner.candidates(i)) for i in range(1, 5)] == [92] * 4

    def test_profile_enumerates_no_symbol(self, corpus, monkeypatch):
        # On a code with every unit column, `profile` packs and sweeps
        # the lists read off the circuit store: no symbol is enumerated
        # on its own.
        def refuse(*args, **kwargs):
            raise AssertionError("symbol enumerated")

        monkeypatch.setattr(planner_module, "enumerate_recovery_sets", refuse)
        rng = random.Random(30)
        codes = [code for _, code in corpus if code.is_systematic]
        codes += [random_systematic(rng, k_max=7, n_max=17) for _ in range(20)]
        for code in codes:
            for r in (None, 2, 3):
                profile(code, r)
        planner = QueryPlanner(simplex(3))
        planner.packings()
        with pytest.raises(AssertionError, match="symbol enumerated"):
            planner.candidates(1)


@settings(max_examples=150)
@given(
    code=systematic_codes(k_max=4, n_max=10),
    r=st.sampled_from([None, 1, 2]),
)
# A repeated unit column: two sets of size 1 for e_1.
@example(code=LinearCode(column_matrix(3, [6, 4, 0, 1, 7, 2, 1, 3])), r=None)
def test_sweep_on_store_lists_matches_reference(code, r):
    """After `packings`, the sweep runs on the store-ordered lists and
    gives the verdict and witness of the full brute-force sweep."""
    sums = subset_sum_table(code)
    planner = QueryPlanner(code, r)
    planner.packings()
    for t in range(1, 5):
        ok, witness = planner.servable_all(t)
        got = (ok, None if witness is None else witness.indices)
        assert got == reference_servable_all(code, t, r, sums), t


@settings(max_examples=150)
@given(
    code=st.one_of(systematic_codes(k_max=5, n_max=11), small_codes()),
    r=st.sampled_from([None, 1, 2, 3]),
    queries=st.lists(
        st.lists(st.integers(0, 99), min_size=1, max_size=6), max_size=4
    ),
)
# Identity columns behind others, a repeated unit column, a zero column.
@example(code=LinearCode(column_matrix(3, [6, 4, 0, 1, 7, 2, 1, 3])), r=None, queries=[])
@example(code=LinearCode(column_matrix(3, [6, 4, 0, 1, 7, 2, 1, 3])), r=2, queries=[])
def test_packings_match_per_symbol_lists(code, r, queries):
    """`packings` gives each symbol the list `enumerate_recovery_sets`
    gives it and that list's packing number. After `packings`, after a
    sweep, and after `serve` and then `packings`, `serve` and
    `candidates` return the plans and lists of a planner warmed symbol
    by symbol through `candidates`."""
    k = code.k
    planner = QueryPlanner(code, r)
    warm = QueryPlanner(code, r)
    packings = planner.packings()
    assert len(packings) == k
    for i in range(1, k + 1):
        want = enumerate_recovery_sets(code, BitVector.unit(k, i), max_size=r)
        assert warm.candidates(i) == want.sets
        assert packings[i - 1] == max_disjoint_packing(want.masks), i
    drawn = [[s % k + 1 for s in q] for q in queries]
    drawn += [[1] * 3, list(range(1, k + 1)), [s % k + 1 for s in (0, 0, 1, 1, 2)]]
    swept = QueryPlanner(code, r)
    swept.servable_all(2)
    served = QueryPlanner(code, r)
    for indices in drawn:
        served.serve(indices)
    served.packings()
    for after in (planner, swept, served):
        for indices in drawn:
            assert str(after.serve(indices)) == str(warm.serve(indices)), indices
        for i in range(1, k + 1):
            assert after.candidates(i) == warm.candidates(i), i


class TestDecoding:
    """The planner works on column masks. It builds `RecoverySet`s only
    for the lists it returns sets from, and decodes each list once."""

    @pytest.fixture
    def built(self, monkeypatch):
        # (target word, columns) -> RecoverySets built with them
        counts: Counter = Counter()
        init = RecoverySet.__init__

        def counting(self, target, columns):
            counts[target.word, columns] += 1
            init(self, target, columns)

        monkeypatch.setattr(RecoverySet, "__init__", counting)
        return counts

    def test_packing_builds_no_sets(self, built):
        planner = QueryPlanner(simplex(4))
        assert [planner.max_packing(i) for i in range(1, 5)] == [8] * 4
        assert not built

    def test_sweep_decodes_each_list_once(self, built):
        assert QueryPlanner(simplex(4)).servable_all(8) == (True, None)
        assert built and max(built.values()) == 1

    def test_warm_serves_decode_each_list_once(self, built):
        code = simplex(4)
        planner = QueryPlanner(code)
        for i in range(1, code.k + 1):
            planner.max_packing(i)
        for combo in combinations_with_replacement((1, 2), 6):
            assert planner.serve(Query(combo)) is not None
        assert {word for word, _ in built} == {0b01, 0b10}
        assert max(built.values()) == 1
        total = sum(len(planner.candidates(i)) for i in (1, 2))
        assert sum(built.values()) == total

    def test_candidates_are_kept(self):
        planner = QueryPlanner(simplex(3))
        assert planner.candidates(2) is planner.candidates(2)


class TestPlanIsValid:
    def test_rejects_bad_plans(self):
        code = subcube(2, 1)
        q = Query((1, 1))
        e1 = BitVector.unit(2, 1)
        good = ServingPlan(
            ((1, RecoverySet(e1, (1,))), (2, RecoverySet(e1, (2, 3))))
        )
        assert plan_is_valid(code, q, good)
        overlapping = ServingPlan(
            ((1, RecoverySet(e1, (1,))), (2, RecoverySet(e1, (1,))))
        )
        assert not plan_is_valid(code, q, overlapping)
        wrong_sum = ServingPlan(
            ((1, RecoverySet(e1, (2,))), (2, RecoverySet(e1, (3,))))
        )
        assert not plan_is_valid(code, q, wrong_sum)
        bad_positions = ServingPlan(
            ((1, RecoverySet(e1, (1,))), (3, RecoverySet(e1, (2, 3))))
        )
        assert not plan_is_valid(code, q, bad_positions)
        assert not plan_is_valid(code, Query((1,)), good)
        assert not plan_is_valid(code, q, good, r=1)
        # Columns and positions must be integers: 2.0 is not column 2.
        for bad in (1.5, 2.0, "1"):
            not_int = ServingPlan(
                ((1, RecoverySet(e1, (1,))), (2, RecoverySet(e1, (bad, 3))))
            )
            assert not plan_is_valid(code, q, not_int)
            bad_position = ServingPlan(
                ((1, RecoverySet(e1, (1,))), (bad, RecoverySet(e1, (2, 3))))
            )
            assert not plan_is_valid(code, q, bad_position)

    def test_swapped_assignment_order_is_fine(self):
        # Positions must be 1..t in order, but which set serves which
        # copy of a repeated symbol is free.
        code = subcube(2, 1)
        q = Query((1, 1))
        e1 = BitVector.unit(2, 1)
        swapped = ServingPlan(
            ((1, RecoverySet(e1, (2, 3))), (2, RecoverySet(e1, (1,))))
        )
        assert plan_is_valid(code, q, swapped)

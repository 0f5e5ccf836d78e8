"""Exact parameter extraction: batch/PIR t, locality, availability."""

import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import batchcodes.planner as planner_module
import batchcodes.profiler as profiler_module
from batchcodes import (
    BitMatrix,
    BitVector,
    CapacityError,
    LinearCode,
    NotSystematicError,
    Query,
    QueryPlanner,
    batch_t,
    build_report,
    corollary_check,
    enumerate_recovery_sets,
    info_lrc_profile,
    lrc_profile,
    max_disjoint_packing,
    min_length,
    paired_parity,
    pir_t,
    profile,
    recovery,
    serve_query,
    simplex,
    subcube,
    triplicated_parity,
)
from batchcodes.gf2 import PivotBasis
from conftest import (
    analyze_codes,
    assert_circuits_stored_once,
    assert_one_fill,
    column_matrix,
    counting_cycle_fills,
    counting_searches,
    fill_by,
    live_columns,
    random_systematic,
    small_codes,
    symmetric_codes,
    systematic_codes,
)
from oracles import (
    brute_max_packing,
    brute_minimal_recovery_sets,
    reference_batch_t,
    reference_lrc_profile,
    reference_servable_all,
    subset_sum_table,
)

README = Path(__file__).parent.parent / "README.md"

# name -> (n, k, d, batch_t, pir_t, systematic), all at unbounded r.
CORPUS_PARAMETERS = {
    "identity(2)": (2, 2, 1, 1, 1, True),
    "identity(3)": (3, 3, 1, 1, 1, True),
    "identity(4)": (4, 4, 1, 1, 1, True),
    "subcube(2,1)": (3, 2, 2, 2, 2, True),
    "subcube(3,1)": (4, 3, 2, 2, 2, True),
    "subcube(2,2)": (9, 4, 4, 4, 4, True),
    "simplex(2)": (3, 2, 2, 2, 2, True),
    "simplex(3)": (7, 3, 4, 4, 4, True),
    "simplex(4)": (15, 4, 8, 8, 8, True),
    "triplicated_parity(3)": (9, 3, 3, 3, 3, False),
    "triplicated_parity(4)": (12, 4, 3, 3, 3, False),
    "triplicated_parity(5)": (15, 5, 3, 3, 3, False),
    "blockwise_subcube_allones(1)": (4, 2, 2, 2, 2, True),
    "blockwise_subcube_allones(2)": (7, 4, 2, 2, 2, True),
    "blockwise_subcube_allones(3)": (10, 6, 2, 2, 2, True),
    "paired_parity(2)": (3, 2, 2, 2, 2, True),
    "paired_parity(3)": (5, 3, 2, 2, 2, True),
    "paired_parity(4)": (6, 4, 2, 2, 2, True),
    "paired_parity(5)": (8, 5, 2, 2, 2, True),
    "paired_parity(6)": (9, 6, 2, 2, 2, True),
}


def test_corpus_parameters_frozen(corpus):
    assert {name for name, _ in corpus} == set(CORPUS_PARAMETERS)
    for name, code in corpus:
        n, k, d, bt, pt, sysm = CORPUS_PARAMETERS[name]
        prof = profile(code)
        got = (
            prof.n,
            prof.k,
            prof.d,
            prof.batch_t,
            prof.pir_t,
            prof.systematic,
        )
        assert got == (n, k, d, bt, pt, sysm), name
        assert prof.rate == Fraction(k, n)
        assert (prof.info_symbol is not None) == sysm


def test_parameter_chain_on_random_codes():
    rng = random.Random(41)
    for _ in range(40):
        code = random_systematic(rng)
        for r in (None, 2):
            b = batch_t(code, r)
            p = pir_t(code, r)
            assert b <= p <= code.min_distance()


def test_pir_equals_uniform_servability(corpus):
    for name, code in corpus:
        if code.n > 10:
            continue
        planner = QueryPlanner(code)
        p = pir_t(code)
        for i in range(1, code.k + 1):
            assert planner.serve((i,) * p) is not None, name
        assert any(
            planner.serve((i,) * (p + 1)) is None
            for i in range(1, code.k + 1)
        ), name


class TestLrcProfile:
    def test_frozen_values(self):
        lp = lrc_profile(subcube(2, 1))
        assert (lp.cap, lp.locality, lp.availability) == (2, 2, 1)
        assert [(s.index, s.min_size, s.packing) for s in lp.symbols] == [
            (1, 2, 1),
            (2, 2, 1),
            (3, 2, 1),
        ]

        lp = lrc_profile(simplex(3))
        assert (lp.cap, lp.locality, lp.availability) == (2, 2, 3)
        assert all(s.min_size == 2 and s.packing == 3 for s in lp.symbols)

        lp = lrc_profile(triplicated_parity(3))
        assert (lp.cap, lp.locality, lp.availability) == (1, 1, 2)

        lp = lrc_profile(paired_parity(4))
        assert (lp.cap, lp.locality, lp.availability) == (2, 2, 1)

    def test_unrecoverable_symbols(self):
        # A bare identity column cannot be rebuilt from the others.
        lp = lrc_profile(LinearCode.from_rows([[1, 0], [0, 1]]))
        assert lp.locality is None
        assert lp.availability == 0
        assert [(s.min_size, s.packing) for s in lp.symbols] == [(None, 0)] * 2

    def test_explicit_cap(self):
        lp = lrc_profile(subcube(2, 1), r=1)
        assert (lp.cap, lp.locality, lp.availability) == (1, 2, 0)
        for bad in (0, 1.5, "2"):
            with pytest.raises(ValueError):
                lrc_profile(subcube(2, 1), r=bad)

    def test_matches_oracle(self, corpus):
        for name, code in corpus:
            if code.n > 9:
                continue
            lp = lrc_profile(code)
            for sym in lp.symbols:
                j = sym.index
                word = code.column_words[j - 1]
                if word == 0:
                    continue
                want = brute_minimal_recovery_sets(code, word, frozenset((j,)))
                if not want:
                    assert sym.min_size is None and sym.packing == 0
                    continue
                assert sym.min_size == min(len(s) for s in want), (name, j)
                capped = [s for s in want if lp.cap is None or len(s) <= lp.cap]
                masks = [sum(1 << (c - 1) for c in s) for s in capped]
                assert sym.packing == brute_max_packing(masks), (name, j)

    def test_zero_column(self):
        code = LinearCode(BitMatrix(3, (0b001, 0b010)))
        lp = lrc_profile(code)
        assert [(s.index, s.min_size, s.packing) for s in lp.symbols] == [
            (1, None, 0),
            (2, None, 0),
            (3, 0, None),
        ]
        assert lp.locality is None
        assert lp.availability == 0
        prof = profile(code)
        assert (prof.d, prof.batch_t, prof.pir_t) == (1, 1, 1)


class TestInfoLrcProfile:
    def test_include_self_uses_identity_column(self):
        lp = info_lrc_profile(paired_parity(4))
        assert (lp.cap, lp.locality, lp.availability) == (None, 1, 2)

    def test_exclude_self(self):
        lp = info_lrc_profile(paired_parity(4), include_self=False)
        assert (lp.cap, lp.locality, lp.availability) == (None, 2, 1)

    def test_requires_systematic(self):
        with pytest.raises(NotSystematicError):
            info_lrc_profile(triplicated_parity(3))
        for bad in (0, 1.5, "2"):
            with pytest.raises(ValueError):
                info_lrc_profile(paired_parity(4), r=bad)
            with pytest.raises(ValueError):
                info_lrc_profile(paired_parity(4), r=bad, include_self=False)

    def test_non_identity_column_map(self):
        # Systematic via permuted columns: e_1 lives at column 2.
        code = LinearCode.from_rows([[0, 1, 1], [1, 0, 1]])
        lp = info_lrc_profile(code, include_self=False)
        assert lp.locality == 2


class TestCorollaryCheck:
    def test_holds_on_systematic_corpus(self, corpus):
        for name, code in corpus:
            if not code.is_systematic or code.n > 9:
                continue
            for r in (1, 2, None):
                for t in (1, 2, 3):
                    assert corollary_check(code, t, r), (name, r, t)

    def test_sides_take_different_paths(self, monkeypatch):
        """The left side enumerates each symbol on its own, the right
        reads the code's circuit store over the identity columns and
        enumerates nothing."""
        code = paired_parity(4)
        enumerated: list = []
        stored: list = []
        real_enumerate = planner_module.enumerate_recovery_sets
        real_store = profiler_module.circuit_sets

        def enumerate_counting(code, target, *args, **kwargs):
            enumerated.append(target.word)
            return real_enumerate(code, target, *args, **kwargs)

        def store_counting(code, columns, size):
            stored.append(columns)
            return real_store(code, columns, size)

        for module in (planner_module, profiler_module):
            monkeypatch.setattr(module, "enumerate_recovery_sets", enumerate_counting)
            monkeypatch.setattr(module, "circuit_sets", store_counting)
        assert corollary_check(code, 2)
        assert enumerated == [1 << i for i in range(code.k)]
        assert stored == [list(code.identity_column_map().values())]

    def test_validation(self):
        with pytest.raises(NotSystematicError):
            corollary_check(triplicated_parity(3), 1)
        with pytest.raises(ValueError):
            corollary_check(subcube(2, 1), 0)
        for bad in (0, 1.5, "2"):
            with pytest.raises(ValueError, match="^t must be an integer >= 1,"):
                corollary_check(subcube(2, 1), bad)


def test_distance_guard_fires_before_any_search(monkeypatch):
    """`profile` computes the distance first, so a code past the
    `min_distance` guard raises CapacityError before any recovery-set
    search. The packings of triplicated_parity(25), which has no unit
    column, ran for minutes when they came first."""

    def no_search(*args):
        raise AssertionError("a recovery-set search ran before the distance guard")

    monkeypatch.setattr(recovery, "minimal_set_masks", no_search)
    with pytest.raises(CapacityError, match="max_k = 24"):
        profile(triplicated_parity(25))


def test_profile_assembly():
    prof = profile(simplex(3), r_cap=2)
    assert (prof.n, prof.k, prof.d) == (7, 3, 4)
    assert (prof.batch_t, prof.pir_t) == (4, 4)
    assert prof.r_cap == 2
    assert prof.systematic
    assert prof.all_symbol.cap == prof.all_symbol.locality == 2
    assert prof.info_symbol is not None and prof.info_symbol.cap == 2
    prof = profile(triplicated_parity(3))
    assert prof.info_symbol is None
    for bad in (0, 1.5, "2"):
        for entry in (profile, pir_t, batch_t):
            with pytest.raises(ValueError):
                entry(simplex(3), bad)


def _readme_comments(first_line: str) -> dict[str, str]:
    """{expression: stated value} for each `print(expression)  # value`
    line of the README Python block that starts with `first_line`."""
    text = README.read_text()
    start = text.index(first_line)
    block = text[start : text.index("```", start)]
    return dict(re.findall(r"^print\((.+?)\)\s+# (.+)$", block, re.M))


def test_readme_quickstart():
    """The values README's library quickstart states are what it prints."""
    prof = profile(simplex(3), r_cap=2)
    plan = serve_query(simplex(3), Query((1, 1, 2, 2)))
    assert _readme_comments("from batchcodes import simplex") == {
        "prof.batch_t, prof.pir_t, prof.d": f"{prof.batch_t} {prof.pir_t} {prof.d}",
        "prof.all_symbol.locality": str(prof.all_symbol.locality),
        "prof.all_symbol.availability": str(prof.all_symbol.availability),
        "plan": str(plan),
    }
    result = min_length(k=3, t=2)
    assert _readme_comments("from batchcodes import min_length") == {
        "result.optimal_n": str(result.optimal_n),
        "result.redundancy": str(result.redundancy),
    }


def test_size_cap_never_raises_parameters():
    rng = random.Random(42)
    for _ in range(15):
        code = random_systematic(rng, k_max=4, n_max=8)
        assert batch_t(code, 2) <= batch_t(code)
        assert pir_t(code, 2) <= pir_t(code)


def _code(k: int, columns: list[int]) -> LinearCode:
    return LinearCode(column_matrix(k, columns))


def test_batch_sweep_descends_below_pir():
    """Non-systematic [4,3] code with columns e1, e1+e2, e1+e3 and
    e1+e2+e3: every e_i has two disjoint recovery sets, but the query
    (2,3) has no plan, so the sweep at t = pir_t fails and steps down."""
    code = _code(3, [0b001, 0b011, 0b101, 0b111])
    assert reference_servable_all(code, 2) == (False, (2, 3))
    assert reference_servable_all(code, 1) == (True, None)
    assert (batch_t(code), pir_t(code), code.min_distance()) == (1, 2, 2)
    ok, witness = QueryPlanner(code).servable_all(2)
    assert not ok and witness.indices == (2, 3)


@settings(max_examples=100)
@given(code=systematic_codes(), r=st.sampled_from([None, 1, 2, 3]))
def test_systematic_codes_serve_every_query_up_to_the_floor(code, r):
    """On a systematic code every query of t <= min(pir_t, 3) symbols
    is servable, so `batch_t` returns such a pir_t without a sweep."""
    sums = subset_sum_table(code)
    for t in range(1, min(pir_t(code, r), 3) + 1):
        assert reference_servable_all(code, t, r, sums) == (True, None), t


def test_profile_sweeps_nothing_at_the_floor(monkeypatch):
    """`subcube(2,2)` at r_cap=2 is systematic with pir_t = 3: its
    profile reads batch_t = 3 off the floor and sweeps no query size;
    at r_cap=3, pir_t = 4 takes one sweep."""
    calls = []
    real = QueryPlanner.servable_all

    def counting(self, t):
        calls.append(t)
        return real(self, t)

    monkeypatch.setattr(QueryPlanner, "servable_all", counting)
    prof = profile(subcube(2, 2), r_cap=2)
    assert (prof.systematic, prof.pir_t, prof.batch_t) == (True, 3, 3)
    assert calls == []
    prof = profile(subcube(2, 2), r_cap=3)
    assert (prof.pir_t, prof.batch_t) == (4, 4)
    assert calls == [4]


@settings(max_examples=150)
@given(
    code=st.one_of(small_codes(), symmetric_codes()),
    r=st.sampled_from([None, 1, 2]),
)
@example(code=_code(3, [0b001, 0b011, 0b101, 0b111]), r=None)
def test_batch_t_matches_reference(code, r):
    """batch_t is the largest t whose full brute-force sweep passes;
    batch_t <= pir_t <= d, and a larger cap never lowers batch_t."""
    sums = subset_sum_table(code)
    want = 0
    while reference_servable_all(code, want + 1, r, sums)[0]:
        want += 1
    got = batch_t(code, r)
    assert got == want
    assert got <= pir_t(code, r) <= code.min_distance()
    caps = [1, 2, None]
    for looser in caps[caps.index(r) + 1 :]:
        assert got <= batch_t(code, looser)


def _as_tuple(lp):
    symbols = tuple((s.index, s.min_size, s.packing) for s in lp.symbols)
    return lp.cap, lp.locality, lp.availability, symbols


@settings(max_examples=150)
@given(code=small_codes(), r=st.sampled_from([None, 1, 2, 3]))
# Zero and duplicate columns; k=1; non-systematic; and column 1 outside
# the span of the others, so that the locality is None.
@example(code=_code(2, [1, 0, 1, 2, 3, 3]), r=None)
@example(code=_code(1, [1, 1, 0, 1]), r=1)
@example(code=_code(3, [3, 5, 6, 7, 7]), r=2)
@example(code=_code(2, [1, 2, 2]), r=None)
def test_profiles_match_reference(code, r):
    """lrc_profile, info_lrc_profile (both readings) and profile agree
    with the brute-force reference profile."""
    sums = subset_sum_table(code)
    every = [(j, w, frozenset((j,))) for j, w in enumerate(code.column_words, 1)]
    units = [(i, 1 << (i - 1), frozenset()) for i in range(1, code.k + 1)]
    # With r=None the all-symbol cap is the locality, which no cap changes.
    locality = reference_lrc_profile(code, every, None, sums)[1]
    all_symbol = reference_lrc_profile(code, every, locality, sums)
    want = all_symbol if r is None else reference_lrc_profile(code, every, r, sums)
    assert _as_tuple(lrc_profile(code, r)) == want

    info = reference_lrc_profile(code, units, r, sums)
    prof = profile(code, r)
    assert _as_tuple(prof.all_symbol) == all_symbol
    assert prof.pir_t == info[2]
    if not code.is_systematic:
        assert prof.info_symbol is None
        with pytest.raises(NotSystematicError):
            info_lrc_profile(code, r)
        return
    assert _as_tuple(prof.info_symbol) == info
    assert _as_tuple(info_lrc_profile(code, r)) == info
    colmap = code.identity_column_map()
    strict = [(i, w, frozenset((colmap[i],))) for i, w, _ in units]
    want = reference_lrc_profile(code, strict, r, sums)
    assert _as_tuple(info_lrc_profile(code, r, include_self=False)) == want


def enumerated_lrc_profile(code: LinearCode, targets, cap: int | None) -> tuple:
    """`reference_lrc_profile` with each target's sets from its own
    `enumerate_recovery_sets` call instead of the brute-force table, and
    each list packed by an unbounded `max_disjoint_packing`: no circuit
    store, no planner and no codeword-weight bound, for codes past the
    oracles' reach."""
    symbols = []
    for index, word, excluded in targets:
        if word == 0:
            symbols.append((index, 0, None))
            continue
        target = BitVector(code.k, word)
        masks = enumerate_recovery_sets(code, target, excluded).masks
        min_size = min((m.bit_count() for m in masks), default=None)
        fit = [m for m in masks if cap is None or m.bit_count() <= cap]
        symbols.append((index, min_size, max_disjoint_packing(fit)))
    sizes = [s[1] for s in symbols]
    locality = None if None in sizes else max(sizes, default=0)
    packings = [s[2] for s in symbols if s[2] is not None]
    return cap, locality, min(packings, default=0), tuple(symbols)


@settings(max_examples=200)
@given(code=analyze_codes(), r=st.sampled_from([None, 2, 3]))
# Unit column e_1 twice, so that e_1 has two recovery sets of size 1.
@example(code=_code(4, [1, 2, 4, 8, 1, 3, 12, 15]), r=None)
@example(code=_code(4, [1, 2, 4, 8, 1, 3, 12, 15]), r=2)
def test_profile_matches_enumerated_reference(code, r):
    """`profile`, which reads its lists off the circuit store in store
    order, gives pir_t and both repair profiles of a reference built
    from per-target enumerations, on codes too large for the
    brute-force oracles."""
    every = [(j, w, (j,)) for j, w in enumerate(code.column_words, 1)]
    units = [(i, 1 << (i - 1), ()) for i in range(1, code.k + 1)]
    locality = enumerated_lrc_profile(code, every, None)[1]
    info = enumerated_lrc_profile(code, units, r)
    prof = profile(code, r)
    assert prof.pir_t == info[2]
    assert _as_tuple(prof.all_symbol) == enumerated_lrc_profile(code, every, locality)
    assert _as_tuple(prof.info_symbol) == info


@settings(max_examples=200)
@given(
    code=st.one_of(analyze_codes(), small_codes(k_max=7, n_max=17)),
    r=st.sampled_from([None, 2, 3]),
)
# Without every unit column, pir_t = 3 and batch_t = 2: the first query
# the sweep cannot serve greedily is unservable.
@example(code=_code(6, [47, 51, 39, 59, 43, 21, 3, 18, 32, 28, 17]), r=None)
def test_batch_t_matches_exact_cover_reference(code, r):
    """`profile`'s batch_t, from sweeps over orbits of symbols that
    extend the previous query's plan, on lists read off the circuit
    store, above the proven floor, equals a sweep of every query by
    plain exact cover over per-symbol enumerations, at sizes past the
    brute-force oracles' reach."""
    assert profile(code, r).batch_t == reference_batch_t(code, r)


@pytest.mark.parametrize(
    "code",
    # Column 1 of the first code and column 8 of the second are coloops.
    [_code(2, [1, 2, 2]), _code(4, [1, 2, 3, 4, 5, 6, 7, 8]), simplex(3)],
    ids=["coloop", "simplex3+coloop", "simplex3"],
)
@fill_by("dfs")
def test_unbounded_cap_sweeps_once(code, monkeypatch):
    """On the DFS fill, an unbounded cap fills the store once at size k,
    with no deepening first, and asking again searches nothing."""
    calls: list = []
    monkeypatch.setattr(recovery, "minimal_set_masks", counting_searches(calls))
    if code.pivot_basis.coloops:
        assert lrc_profile(code).cap is None
        assert_one_fill(calls, code, code.k)
        lrc_profile(code)
        assert len(calls) == len(live_columns(code))
    calls.clear()
    code = LinearCode(code.generator)  # a fresh store
    assert info_lrc_profile(code, include_self=False).cap is None
    assert_one_fill(calls, code, code.k)


INVARIANT = "a nonzero column that is not a coloop lies in a circuit"


@fill_by("dfs")
def test_deepening_stops_at_k(monkeypatch):
    """A DFS fill that finds no circuit through a column outside every
    coloop is a broken invariant: the deepening stops at size k and
    says so, where it used to loop for ever."""
    sizes: list = []

    def find_nothing(code, target, skip, max_size, max_count=None):
        sizes.append(max_size)
        return [], False

    monkeypatch.setattr(recovery, "minimal_set_masks", find_nothing)
    with pytest.raises(RuntimeError, match=INVARIANT):
        lrc_profile(simplex(3))
    assert max(sizes) == 3


@fill_by("cycles")
def test_empty_cycle_fill_is_a_broken_invariant(monkeypatch):
    """A cycle fill that finds no circuit is stored at size k, so the
    profile reads it once, refills nothing, and says the invariant is
    broken."""
    fills: list = []

    def find_nothing(n, k, cycles):
        fills.append(len(cycles))
        return ()

    calls: list = []
    monkeypatch.setattr(recovery, "_cycle_circuits", find_nothing)
    monkeypatch.setattr(recovery, "minimal_set_masks", counting_searches(calls))
    code = simplex(3)
    with pytest.raises(RuntimeError, match=INVARIANT):
        lrc_profile(code)
    assert fills == [4] and calls == []
    assert code._circuits == (3, ())


@pytest.mark.parametrize(
    "code",
    [_code(2, [1, 2, 2]), _code(4, [1, 2, 3, 4, 5, 6, 7, 8]), simplex(3), simplex(4)],
    ids=["coloop", "simplex3+coloop", "simplex3", "simplex4"],
)
@fill_by("cycles")
def test_one_cycle_fill_serves_every_request(code, monkeypatch):
    """On the cycle fill, the first request, of any size, fills the
    store once at size k from the code's fundamental cycles, and no
    profile, planner or cap searches or fills again."""
    fills: list = []
    calls: list = []
    monkeypatch.setattr(recovery, "_cycle_circuits", counting_cycle_fills(fills))
    monkeypatch.setattr(recovery, "minimal_set_masks", counting_searches(calls))
    lrc_profile(code, 1)
    assert fills == [len(code.pivot_basis.cycles)]
    assert code._circuits[0] == code.k
    for r in (None, 1, 2, 3):
        profile(code, r)
        lrc_profile(code, r)
        info_lrc_profile(code, r, include_self=False)
    assert len(fills) == 1 and calls == []
    assert_circuits_stored_once(code)


@settings(max_examples=60)
@given(
    code=st.one_of(systematic_codes(), small_codes()),
    r=st.sampled_from([None, 1, 2, 3]),
)
def test_profile_records_each_circuit_once(code, r):
    """The packings, the deepening repair profile and the strict info
    profile of one `profile` share the code's circuit store, which holds
    once each exactly the circuits of 2 to size + 1 columns."""
    profile(code, r)
    if code.is_systematic:
        info_lrc_profile(code, r, include_self=False)
    assert_circuits_stored_once(code)


def test_one_pivot_basis_per_code(monkeypatch):
    """Every recovery-set search of one code instance shares one
    elimination: the planner's symbols, the circuit store's searches,
    whose exclusions are not a prefix, at every size the packings and
    the repair profiles ask for, and the report's fresh planner with
    its cap doubling
    (e_1 of simplex(4) has 92 sets; eight copies of it need more than
    the first 64)."""
    builds: list = []
    real = PivotBasis.from_columns.__func__

    def counting(cls, words):
        builds.append(words)
        return real(cls, words)

    monkeypatch.setattr(PivotBasis, "from_columns", classmethod(counting))
    code = simplex(4)
    profile(code)
    info_lrc_profile(code, 2, include_self=False)
    queries = (Query((1, 1, 2, 2)), Query((1,) * 8))
    report = build_report(code, "simplex(4)", None, queries)
    assert all(outcome.plan is not None for outcome in report.plans)
    assert builds == [code.column_words]

"""Minimal recovery-set enumeration and exact disjoint packing."""

import random
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from batchcodes import (
    BitMatrix,
    BitVector,
    DimensionError,
    InvalidTargetError,
    LinearCode,
    Query,
    RecoverySet,
    build_report,
    enumerate_recovery_sets,
    max_disjoint_packing,
    pir_t,
    rank,
    recovery,
    report_to_dict,
    simplex,
    subcube,
)
from conftest import (
    K8_COLUMNS,
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
    systematic_codes,
)
from oracles import (
    brute_max_packing,
    brute_minimal_recovery_sets,
    reference_max_packing,
    subset_sum_table,
)


def as_tuples(enum):
    return [rs.columns for rs in enum.sets]


class TestRecoverySet:
    def test_basics(self):
        rs = RecoverySet(BitVector.unit(2, 1), (2, 3))
        assert rs.size == 2
        assert rs.column_mask() == 0b110
        assert str(rs) == "{2,3}"


class TestEnumeration:
    def test_known_small_code(self):
        code = subcube(2, 1)
        enum = enumerate_recovery_sets(code, BitVector.unit(2, 1))
        assert [str(rs) for rs in enum] == ["{1}", "{2,3}"]
        assert not enum.truncated
        assert len(enum) == 2

    def test_matches_oracle_on_corpus(self, corpus):
        rng = random.Random(21)
        for name, code in corpus:
            if code.n > 14:
                continue
            sums = subset_sum_table(code)
            targets = [1 << (i - 1) for i in range(1, code.k + 1)]
            targets.append(rng.randrange(1, 1 << code.k))
            for word in targets:
                for excluded, max_size in (
                    (frozenset(), None),
                    (frozenset(), 2),
                    (frozenset((1,)), None),
                ):
                    got = as_tuples(
                        enumerate_recovery_sets(
                            code,
                            BitVector(code.k, word),
                            excluded=excluded,
                            max_size=max_size,
                        )
                    )
                    want = brute_minimal_recovery_sets(
                        code, word, excluded, max_size, sums
                    )
                    assert got == want, (name, word, excluded, max_size)

    def test_matches_oracle_on_random_codes(self):
        rng = random.Random(22)
        for _ in range(30):
            code = random_systematic(rng, k_max=4, n_max=9)
            sums = subset_sum_table(code)
            word = rng.randrange(1, 1 << code.k)
            got = as_tuples(enumerate_recovery_sets(code, BitVector(code.k, word)))
            assert got == brute_minimal_recovery_sets(code, word, sums=sums)

    def test_lexicographic_order_and_minimality(self, corpus):
        for name, code in corpus:
            for i in range(1, code.k + 1):
                enum = enumerate_recovery_sets(code, BitVector.unit(code.k, i))
                tuples = as_tuples(enum)
                assert tuples == sorted(tuples), name
                masks = [rs.column_mask() for rs in enum]
                for a in masks:
                    for b in masks:
                        assert not (a != b and a & b == a), name

    def test_truncation_is_exact(self):
        code = simplex(3)
        full = as_tuples(enumerate_recovery_sets(code, BitVector.unit(3, 1)))
        total = len(full)
        assert total > 2
        for cap in range(1, total + 1):
            enum = enumerate_recovery_sets(
                code, BitVector.unit(3, 1), max_count=cap
            )
            assert as_tuples(enum) == full[:cap]
            assert enum.truncated == (cap < total)

    def test_zero_columns_never_used(self):
        code = LinearCode.from_rows([[1, 0, 0], [0, 1, 0]])
        enum = enumerate_recovery_sets(code, BitVector.unit(2, 2))
        assert as_tuples(enum) == [(2,)]

    def test_set_sizes_never_exceed_k(self, corpus):
        # Minimal sets have independent columns, so at most k of them.
        for name, code in corpus:
            enum = enumerate_recovery_sets(code, BitVector.unit(code.k, 1))
            assert all(rs.size <= code.k for rs in enum), name

    def test_validation(self):
        code = subcube(2, 1)
        with pytest.raises(InvalidTargetError):
            enumerate_recovery_sets(code, BitVector.zero(2))
        with pytest.raises(DimensionError):
            enumerate_recovery_sets(code, BitVector.unit(3, 1))
        with pytest.raises(DimensionError):
            enumerate_recovery_sets(code, BitVector.unit(2, 1), excluded=(4,))
        for bad in (0, 1.5, 2.5, "2"):
            with pytest.raises(ValueError):
                enumerate_recovery_sets(code, BitVector.unit(2, 1), max_size=bad)
            with pytest.raises(ValueError):
                enumerate_recovery_sets(code, BitVector.unit(2, 1), max_count=bad)


def _code(k: int, columns: list[int]) -> LinearCode:
    return LinearCode(column_matrix(k, columns))


@st.composite
def enumeration_calls(draw):
    """A code with a nonzero target, possibly outside the span of the
    allowed columns, an excluded set, and both caps."""
    code = draw(small_codes())
    word = draw(st.integers(1, (1 << code.k) - 1))
    excluded = draw(st.frozensets(st.integers(1, code.n)))
    max_size = draw(st.sampled_from([None, *range(1, code.k + 1)]))
    max_count = draw(st.sampled_from([None, 1, 2, 3, 4]))
    return code, word, excluded, max_size, max_count


@settings(max_examples=200)
@given(call=enumeration_calls())
# Columns equal to the last residual lie both before and after the path.
@example(call=(_code(2, [1, 2, 1, 3, 2]), 3, frozenset(), None, None))
# After the path {1,2}, the residual is column 1 again: {1,2,3} sums to
# the target but is not minimal.
@example(call=(_code(3, [1, 2, 1, 4]), 2, frozenset(), 3, None))
# k=1 with a zero column and an excluded column, truncated after two
# of three sets.
@example(call=(_code(1, [1, 0, 1, 1]), 1, frozenset((2,)), 1, 2))
# Target outside the span of the allowed columns.
@example(call=(_code(3, [1, 2, 4, 3]), 4, frozenset((3,)), None, 1))
def test_matches_oracle_prefix(call):
    """The sets are a prefix of the brute-force minimal sets in
    lexicographic order, and `truncated` means the oracle has more."""
    code, word, excluded, max_size, max_count = call
    enum = enumerate_recovery_sets(
        code,
        BitVector(code.k, word),
        excluded=excluded,
        max_size=max_size,
        max_count=max_count,
    )
    want = brute_minimal_recovery_sets(code, word, excluded, max_size)
    got = as_tuples(enum)
    assert got == want[:max_count]
    assert enum.truncated == (len(want) > len(got))


@st.composite
def warm_code_sessions(draw):
    """One code, a sequence of enumeration calls on it (targets,
    excluded sets and both caps mixed), and an analysis to run after
    them: a cap and a few queries."""
    code = draw(small_codes())
    calls = draw(
        st.lists(
            st.tuples(
                st.integers(1, (1 << code.k) - 1),
                st.frozensets(st.integers(1, code.n)),
                st.sampled_from([None, *range(1, code.k + 1)]),
                st.sampled_from([None, 1, 2, 3, 4]),
            ),
            min_size=1,
            max_size=8,
        )
    )
    r_cap = draw(st.sampled_from([None, 1, 2, 3]))
    queries = draw(
        st.lists(
            st.lists(st.integers(1, code.k), min_size=1, max_size=3),
            max_size=3,
        )
    )
    return code, calls, r_cap, tuple(Query(tuple(q)) for q in queries)


@settings(max_examples=100)
@given(session=warm_code_sessions())
def test_warm_code_matches_oracle(session):
    """Every call on one code instance runs on its one cached pivot
    basis. Each call still equals the brute-force sets, so no earlier
    call's exclusions or caps leak into a later one, and an analysis of
    the warm instance renders the same report as one of a fresh copy."""
    code, calls, r_cap, queries = session
    sums = subset_sum_table(code)
    for word, excluded, max_size, max_count in calls:
        enum = enumerate_recovery_sets(
            code,
            BitVector(code.k, word),
            excluded=excluded,
            max_size=max_size,
            max_count=max_count,
        )
        want = brute_minimal_recovery_sets(code, word, excluded, max_size, sums)
        assert as_tuples(enum) == want[:max_count]
        assert enum.truncated == (len(want) > len(enum))
        assert list(enum.masks) == [rs.column_mask() for rs in enum.sets]
        assert len(enum) == len(enum.sets)
    warm = report_to_dict(build_report(code, "code", r_cap, queries))
    fresh_code = LinearCode(code.generator)
    fresh = report_to_dict(build_report(fresh_code, "code", r_cap, queries))
    assert warm == fresh


@settings(max_examples=300)
@given(data=st.data(), n=st.integers(1, 10))
def test_packing_matches_oracle(data, n):
    """The exact packing number. Masks are nonempty, as recovery sets
    are; the oracle would count an empty one as a set."""
    masks = data.draw(st.lists(st.integers(1, (1 << n) - 1), max_size=14))
    assert max_disjoint_packing(masks) == brute_max_packing(masks)


@st.composite
def packing_lists(draw):
    """Up to 200 nonempty column masks over up to 24 columns, each of at
    least a quarter of the columns, so that both searches stay quick."""
    n = draw(st.integers(1, 24))
    columns = st.sets(st.integers(0, n - 1), min_size=max(1, n // 4))
    family = draw(st.lists(columns, max_size=200))
    return [sum(1 << c for c in cols) for cols in family]


@st.composite
def disjoint_lists(draw):
    """Up to 24 pairwise-disjoint nonempty column masks, in random order:
    the greedy packing takes every set and settles the list."""
    columns = draw(st.permutations(range(draw(st.integers(1, 24)))))
    cuts = sorted(draw(st.sets(st.integers(0, len(columns)))) | {0, len(columns)})
    masks = [sum(1 << c for c in columns[a:b]) for a, b in zip(cuts, cuts[1:])]
    return draw(st.permutations(masks))


@st.composite
def greedy_short_lists(draw):
    """Lists whose size-first greedy packing is half the optimum, so
    the search must run: per gadget, on four fresh columns a, b, c, d,
    the pairs {a,b}, {a,c} and {b,d} in that order. The greedy takes
    {a,b} and then neither other pair; the optimum takes both."""
    gadgets = draw(st.integers(1, 6))
    columns = draw(st.permutations(range(4 * gadgets)))
    masks = []
    for g in range(gadgets):
        a, b, c, d = (1 << col for col in columns[4 * g : 4 * g + 4])
        masks += [a | b, a | c, b | d]
    return masks


# The uncapped list of symbol 1 of a k=8, n=24 code: 1517 sets.
K8_SYMBOL_1 = list(
    enumerate_recovery_sets(
        LinearCode(column_matrix(8, K8_COLUMNS)), BitVector.unit(8, 1)
    ).masks
)


@settings(max_examples=90)
@given(masks=packing_lists() | disjoint_lists() | greedy_short_lists())
@example(masks=K8_SYMBOL_1)
def test_packing_matches_reference(masks):
    """The bitset search against the list-based one, on lists far too
    long for the brute-force oracle, on lists the greedy exit settles,
    and on lists where the search must beat the greedy packing."""
    assert max_disjoint_packing(masks) == reference_max_packing(masks)


@settings(max_examples=120)
@given(
    code=systematic_codes() | small_codes(),
    r=st.sampled_from([None, 1, 2, 3]),
)
# At cap 3 the size-first greedy packing leaves two lists one short of
# their bound, which is their optimum, so the search is what reaches
# it: e_2 packs 3 sets and the sets of column 4 that avoid it pack 2.
@example(code=_code(4, [8, 11, 12, 2, 4, 10, 1]), r=3)
def test_packing_bounds_are_sound(code, r):
    """Every e_i list and every column list (the sets avoiding the
    column) packs within its codeword-weight bound, and a packing
    search given any bound at or above the optimum returns the
    optimum."""
    units, columns = code.packing_bounds
    assert [b is None for b in columns] == [not w for w in code.column_words]
    lists = [
        (enumerate_recovery_sets(code, BitVector.unit(code.k, i), max_size=r), units[i - 1])
        for i in range(1, code.k + 1)
    ] + [
        (enumerate_recovery_sets(code, code.column(j), excluded=[j], max_size=r), bound)
        for j, bound in enumerate(columns, 1)
        if bound is not None
    ]
    for enum, bound in lists:
        masks = list(enum.masks)
        best = brute_max_packing(masks)
        assert best <= bound, (enum.target, bound)
        assert reference_max_packing(masks) == best
        for b in range(best, bound + 2):
            assert max_disjoint_packing(masks, b) == best, (enum.target, b)


@settings(max_examples=100)
@given(st.lists(st.integers(0, (1 << 12) - 1), max_size=20))
def test_conflict_bitsets(masks):
    """Bit i of touch[c] is set iff masks[i] has column c + 1, and bit j
    of meets[i] iff masks[i] and masks[j] share a column."""
    touch, meets = recovery._conflict_bitsets(masks)
    assert len(touch) == max(masks, default=0).bit_length()
    assert len(meets) == len(masks)
    for i, mask in enumerate(masks):
        for c, holders in enumerate(touch):
            assert holders >> i & 1 == mask >> c & 1
        for j, other in enumerate(masks):
            assert meets[i] >> j & 1 == bool(mask & other)
    for holders in touch:
        assert holders < 1 << len(masks)


class TestMaxDisjointPacking:
    def test_known_values(self):
        assert max_disjoint_packing([]) == 0
        assert max_disjoint_packing([0b1, 0b10, 0b100]) == 3
        assert max_disjoint_packing([0b11, 0b110, 0b101]) == 1
        # A size-first greedy takes {1}, skips {1,2} and takes {2,3}.
        assert max_disjoint_packing([0b001, 0b110, 0b011]) == 2
        # The greedy takes {1,2} and is blocked; the exact answer pairs
        # {1,3} with {2,4}.
        assert max_disjoint_packing([0b0011, 0b0101, 0b1010]) == 2
        assert max_disjoint_packing([0, 0b1]) == 1

    def test_greedy_exit_builds_no_bitsets(self, monkeypatch):
        """The five 3684-set lists of uncapped pir_t(simplex(5)) are
        settled by the greedy packing and the root cut, before any
        column bitset is built; a list whose greedy packing falls short
        builds one."""
        built = []
        real = recovery._touch

        def counting(masks):
            built.append(len(masks))
            return real(masks)

        monkeypatch.setattr(recovery, "_touch", counting)
        assert pir_t(simplex(5)) == 16
        assert built == []
        assert max_disjoint_packing([0b0011, 0b0101, 0b1010]) == 2
        assert built == [3]

    def test_matches_oracle_on_random_families(self):
        rng = random.Random(23)
        for _ in range(60):
            n = rng.randint(1, 9)
            count = rng.randint(1, 10)
            masks = [rng.randrange(1, 1 << n) for _ in range(count)]
            assert max_disjoint_packing(masks) == brute_max_packing(masks)

    def test_matches_oracle_on_recovery_sets(self, corpus):
        # The unpruned oracle recursion needs small set families.
        for name, code in corpus:
            if code.n > 10:
                continue
            for i in range(1, code.k + 1):
                enum = enumerate_recovery_sets(code, BitVector.unit(code.k, i))
                masks = [rs.column_mask() for rs in enum]
                assert max_disjoint_packing(masks) == brute_max_packing(masks), name


@st.composite
def store_requests(draw):
    """A small code and four requests to its circuit store, one per cap
    in random order. Each names a random list of columns, zero columns
    and coloops included, and the search (counted from 1; 0 or past the
    last: none) at which a first try of the request fails."""
    code = draw(small_codes())
    columns = st.lists(st.integers(1, code.n), min_size=1, unique=True)
    caps = draw(st.permutations([None, 1, 2, 3]))
    return code, [(draw(columns), cap, draw(st.integers(0, code.n))) for cap in caps]


def failing_calls(real, fail_at: int):
    """Stand-in for the function `real` whose fail_at-th call raises."""
    calls: list = []

    def failing(*args):
        calls.append(args)
        if len(calls) == fail_at:
            raise RuntimeError("search cut short")
        return real(*args)

    return failing


def failing_searches(fail_at: int):
    """Stand-in for `recovery.minimal_set_masks` whose fail_at-th call
    raises."""
    return failing_calls(recovery.minimal_set_masks, fail_at)


def assert_brute_answers(code, columns, cap, found, sums):
    """Each column's answer is its brute-force minimal recovery sets
    avoiding it, up to the cap; a zero column has none."""
    for c, masks in zip(columns, found):
        word = code.column_words[c - 1]
        want = brute_minimal_recovery_sets(code, word, frozenset((c,)), cap, sums) if word else []
        want_masks = sorted(sum(1 << (j - 1) for j in s) for s in want)
        assert sorted(masks) == want_masks, (columns, cap, c)


@settings(max_examples=150)
@given(case=store_requests())
# Identity columns not at the front; a duplicated identity column; a
# zero column; column 4 outside the span of the others (a coloop).
@example(case=(_code(3, [3, 5, 1, 6, 2, 4, 7]), [([1, 3, 5, 7], 2, 3), ([3, 2, 6], None, 0)]))
@example(case=(_code(2, [3, 1, 2, 1]), [([2, 4], 1, 0), ([1, 2, 3, 4], 2, 2)]))
@example(case=(_code(2, [1, 0, 2, 3]), [([4, 1, 2], 2, 1), ([3], 1, 0), ([1, 3, 4, 2], None, 3)]))
@example(case=(_code(3, [1, 2, 3, 4]), [([1, 2, 3, 4], None, 2), ([4, 2], 1, 0)]))
@fill_by("dfs")
def test_circuit_store_lists_each_circuit_once(case):
    """On the DFS fill: the coloops are the columns whose deletion
    drops the rank. Whatever the order of the requests and their caps,
    each answer is the brute-force one; only a request above the
    store's size searches, and it fills the store with one search per
    live column, in index order; a fill cut short leaves the store as
    it was; and the store then holds, once each, exactly the
    brute-force circuits of 2 to size + 1 columns for the largest size
    asked, so the same requests in the reverse order leave the same
    store."""
    code, requests = case
    sums = subset_sum_table(code)
    coloops = code.pivot_basis.coloops
    for j in range(1, code.n + 1):
        rows = tuple(w & ~(1 << (j - 1)) for w in code.generator.row_words)
        dropped = rank(BitMatrix(code.n, rows)) < code.k
        assert bool(coloops >> (j - 1) & 1) == dropped, j
    live = len(live_columns(code))
    size = 0
    for columns, cap, fail_at in requests:
        before = code._circuits
        wanted = code.k if cap is None else min(cap, code.k)
        if wanted > size and 1 <= fail_at <= live:
            with patch.object(recovery, "minimal_set_masks", failing_searches(fail_at)):
                with pytest.raises(RuntimeError, match="search cut short"):
                    recovery.circuit_sets(code, columns, cap)
            assert code._circuits == before
        calls: list = []
        with patch.object(recovery, "minimal_set_masks", counting_searches(calls)):
            found = recovery.circuit_sets(code, columns, cap)
        if wanted > size:
            size = wanted
            assert_one_fill(calls, code, size)
        else:
            assert calls == [] and code._circuits == before
        assert code._circuits[0] == size
        assert_brute_answers(code, columns, cap, found, sums)
        assert_circuits_stored_once(code)
    reordered = LinearCode(code.generator)
    for columns, cap, _ in reversed(requests):
        recovery.circuit_sets(reordered, columns, cap)
    assert reordered._circuits == code._circuits


@settings(max_examples=100)
@given(case=store_requests())
# A walk of the 5 fundamental cycles cut short at the third, then
# requests at every cap.
@example(case=(_code(3, [1, 2, 3, 4, 5, 6, 7, 3]), [([3, 1, 4, 8], 1, 3), ([2], 3, 0), ([1, 5], None, 0)]))
# No cycle: the store is empty at size k.
@example(case=(_code(3, [1, 0, 2, 4, 0]), [([1, 2, 3], 2, 1), ([5], None, 0)]))
@fill_by("cycles")
def test_cycle_filled_store_lists_each_circuit_once(case):
    """On the cycle fill, the first request, whatever its cap, fills the
    store at size k in one walk of the cycle space, and no later
    request fills or searches again; a walk cut short leaves the store
    as it was; each answer is the brute-force one; and the store holds,
    once each, exactly the brute-force circuits of 2 to k + 1 columns."""
    code, requests = case
    sums = subset_sum_table(code)
    m = len(code.pivot_basis.cycles)
    _, first_cap, fail_at = requests[0]
    if 1 <= fail_at <= m:
        # The walk reverses each fundamental cycle once as it doubles the table.
        failing = failing_calls(recovery._reverse_bits, fail_at)
        with patch.object(recovery, "_reverse_bits", failing):
            with pytest.raises(RuntimeError, match="search cut short"):
                recovery.circuit_sets(code, requests[0][0], first_cap)
        assert code._circuits == (0, ())
    for step, (columns, cap, _) in enumerate(requests):
        fills: list = []
        calls: list = []
        with patch.object(recovery, "_cycle_circuits", counting_cycle_fills(fills)):
            with patch.object(recovery, "minimal_set_masks", counting_searches(calls)):
                found = recovery.circuit_sets(code, columns, cap)
        assert fills == ([m] if step == 0 else []) and calls == []
        assert code._circuits[0] == code.k
        assert_brute_answers(code, columns, cap, found, sums)
    assert_circuits_stored_once(code)


@pytest.mark.parametrize("fail_at", range(1, 9))
@fill_by("dfs")
def test_interrupted_request_leaves_the_store_as_it_was(fail_at):
    """A search that raises partway through a DFS fill (here the
    fail_at-th of its 8: every column of the code lies in some circuit)
    leaves the code's store as it was, so the same request with the
    real search, and every later one, returns the brute-force lists."""
    code = _code(3, [1, 2, 3, 4, 5, 6, 7, 3])
    recovery.circuit_sets(code, [1, 2], 1)
    before = code._circuits
    with patch.object(recovery, "minimal_set_masks", failing_searches(fail_at)):
        with pytest.raises(RuntimeError, match="search cut short"):
            recovery.circuit_sets(code, [3, 1, 4, 8], 3)
    assert code._circuits == before
    sums = subset_sum_table(code)
    for columns, cap in [([3, 1, 4, 8], 3), (list(range(1, code.n + 1)), None)]:
        found = recovery.circuit_sets(code, columns, cap)
        assert_brute_answers(code, columns, cap, found, sums)
    assert_circuits_stored_once(code)


def _repeats(m: int) -> LinearCode:
    """k = 4 with every unit column and m more copies of the all-ones
    column: m fundamental cycles."""
    return _code(4, [1, 2, 4, 8] + [15] * m)


# simplex(4) and one more all-ones column: 12 fundamental cycles.
SIMPLEX4_PLUS = _code(4, list(range(1, 16)) + [15])


@settings(max_examples=150)
@given(code=st.one_of(analyze_codes(), small_codes()))
@example(code=_code(3, [1, 0, 2, 4, 0]))  # m = 0: an empty store
@example(code=SIMPLEX4_PLUS)  # m = 12, the limit for a request of size k
@example(code=_code(2, [1, 2, 1, 3, 0, 3]))  # a zero column and repeats
def test_cycle_fill_matches_dfs_fill(code):
    """The walk of the cycle space and the per-column searches, each
    asked for every size, store the same tuple: the same circuits in
    the same order, by size and then lexicographic. Past n = 10 each is
    the other's oracle."""
    stores = []
    for path in ("cycles", "dfs"):
        fresh = LinearCode(code.generator)
        with fill_by(path):
            recovery.circuit_sets(fresh, [1], None)
        stores.append(fresh._circuits)
    assert stores[0] == stores[1]


@pytest.mark.parametrize(
    "code, size, path",
    [
        (_repeats(recovery._CYCLES_ANY), 1, "cycles"),
        (_repeats(recovery._CYCLES_ANY + 1), 3, "dfs"),
        (_repeats(recovery._CYCLES_ANY + 1), None, "cycles"),
        (_repeats(recovery._CYCLES_COMPLETE), 4, "cycles"),
        (_repeats(recovery._CYCLES_COMPLETE + 1), None, "dfs"),
        (simplex(5), None, "dfs"),  # 26 fundamental cycles
    ],
    ids=["any", "any+1", "complete", "complete-limit", "complete+1", "simplex5"],
)
def test_fill_choice(code, size, path, monkeypatch):
    """The store fills from the cycle space for a request of any size
    up to _CYCLES_ANY fundamental cycles and for a request of size k up
    to _CYCLES_COMPLETE; otherwise by one search per live column at the
    size asked."""
    fills: list = []
    calls: list = []
    monkeypatch.setattr(recovery, "_cycle_circuits", counting_cycle_fills(fills))
    monkeypatch.setattr(recovery, "minimal_set_masks", counting_searches(calls))
    recovery.circuit_sets(code, [1], size)
    if path == "cycles":
        assert fills == [len(code.pivot_basis.cycles)] and calls == []
        assert code._circuits[0] == code.k
    else:
        assert fills == []
        assert_one_fill(calls, code, code.k if size is None else size)


@st.composite
def relabelings(draw):
    """A code with k <= 7, an invertible row transform as a list of row
    additions, and a column permutation."""
    code = draw(st.one_of(analyze_codes(), small_codes()))
    rows = st.integers(0, code.k - 1)
    additions = draw(st.lists(st.tuples(rows, rows), max_size=12))
    return code, additions, draw(st.permutations(range(code.n)))


@settings(max_examples=60)
@given(case=relabelings(), path=st.sampled_from(["cycles", "dfs"]))
def test_store_follows_row_operations_and_column_permutations(case, path):
    """An invertible row transform keeps the column matroid, so it
    leaves the circuit store unchanged; a column permutation maps each
    stored circuit by that permutation."""
    code, additions, perm = case
    rows = list(code.generator.row_words)
    for i, j in additions:
        if i != j:
            rows[i] ^= rows[j]
    transformed = LinearCode(BitMatrix(code.n, tuple(rows)))
    words = code.column_words
    permuted = _code(code.k, [words[perm[j]] for j in range(code.n)])
    with fill_by(path):
        for c in (code, transformed, permuted):
            recovery.circuit_sets(c, [1], None)
    assert transformed._circuits == code._circuits
    moved = {
        sum(1 << j for j in range(code.n) if m >> perm[j] & 1)
        for m in code._circuits[1]
    }
    assert set(permuted._circuits[1]) == moved

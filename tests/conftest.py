"""Shared fixtures: a wall-clock limit on every test, the hypothesis
settings profiles, the named-code corpus, a random code generator,
hypothesis strategies for small generator matrices and for codes like
the analyze benchmark's, counting stand-ins for the recovery-set search
and the cycle fill, a switch between the circuit store's two fills,
and checks of a code's circuit store."""

from __future__ import annotations

import random
import signal
from unittest.mock import patch

import pytest
from hypothesis import assume, settings
from hypothesis import strategies as st

from batchcodes import recovery
from batchcodes import (
    BitMatrix,
    LinearCode,
    blockwise_subcube_allones,
    identity,
    paired_parity,
    rank,
    simplex,
    subcube,
    triplicated_parity,
)
from oracles import brute_circuits


# Seconds any one test may run; the slowest takes about 1.5 s. A hang
# then fails its test with a traceback, and pytest's
# `faulthandler_timeout` (pyproject.toml) dumps every thread's stack if
# the alarm cannot interrupt it.
TEST_SECONDS = 60


class OutOfTime(BaseException):
    """A test ran past TEST_SECONDS. Not an Exception, so that neither
    the code under test nor hypothesis (which would shrink, rerunning
    the hang with no alarm left) catches it."""


def _out_of_time(signum, frame):
    raise OutOfTime(f"test ran past its {TEST_SECONDS} s limit")


@pytest.fixture(autouse=True)
def wall_clock_limit():
    previous = signal.signal(signal.SIGALRM, _out_of_time)
    signal.setitimer(signal.ITIMER_REAL, TEST_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# Every property test runs the same derandomized examples on every run,
# with no deadline and no example database; its own `@settings` sets
# only `max_examples`. `--hypothesis-profile=fresh-seed` with
# `--hypothesis-seed=N` draws other examples, reproducibly from N.
settings.register_profile("derandomized", deadline=None, derandomize=True, database=None)
settings.register_profile(
    "fresh-seed", settings.get_profile("derandomized"), derandomize=False
)
settings.load_profile("derandomized")


def build_corpus() -> list[tuple[str, LinearCode]]:
    return [
        ("identity(2)", identity(2)),
        ("identity(3)", identity(3)),
        ("identity(4)", identity(4)),
        ("subcube(2,1)", subcube(2, 1)),
        ("subcube(3,1)", subcube(3, 1)),
        ("subcube(2,2)", subcube(2, 2)),
        ("simplex(2)", simplex(2)),
        ("simplex(3)", simplex(3)),
        ("simplex(4)", simplex(4)),
        ("triplicated_parity(3)", triplicated_parity(3)),
        ("triplicated_parity(4)", triplicated_parity(4)),
        ("triplicated_parity(5)", triplicated_parity(5)),
        ("blockwise_subcube_allones(1)", blockwise_subcube_allones(1)),
        ("blockwise_subcube_allones(2)", blockwise_subcube_allones(2)),
        ("blockwise_subcube_allones(3)", blockwise_subcube_allones(3)),
        ("paired_parity(2)", paired_parity(2)),
        ("paired_parity(3)", paired_parity(3)),
        ("paired_parity(4)", paired_parity(4)),
        ("paired_parity(5)", paired_parity(5)),
        ("paired_parity(6)", paired_parity(6)),
    ]


@pytest.fixture(scope="session")
def corpus() -> list[tuple[str, LinearCode]]:
    return build_corpus()


def random_systematic(rng: random.Random, k_max: int = 5, n_max: int = 10) -> LinearCode:
    """Random [I | A] code; A columns may be anything, including zero."""
    k = rng.randint(2, k_max)
    n = rng.randint(k, n_max)
    words = []
    for i in range(k):
        word = 1 << i
        for j in range(k, n):
            word |= rng.getrandbits(1) << j
        words.append(word)
    return LinearCode(BitMatrix(n, tuple(words)))


def column_matrix(k: int, columns: list[int]) -> BitMatrix:
    """k x n matrix whose column j has the bits of columns[j - 1]."""
    rows = tuple(
        sum(((col >> i) & 1) << j for j, col in enumerate(columns))
        for i in range(k)
    )
    return BitMatrix(len(columns), rows)


# Columns of a systematic k=8, n=24 code whose uncapped symbol lists
# hold 1287-1826 recovery sets each, far past the brute-force oracles.
K8_COLUMNS = [
    160, 2, 4, 154, 33, 8, 9, 34, 128, 207, 94, 32,
    64, 176, 226, 136, 112, 85, 16, 246, 145, 116, 1, 170,
]


@st.composite
def small_codes(draw, k_max: int = 4, n_max: int = 9):
    """Full-rank generator matrices with k <= k_max and n <= n_max, not
    necessarily systematic; zero and repeated columns are allowed. The
    defaults keep them within reach of the brute-force oracles."""
    k = draw(st.integers(1, k_max))
    n = draw(st.integers(k, n_max))
    columns = draw(
        st.lists(st.integers(0, (1 << k) - 1), min_size=n, max_size=n)
    )
    matrix = column_matrix(k, columns)
    assume(rank(matrix) == k)
    return LinearCode(matrix)


@st.composite
def symmetric_codes(draw):
    """Full-rank generator matrices with k <= 4 and n <= 10 whose column
    multiset is closed under a random permutation of the symbols, so
    that many of them have interchangeable symbols."""
    k = draw(st.integers(1, 4))
    perm = draw(st.permutations(range(k)))
    base = draw(
        st.lists(st.integers(0, (1 << k) - 1), min_size=1, max_size=4)
    )
    columns = []
    for col in base:
        image = col
        while True:
            columns.append(image)
            image = sum(((image >> i) & 1) << perm[i] for i in range(k))
            if image == col:
                break
    assume(len(columns) <= 10)
    matrix = column_matrix(k, columns)
    assume(rank(matrix) == k)
    return LinearCode(matrix)


@st.composite
def systematic_codes(draw, k_max: int = 4, n_max: int = 10):
    """Generator matrices holding every unit column, not necessarily at
    the front: the identity columns sit at random positions among the
    other columns, which may be zero, repeat each other, or repeat a
    unit column."""
    k = draw(st.integers(1, k_max))
    extra = draw(
        st.lists(st.integers(0, (1 << k) - 1), max_size=n_max - k)
    )
    columns = draw(st.permutations([1 << i for i in range(k)] + extra))
    return LinearCode(column_matrix(k, columns))


@st.composite
def analyze_codes(draw):
    """Codes like the analyze benchmark's random ones: every unit column,
    k from 4 to 7 and n <= 2k + 3, the unit columns at random positions
    among others that may be zero or repeat any column."""
    k = draw(st.integers(4, 7))
    extra = draw(st.lists(st.integers(0, (1 << k) - 1), max_size=k + 3))
    columns = draw(st.permutations([1 << i for i in range(k)] + extra))
    return LinearCode(column_matrix(k, columns))


def fill_by(path: str):
    """Context manager, or test decorator, under which every circuit
    store fills by `path`: "dfs" for the per-column searches at the
    size asked, "cycles" for the cycle space at size k (on codes with at
    most 2^16 cycles)."""
    limit = {"dfs": -1, "cycles": 16}[path]
    return patch.multiple(recovery, _CYCLES_ANY=limit, _CYCLES_COMPLETE=limit)


def counting_cycle_fills(calls: list):
    """Stand-in for `recovery._cycle_circuits` that records, per call,
    the number of fundamental cycles it was given."""
    real = recovery._cycle_circuits

    def counting(n, k, cycles):
        calls.append(len(cycles))
        return real(n, k, cycles)

    return counting


def counting_searches(calls: list):
    """Stand-in for `recovery.minimal_set_masks` that records, per call,
    the skip mask and size cap it was given and the number of sets it
    found."""
    real = recovery.minimal_set_masks

    def counting(code, target, skip, max_size, max_count=None):
        masks, truncated = real(code, target, skip, max_size, max_count)
        calls.append((skip, max_size, len(masks)))
        return masks, truncated

    return counting


def live_columns(code: LinearCode) -> list[int]:
    """The 1-indexed columns that lie in some circuit: nonzero and not
    coloops."""
    coloops = code.pivot_basis.coloops
    return [
        j for j, w in enumerate(code.column_words, 1)
        if w and not coloops >> (j - 1) & 1
    ]


def assert_one_fill(calls: list, code: LinearCode, size: int) -> None:
    """The searches `counting_searches` recorded are one fill of the
    code's circuit store at `size`: one per live column, in index
    order, each avoiding that column and the live columns before it,
    and together finding every stored circuit."""
    skips, skip = [], 0
    for j in live_columns(code):
        skip |= 1 << (j - 1)
        skips.append(skip)
    assert [call[:2] for call in calls] == [(s, size) for s in skips]
    assert sum(found for _, _, found in calls) == len(code._circuits[1])


def assert_circuits_stored_once(code: LinearCode) -> None:
    """The code's circuit store, `(size, circuits)`, holds once each
    exactly the brute-force circuits of 2 to size + 1 columns."""
    size, circuits = code._circuits
    assert len(set(circuits)) == len(circuits)
    assert sorted(circuits) == sorted(brute_circuits(code, size + 1))

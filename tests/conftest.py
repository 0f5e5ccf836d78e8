"""Shared fixtures: the named-code corpus, a random code generator,
hypothesis strategies for small generator matrices, and a counting
stand-in for the recovery-set search."""

from __future__ import annotations

import random

import pytest
from hypothesis import assume
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


def counting_searches(calls: list):
    """Stand-in for `recovery.minimal_set_masks` that records, per call,
    the size cap it was given and the number of sets it found."""
    real = recovery.minimal_set_masks

    def counting(code, target, skip, max_size, max_count=None):
        masks, truncated = real(code, target, skip, max_size, max_count)
        calls.append((max_size, len(masks)))
        return masks, truncated

    return counting

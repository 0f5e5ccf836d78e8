"""One integer rule for every size, count, index, bit and word.

Each public entry point that takes an integer argument is tried with
values that are not integers (1.5, an integral float, a digit string,
None) and with the integer one past each of its limits. Each must raise
its contract's class with a message naming the parameter, never a bare
TypeError: ValueError for parameters, guards and bits, DimensionError
for lengths, words, positions, rows and columns, InvalidQueryError for
query and symbol indices.
"""

import re

import pytest

from batchcodes import (
    BitMatrix,
    BitVector,
    DimensionError,
    InvalidQueryError,
    Query,
    QueryPlanner,
    corollary_check,
    enumerate_recovery_sets,
    errors,
    identity,
    min_length,
    pir_t,
    reverse_bits,
    simplex,
)

# simplex(2): k = 2, n = 3.
CODE = simplex(2)
MATRIX = BitMatrix(2, (0b01, 0b11))
E1 = BitVector.unit(2, 1)

# (name in the message, call, a valid value, least, most, class)
ENTRY_POINTS = [
    ("vector length", lambda v: BitVector(v, 0), 2, 1, None, DimensionError),
    ("vector length", lambda v: BitVector.zero(v), 2, 1, None, DimensionError),
    ("vector length", lambda v: BitVector.unit(v, 1), 2, 1, None, DimensionError),
    ("word", lambda v: BitVector(2, v), 2, 0, 3, DimensionError),
    ("position", lambda v: BitVector.unit(2, v), 2, 1, 2, DimensionError),
    ("position", lambda v: E1.bit(v), 2, 1, 2, DimensionError),
    ("bit", lambda v: BitVector.from_bits([v, 0]), 1, 0, 1, ValueError),
    ("column count", lambda v: BitMatrix(v, (1,)), 2, 1, None, DimensionError),
    ("row 1 word", lambda v: BitMatrix(2, (v,)), 2, 0, 3, DimensionError),
    ("row", lambda v: MATRIX.entry(v, 1), 2, 1, 2, DimensionError),
    ("column", lambda v: MATRIX.entry(1, v), 2, 1, 2, DimensionError),
    ("row", lambda v: MATRIX.row(v), 2, 1, 2, DimensionError),
    ("column", lambda v: MATRIX.column_word(v), 2, 1, 2, DimensionError),
    ("column", lambda v: MATRIX.column(v), 2, 1, 2, DimensionError),
    ("column", lambda v: CODE.column(v), 2, 1, 3, DimensionError),
    ("max_k", lambda v: simplex(2).min_distance(max_k=v), 2, 1, None, ValueError),
    (
        "excluded column",
        lambda v: enumerate_recovery_sets(CODE, E1, excluded=[v]),
        2, 1, 3, DimensionError,
    ),
    (
        "max_size",
        lambda v: enumerate_recovery_sets(CODE, E1, max_size=v),
        2, 1, None, ValueError,
    ),
    (
        "max_count",
        lambda v: enumerate_recovery_sets(CODE, E1, max_count=v),
        2, 1, None, ValueError,
    ),
    ("query index", lambda v: Query((1, v)), 2, 1, None, InvalidQueryError),
    (
        "query index",
        lambda v: QueryPlanner(CODE).serve([v]),
        2, 1, 2, InvalidQueryError,
    ),
    (
        "symbol",
        lambda v: QueryPlanner(CODE).candidates(v),
        2, 1, 2, InvalidQueryError,
    ),
    (
        "symbol",
        lambda v: QueryPlanner(CODE).max_packing(v),
        2, 1, 2, InvalidQueryError,
    ),
    ("r", lambda v: QueryPlanner(CODE, v), 2, 1, None, ValueError),
    ("t", lambda v: QueryPlanner(CODE).servable_all(v), 2, 1, None, ValueError),
    ("r", lambda v: pir_t(CODE, v), 2, 1, None, ValueError),
    ("t", lambda v: corollary_check(CODE, v), 2, 1, None, ValueError),
    ("k", lambda v: identity(v), 2, 1, None, ValueError),
    ("k", lambda v: min_length(v, 1), 2, 1, None, ValueError),
    ("word", lambda v: reverse_bits(v, 3), 5, 0, None, DimensionError),
    ("width", lambda v: reverse_bits(5, v), 3, 1, None, DimensionError),
]


# Caps, for which None means no cap.
OPTIONAL = {"max_size", "max_count", "r"}


def _bad_values(name, valid, least, most):
    values = [1.5, 2.0, "2", float(valid), str(valid), least - 1]
    if name not in OPTIONAL:
        values.append(None)
    if most is not None:
        values.append(most + 1)
    return list(dict.fromkeys(values))


CASES = [
    pytest.param(name, call, bad, error, id=f"{i}-{name}-{bad!r}")
    for i, (name, call, valid, least, most, error) in enumerate(ENTRY_POINTS)
    for bad in _bad_values(name, valid, least, most)
]


@pytest.mark.parametrize(
    "call, valid",
    [
        pytest.param(call, valid, id=f"{i}-{name}")
        for i, (name, call, valid, *_) in enumerate(ENTRY_POINTS)
    ],
)
def test_valid_value_is_accepted(call, valid):
    call(valid)


@pytest.mark.parametrize("name, call, bad, error", CASES)
def test_bad_value_raises_the_contract_class(name, call, bad, error):
    with pytest.raises(Exception) as caught:
        call(bad)
    assert not isinstance(caught.value, TypeError)
    assert isinstance(caught.value, error), repr(caught.value)
    assert re.match(re.escape(name) + r"\b", str(caught.value)), str(caught.value)


def test_check_int_returns_exact_ints_unchanged():
    big = 10**30
    assert errors.check_int("n", big) is big
    assert errors.check_int("n", 3, most=3) == 3
    one = errors.check_int("n", True)
    assert one == 1 and type(one) is int


def test_check_int_messages():
    with pytest.raises(ValueError, match=r"^n must be an integer >= 1, got 0$"):
        errors.check_int("n", 0)
    with pytest.raises(
        DimensionError, match=r"^j must be an integer in 1\.\.3, got 4$"
    ):
        errors.check_int("j", 4, most=3, error=DimensionError)
    with pytest.raises(
        InvalidQueryError, match=r"^i must be an integer >= 1, got 2\.0$"
    ):
        errors.check_int("i", 2.0, error=InvalidQueryError)


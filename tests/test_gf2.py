"""Vectors, matrices, parsing, and LinearCode basics."""

import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from batchcodes import (
    BitMatrix,
    BitVector,
    CapacityError,
    DimensionError,
    LinearCode,
    MatrixParseError,
    RankDeficiencyError,
    format_matrix,
    parse_matrix,
    rank,
    reverse_bits,
)
from batchcodes.gf2 import _TABLE_ROWS
from conftest import column_matrix, random_systematic
from oracles import brute_min_distance, gray_min_distance


def test_reverse_bits():
    assert reverse_bits(0b001, 3) == 0b100
    assert reverse_bits(0b110, 3) == 0b011
    assert reverse_bits(0b1, 1) == 0b1
    assert reverse_bits(0, 4) == 0
    rng = random.Random(11)
    for _ in range(50):
        width = rng.randint(1, 12)
        word = rng.getrandbits(width)
        assert reverse_bits(reverse_bits(word, width), width) == word


# Rows e_i + e_n for i = 1..a + 1, where a = _TABLE_ROWS and n = a + 2.
SPIKE_ROWS = tuple(1 << _TABLE_ROWS + 1 | 1 << i for i in range(_TABLE_ROWS + 1))
SPIKED_ROW = SPIKE_ROWS[0] | SPIKE_ROWS[-1]


@st.composite
def distance_codes(draw):
    """Full-rank generators with k from 1 to _TABLE_ROWS + 4, so that
    `min_distance` tabulates all rows or leaves 1 to 4 of them to its
    Gray-code loop. The columns hold the k unit columns at random
    positions and any others, zero and repeated ones included; random
    row additions then hide the identity, so a weight-1 row or a
    weight-1 codeword may fall in either block."""
    k = draw(st.integers(1, _TABLE_ROWS + 4))
    extra = draw(st.lists(st.integers(0, (1 << k) - 1), max_size=12))
    columns = draw(st.permutations([1 << i for i in range(k)] + extra))
    rows = list(column_matrix(k, columns).row_words)
    pair = st.tuples(st.integers(0, k - 1), st.integers(0, k - 1))
    for i, j in draw(st.lists(pair, max_size=3 * k)):
        if i != j:
            rows[i] ^= rows[j]
    return LinearCode(BitMatrix(len(columns), tuple(rows)))


class TestBitVector:
    def test_from_bits_roundtrip(self):
        v = BitVector.from_bits([1, 0, 1, 1])
        assert v.length == 4
        assert v.bits() == (1, 0, 1, 1)
        assert str(v) == "1011"
        assert v.weight() == 3
        assert not v.is_zero()

    def test_unit_and_zero(self):
        e2 = BitVector.unit(3, 2)
        assert e2.bits() == (0, 1, 0)
        assert BitVector.zero(3).is_zero()
        with pytest.raises(DimensionError):
            BitVector.unit(3, 4)
        with pytest.raises(DimensionError):
            BitVector.unit(3, 0)

    def test_bit_access(self):
        v = BitVector.from_bits([0, 1, 1])
        assert [v.bit(i) for i in (1, 2, 3)] == [0, 1, 1]
        assert len(v) == 3
        with pytest.raises(DimensionError):
            v.bit(4)

    def test_xor(self):
        a = BitVector.from_bits([1, 0, 1])
        b = BitVector.from_bits([1, 1, 0])
        assert (a ^ b).bits() == (0, 1, 1)
        with pytest.raises(DimensionError):
            a ^ BitVector.from_bits([1, 1])

    def test_validation(self):
        with pytest.raises(DimensionError):
            BitVector(0, 0)
        with pytest.raises(DimensionError):
            BitVector(2, 0b100)
        with pytest.raises(ValueError):
            BitVector.from_bits([0, 2])

    @pytest.mark.parametrize("length", [0, -1, 2.5, "2", None])
    def test_length_must_be_a_positive_integer(self, length):
        message = f"vector length must be an integer >= 1, got {length!r}"
        for make in (
            lambda: BitVector(length, 0),
            lambda: BitVector.zero(length),
            lambda: BitVector.unit(length, 1),
        ):
            with pytest.raises(DimensionError, match=re.escape(message)):
                make()


class TestBitMatrix:
    def test_from_rows(self):
        m = BitMatrix.from_rows([[1, 0, 1], [0, 1, 1]])
        assert (m.k, m.n) == (2, 3)
        assert m.entry(1, 1) == 1 and m.entry(1, 2) == 0
        assert str(m.row(2)) == "011"
        assert m.column(3).bits() == (1, 1)
        assert m.column_words() == (1, 2, 3)

    def test_row_column_consistency(self):
        rng = random.Random(12)
        for _ in range(20):
            k = rng.randint(1, 6)
            n = rng.randint(1, 8)
            m = BitMatrix(n, tuple(rng.getrandbits(n) for _ in range(k)))
            for i in range(1, k + 1):
                for j in range(1, n + 1):
                    assert m.entry(i, j) == m.row(i).bit(j) == m.column(j).bit(i)

    def test_validation(self):
        with pytest.raises(DimensionError):
            BitMatrix.from_rows([])
        with pytest.raises(DimensionError):
            BitMatrix.from_rows([[1, 0], [1]])
        with pytest.raises(DimensionError):
            BitMatrix(2, (0b100,))
        with pytest.raises(DimensionError):
            BitMatrix(2, iter(()))  # no rows, though the iterator is truthy
        m = BitMatrix(2, (0b11,))
        with pytest.raises(DimensionError):
            m.entry(2, 1)
        with pytest.raises(DimensionError):
            m.column_word(3)

    @pytest.mark.parametrize("n", [0, -1, 2.5, "2", None])
    def test_column_count_must_be_a_positive_integer(self, n):
        message = f"column count must be an integer >= 1, got {n!r}"
        with pytest.raises(DimensionError, match=re.escape(message)):
            BitMatrix(n, (1,))


class TestRank:
    def test_known_values(self):
        assert rank(BitMatrix(3, (1, 2, 4))) == 3
        assert rank(BitMatrix(3, (1, 1, 1))) == 1
        assert rank(BitMatrix(3, (0b011, 0b110, 0b101))) == 2
        assert rank(BitMatrix(4, (0,))) == 0

    def test_row_operations_preserve_rank(self):
        rng = random.Random(13)
        for _ in range(30):
            k = rng.randint(2, 6)
            n = rng.randint(2, 9)
            words = [rng.getrandbits(n) for _ in range(k)]
            r = rank(BitMatrix(n, tuple(words)))
            assert r <= min(k, n)
            i, j = rng.sample(range(k), 2)
            words[i] ^= words[j]
            assert rank(BitMatrix(n, tuple(words))) == r
            words.reverse()
            assert rank(BitMatrix(n, tuple(words))) == r


class TestParseFormat:
    def test_with_header(self):
        m = parse_matrix("2 3\n101\n011\n")
        assert (m.k, m.n) == (2, 3)
        assert m.row_words == (0b101, 0b110)

    def test_headerless(self):
        m = parse_matrix("101\n011\n")
        assert (m.k, m.n) == (2, 3)

    def test_spaces_and_blank_lines(self):
        m = parse_matrix("\n2 3\n\n1 0 1\n0 1 1\n\n")
        assert (m.k, m.n) == (2, 3)

    def test_single_char_rows_not_header(self):
        # "1 1" could be a header or a width-2 row; the header reading
        # must win only when the rows that follow actually fit it.
        m = parse_matrix("1 1\n1\n")
        assert (m.k, m.n) == (1, 1)
        m = parse_matrix("1 1\n0 1\n")
        assert (m.k, m.n) == (2, 2)

    def test_tab_and_space_separated_bits(self):
        m = parse_matrix("2 4\n1\t0 1\t\t1\n 0 \t1\t0 0\t\n")
        assert (m.k, m.n) == (2, 4)
        assert m.row_words == (0b1101, 0b0010)
        assert parse_matrix("1\t1 0\n0\t0 1\n").row_words == (0b011, 0b100)

    @pytest.mark.parametrize(
        "text, line, column, char",
        [
            ("2 3\n1 0 1\n0  1 x\n", 3, 6, "x"),
            ("1 0\t 2 1\n", 1, 6, "2"),
            ("101\n \t 1_0 1\n", 2, 5, "_"),
            ("101\n0 1 -1\n", 2, 5, "-"),
            ("101\n0 1 1 \u0661\n", 2, 7, "\u0661"),
            ("101\n0 1 1\u00a0\n", 2, 6, "\u00a0"),
        ],
    )
    def test_bad_character_after_separators(self, text, line, column, char):
        # The column counts every character of the line, separators
        # included. "_", a sign and another script's digit are rejected,
        # although `int` would read them.
        with pytest.raises(MatrixParseError) as exc:
            parse_matrix(text)
        assert (exc.value.line, exc.value.column) == (line, column)
        assert repr(char) in str(exc.value)

    def test_header_row_count_mismatch(self):
        with pytest.raises(MatrixParseError):
            parse_matrix("3 3\n101\n011\n")

    def test_bad_character_position(self):
        with pytest.raises(MatrixParseError) as exc:
            parse_matrix("101\n0x1\n")
        assert exc.value.line == 2
        assert exc.value.column == 2
        # A non-ASCII digit is no header digit; the line is read as a row.
        with pytest.raises(MatrixParseError) as exc:
            parse_matrix("\u00b2 3\n101\n011\n")
        assert exc.value.line == 1
        assert exc.value.column == 1

    def test_ragged_rows(self):
        with pytest.raises(MatrixParseError):
            parse_matrix("101\n01\n")

    def test_empty(self):
        with pytest.raises(MatrixParseError):
            parse_matrix("")
        with pytest.raises(MatrixParseError):
            parse_matrix("   \n  \n")

    def test_format_roundtrip(self):
        rng = random.Random(14)
        for _ in range(20):
            k = rng.randint(1, 5)
            n = rng.randint(1, 8)
            m = BitMatrix(n, tuple(rng.getrandbits(n) for _ in range(k)))
            assert parse_matrix(format_matrix(m)) == m
            assert parse_matrix(format_matrix(m, header=False)) == m
        assert format_matrix(BitMatrix(3, (0b101,))) == "1 3\n101\n"


class TestLinearCode:
    def test_requires_full_rank(self):
        with pytest.raises(RankDeficiencyError):
            LinearCode(BitMatrix(3, (0b011, 0b110, 0b101)))

    def test_basic_parameters(self):
        code = LinearCode.from_rows([[1, 0, 1], [0, 1, 1]])
        assert (code.k, code.n) == (2, 3)
        assert code.rate.numerator == 2 and code.rate.denominator == 3
        assert code.column_words == (1, 2, 3)
        assert code.column(3).bits() == (1, 1)

    def test_from_text(self):
        code = LinearCode.from_text("2 3\n101\n011\n")
        assert code.column_words == (1, 2, 3)

    def test_encode(self):
        code = LinearCode.from_rows([[1, 0, 1], [0, 1, 1]])
        assert str(code.encode(BitVector.from_bits([1, 1]))) == "110"
        assert str(code.encode(BitVector.from_bits([1, 0]))) == "101"
        with pytest.raises(DimensionError):
            code.encode(BitVector.from_bits([1, 0, 0]))

    def test_encode_is_linear(self):
        rng = random.Random(15)
        for _ in range(20):
            code = random_systematic(rng)
            a = BitVector(code.k, rng.getrandbits(code.k))
            b = BitVector(code.k, rng.getrandbits(code.k))
            assert code.encode(a ^ b) == code.encode(a) ^ code.encode(b)

    def test_min_distance_matches_oracle(self, corpus):
        for name, code in corpus:
            assert code.min_distance() == brute_min_distance(code), name
        rng = random.Random(16)
        for _ in range(25):
            code = random_systematic(rng)
            assert code.min_distance() == brute_min_distance(code)

    @settings(max_examples=200)
    @given(code=distance_codes())
    # SPIKE_ROWS with e_(a+1) added to row 1 in the first code and e_1
    # to row a + 1 in the second. The table's lightest words weigh 2,
    # and the one word of weight 1 is row 1 + row a + 1: the high row
    # pairs with a table word one heavier, on the upper edge of the
    # weight window, or one lighter, on its lower edge.
    @example(
        code=LinearCode(BitMatrix(_TABLE_ROWS + 2, (SPIKED_ROW, *SPIKE_ROWS[1:])))
    )
    @example(
        code=LinearCode(BitMatrix(_TABLE_ROWS + 2, (*SPIKE_ROWS[:-1], SPIKED_ROW)))
    )
    def test_min_distance_matches_gray_loop(self, code):
        assert code.min_distance() == gray_min_distance(code)
        if code.k <= 6:
            assert code.min_distance() == brute_min_distance(code)

    def test_min_distance_guard(self):
        rows = [[1 if i == j else 0 for j in range(25)] for i in range(25)]
        big = LinearCode.from_rows(rows)
        with pytest.raises(CapacityError):
            big.min_distance()
        assert big.min_distance(max_k=25) == 1

    def test_identity_column_map(self):
        code = LinearCode.from_rows([[0, 1, 1], [1, 0, 1]])
        # e_1 first appears as column 2, e_2 as column 1.
        assert code.identity_column_map() == {1: 2, 2: 1}
        assert code.is_systematic
        # Callers get a copy: changing it leaves the cached map alone.
        code.identity_column_map()[1] = 3
        assert code.identity_column_map() == {1: 2, 2: 1}

    def test_not_systematic(self):
        # Columns e_1 and e_1+e_2: no column equals e_2.
        code = LinearCode.from_rows([[1, 1], [0, 1]])
        assert code.identity_column_map() is None
        assert not code.is_systematic

    def test_equality_and_hash(self):
        a = LinearCode.from_rows([[1, 0, 1], [0, 1, 1]])
        b = LinearCode.from_rows([[1, 0, 1], [0, 1, 1]])
        c = LinearCode.from_rows([[1, 0, 0], [0, 1, 1]])
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert len({a, b, c}) == 2
        assert repr(a) == "LinearCode(k=2, n=3)"

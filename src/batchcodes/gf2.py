"""Dense GF(2) vectors, matrices, and linear codes on int bitsets.

Every public interface is 1-indexed: rows and columns of a k x n matrix
are numbered 1..k and 1..n. Internally a row is an int whose bit j-1 is
column j, and a column is an int whose bit i-1 is row i. Bit j of an
integer literal therefore reads right to left relative to the printed
matrix; use the from_bits / from_rows constructors when writing values
out longhand.

Lengths, words, positions, rows and columns go through
`errors.check_int` and raise DimensionError unless they are integers in
range; bits raise ValueError.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from operator import xor
from typing import Iterable, Sequence

from .errors import (
    CapacityError,
    DimensionError,
    MatrixParseError,
    RankDeficiencyError,
    check_int,
)

__all__ = [
    "BitVector",
    "BitMatrix",
    "LinearCode",
    "PivotBasis",
    "rank",
    "parse_matrix",
    "format_matrix",
    "reverse_bits",
]

_ROW_CHARS = frozenset("01 \t")

# Rows whose 2^_TABLE_ROWS codewords `LinearCode.min_distance` tabulates
# by weight. On the distance benchmark's codes (k 14-18), 9 to 11 timed
# alike and 12 or 13 rows were slower.
_TABLE_ROWS = 11


def reverse_bits(word: int, width: int) -> int:
    """Reverse the low `width` bits of `word` (big-endian <-> little-endian)."""
    word = check_int("word", word, least=0, error=DimensionError)
    width = check_int("width", width, error=DimensionError)
    return _reverse_bits(word, width)


def _reverse_bits(word: int, width: int) -> int:
    """`reverse_bits` without its argument checks: `word` an int >= 0,
    `width` an int >= 1."""
    return int(f"{word & ((1 << width) - 1):0{width}b}"[::-1], 2)


@dataclass(frozen=True)
class BitVector:
    """Immutable GF(2) vector of fixed length, packed into one int."""

    length: int
    word: int = 0

    def __post_init__(self):
        length = check_int("vector length", self.length, error=DimensionError)
        word = check_int(
            "word", self.word, least=0, most=(1 << length) - 1, error=DimensionError
        )
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "word", word)

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitVector":
        word = 0
        n = 0
        for b in bits:
            word |= check_int("bit", b, least=0, most=1) << n
            n += 1
        return cls(n, word)

    @classmethod
    def unit(cls, length: int, position: int) -> "BitVector":
        """Standard basis vector e_position (1-indexed)."""
        length = check_int("vector length", length, error=DimensionError)
        position = check_int("position", position, most=length, error=DimensionError)
        return cls(length, 1 << (position - 1))

    @classmethod
    def zero(cls, length: int) -> "BitVector":
        return cls(length, 0)

    def bit(self, position: int) -> int:
        """Entry at 1-indexed `position`."""
        position = check_int(
            "position", position, most=self.length, error=DimensionError
        )
        return (self.word >> (position - 1)) & 1

    def bits(self) -> tuple[int, ...]:
        return tuple((self.word >> i) & 1 for i in range(self.length))

    def weight(self) -> int:
        return self.word.bit_count()

    def is_zero(self) -> bool:
        return self.word == 0

    def __xor__(self, other: "BitVector") -> "BitVector":
        if not isinstance(other, BitVector):
            return NotImplemented
        if other.length != self.length:
            raise DimensionError(
                f"cannot xor vectors of lengths {self.length} and {other.length}"
            )
        return BitVector(self.length, self.word ^ other.word)

    def __len__(self) -> int:
        return self.length

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits())


@dataclass(frozen=True)
class BitMatrix:
    """Immutable k x n matrix over GF(2); row i is stored in row_words[i-1]."""

    n: int
    row_words: tuple[int, ...]

    def __post_init__(self):
        n = check_int("column count", self.n, error=DimensionError)
        most = (1 << n) - 1
        # The row's name is built only for a row that needs the check.
        rows = tuple(
            w
            if type(w) is int and 0 <= w <= most
            else check_int(f"row {i} word", w, least=0, most=most, error=DimensionError)
            for i, w in enumerate(self.row_words, 1)
        )
        if not rows:
            raise DimensionError("matrix needs at least one row")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "row_words", rows)

    @classmethod
    def from_rows(cls, rows: Sequence[Iterable[int]]) -> "BitMatrix":
        vectors = [BitVector.from_bits(r) for r in rows]
        if not vectors:
            raise DimensionError("matrix needs at least one row")
        n = vectors[0].length
        for i, v in enumerate(vectors, 1):
            if v.length != n:
                raise DimensionError(
                    f"row {i} has {v.length} columns, expected {n}"
                )
        return cls(n, tuple(v.word for v in vectors))

    @property
    def k(self) -> int:
        return len(self.row_words)

    def entry(self, i: int, j: int) -> int:
        """Entry at 1-indexed (row i, column j)."""
        i = check_int("row", i, most=self.k, error=DimensionError)
        j = check_int("column", j, most=self.n, error=DimensionError)
        return (self.row_words[i - 1] >> (j - 1)) & 1

    def row(self, i: int) -> BitVector:
        i = check_int("row", i, most=self.k, error=DimensionError)
        return BitVector(self.n, self.row_words[i - 1])

    def column_word(self, j: int) -> int:
        j = check_int("column", j, most=self.n, error=DimensionError)
        word = 0
        for i, r in enumerate(self.row_words):
            word |= ((r >> (j - 1)) & 1) << i
        return word

    def column(self, j: int) -> BitVector:
        return BitVector(self.k, self.column_word(j))

    def column_words(self) -> tuple[int, ...]:
        return tuple(self.column_word(j) for j in range(1, self.n + 1))

    def __str__(self) -> str:
        return format_matrix(self, header=False)


def _min_weight(rows: Sequence[int], n: int) -> int:
    """Least weight of a nonzero combination of the independent length-n
    `rows`, by the table search of `LinearCode.min_distance`."""
    if 1 in map(int.bit_count, rows):
        return 1
    table = [0, rows[0]]
    for row in rows[1:_TABLE_ROWS]:
        table += [row ^ word for word in table]
    best = min(map(int.bit_count, table[1:]))
    high = rows[_TABLE_ROWS:]
    if not high or best == 1:
        return best
    table.sort(key=int.bit_count)
    # first[w] is the index of the table's first entry of weight >= w,
    # for w = 0..n + 1.
    first = [bisect_left(table, w, key=int.bit_count) for w in range(n + 2)]
    word = 0
    for step in range(1, 1 << len(high)):
        word ^= high[(step & -step).bit_length() - 1]
        w = word.bit_count()
        lo = first[max(w - best + 1, 0)]
        hi = first[min(w + best, n + 1)]
        near = map(xor, repeat(word), table[lo:hi])
        d = min(map(int.bit_count, near), default=best)
        if d < best:
            best = d
            if best == 1:
                break
    return best


def rank(matrix: BitMatrix) -> int:
    """Rank over GF(2) by incremental elimination on low-bit pivots."""
    pivots: dict[int, int] = {}
    for word in matrix.row_words:
        cur = word
        while cur:
            low = cur & -cur
            if low in pivots:
                cur ^= pivots[low]
            else:
                pivots[low] = cur
                break
    return len(pivots)


def parse_matrix(text: str) -> BitMatrix:
    """Parse matrix text: optional "k n" header, then rows of 0/1 characters.

    Bits within a row may be separated by spaces. Blank lines are
    ignored. With a header, exactly k rows of width n must follow;
    without one, all rows must share a width. Raises MatrixParseError
    with a 1-indexed line (and column where it applies) on malformed
    input.
    """
    entries = [
        (no, line) for no, line in enumerate(text.splitlines(), 1) if line.strip()
    ]
    if not entries:
        raise MatrixParseError("no matrix content", line=1)

    first_no, first = entries[0]
    tokens = first.split()
    header_like = len(tokens) == 2 and all(t.isascii() and t.isdigit() for t in tokens)
    # A first line containing digits other than 0/1 can only be a header.
    must_be_header = header_like and any(c not in _ROW_CHARS for c in first)

    if header_like:
        k, n = int(tokens[0]), int(tokens[1])
        if k >= 1 and n >= 1:
            try:
                return _parse_body(entries[1:], k, n, first_no)
            except MatrixParseError:
                if must_be_header:
                    raise
        elif must_be_header:
            raise MatrixParseError(
                f"header declares k={k}, n={n}; both must be >= 1", line=first_no
            )
    return _parse_body(entries, None, None, first_no)


def _parse_body(
    entries: list[tuple[int, str]], k: int | None, n: int | None, header_line: int
) -> BitMatrix:
    if k is not None and len(entries) != k:
        raise MatrixParseError(
            f"header declares {k} rows but {len(entries)} follow", line=header_line
        )
    if not entries:
        raise MatrixParseError("no matrix rows", line=header_line)
    words: list[int] = []
    width = n
    for no, line in entries:
        bits = line.replace(" ", "").replace("\t", "")
        # Valid exactly when stripping 0s and 1s from both ends leaves
        # nothing: `int` alone would also take "_", a sign or another
        # script's digits.
        if bits.strip("01"):
            col, ch = next(
                (col, ch) for col, ch in enumerate(line, 1) if ch not in _ROW_CHARS
            )
            raise MatrixParseError(
                f"invalid character {ch!r} in matrix row", line=no, column=col
            )
        count = len(bits)
        if width is None:
            width = count
        elif count != width:
            raise MatrixParseError(
                f"row has {count} columns, expected {width}", line=no
            )
        # The row's first bit is the word's lowest.
        words.append(int(bits[::-1], 2))
    assert width is not None
    if width == 0:
        raise MatrixParseError("matrix rows are empty", line=entries[0][0])
    return BitMatrix(width, tuple(words))


def format_matrix(matrix: BitMatrix, header: bool = True) -> str:
    """Render matrix text; inverse of parse_matrix."""
    lines = [str(matrix.row(i)) for i in range(1, matrix.k + 1)]
    if header:
        lines.insert(0, f"{matrix.k} {matrix.n}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True, eq=False)
class PivotBasis:
    """Coordinates of a code's columns over pivot columns.

    One elimination from the last column to the first keeps column j as
    a pivot when it lies outside the span of the columns after it, so
    the pivots at columns >= j form a basis of the span of the columns
    >= j. Every vector of the span then has a unique coordinate mask,
    bit j-1 standing for the pivot at column j (the bit a column mask
    over [n] uses for column j), and lies in the span of the columns
    >= j exactly when its mask has no bit below j-1.

    `coloops` masks the columns outside the span of the others, which
    no circuit of the column matroid passes through. A zero column is a
    circuit by itself, and a nonzero non-pivot column j forms a circuit
    with the pivots of its coordinate mask, `coords[j-1] | 1 << (j-1)`.
    These fundamental circuits, `cycles` (zero columns left out), span
    the cycle space of the nonzero columns, and over GF(2) every cycle
    is a disjoint union of circuits, so a column lies in some circuit
    exactly when it lies in one of these. The recovery layer fills a
    code's circuit store from their 2^m sums where m is small
    (`recovery.circuit_sets`).
    """

    # low bit of a reduced word -> (that word, its coordinate mask)
    pivots: dict[int, tuple[int, int]]
    # coords[j-1] is the coordinate mask of column j (0 for a zero column)
    coords: tuple[int, ...]
    # coordinate mask -> 0-indexed positions of the nonzero columns with it
    by_coord: dict[int, list[int]]
    # bit j-1 set when column j is a coloop
    coloops: int
    # the fundamental cycles as column masks, from the last column to the first
    cycles: tuple[int, ...]

    @classmethod
    def from_columns(cls, words: Sequence[int]) -> "PivotBasis":
        pivots: dict[int, tuple[int, int]] = {}
        coords = [0] * len(words)
        in_circuit = 0
        cycles = []
        for i in range(len(words) - 1, -1, -1):
            word, coord = words[i], 0
            while word:
                low = word & -word
                if low not in pivots:
                    pivots[low] = (word, coord | 1 << i)
                    coord = 1 << i
                    break
                p_word, p_coord = pivots[low]
                word ^= p_word
                coord ^= p_coord
            coords[i] = coord
            if coord and coord != 1 << i:
                cycles.append(coord | 1 << i)
            in_circuit |= coord ^ 1 << i  # 0 for a pivot column
        by_coord: dict[int, list[int]] = {}
        for i, coord in enumerate(coords):
            if coord:
                by_coord.setdefault(coord, []).append(i)
        coloops = ((1 << len(words)) - 1) & ~in_circuit
        return cls(pivots, tuple(coords), by_coord, coloops, tuple(cycles))

    def coordinates(self, word: int) -> int:
        """Coordinate mask of `word`, which must lie in the span of the
        columns (for a `LinearCode`, any length-k word does)."""
        coord = 0
        while word:
            p_word, p_coord = self.pivots[word & -word]
            word ^= p_word
            coord ^= p_coord
        return coord


class LinearCode:
    """Linear [n, k] code over GF(2) given by a full-row-rank generator matrix.

    Column lookups, the pivot basis of the columns, the minimum
    distance, the packing bounds, and the systematic column map are
    computed once and cached. The code also holds the store of the
    circuits of its column matroid, `_circuits = (size, circuits)`:
    every circuit of 2 to size + 1 columns, one value, which the
    recovery layer's `circuit_sets` replaces whole when a request needs
    a larger size (filled from the cycle space, the store is complete
    at size k at once), and which lives as long as the code. The
    generator and everything derived from it never change.
    """

    def __init__(self, generator: BitMatrix):
        found = rank(generator)
        if found != generator.k:
            raise RankDeficiencyError(
                f"generator matrix has rank {found} < k = {generator.k}"
            )
        self._generator = generator
        self._distance: int | None = None
        self._circuits: tuple[int, tuple[int, ...]] = (0, ())

    @classmethod
    def from_rows(cls, rows: Sequence[Iterable[int]]) -> "LinearCode":
        return cls(BitMatrix.from_rows(rows))

    @classmethod
    def from_text(cls, text: str) -> "LinearCode":
        return cls(parse_matrix(text))

    @property
    def generator(self) -> BitMatrix:
        return self._generator

    @property
    def k(self) -> int:
        return self._generator.k

    @property
    def n(self) -> int:
        return self._generator.n

    @property
    def rate(self) -> Fraction:
        return Fraction(self.k, self.n)

    @cached_property
    def column_words(self) -> tuple[int, ...]:
        return self._generator.column_words()

    @cached_property
    def pivot_basis(self) -> PivotBasis:
        """The columns' pivot basis, which every recovery-set search of
        this code runs on (see `recovery.minimal_set_masks`)."""
        return PivotBasis.from_columns(self.column_words)

    def column(self, j: int) -> BitVector:
        return self._generator.column(j)

    def encode(self, message: BitVector) -> BitVector:
        """Codeword for `message` (length k), as message . G."""
        if message.length != self.k:
            raise DimensionError(
                f"message length {message.length} != k = {self.k}"
            )
        word = 0
        m = message.word
        rows = self._generator.row_words
        while m:
            low = m & -m
            word ^= rows[low.bit_length() - 1]
            m ^= low
        return BitVector(self.n, word)

    def min_distance(self, max_k: int = 24) -> int:
        """Minimum codeword weight, exact, over all 2^k - 1 nonzero
        messages. Refuses k > max_k.

        Every nonzero codeword is h ^ l, with l in the table of the 2^a
        codewords of the first a = min(k, _TABLE_ROWS) rows (zero
        included) and h a codeword of the other rows; the rows are
        independent, so h ^ l = 0 only for h = l = 0. The table's
        nonzero entries are the codewords with h = 0. The other
        2^(k-a) - 1 values of h run in Gray-code order, and each is
        paired, in C, with only the table entries l with
        |wt(h) - wt(l)| < best, the least weight found so far: the
        table is sorted by weight, so they form one slice. The skip is
        exact: by the triangle inequality of the Hamming distance,
        wt(h) <= wt(h ^ l) + wt(l) and wt(l) <= wt(h ^ l) + wt(h), so
        wt(h ^ l) >= |wt(h) - wt(l)| >= best for every skipped l. A
        row of weight 1 settles d = 1 before the table is built, and
        the Gray-code loop stops at weight 1.
        """
        max_k = check_int("max_k", max_k)
        if self._distance is None:
            if self.k > max_k:
                raise CapacityError(
                    f"min_distance enumerates 2^k codewords; k = {self.k} exceeds "
                    f"the guard max_k = {max_k}"
                )
            self._distance = _min_weight(self._generator.row_words, self.n)
        return self._distance

    @cached_property
    def packing_bounds(self) -> tuple[tuple[int, ...], tuple[int | None, ...]]:
        """Upper bounds on disjoint recovery sets, (units, columns), read
        off the k generator rows and their k(k-1)/2 pairwise sums.

        A recovery set S of a word v has its columns sum to v, so a
        codeword c = mG has sum over j in S of c_j = <m, v>. For v = e_i
        and m_i = 1 that sum is 1: c has odd, so nonzero, weight on
        every recovery set of e_i, and t disjoint ones need t columns of
        its support. `units[i-1]` is the least weight of such a codeword
        with m_i = 1. For v = column j and c_j = 1, the same holds for
        the sets avoiding j, on the support less j: `columns[j-1]` is the
        least weight less 1 of such a codeword with c_j = 1, None for a
        zero column, which every codeword misses. Any subset of the
        sets, such as those within a size cap, packs within the bound.
        """
        rows = self._generator.row_words
        light = [(w.bit_count(), 1 << i, w) for i, w in enumerate(rows)]
        for i, a in enumerate(rows):
            for j in range(i + 1, len(rows)):
                b = a ^ rows[j]
                light.append((b.bit_count(), 1 << i | 1 << j, b))
        # In weight order, the first codeword to reach a symbol or a
        # column is its lightest.
        light.sort()
        units = [0] * self.k
        columns: list[int | None] = [None] * self.n
        open_units, open_columns = (1 << self.k) - 1, (1 << self.n) - 1
        for w, m, c in light:
            new = m & open_units
            open_units ^= new
            while new:
                units[(new & -new).bit_length() - 1] = w
                new &= new - 1
            new = c & open_columns
            open_columns ^= new
            while new:
                columns[(new & -new).bit_length() - 1] = w - 1
                new &= new - 1
        return tuple(units), tuple(columns)

    @cached_property
    def _identity_columns(self) -> dict[int, int] | None:
        cols = self.column_words
        mapping: dict[int, int] = {}
        for i in range(1, self.k + 1):
            try:
                mapping[i] = cols.index(1 << (i - 1)) + 1
            except ValueError:
                return None
        return mapping

    def identity_column_map(self) -> dict[int, int] | None:
        """Map i -> smallest column j with g_j = e_i, or None if some e_i
        never occurs as a column."""
        found = self._identity_columns
        return None if found is None else dict(found)

    @property
    def is_systematic(self) -> bool:
        return self._identity_columns is not None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearCode):
            return NotImplemented
        return self._generator == other._generator

    def __hash__(self) -> int:
        return hash(self._generator)

    def __repr__(self) -> str:
        return f"LinearCode(k={self.k}, n={self.n})"

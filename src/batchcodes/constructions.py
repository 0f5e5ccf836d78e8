"""Named code families.

Each function returns a LinearCode whose generator columns follow the
family's canonical order, documented per function so that column
indices in recovery sets and plans are reproducible.
"""

from __future__ import annotations

from itertools import product
from typing import Sequence

from .errors import CapacityError, check_int
from .gf2 import BitMatrix, LinearCode, reverse_bits

__all__ = [
    "identity",
    "subcube",
    "simplex",
    "triplicated_parity",
    "blockwise_subcube_allones",
    "paired_parity",
]


def _code_from_columns(k: int, columns: Sequence[int]) -> LinearCode:
    rows = [0] * k
    for j, col in enumerate(columns):
        rest = col
        while rest:
            low = rest & -rest
            rows[low.bit_length() - 1] |= 1 << j
            rest ^= low
    return LinearCode(BitMatrix(len(columns), tuple(rows)))


def identity(k: int) -> LinearCode:
    """[k, k, 1] code storing each symbol once, no redundancy."""
    k = check_int("k", k)
    return _code_from_columns(k, [1 << i for i in range(k)])


def subcube(ell: int, m: int) -> LinearCode:
    """Box-sum code on an m-dimensional array of ell^m cells.

    Cells (a_1..a_m) in [ell]^m hold the information symbols in
    row-major order (last coordinate fastest). There is one column per
    position (b_1..b_m) in [ell+1]^m, also row-major: coordinate
    b_j <= ell pins a_j = b_j, coordinate b_j = ell+1 sums over all of
    a_j, so each column stores a subarray sum. k = ell^m, n = (ell+1)^m.
    """
    ell = check_int("ell", ell, least=2)
    m = check_int("m", m)
    k = ell**m
    if k > 24:
        raise CapacityError(
            f"subcube(ell={ell}, m={m}) has k = {k} > 24 information cells"
        )
    cells = list(product(range(ell), repeat=m))
    columns = []
    for pos in product(range(ell + 1), repeat=m):
        word = 0
        for i, cell in enumerate(cells):
            if all(p == ell or p == c for p, c in zip(pos, cell)):
                word |= 1 << i
        columns.append(word)
    return _code_from_columns(k, columns)


def simplex(m: int) -> LinearCode:
    """[2^m - 1, m] simplex code: every nonzero vector of length m once.

    Columns e_1..e_m come first; the remaining vectors follow in
    increasing integer value, reading bit 1 of the value as row m and
    the top bit as row 1.
    """
    m = check_int("m", m, least=2)
    if m > 12:
        raise CapacityError(f"simplex(m={m}) exceeds the guard m <= 12")
    columns = [1 << i for i in range(m)]
    for value in range(1, 1 << m):
        if value & (value - 1) == 0:
            continue  # powers of two are the identity columns, already placed
        columns.append(reverse_bits(value, m))
    return _code_from_columns(m, columns)


def triplicated_parity(k: int) -> LinearCode:
    """Three copies of the block (e_1, ..., e_{k-1}, all-ones).

    The block stores the first k-1 symbols plainly plus one overall
    parity; x_k is never stored alone, only inside the parity column.
    n = 3k.
    """
    k = check_int("k", k, least=2)
    block = [1 << i for i in range(k - 1)] + [(1 << k) - 1]
    return _code_from_columns(k, block * 3)


def blockwise_subcube_allones(kappa: int) -> LinearCode:
    """kappa two-row blocks (x_a, x_a + x_b, x_b) plus one all-ones column.

    Block b covers rows 2b+1 and 2b+2 with the three subcube(2,1)
    columns; the final column sums every symbol. k = 2*kappa,
    n = 3*kappa + 1.
    """
    kappa = check_int("kappa", kappa)
    if kappa > 12:
        raise CapacityError(
            f"blockwise_subcube_allones(kappa={kappa}) exceeds the guard kappa <= 12"
        )
    columns = []
    for b in range(kappa):
        base = 2 * b
        columns += [1 << base, 0b11 << base, 0b10 << base]
    columns.append((1 << (2 * kappa)) - 1)
    return _code_from_columns(2 * kappa, columns)


def paired_parity(k: int) -> LinearCode:
    """Systematic code with one parity per consecutive symbol pair.

    Columns are e_1..e_k, then e_1+e_2, e_3+e_4, ...; for odd k the
    leftover symbol x_k is stored a second time instead of paired.
    n = k + ceil(k/2), d = 2.
    """
    k = check_int("k", k, least=2)
    columns = [1 << i for i in range(k)]
    for j in range(0, k - 1, 2):
        columns.append(0b11 << j)
    if k % 2:
        columns.append(1 << (k - 1))
    return _code_from_columns(k, columns)

"""Named code families: exact matrices, parameters, and guards."""

import pytest

from batchcodes import (
    CapacityError,
    blockwise_subcube_allones,
    identity,
    paired_parity,
    simplex,
    subcube,
    triplicated_parity,
)


def rows(code):
    return [str(code.generator.row(i)) for i in range(1, code.k + 1)]


class TestIdentity:
    def test_matrix(self):
        code = identity(3)
        assert rows(code) == ["100", "010", "001"]
        assert code.min_distance() == 1
        assert code.is_systematic

    def test_guard(self):
        with pytest.raises(ValueError):
            identity(0)
        for bad in (0, 1.5, "2"):
            with pytest.raises(ValueError, match="^k must be an integer >= 1,"):
                identity(bad)


class TestSubcube:
    def test_one_dimensional(self):
        code = subcube(2, 1)
        assert rows(code) == ["101", "011"]
        assert code.column_words == (1, 2, 3)
        code = subcube(3, 1)
        assert code.column_words == (1, 2, 4, 7)

    def test_two_dimensional_matrix(self):
        code = subcube(2, 2)
        assert rows(code) == [
            "101000101",
            "011000011",
            "000101101",
            "000011011",
        ]
        assert code.column_words == (1, 2, 3, 4, 8, 12, 5, 10, 15)

    def test_shape_and_distance(self):
        for ell, m in [(2, 1), (3, 1), (2, 2), (4, 1), (2, 3)]:
            code = subcube(ell, m)
            assert code.k == ell**m
            assert code.n == (ell + 1) ** m
            # Each information cell appears in 2^m box sums.
            assert code.min_distance() == 2**m
            assert code.is_systematic

    def test_guards(self):
        with pytest.raises(ValueError):
            subcube(1, 1)
        with pytest.raises(ValueError):
            subcube(2, 0)
        for bad in (1, 1.5, "2"):
            with pytest.raises(ValueError, match="^ell must be an integer >= 2,"):
                subcube(bad, 1)
        for bad in (0, 1.5, "2"):
            with pytest.raises(ValueError, match="^m must be an integer >= 1,"):
                subcube(2, bad)
        with pytest.raises(CapacityError):
            subcube(5, 2)


class TestSimplex:
    def test_column_order(self):
        assert simplex(3).column_words == (1, 2, 4, 6, 5, 3, 7)

    def test_every_nonzero_column_once(self):
        for m in (2, 3, 4):
            code = simplex(m)
            assert code.n == 2**m - 1
            assert sorted(code.column_words) == list(range(1, 2**m))
            assert code.column_words[:m] == tuple(1 << i for i in range(m))

    def test_distance(self):
        for m in (2, 3, 4):
            assert simplex(m).min_distance() == 2 ** (m - 1)

    def test_guards(self):
        with pytest.raises(ValueError):
            simplex(1)
        for bad in (1, 1.5, 3.0, "2"):
            with pytest.raises(ValueError, match="^m must be an integer >= 2,"):
                simplex(bad)
        with pytest.raises(CapacityError):
            simplex(13)


class TestTriplicatedParity:
    def test_matrix(self):
        code = triplicated_parity(3)
        assert rows(code) == ["101101101", "011011011", "001001001"]
        assert code.column_words == (1, 2, 7, 1, 2, 7, 1, 2, 7)

    def test_parameters(self):
        for k in (3, 4, 5):
            code = triplicated_parity(k)
            assert code.n == 3 * k
            assert code.min_distance() == 3
            assert not code.is_systematic

    def test_guard(self):
        with pytest.raises(ValueError):
            triplicated_parity(1)
        for bad in (1, 1.5, "2"):
            with pytest.raises(ValueError, match="^k must be an integer >= 2,"):
                triplicated_parity(bad)


class TestBlockwiseSubcubeAllones:
    def test_matrix(self):
        code = blockwise_subcube_allones(2)
        assert rows(code) == ["1100001", "0110001", "0001101", "0000111"]
        assert code.column_words == (1, 3, 2, 4, 12, 8, 15)

    def test_parameters(self):
        for kappa in (1, 2, 3):
            code = blockwise_subcube_allones(kappa)
            assert code.k == 2 * kappa
            assert code.n == 3 * kappa + 1
            assert code.min_distance() == 2
            assert code.is_systematic

    def test_guards(self):
        with pytest.raises(ValueError):
            blockwise_subcube_allones(0)
        for bad in (0, 1.5, "2"):
            with pytest.raises(ValueError, match="^kappa must be an integer >= 1,"):
                blockwise_subcube_allones(bad)
        with pytest.raises(CapacityError):
            blockwise_subcube_allones(13)


class TestPairedParity:
    def test_columns(self):
        assert paired_parity(4).column_words == (1, 2, 4, 8, 3, 12)
        # Odd k stores the leftover symbol twice instead of pairing it.
        assert paired_parity(5).column_words == (1, 2, 4, 8, 16, 3, 12, 16)

    def test_parameters(self):
        for k in range(2, 7):
            code = paired_parity(k)
            assert code.n == k + (k + 1) // 2
            assert code.min_distance() == 2
            assert code.is_systematic

    def test_guard(self):
        with pytest.raises(ValueError):
            paired_parity(1)
        for bad in (1, 1.5, "2"):
            with pytest.raises(ValueError, match="^k must be an integer >= 2,"):
                paired_parity(bad)

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from polarkit import _linalg as la
from polarkit import forms, gf

# k * (p - 1)^2 just below 2^53 for k = 4: the largest products mulmod accepts
_EDGE_P = 47_453_133


def test_mulmod_raises_past_its_bound(monkeypatch):
    p = 2 ** 26 + 1            # (p - 1)^2 = 2^52
    A = np.full((1, 2), p - 1)
    B = np.full((2, 1), p - 1)
    with pytest.raises(ValueError, match="exact float64 range"):
        la.mulmod(A, B, p)
    # one inner term fits: (p-1)^2 = 1 mod p, exactly
    assert la.mulmod(A[:, :1], B[:1, :], p).tolist() == [[1]]
    # the bound is checked before any block: the first block of this A
    # would raise TypeError on casting its object() to float64
    monkeypatch.setattr(la, "_SCAN_CELLS", 1)
    A = np.full((5, 2), p - 1, dtype=object)
    A[0, 0] = object()
    with pytest.raises(ValueError, match="exact float64 range"):
        la.mulmod(A, B, p)


def _integer_product(A, B, p):
    return [[sum(a * B[t][j] for t, a in enumerate(row)) % p
             for j in range(len(B[0]))] for row in A]


@given(st.data())
def test_mulmod_matches_integer_arithmetic(data):
    """Any shape, A 1-d included, against the integer product, with the
    block budget cut down so that the rows span several blocks."""
    p = data.draw(st.sampled_from([2, 3, 5, 13, 65_537, _EDGE_P]))
    n = data.draw(st.integers(0, 9))
    k, m = (data.draw(st.integers(1, 4)) for _ in range(2))
    entries = st.integers(0, p - 1)
    A = [[data.draw(entries) for _ in range(k)] for _ in range(n)]
    B = [[data.draw(entries) for _ in range(m)] for _ in range(k)]
    want = _integer_product(A, B, p)
    A, B = np.array(A, dtype=np.int64).reshape(n, k), np.array(B, dtype=np.int64)
    if n == 1 and data.draw(st.booleans()):
        A, want = A[0], want[0]
    with mock.patch.object(la, "_SCAN_CELLS", data.draw(st.integers(1, 24))):
        got = la.mulmod(A, B, p)
    assert got.dtype == np.int64
    assert got.tolist() == want


# 12 cells a block: 3 rows of max(k, m) = 4 columns, or 1 row of 20
@pytest.mark.parametrize("n,k,m", [
    (0, 3, 4), (1, 3, 4), (2, 3, 4), (3, 3, 4), (4, 3, 4), (7, 3, 4),
    (5, 3, 20), (1, 3, 20), (6, 20, 2), (None, 3, 4), (None, 3, 20)])
def test_mulmod_over_block_boundaries(monkeypatch, n, k, m):
    """Row counts at, one below and one above a block boundary, a right-hand
    side wider than one block, and a 1-d A (n None), against the integer
    product, with float64 operands too."""
    monkeypatch.setattr(la, "_SCAN_CELLS", 12)
    rng = np.random.default_rng(7)
    p = 13
    A = rng.integers(0, p, (1 if n is None else n, k))
    B = rng.integers(0, p, (k, m))
    want = _integer_product(A.tolist(), B.tolist(), p)
    if n is None:
        A, want = A[0], want[0]
    for a, b in ((A, B), (A.astype(np.float64), B.astype(np.float64))):
        got = la.mulmod(a, b, p)
        assert got.dtype == np.int64
        assert got.tolist() == want


def test_mulmod_blocks_by_cells_not_rows(monkeypatch):
    """A right-hand side wider than the inner dimension sets the block: with
    1,024 cells a block, the 512 x 256 product runs in blocks of 4 rows,
    so the traced peak stays near the int64 output.  Blocking by rows
    times k alone would take all 512 rows at once, about three 1-MiB
    float64 temporaries."""
    monkeypatch.setattr(la, "_SCAN_CELLS", 1024)
    rng = np.random.default_rng(3)
    A, B = rng.integers(0, 5, (512, 2)), rng.integers(0, 5, (2, 256))
    la.mulmod(A, B, 5)
    tracemalloc.start()
    try:
        got = la.mulmod(A, B, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tolist() == _integer_product(A.tolist(), B.tolist(), 5)
    assert peak < got.nbytes + 8 * 8 * 1024


def test_mulmod_at_the_edge_of_its_bound():
    p = _EDGE_P
    assert 4 * (p - 1) ** 2 < 2 ** 53 <= 4 * p ** 2
    A = np.full((3, 4), p - 1)
    A[1] = p - 2
    A[2, :2] = 1
    B = np.full((4, 2), p - 1)
    want = [[sum(int(A[i, t]) * int(B[t, j]) for t in range(4)) % p
             for j in range(2)] for i in range(3)]
    assert la.mulmod(A, B, p).tolist() == want


def test_singular_points_raises_past_its_bound(monkeypatch):
    """W(3,3): a cell sums dl*f = 2 products of at most 2 * 2 and two values
    of at most 2, so it reaches 12, and the bound must lie above that."""
    F = gf.field(3)
    K = forms.standard_form("W", 4, F).data
    monkeypatch.setattr(la, "_ZERO_TEST_SAFE", 12)
    with pytest.raises(ValueError, match="exact float64 range"):
        la.singular_points(F, K)
    monkeypatch.setattr(la, "_ZERO_TEST_SAFE", 13)
    assert len(la.singular_points(F, K)) == 40

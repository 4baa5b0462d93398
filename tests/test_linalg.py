import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from polarkit import _linalg as la
from polarkit import forms, gf

# k * (p - 1)^2 just below 2^53 for k = 4: the largest products mulmod accepts
_EDGE_P = 47_453_133


def test_mulmod_raises_past_its_bound():
    p = 2 ** 26 + 1            # (p - 1)^2 = 2^52
    A = np.full((1, 2), p - 1)
    B = np.full((2, 1), p - 1)
    with pytest.raises(ValueError, match="exact float64 range"):
        la.mulmod(A, B, p)
    # one inner term fits: (p-1)^2 = 1 mod p, exactly
    assert la.mulmod(A[:, :1], B[:1, :], p).tolist() == [[1]]


@given(st.data())
def test_mulmod_matches_integer_arithmetic(data):
    p = data.draw(st.sampled_from([2, 3, 5, 13, 65_537, _EDGE_P]))
    n, k, m = (data.draw(st.integers(1, 4)) for _ in range(3))
    entries = st.integers(0, p - 1)
    A = [[data.draw(entries) for _ in range(k)] for _ in range(n)]
    B = [[data.draw(entries) for _ in range(m)] for _ in range(k)]
    want = [[sum(A[i][t] * B[t][j] for t in range(k)) % p for j in range(m)]
            for i in range(n)]
    got = la.mulmod(np.array(A, dtype=np.int64), np.array(B, dtype=np.int64), p)
    assert got.dtype == np.int64
    assert got.tolist() == want


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

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from polarkit import _linalg as la
from polarkit import forms, gf
from strategies import (fields, identity, invertible_matrices, mat_mul,
                        singular_matrices)
from strategies import det as oracle_det, mat_inv as oracle_inv, rref as oracle_rref

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
    """W(3,3): the zero test's inner dimension is dl*f + 1 + f = 4, so the
    rule's top is 4 * 2^2 + 3 = 19, and the bound must lie above that.
    Past it, the scan raises before any product."""
    F = gf.field(3)
    K = forms.standard_form("W", 4, F).data

    def no_product(*args):
        raise AssertionError("a product ran past the rule")

    with monkeypatch.context() as m:
        m.setattr(la, "_EXACT_BELOW", ((np.float64, 19),))
        m.setattr(la, "mulmod", no_product)
        m.setattr(la, "zero_groups", no_product)
        with pytest.raises(ValueError, match="exact float64 range"):
            la.singular_points(F, K)
    monkeypatch.setattr(la, "_EXACT_BELOW", ((np.float64, 20),))
    assert len(la.singular_points(F, K)) == 40


# -- the one exactness rule -------------------------------------------------


def test_exact_dtype_switches_at_two_to_the_24_and_raises_at_two_to_the_53():
    """k (p - 1)^2 + p below 2^24 is float32, below 2^53 float64, and from
    2^53 on a ValueError."""
    rule = la._exact_dtype
    # over GF(2) the top is k + 2
    assert rule(2 ** 24 - 3, 2) is np.float32
    assert rule(2 ** 24 - 2, 2) is np.float64
    assert rule(2 ** 53 - 3, 2) is np.float64
    with pytest.raises(ValueError, match="exact float64 range"):
        rule(2 ** 53 - 2, 2)
    # one term: (p - 1)^2 + p = p^2 - p + 1 passes 2^24 between the primes
    # 4093 and 4099; two terms (W(1,p) points) between 2897 and 2903
    assert 4092 ** 2 + 4093 < 2 ** 24 <= 4098 ** 2 + 4099
    assert rule(1, 4093) is np.float32 and rule(1, 4099) is np.float64
    assert 2 * 2896 ** 2 + 2897 < 2 ** 24 <= 2 * 2902 ** 2 + 2903
    assert rule(2, 2897) is np.float32 and rule(2, 2903) is np.float64
    assert rule(4, _EDGE_P) is np.float64
    assert rule(0, 2) is np.float32


def _zero_groups_oracle(X, G, p, f):
    """The zero test in Python ints: group j of row i vanishes when every
    column of it is 0 mod p."""
    m = len(G[0]) if G else 0
    return [[all(sum(x * G[t][j * f + c] for t, x in enumerate(row)) % p == 0
                 for c in range(f)) for j in range(m // f)] for row in X]


@given(st.data())
def test_mulmod_and_zero_groups_match_integers_on_both_sides_of_the_switch(data):
    """p = 4093 with k = 1 runs in float32, with k >= 2 and p = 4099 in
    float64.  Entries near p - 1 push every sum to the edge of its dtype,
    groups of f = 1, 2, 3 columns, blocks of 1-24 cells so that the rows
    and a G of up to 18 columns span several blocks, a block boundary that
    would cut a group, and about half the groups forced to vanish."""
    p = data.draw(st.sampled_from([4093, 4099]))
    n = data.draw(st.integers(0, 7))
    k = data.draw(st.integers(1, 3))
    f = data.draw(st.integers(1, 3))
    groups = data.draw(st.integers(0, 6))
    entries = st.one_of(st.just(p - 1), st.integers(0, p - 1))
    X = [[data.draw(entries) for _ in range(k)] for _ in range(n)]
    G = [[data.draw(entries) for _ in range(groups * f)] for _ in range(k)]
    if n and groups:
        # make some groups vanish on the first row: a multiple of p there
        for j in range(0, groups, 2):
            for c in range(f):
                col = j * f + c
                G[k - 1][col] = 0
                for t in range(k - 1):
                    G[t][col] = data.draw(entries)
                if X[0][k - 1]:
                    rest = sum(X[0][t] * G[t][col] for t in range(k - 1))
                    G[k - 1][col] = -rest * pow(X[0][k - 1], -1, p) % p
    want_mod = _integer_product(X, G, p)
    want_zero = _zero_groups_oracle(X, G, p, f)
    Xa = np.array(X, dtype=np.int64).reshape(n, k)
    Ga = np.array(G, dtype=np.int64).reshape(k, groups * f)
    with mock.patch.object(la, "_SCAN_CELLS", data.draw(st.integers(1, 24))):
        got_mod = la.mulmod(Xa, Ga, p)
        got_zero = la.zero_groups(Xa, Ga, p, f)
    assert got_mod.dtype == np.int64 and got_mod.tolist() == want_mod
    assert got_zero.dtype == bool and got_zero.tolist() == want_zero


@pytest.mark.parametrize("f", [1, 2, 3])
def test_zero_groups_cut_a_wide_g_along_whole_groups(monkeypatch, f):
    """A G of 40 groups against 7 cells a block: the column chunks hold
    7 // f whole groups (a naive cut of 7 columns would split one), one
    row a block, every group of a random product checked against the
    integers, with a third of the groups vanishing on every row."""
    monkeypatch.setattr(la, "_SCAN_CELLS", 7)
    rng = np.random.default_rng(f)
    p, k = 5, 3
    X = rng.integers(0, p, (6, k))
    G = rng.integers(0, p, (k, 40 * f))
    G[:, ::3 * f] = 0
    for c in range(1, f):
        G[:, c::3 * f] = 0
    want = _zero_groups_oracle(X.tolist(), G.tolist(), p, f)
    assert any(map(any, want)) and not all(map(all, want))
    assert la.zero_groups(X, G, p, f).tolist() == want


def test_zero_groups_raises_before_any_product(monkeypatch):
    """Past the rule: ValueError, not the TypeError that casting a block
    with an object() entry would give."""
    p = 2 ** 26 + 1            # (p - 1)^2 = 2^52, two terms pass 2^53
    monkeypatch.setattr(la, "_SCAN_CELLS", 1)
    X = np.full((5, 2), p - 1, dtype=object)
    X[0, 0] = object()
    G = np.full((2, 4), p - 1, dtype=object)
    with pytest.raises(ValueError, match="exact float64 range"):
        la.zero_groups(X, G, p, 2)
    # one term fits: (p - 1)^2 = 1 mod p, no group vanishes
    assert la.zero_groups(np.full((1, 1), p - 1), G[:1].astype(np.int64),
                          p, 2).tolist() == [[False, False]]


def test_zero_groups_of_empty_operands():
    """No rows, no groups, and no inner dimension (every group vanishes)."""
    assert la.zero_groups(np.zeros((0, 3), np.int64), np.ones((3, 4), np.int64),
                          3, 2).shape == (0, 2)
    assert la.zero_groups(np.ones((4, 3), np.int64), np.zeros((3, 0), np.int64),
                          3, 2).shape == (4, 0)
    assert la.zero_groups(np.zeros((2, 0), np.int64), np.zeros((0, 4), np.int64),
                          3, 2).tolist() == [[True, True]] * 2


@given(st.data())
def test_mat_inv_inverts_and_refuses_a_singular_matrix(data):
    """mat_inv returns an int64 code array, the scalar oracle's inverse."""
    F = data.draw(fields([2, 3, 4, 9]))
    d = data.draw(st.integers(1, 8))
    A = data.draw(invertible_matrices(F, d))
    Ainv = la.mat_inv(F, A)
    assert Ainv.dtype == np.int64 and Ainv.shape == (d, d)
    assert np.array_equal(Ainv, np.array(oracle_inv(F, A)))
    assert mat_mul(F, A, Ainv.tolist()) == mat_mul(F, Ainv.tolist(), A) == identity(d)
    with pytest.raises(ValueError, match="matrix is singular"):
        la.mat_inv(F, data.draw(singular_matrices(F, d)))


# -- Gauss-Jordan on stacks --------------------------------------------------

ELIMINATION_ORDERS = [2, 3, 4, 5, 8, 9]


@st.composite
def _matrix_of_rank_at_most(draw, F, m, n):
    """An m x n matrix over F, a product of an m x r and an r x n matrix
    for a drawn r, so that a stack of them mixes ranks."""
    r = draw(st.integers(0, min(m, n)))
    entries = st.integers(0, F.q - 1)
    C = [[draw(entries) for _ in range(r)] for _ in range(m)]
    B = [[draw(entries) for _ in range(n)] for _ in range(r)]
    return mat_mul(F, C, B) if r else ((0,) * n,) * m


@st.composite
def _stacks(draw, square=False):
    """A field, a stack shape of up to two axes (none for one matrix) and a
    stack of that shape of m x n matrices, 0 rows or 0 columns included, as
    an int64 array and as the list of its members.  A square member is as
    often invertible (P L U, row swaps included) as of lower rank."""
    F = draw(fields(ELIMINATION_ORDERS))
    m = draw(st.integers(0, 6))
    n = m if square else draw(st.integers(0, 7))
    shape = tuple(draw(st.lists(st.integers(0, 3), max_size=2)))
    member = _matrix_of_rank_at_most(F, m, n)
    if m == n:
        member = st.one_of(invertible_matrices(F, m), member)
    members = [draw(member) for _ in range(math.prod(shape))]
    A = np.array(members, dtype=np.int64).reshape(shape + (m, n))
    return F, A, members


@settings(max_examples=150)
@given(_stacks())
def test_rref_np_matches_the_scalar_elimination(drawn):
    """Each member's rows, pivots and rank are the scalar rref's, and its
    rows below the rank are zero; a full-rank square member's unit is its
    determinant."""
    F, A, members = drawn
    R, pivots, unit = la.rref_np(F, A)
    assert R.shape == A.shape and R.dtype == np.int64
    *shape, m, n = A.shape
    assert pivots.shape == (*shape, n) and unit.shape == tuple(shape)
    s = len(members)
    R, pivots, unit = R.reshape(s, m, n), pivots.reshape(s, n), unit.reshape(s)
    for M, Rk, pk, uk in zip(members, R, pivots, unit):
        rows, cols = oracle_rref(F, M)
        assert Rk[:len(rows)].tolist() == [list(r) for r in rows]
        assert not Rk[len(rows):].any()
        assert tuple(np.flatnonzero(pk)) == cols
        if len(rows) == m == n:
            assert uk == oracle_det(F, M)


@pytest.mark.parametrize("members", [
    [((1, 0, 1, 0, 0), (0, 1, 0, 0, 0)),
     ((0, 0, 0, 0, 0), (0, 0, 1, 0, 1))],
    [((1, 0, 1), (0, 1, 0), (0, 0, 0)),
     ((0, 1, 0), (1, 0, 0), (0, 0, 1))]])
def test_rref_np_of_members_that_pivot_apart(members):
    """Over GF(2), a member without a pivot in a column keeps its rows while
    the others reduce.  In the first stack the first member is out of rows
    after column 1 and the second finds its one pivot in column 2.  In the
    second the first member has no pivot in column 2, where the second has
    one; adding multiples of its next row (0, 1, 0) to its rows above would
    put a 1 into its pivot column 1."""
    F = gf.field(2)
    R, pivots, _ = la.rref_np(F, members)
    for M, Rk, pk in zip(members, R, pivots):
        rows, cols = oracle_rref(F, M)
        assert Rk[:len(rows)].tolist() == [list(r) for r in rows]
        assert not Rk[len(rows):].any()
        assert tuple(np.flatnonzero(pk)) == cols


@settings(max_examples=150)
@given(_stacks(square=True))
def test_det_matches_the_scalar_elimination(drawn):
    F, A, members = drawn
    got = la.det(F, A)
    assert got.shape == A.shape[:-2] and got.dtype == np.int64
    assert got.ravel().tolist() == [oracle_det(F, M) for M in members]


@settings(max_examples=100)
@given(st.data())
def test_mat_inv_of_a_stack_and_a_singular_member(data):
    """A stack of invertible matrices inverts member by member as the
    scalar oracle does; one singular member makes the whole call raise."""
    F = data.draw(fields(ELIMINATION_ORDERS))
    d = data.draw(st.integers(1, 6))
    s = data.draw(st.integers(1, 4))
    members = [data.draw(invertible_matrices(F, d)) for _ in range(s)]
    got = la.mat_inv(F, members)
    assert got.shape == (s, d, d) and got.dtype == np.int64
    assert got.tolist() == [[list(r) for r in oracle_inv(F, M)] for M in members]
    members[data.draw(st.integers(0, s - 1))] = data.draw(singular_matrices(F, d))
    with pytest.raises(ValueError, match="matrix is singular"):
        la.mat_inv(F, members)

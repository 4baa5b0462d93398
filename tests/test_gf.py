import itertools
import time

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from polarkit import gf
from strategies import SMALL_ORDERS, field_and_elements, fields


@given(field_and_elements(n=3))
def test_ring_axioms(fxyz):
    F, x, y, z = fxyz
    assert F.add(x, F.add(y, z)) == F.add(F.add(x, y), z)
    assert F.mul(x, F.mul(y, z)) == F.mul(F.mul(x, y), z)
    assert F.add(x, y) == F.add(y, x)
    assert F.mul(x, y) == F.mul(y, x)
    assert F.mul(x, F.add(y, z)) == F.add(F.mul(x, y), F.mul(x, z))
    assert F.add(x, 0) == x and F.mul(x, 1) == x
    assert F.add(x, F.neg(x)) == 0
    assert F.sub(x, y) == F.add(x, F.neg(y))


@given(field_and_elements(n=2, nonzero=True))
def test_division(fxy):
    F, x, y = fxy
    assert F.mul(x, F.inv(x)) == 1
    assert F.mul(F.div(x, y), y) == x


def test_inv_zero_raises():
    F = gf.field(5)
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


@given(fields())
def test_generator_order(F):
    g = F.generator
    seen = set()
    x = 1
    for _ in range(F.q - 1):
        seen.add(x)
        x = F.mul(x, g)
    assert x == 1
    assert len(seen) == F.q - 1


@given(field_and_elements(n=1, nonzero=True))
def test_exp_log_roundtrip(fx):
    F, x = fx
    assert F.exp[F.log[x]] == x


@given(field_and_elements(n=1))
def test_coeffs_roundtrip(fx):
    F, x = fx
    cs = F.coeffs(x)
    assert len(cs) == F.f
    assert all(0 <= c < F.p for c in cs)
    assert F.from_coeffs(cs) == x


@given(field_and_elements(n=2))
def test_frobenius_is_field_automorphism(fxy):
    F, x, y = fxy
    assert F.frobenius(x) == F.pow(x, F.p)
    assert F.frobenius(F.add(x, y)) == F.add(F.frobenius(x), F.frobenius(y))
    assert F.frobenius(F.mul(x, y)) == F.mul(F.frobenius(x), F.frobenius(y))
    assert F.frobenius(x, F.f) == x


@given(fields())
def test_square_census(F):
    nonzero_squares = {F.mul(x, x) for x in F.units()}
    if F.p == 2:
        assert len(nonzero_squares) == F.q - 1   # squaring is a bijection
    else:
        assert len(nonzero_squares) == (F.q - 1) // 2
    for x in F.elements():
        root = F.sqrt(x)
        if F.is_square(x):
            assert root is not None and F.mul(root, root) == x
        else:
            assert root is None


def test_field_is_cached():
    assert gf.field(3, 2) is gf.field(3, 2)
    assert gf.field_of_order(9) is gf.field(3, 2)


@pytest.mark.parametrize("bad", [1, 6, 12, 100])
def test_non_prime_powers_rejected(bad):
    with pytest.raises(ValueError):
        gf.field_of_order(bad)


@pytest.mark.parametrize("small,large", [(2, 4), (2, 16), (3, 9), (3, 27),
                                         (4, 16), (5, 25), (9, 81)])
def test_embedding_roundtrip(small, large):
    S, L = gf.field_of_order(small), gf.field_of_order(large)
    emb = gf.embedding(S, L)
    for a in S.elements():
        y = emb.up(a)
        assert emb.down(y) == a
    # up is a ring homomorphism
    for a in S.elements():
        for b in S.elements():
            assert emb.up(S.add(a, b)) == L.add(emb.up(a), emb.up(b))
            assert emb.up(S.mul(a, b)) == L.mul(emb.up(a), emb.up(b))


def test_embedding_trace_and_norm():
    S, L = gf.field(3), gf.field(3, 2)
    emb = gf.embedding(S, L)
    # trace is the sum of conjugates, additive, and onto
    traces = {emb.trace(y) for y in L.elements()}
    assert traces == set(S.elements())
    for y in L.elements():
        conj_sum = L.add(y, L.frobenius(y, emb.small.f))
        assert emb.up(emb.trace(y)) == conj_sum
    # norm is multiplicative and onto the units
    norms = {emb.norm(y) for y in L.units()}
    assert norms == set(S.units())
    for y in L.units():
        for z in L.units():
            assert emb.norm(L.mul(y, z)) == S.mul(emb.norm(y), emb.norm(z))


def test_embedding_requires_compatible_orders():
    with pytest.raises(ValueError):
        gf.embedding(gf.field_of_order(4), gf.field_of_order(8))
    with pytest.raises(ValueError):
        gf.embedding(gf.field(3), gf.field(2, 2))


def test_down_rejects_outsiders():
    emb = gf.embedding(gf.field(2), gf.field(2, 2))
    with pytest.raises(ValueError):
        emb.down(gf.field(2, 2).generator)


@given(fields(orders=[4, 8, 9, 16, 25, 27]))
def test_exp_basis_spans(F):
    """{g^0, ..., g^(f-1)} is an F_p-basis: its F_p-span hits every element."""
    basis = [F.exp[j] for j in range(F.f)]
    span = set()
    for cs in itertools.product(range(F.p), repeat=F.f):
        acc = 0
        for c, b in zip(cs, basis):
            acc = F.add(acc, F.mul(c, b))
        span.add(acc)
    assert len(span) == F.q


def test_field_over_the_table_cap_is_refused_at_once():
    """The cap is checked before the primitive-polynomial search, which for
    GF(2^17) would run for minutes before the tables refused the field."""
    start = time.perf_counter()
    with pytest.raises(ValueError, match="not supported by the table backend"):
        gf.field(2, 17)
    assert time.perf_counter() - start < 1


_TABLE_ORDERS = sorted(p ** f for p, f in gf._CONWAY if p ** f <= 64)


@pytest.mark.parametrize("q", _TABLE_ORDERS)
def test_numpy_tables_match_scalar_arithmetic(q):
    """Every pair: the bulk helpers against the scalar add, mul, inv and
    frobenius."""
    F = gf.field_of_order(q)
    a, b = (x.ravel() for x in np.meshgrid(range(q), range(q), indexing="ij"))
    pairs = list(zip(a.tolist(), b.tolist()))
    assert F.mul_np(a, b).tolist() == [F.mul(x, y) for x, y in pairs]
    added = F.from_digits((F.digits(a) + F.digits(b)) % F.p)
    assert added.tolist() == [F.add(x, y) for x, y in pairs]
    assert F.digits(a).tolist() == [F.coeffs(x) for x in a.tolist()]
    assert F.inv_np[1:].tolist() == [F.inv(x) for x in F.units()]
    for k in range(F.f):
        assert F.frobenius_np(range(q), k).tolist() == [F.frobenius(x, k)
                                                         for x in range(q)]
        # x -> x^(p^k) * c on digits, for every x and c
        M = F.mul_matrix(range(q), k)
        got = F.from_digits(np.einsum("xr,crs->cxs", F.digits(range(q)), M) % F.p)
        assert got.tolist() == [[F.mul(F.frobenius(x, k), c) for x in range(q)]
                                for c in range(q)]


@pytest.mark.parametrize("q", _TABLE_ORDERS)
def test_digit_table_matches_the_arithmetic(q):
    """Row a of the digit table is a's base-p digits by integer division and
    its coefficient list; digits gathers from it on any shape (0-d, empty,
    3-d): shape + (f,), int64, the digits a // p^r % p, undone by
    from_digits; a code q is out of range."""
    F = gf.field_of_order(q)
    for shape in [(), (0,), (2, 3, 4)]:
        a = -np.arange(int(np.prod(shape)), dtype=np.int64).reshape(shape) % q
        x = F.digits(a)
        assert x.shape == shape + (F.f,) and x.dtype == np.int64
        oracle = np.stack([a // F.p ** r % F.p for r in range(F.f)], axis=-1)
        assert np.array_equal(x, oracle)
        assert np.array_equal(F.from_digits(x), a)
    if F.f == 1:
        assert F.digits(range(q)).tolist() == [[a] for a in range(q)]
        return
    table = F.digit_table
    assert table.shape == (q, F.f) and table.dtype == np.int64
    assert table.tolist() == [[a // F.p ** r % F.p for r in range(F.f)]
                              for a in range(q)]
    assert table.tolist() == [F.coeffs(a) for a in range(q)]
    assert F.from_digits(table).tolist() == list(range(q))
    codes = np.arange(2 * q).reshape(2, q) % q
    assert F.digits(codes).tolist() == [[F.coeffs(a) for a in row]
                                        for row in codes.tolist()]
    with pytest.raises(IndexError):
        F.digits([0, q])


def _sympy_galois():
    gt = pytest.importorskip("sympy.polys.galoistools")
    from sympy import factorint
    from sympy.polys.domains import ZZ
    return gt, factorint, ZZ


@pytest.mark.parametrize("pf", sorted(gf._CONWAY))
def test_conway_polynomials_are_irreducible_and_primitive(pf):
    """sympy as an independent oracle: each frozen polynomial is irreducible
    and x has multiplicative order exactly p^f - 1 modulo it."""
    gt, factorint, ZZ = _sympy_galois()
    p, f = pf
    poly = [ZZ(c) for c in reversed(gf._CONWAY[pf])]     # sympy is big-endian
    assert gt.gf_irreducible_p(poly, p, ZZ)
    n = p ** f - 1
    x = [ZZ(1), ZZ(0)]
    assert gt.gf_pow_mod(x, n, poly, p, ZZ) == [1]
    for r in factorint(n):
        assert gt.gf_pow_mod(x, n // r, poly, p, ZZ) != [1]


@pytest.mark.parametrize("q", _TABLE_ORDERS)
def test_products_match_sympy_polynomial_arithmetic(q):
    """mul on every pair against polynomial multiplication modulo the
    defining polynomial, computed by sympy."""
    gt, _, ZZ = _sympy_galois()
    F = gf.field_of_order(q)
    poly = [ZZ(c) for c in reversed(F.defining_polynomial)]

    def big_endian(x):
        return gt.gf_strip([ZZ(c) for c in reversed(F.coeffs(x))])

    for x in F.elements():
        for y in F.elements():
            rem = gt.gf_rem(gt.gf_mul(big_endian(x), big_endian(y), F.p, ZZ),
                            poly, F.p, ZZ)
            assert F.mul(x, y) == F.from_coeffs([int(c) for c in reversed(rem)])


# Fields outside the Conway table: every prime and prime power here takes
# its polynomial from the search.
_SEARCHED = [(17, 1), (509, 1), (2003, 1), (8191, 1), (65521, 1), (2, 11),
             (2, 12), (2, 16), (3, 7), (3, 10), (5, 5), (11, 3), (13, 3),
             (17, 2), (19, 2), (23, 2), (29, 2)]


def _is_primitive(gt, factorint, ZZ, poly, p):
    """x has order exactly p^f - 1 modulo poly (little-endian, monic)."""
    big = [ZZ(c) for c in reversed(poly)]
    n = p ** (len(poly) - 1) - 1
    x = [ZZ(1), ZZ(0)]
    return (gt.gf_pow_mod(x, n, big, p, ZZ) == [1]
            and all(gt.gf_pow_mod(x, n // r, big, p, ZZ) != [1] for r in factorint(n)))


def _conway_key(poly, p):
    """The Conway ordering: coefficients from x^(f-1) down, with alternating
    signs."""
    f = len(poly) - 1
    return tuple((-1) ** (f - i) * poly[i] % p for i in range(f - 1, -1, -1))


@pytest.mark.parametrize("pf", _SEARCHED, ids=[f"{p}^{f}" for p, f in _SEARCHED])
def test_searched_polynomials_are_the_least_primitive(pf):
    """sympy as the oracle: the chosen polynomial is irreducible and
    primitive and the generator is its root; for q up to 3,200 every monic
    polynomial of smaller Conway key is not primitive."""
    gt, factorint, ZZ = _sympy_galois()
    p, f = pf
    assert pf not in gf._CONWAY
    F = gf.field(p, f)
    poly = F.defining_polynomial
    assert len(poly) == f + 1 and poly[-1] == 1
    assert gt.gf_irreducible_p([ZZ(c) for c in reversed(poly)], p, ZZ)
    assert _is_primitive(gt, factorint, ZZ, poly, p)
    assert F.generator == (p if f > 1 else -poly[0] % p)
    if p ** f > 3200:
        return
    key = _conway_key(poly, p)
    smaller = [tail + (1,) for tail in itertools.product(range(p), repeat=f)
               if _conway_key(tail + (1,), p) < key]
    assert not any(_is_primitive(gt, factorint, ZZ, g, p) for g in smaller)


@pytest.mark.parametrize("q", [17, 289, 529])
def test_add_and_neg_match_sympy_on_searched_fields(q):
    """Scalar add and neg against sympy's coefficient arithmetic: 17 and
    289 read the addition table (bytes rows, then int lists), 529 is past
    the table cap and adds digitwise."""
    gt, _, ZZ = _sympy_galois()
    F = gf.field_of_order(q)

    def big_endian(x):
        return gt.gf_strip([ZZ(c) for c in reversed(F.coeffs(x))])

    def code(cs):
        return F.from_coeffs([int(c) for c in reversed(cs)])

    for x in F.elements():
        assert F.neg(x) == code(gt.gf_neg(big_endian(x), F.p, ZZ))
        for y in range(x % 7, q, 7):
            assert F.add(x, y) == code(gt.gf_add(big_endian(x), big_endian(y), F.p, ZZ))


@pytest.mark.parametrize("p,f", [(2, 16), (65521, 1)])
def test_largest_fields_build_fast_with_exact_tables(p, f):
    """A fresh build at the table cap (not the cached instance) finishes in
    seconds; exp and log are inverse bijections."""
    start = time.perf_counter()
    F = gf.FiniteField(p, f, _token=gf._FIELD_TOKEN)
    assert time.perf_counter() - start < 10
    q = F.q
    assert sorted(F.exp[:q - 1]) == list(range(1, q))
    assert all(F.log[F.exp[i]] == i for i in range(q - 1))
    assert all(F.exp[F.log[x]] == x for x in range(1, q))

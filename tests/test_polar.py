import itertools

import numpy as np
import pytest

from polarkit import forms, gf, polar
from strategies import canonical

# (kind, projective dim, q) -> (points, rank, ovoid number).  Point counts
# follow (q^r - 1)/(q - 1) * theta_r; this table is the frozen cross-check.
CORPUS = [
    ("W", 3, 3, 40, 2, 10),
    ("W", 5, 2, 63, 3, 9),
    ("Q", 4, 3, 40, 2, 10),
    ("Q", 6, 3, 364, 3, 28),
    ("Q+", 5, 2, 35, 3, 5),
    ("Q+", 7, 2, 135, 4, 9),
    ("Q+", 7, 3, 1120, 4, 28),
    ("Q-", 5, 2, 27, 2, 9),
    ("Q-", 5, 3, 112, 2, 28),
    ("H", 3, 4, 45, 2, 9),
    ("H", 4, 4, 165, 2, 33),
]


def _space(kind, pdim, q):
    return polar.build(forms.standard_form(kind, pdim + 1, gf.field_of_order(q)))


@pytest.mark.parametrize("kind,pdim,q,n,r,theta", CORPUS)
def test_corpus_counts(kind, pdim, q, n, r, theta):
    sp = _space(kind, pdim, q)
    assert sp.num_points == n
    assert sp.rank == r
    assert sp.ovoid_number == theta
    u = (q ** r - 1) // (q - 1)
    assert n == u * theta
    assert polar.expected_point_count(sp.kind, pdim + 1, q) == n


@pytest.mark.parametrize("kind,e", [("W", 1), ("Q+", 0), ("Q", 1), ("Q-", 2)])
def test_theta_exponent(kind, e):
    # theta_j = q^(j-1+e) + 1 for the non-Hermitian kinds
    d = {"W": 6, "Q+": 6, "Q": 7, "Q-": 8}[kind]
    q = 3
    r = polar.rank_of(forms.parse_kind(kind), d)
    for j in range(1, r + 1):
        assert polar.theta(forms.parse_kind(kind), d, q, j) == q ** (j - 1 + e) + 1


def test_theta_hermitian_half_exponents():
    H = forms.parse_kind("H")
    assert polar.theta(H, 4, 4, 2) == 4 ** 1 * 2 + 1  # even d: e = 1/2, 4^1.5+1
    assert polar.theta(H, 5, 4, 2) == 4 ** 2 * 2 + 1  # odd d:  e = 3/2, 4^2.5+1


def test_point_order_is_deterministic():
    a = _space("Q-", 5, 3)
    b = _space("Q-", 5, 3)
    assert a.points == b.points
    assert a.ts_basis == b.ts_basis


def _oracle_points(form):
    """Every singular vector of F^d, normalised by hand to first nonzero
    coordinate 1, deduplicated and sorted by base-q code."""
    F, d = form.field, form.dim
    found = set()
    for v in itertools.product(range(F.q), repeat=d):
        if any(v) and form.evaluate(v) == 0:
            lead = next(x for x in v if x)
            found.add(tuple(F.div(x, lead) for x in v))
    return sorted(found, key=lambda v: sum(x * F.q ** (d - 1 - i)
                                           for i, x in enumerate(v)))


@pytest.mark.parametrize("kind,pdim,q", [
    ("W", 5, 2), ("Q-", 5, 3), ("Q", 6, 3), ("H", 3, 4), ("Q+", 5, 4),
    ("Q+", 11, 2), ("Q-", 13, 2),
])
def test_points_match_full_space_oracle(kind, pdim, q):
    sp = _space(kind, pdim, q)
    assert list(sp.points) == _oracle_points(sp.form)


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_projective_vectors(q):
    F = gf.field_of_order(q)
    vecs = list(polar.projective_vectors(F, 3))
    assert len(vecs) == q * q + q + 1
    assert vecs == sorted(vecs)
    assert all(canonical(F, v) == v for v in vecs)
    assert {canonical(F, tuple(F.mul(c, x) for x in v))
            for v in vecs for c in F.units()} == set(vecs)


def test_projective_vectors_across_scan_blocks():
    F = gf.field(2)
    vecs = list(polar.projective_vectors(F, 14))   # 2^13 tails share lead 0
    assert vecs == sorted(set(vecs))
    assert len(vecs) == 2 ** 14 - 1
    assert all(canonical(F, v) == v for v in vecs)


@pytest.mark.parametrize("p,d", [(2, 5), (3, 4), (5, 6), (7, 3), (13, 4)])
def test_canonical_codes_match_canonical(p, d):
    F = gf.field(p)
    rng = np.random.default_rng(p * 100 + d)
    rows = rng.integers(0, p, size=(200, d))
    rows = rows[rows.any(axis=1)]
    # every row next to a random unit multiple of itself; for p > 2 most of
    # these are not canonical
    scaled = rows * rng.integers(1, p, size=(len(rows), 1)) % p
    both = np.concatenate([rows, scaled])
    want = [sum(x * p ** (d - 1 - i)
                for i, x in enumerate(canonical(F, tuple(r))))
            for r in both.tolist()]
    got = polar.canonical_codes(F, both)
    assert got.dtype == np.int64
    assert got.tolist() == want
    assert np.array_equal(got[:len(rows)], got[len(rows):])


def test_grid_refused():
    form = forms.standard_form("Q+", 4, gf.field(3))
    with pytest.raises(ValueError, match="grid"):
        polar.build(form)
    sp = polar.build(form, allow_grid=True)
    assert sp.num_points == (3 + 1) ** 2


def test_cap():
    form = forms.standard_form("W", 4, gf.field(3))
    with pytest.raises(ValueError, match="cap"):
        polar.build(form, cap=10)


def test_collinearity_matches_form(w33):
    form = w33.form
    for i in range(0, 40, 7):
        for j in range(0, 40, 11):
            expected = form.evaluate_pair(w33.points[i], w33.points[j]) == 0
            assert w33.collinear(i, j) == expected


def test_point_canonicalization(q43):
    for v in q43.points:
        lead = next(x for x in v if x)
        assert lead == 1
    assert len(set(q43.points)) == q43.num_points


# -- point sets -------------------------------------------------------------


def test_point_set_normalizes(w33):
    M = polar.PointSet(w33, (5, 3, 3, 1))
    assert M.members == (1, 3, 5)
    assert len(M) == 3


def test_point_set_bounds(w33):
    with pytest.raises(ValueError):
        polar.PointSet(w33, (0, 40))


def test_complement(w33):
    M = polar.PointSet(w33, tuple(range(15)))
    C = M.complement()
    assert len(C) == 25
    assert not set(M.members) & set(C.members)
    assert polar.full_set(w33).complement().members == ()


# -- derived configurations -------------------------------------------------


def test_perp_residual_of_zero_is_everything(q43):
    Z = forms.Subspace.zero(q43.field, q43.d)
    assert polar.perp_residual(q43, Z).members == tuple(range(40))


def test_perp_residual_counts(q43, qm52):
    S = polar.nonsingular_point_with_residual(q43, "Q-")
    res = polar.perp_residual(q43, S)
    assert len(res) == 10          # elliptic Q-(3,3) inside Q(4,3)
    L = polar.first_subspace_of_type(qm52, 2, "Q-", anisotropic=True)
    res2 = polar.perp_residual(qm52, L)
    assert len(res2) == 9          # Q-(3,2) inside Q-(5,2)


def test_first_subspace_of_type_properties(qm52):
    L = polar.first_subspace_of_type(qm52, 2, "Q-", anisotropic=True)
    rep = forms.classify_restriction(qm52.form, L)
    assert rep.kind is forms.FormKind.MINUS and rep.nondegenerate
    for v in L.vectors():
        assert qm52.form.evaluate(v) != 0


def test_first_subspace_scan_limit(w33):
    with pytest.raises(ValueError):
        polar.first_subspace_of_type(w33, 4, "W")


def test_maximal_ts_points(w33, q43):
    for sp in (w33, q43):
        gen = polar.maximal_ts_points(sp)
        u = (sp.q ** sp.rank - 1) // (sp.q - 1)
        assert len(gen) == u
        pts = [sp.points[i] for i in gen.members]
        for a in pts:
            for b in pts:
                assert sp.form.evaluate_pair(a, b) == 0


@pytest.mark.parametrize("kind,pdim,q", [("Q+", 7, 3), ("W", 5, 4),
                                         ("H", 4, 4), ("Q-", 5, 8),
                                         ("Q", 4, 9), ("Q-", 1, 3)])
def test_maximal_ts_points_match_the_span_oracle(kind, pdim, q):
    """Neither building a space nor finding its maximal TS points builds
    the tuple point list or its index; the members are the canonical forms
    of every nonzero vector in the span of the TS basis."""
    sp = _space(kind, pdim, q)
    members = polar.maximal_ts_points(sp).members
    assert sp._points is None and sp._index is None
    F = sp.field
    span = forms.Subspace.span(F, sp.ts_basis, ambient=sp.d)
    assert members == tuple(sorted({sp.index[canonical(F, v)]
                                    for v in span.vectors()}))
    assert sp.num_points == len(sp.points) == len(sp.points_np)

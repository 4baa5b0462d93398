"""Differential checks of the array backend against the scalar paths it
replaced.

Every field runs on the GF(p)-digit kernels of _linalg (expand,
expand_quadratic, form_values, mulmod).  Each oracle below is the
pure-Python loop that did the same job before, built from FiniteField
methods and the scalar form values of tests/strategies.py only, and each test draws fields from GF(2) to GF(25),
forms in random coordinates (Hermitian ones included) and semilinear maps.
"""

import functools
import itertools
import math
import operator
from unittest import mock

from hypothesis import assume, given, settings
import hypothesis.strategies as st
import numpy as np
import pytest

from polarkit import _linalg as la
from polarkit import fieldred, forms, gf, group, intriguing, polar
from strategies import (canonical, flatten, form_value, frobenius, mat_mul,
                        pair_value, point_index, points, span)

ORDERS = [2, 3, 4, 8, 9, 16, 25]


# -- the oracles ---------------------------------------------------------------


def scan_oracle(form):
    """The generic scan: each canonical vector (first nonzero coordinate 1)
    of F^d in lexicographic order, kept when singular."""
    F = form.field
    return tuple(v for v in itertools.product(F.elements(), repeat=form.dim)
                 if any(v) and next(x for x in v if x) == 1
                 and form_value(form, v) == 0)


def greedy_ts_oracle(form, points):
    """The greedy maximal totally singular subspace, point by point."""
    F = form.field
    basis = []
    spanned = span(F, basis, form.dim)
    for pt in points:
        if any(pair_value(form, pt, x) != 0 for x in basis):
            continue
        if pt in spanned:
            continue
        basis.append(pt)
        spanned = span(F, basis, form.dim)
    return tuple(basis)


def raw_counts_oracle(space, members):
    """|P^perp ∩ members| for each point P, one form value at a time."""
    form, pts = space.form, points(space)
    mvecs = [pts[i] for i in members]
    return [sum(1 for w in mvecs if pair_value(form, pt, w) == 0)
            for pt in pts]


def perp_residual_oracle(space, W):
    return tuple(i for i, pt in enumerate(points(space))
                 if all(pair_value(space.form, pt, s) == 0 for s in W.rows))


def count_singular_oracle(F, C):
    """Nonzero vectors v with v C v^T = 0, over all of F^d."""
    d = len(C)
    n = 0
    for v in itertools.product(F.elements(), repeat=d):
        if any(v):
            acc = 0
            for i, x in enumerate(v):
                if x:
                    row = C[i]
                    acc = F.add(acc, F.mul(x, F.mul(x, row[i])))
                    for j in range(i + 1, d):
                        if v[j] and row[j]:
                            acc = F.add(acc, F.mul(row[j], F.mul(x, v[j])))
            if acc == 0:
                n += 1
    return n


def point_images_oracle(space, g):
    F, index = space.field, point_index(space)
    return [index[canonical(F, g.apply(v))] for v in points(space)]


def small_points_oracle(fr, large_members):
    """The GF(q)-points on the given GF(q^b)-points: every unit multiple of
    each large vector, flattened and normalised one at a time."""
    L = fr.large_field
    emb = gf.embedding(fr.small_field, L)
    index = point_index(fr.small_space)
    members = set()
    for i in large_members:
        w = points(fr.large_space)[i]
        for eta in L.units():
            vw = tuple(L.mul(eta, x) for x in w)
            members.add(index[canonical(fr.small_field, flatten(emb, vw))])
    return tuple(sorted(members))


# -- inputs --------------------------------------------------------------------


def _valid(kind, d, F):
    if kind == "W":
        return d % 2 == 0
    if kind == "Q":
        return d % 2 == 1 and F.p != 2
    if kind in ("Q+", "Q-"):
        return d % 2 == 0
    return F.f % 2 == 0


_SHAPES = [("W", 2), ("W", 4), ("W", 6), ("Q", 3), ("Q", 5), ("Q+", 4),
           ("Q+", 6), ("Q+", 8), ("Q-", 4), ("Q-", 6), ("Q-", 8), ("H", 2),
           ("H", 3), ("H", 4)]

# every space whose oracle scan stays small (q^d vectors, at most 1200 points)
SPACES = [(q, kind, d) for q in ORDERS for kind, d in _SHAPES
          if _valid(kind, d, gf.field_of_order(q)) and q ** d <= 70_000
          and polar.expected_point_count(kind, d, q) <= 1200]


def _transformed(form, A):
    """The form x -> form(x A), of the same kind, in stored coordinates."""
    F, d = form.field, form.dim
    At = tuple(zip(*A))
    if form.kind.is_quadratic:
        M = mat_mul(F, mat_mul(F, A, form.data), At)
        C = [[M[i][i] if i == j else F.add(M[i][j], M[j][i]) if i < j else 0
              for j in range(d)] for i in range(d)]
        return forms.Form(form.kind, F, C)
    Atau_t = tuple(zip(*frobenius(F, A, form.sigma)))
    return forms.Form(form.kind, F, mat_mul(F, mat_mul(F, A, form.data), Atau_t))


def _draw_invertible(data, F, d):
    A = [[data.draw(st.integers(0, F.q - 1)) for _ in range(d)]
         for _ in range(d)]
    assume(la.det(F, A) != 0)
    return A


def _draw_space(data, spaces=SPACES):
    """A polar space of a random-coordinate form, and the change of basis."""
    q, kind, d = data.draw(st.sampled_from(spaces))
    F = gf.field_of_order(q)
    A = _draw_invertible(data, F, d)
    form = _transformed(forms.standard_form(kind, d, F), A)
    return polar.build(form, allow_grid=True), A


# -- enumeration, rank, perp counts --------------------------------------------


@settings(max_examples=60)
@given(st.data())
def test_scan_and_greedy_rank_match_the_scalar_paths(data):
    space, _ = _draw_space(data)
    pts = points(space)
    assert pts == scan_oracle(space.form)
    assert space.ts_basis == greedy_ts_oracle(space.form, pts)


@settings(max_examples=60)
@given(st.data())
def test_perp_counts_and_residuals_match_the_scalar_paths(data):
    space, _ = _draw_space(data)
    n = space.num_points
    members = sorted(set(data.draw(st.lists(st.integers(0, n - 1), max_size=12))))
    got = intriguing._raw_counts(space, members)
    assert got.tolist() == raw_counts_oracle(space, members)
    pts = points(space)
    rows = [pts[i] for i in members[:2]] or [pts[0]]
    W = forms.Subspace.span(space.field, rows)
    assert (polar.perp_residual(space, W).members.tolist()
            == list(perp_residual_oracle(space, W)))


_SIGN_SHAPES = [(q, d) for q in ORDERS for d in (2, 4, 6) if q ** d <= 5000]


@settings(max_examples=60)
@given(st.data())
def test_singular_count_matches_the_full_space_loop(data):
    """Any upper-triangular C, degenerate ones included."""
    q, d = data.draw(st.sampled_from(_SIGN_SHAPES))
    F = gf.field_of_order(q)
    C = tuple(tuple(data.draw(st.integers(0, q - 1)) if j >= i else 0
                    for j in range(d)) for i in range(d))
    assert (q - 1) * len(la.singular_points(F, C)) == count_singular_oracle(F, C)


@settings(max_examples=60)
@given(st.data())
def test_quadratic_sign_matches_the_singular_count(data):
    """Nondegenerate C: the discriminant (odd q) or Arf invariant (even q)
    names the type whose singular-vector count the full loop finds."""
    q, d = data.draw(st.sampled_from(_SIGN_SHAPES))
    F = gf.field_of_order(q)
    C = tuple(tuple(data.draw(st.integers(0, q - 1)) if j >= i else 0
                    for j in range(d)) for i in range(d))
    B = tuple(tuple(F.add(C[i][j], C[j][i]) for j in range(d)) for i in range(d))
    assume(la.det(F, B) != 0)
    k = d // 2
    plus = (q ** (k - 1) + 1) * (q ** k - 1)
    want = (forms.FormKind.PLUS if count_singular_oracle(F, C) == plus
            else forms.FormKind.MINUS)
    assert forms._quadratic_sign(F, C, B) is want


# every nondegenerate kind for d = 1..6 whose oracle scan stays small
_KERNEL_SPACES = [(q, kind, d) for q in ORDERS
                  for kind in ("W", "Q", "Q+", "Q-", "H")
                  for d in range(1, 7)
                  if _valid(kind, d, gf.field_of_order(q)) and q ** d <= 5000]


@settings(max_examples=80)
@given(st.data())
def test_singular_points_match_the_scan_oracle_across_chunks(data):
    """Forms in random coordinates, Hermitian ones included, with the cell
    budget and the row block cut down so that the heads, their form values
    and the zero tests span several chunks."""
    q, kind, d = data.draw(st.sampled_from(_KERNEL_SPACES))
    F = gf.field_of_order(q)
    form = _transformed(forms.standard_form(kind, d, F),
                        _draw_invertible(data, F, d))
    cells = data.draw(st.integers(1, 4 * q ** (d // 2) * F.f))
    rows = data.draw(st.integers(1, 40))
    with mock.patch.object(la, "_SCAN_CELLS", cells), \
            mock.patch.object(la, "_SCAN_ROWS", rows):
        got = la.singular_points(F, form.data, form.sigma)
    assert got.dtype == np.int64
    assert list(map(tuple, got.tolist())) == list(scan_oracle(form))


# -- the scalar form layer -----------------------------------------------------


_FORM_SHAPES = [(q, kind, d) for q in ORDERS
                for kind in ("W", "Q", "Q+", "Q-", "H") for d in range(1, 7)
                if _valid(kind, d, gf.field_of_order(q))]


@settings(max_examples=120)
@given(st.data())
def test_form_evaluation_matches_the_definitions(data):
    """evaluate, evaluate_pair and pair_functional on drawn vectors, for
    every kind in random coordinates, even q and Hermitian forms included."""
    q, kind, d = data.draw(st.sampled_from(_FORM_SHAPES))
    F = gf.field_of_order(q)
    form = _transformed(forms.standard_form(kind, d, F),
                        _draw_invertible(data, F, d))
    vec = st.tuples(*[st.integers(0, q - 1)] * d)
    u, v = data.draw(vec), data.draw(vec)
    kappa = pair_value(form, u, v)
    assert form.evaluate_pair(u, v) == kappa
    w = form.pair_functional(v)
    assert functools.reduce(F.add, map(F.mul, u, w), 0) == kappa
    assert form.evaluate(v) == form_value(form, v)


# -- the digit expansion -------------------------------------------------------


def _all_vectors(F, d):
    return list(itertools.product(F.elements(), repeat=d))


@settings(max_examples=80)
@given(st.data())
def test_expand_matches_apply_on_every_vector(data):
    q = data.draw(st.sampled_from(ORDERS))
    F = gf.field_of_order(q)
    d = data.draw(st.integers(1, 3 if q <= 9 else 2))
    g = group.Semisimilarity(F, _draw_invertible(data, F, d),
                             data.draw(st.integers(0, F.f - 1)))
    vecs = _all_vectors(F, d)
    W = la.mulmod(F.digit_rows(vecs), la.expand(F, g.matrix, g.sigma_power), F.p)
    assert F.code_rows(W).tolist() == [list(g.apply(v)) for v in vecs]


@settings(max_examples=60)
@given(st.data())
def test_form_values_match_evaluate_on_every_vector(data):
    """form_values against evaluate's definition, the scalar form_value."""
    q, kind, d = data.draw(st.sampled_from(
        [s for s in SPACES if s[0] ** s[2] <= 5000]))
    F = gf.field_of_order(q)
    form = _transformed(forms.standard_form(kind, d, F),
                        _draw_invertible(data, F, d))
    vecs = _all_vectors(F, d)
    A = la.expand_quadratic(F, form.data, form.sigma)
    got = F.from_digits(la.form_values(F, A, F.digit_rows(vecs)))
    assert got.tolist() == [form_value(form, v) for v in vecs]


# -- point images ----------------------------------------------------------------

_FAMILY = {"W": "Sp", "H": "SU", "Q": "Omega", "Q+": "OmegaPlus",
           "Q-": "OmegaMinus"}


def _frobenius(F, d):
    return group.Semisimilarity(F, [[int(i == j) for j in range(d)]
                                    for i in range(d)], sigma_power=1)


@functools.lru_cache(maxsize=None)
def _semisimilarities(q, kind, d):
    """Semisimilarities of the standard form: the family's generators where
    they are built (q <= 9), else SL2 elements (W) or monomial maps (H); then
    the Frobenius map and its products when they preserve the form."""
    F = gf.field_of_order(q)
    form = forms.standard_form(kind, d, F)
    if q <= 9:
        pool = list(group.classical_generators(_FAMILY[kind], d, F,
                                               self_check=False))
    elif kind == "W":
        w = F.generator
        pool = [group.Semisimilarity(F, M) for M in
                ([[1, w], [0, 1]], [[1, 0], [w, 1]], [[w, 0], [0, F.inv(w)]])]
    else:
        eta = F.pow(F.generator, math.isqrt(q) - 1)   # norm one
        swap = [[int(j == (1 - i if i < 2 else i)) for j in range(d)]
                for i in range(d)]
        diag = [[(eta if i == 0 else 1) if i == j else 0 for j in range(d)]
                for i in range(d)]
        pool = [group.Semisimilarity(F, swap), group.Semisimilarity(F, diag)]
    if F.f > 1:
        frob = _frobenius(F, d)
        try:
            group.multiplier(form, frob)
        except ValueError:
            pass
        else:
            pool += [frob] + [g * frob for g in pool[:4]]
    return pool


_IMAGE_SPACES = [s for s in SPACES if s[1] in ("W", "H") or s[0] <= 9]


@settings(max_examples=60)
@given(st.data())
def test_point_images_match_apply_point_by_point(data):
    """Drawn semisimilarities in random coordinates, streamed with the block
    cut down so that several share a block or one spans several."""
    space, A = _draw_space(data, _IMAGE_SPACES)
    F = space.field
    pool = _semisimilarities(space.q, space.kind.value, space.d)
    change = group.Semisimilarity(F, A)
    gens = []
    for _ in range(data.draw(st.integers(1, 3))):
        word = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
        g = functools.reduce(operator.mul, word)
        g = change * g * change.inverse()   # a semisimilarity of space.form
        group.multiplier(space.form, g)
        gens.append(g)
    rows = data.draw(st.integers(1, 3 * space.num_points))
    with mock.patch.object(la, "_SCAN_ROWS", rows):
        got = list(group._point_images(space, gens))
    assert [img.tolist() for img in got] == [point_images_oracle(space, g)
                                             for g in gens]


@pytest.mark.parametrize("q,kind,d,rows", [
    (3, "W", 4, 100),    # 40 points: two generators a block, then one
    (3, "W", 4, 7),      # each generator over six blocks, the last partial
    (4, "H", 4, 135),    # 45 points over GF(4): three generators a block
    (4, "H", 4, 16),
    (9, "W", 4, 1700),   # 820 points over GF(9): two generators a block
    (9, "W", 4, 300)])
def test_streamed_point_images_match_the_oracle(q, kind, d, rows):
    """Streamed images of isometries and of semilinear maps (sigma != 0),
    against the scalar oracle, across every block shape."""
    pool = _semisimilarities(q, kind, d)
    gens = pool[:2] + [g for g in pool if g.sigma_power][:2] + pool[2:3]
    space = polar.build(forms.standard_form(kind, d, gf.field_of_order(q)))
    assert any(g.sigma_power for g in gens) == (q > 3)
    with mock.patch.object(la, "_SCAN_ROWS", rows):
        got = list(group._point_images(space, gens))
    assert [img.tolist() for img in got] == [point_images_oracle(space, g)
                                             for g in gens]


# -- field reduction -------------------------------------------------------------

_REDUCTIONS = [  # (row, small q, b, large kind, large dimension)
    (1, 2, 2, "W", 2), (1, 2, 3, "W", 2), (1, 3, 2, "W", 2), (1, 2, 4, "W", 2),
    (1, 4, 2, "W", 2), (1, 5, 2, "W", 2), (1, 2, 2, "W", 4),
    (2, 2, 2, "Q+", 4), (3, 2, 2, "Q-", 4), (3, 3, 2, "Q-", 4),
    (9, 2, 2, "H", 3), (9, 3, 2, "H", 3), (9, 2, 4, "H", 3), (10, 2, 2, "H", 4),
]


@settings(max_examples=40)
@given(st.data())
def test_blow_up_and_push_down_match_the_point_by_point_paths(data):
    row, q, b, kind, m = data.draw(st.sampled_from(_REDUCTIONS))
    S = gf.field_of_order(q)
    L = gf.field(S.p, S.f * b)
    alpha = data.draw(st.integers(1, L.q - 1))
    try:
        fr = fieldred.reduce(row, forms.standard_form(kind, m, L), S, alpha=alpha)
    except ValueError:      # rows 9 and 10 need alpha in the midfield
        assume(False)
    n = fr.large_space.num_points
    assert (fieldred.blow_up(fr).members.tolist()
            == list(small_points_oracle(fr, range(n))))
    some = sorted(set(data.draw(st.lists(st.integers(0, n - 1), max_size=6))))
    large = polar.PointSet(fr.large_space, tuple(some))
    assert (fieldred.push_down(fr, large).members.tolist()
            == list(small_points_oracle(fr, some)))

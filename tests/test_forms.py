import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from polarkit import forms, gf, polar
from polarkit.forms import FormKind, Subspace
from strategies import fields, form_value, pair_value, span

SPACES = [("W", 4, 3), ("W", 6, 2), ("Q", 5, 3), ("Q+", 4, 2), ("Q+", 6, 3),
          ("Q-", 4, 3), ("Q-", 6, 2), ("H", 4, 4), ("H", 3, 9)]


@st.composite
def form_and_vectors(draw, n=2):
    kind, d, q = draw(st.sampled_from(SPACES))
    form = forms.standard_form(kind, d, gf.field_of_order(q))
    vs = [tuple(draw(st.integers(0, q - 1)) for _ in range(d)) for _ in range(n)]
    return (form, *vs)


@given(form_and_vectors(n=2))
def test_polarization_identity(fuv):
    """Q(u+v) - Q(u) - Q(v) = B(u, v) for the quadratic kinds; for the others
    evaluate_pair *is* the form."""
    form, u, v = fuv
    F = form.field
    w = tuple(F.add(a, b) for a, b in zip(u, v))
    lhs = F.sub(F.sub(form.evaluate(w), form.evaluate(u)), form.evaluate(v))
    if form.kind.is_quadratic:
        assert lhs == form.evaluate_pair(u, v)
    elif form.kind is FormKind.SYMPLECTIC:
        assert form.evaluate_pair(u, u) == 0


@given(form_and_vectors(n=2))
def test_pair_symmetry(fuv):
    form, u, v = fuv
    F = form.field
    a, b = form.evaluate_pair(u, v), form.evaluate_pair(v, u)
    if form.kind is FormKind.SYMPLECTIC:
        assert a == F.neg(b)
    elif form.kind is FormKind.HERMITIAN:
        assert a == F.frobenius(b, form.sigma)
    else:
        assert a == b


@given(form_and_vectors(n=2))
def test_pair_functional_matches(fuv):
    form, u, s = fuv
    F = form.field
    row = form.pair_functional(s)
    acc = 0
    for x, w in zip(u, row):
        acc = F.add(acc, F.mul(x, w))
    assert acc == form.evaluate_pair(u, s)


@given(form_and_vectors(n=1))
def test_bilinearity(fu):
    form, u = fu
    F = form.field
    lam = F.generator
    scaled = tuple(F.mul(lam, x) for x in u)
    got = form.evaluate_pair(scaled, u)
    assert got == F.mul(lam, form.evaluate_pair(u, u))


def test_standard_symplectic_layout():
    F = gf.field(3)
    form = forms.standard_form("W", 4, F)
    e = [tuple(1 if j == i else 0 for j in range(4)) for i in range(4)]
    assert form.evaluate_pair(e[0], e[2]) == 1
    assert form.evaluate_pair(e[2], e[0]) == F.neg(1)
    assert form.evaluate_pair(e[0], e[1]) == 0
    assert all(form.evaluate_pair(v, v) == 0 for v in e)


def test_standard_minus_tail_is_anisotropic():
    F = gf.field(3)
    form = forms.standard_form("Q-", 6, F)
    for a in F.elements():
        for b in F.elements():
            v = (0, 0, 0, 0, a, b)
            if (a, b) != (0, 0):
                assert form.evaluate(v) != 0


@pytest.mark.parametrize("kind,d", [("W", 5), ("Q+", 5), ("Q-", 3), ("Q", 4)])
def test_standard_form_parity_errors(kind, d):
    with pytest.raises(ValueError):
        forms.standard_form(kind, d, gf.field(3))


def test_parse_kind():
    assert forms.parse_kind("Q+") is FormKind.PLUS
    assert forms.parse_kind("W") is FormKind.SYMPLECTIC
    assert forms.parse_kind(FormKind.HERMITIAN) is FormKind.HERMITIAN
    with pytest.raises(ValueError):
        forms.parse_kind("X")


# -- restriction / perp -----------------------------------------------------


def test_restriction_of_hyperbolic_pair():
    F = gf.field(3)
    form = forms.standard_form("Q+", 6, F)
    S = Subspace.span(F, [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)])
    rep = forms.classify_restriction(form, S)
    assert rep.kind is FormKind.PLUS and rep.nondegenerate


def test_restriction_of_elliptic_tail():
    F = gf.field(3)
    form = forms.standard_form("Q-", 6, F)
    S = Subspace.span(F, [(0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1)])
    rep = forms.classify_restriction(form, S)
    assert rep.kind is FormKind.MINUS and rep.nondegenerate


def test_restriction_of_parabolic_axis():
    F = gf.field(3)
    form = forms.standard_form("Q", 5, F)
    S = Subspace.span(F, [(1, 0, 0, 0, 0)])
    rep = forms.classify_restriction(form, S)
    assert rep.kind is FormKind.PARABOLIC and rep.nondegenerate


@pytest.mark.parametrize("kind,d,q", SPACES)
def test_perp_dimension(kind, d, q):
    F = gf.field_of_order(q)
    form = forms.standard_form(kind, d, F)
    S = Subspace.span(F, [tuple(1 if j == 0 else 0 for j in range(d))])
    P = forms.perp(form, S)
    assert P.dim == d - 1
    PP = forms.perp(form, P)
    assert PP.dim == 1 and PP == S


# (kind, ambient dimension, q) for drawn subspaces of dimension 1-4
_RESTRICTION_SPACES = [(kind, d, q) for kind, d in (("W", 4), ("Q+", 4), ("Q-", 4),
                                                    ("Q", 5), ("H", 4))
                       for q in (2, 3, 4, 5, 9)
                       if not (kind == "Q" and q % 2 == 0)
                       and not (kind == "H" and q not in (4, 9))]


def _restriction_oracle(form, rows):
    """The form on the rows, one scalar form_value / pair_value per entry:
    the upper-triangular coefficient matrix for quadratic kinds, the Gram
    matrix otherwise."""
    k = len(rows)
    if not form.kind.is_quadratic:
        return [[pair_value(form, u, v) for v in rows] for u in rows]
    return [[form_value(form, rows[i]) if i == j
             else pair_value(form, rows[i], rows[j]) if i < j else 0
             for j in range(k)] for i in range(k)]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_classify_restriction_matches_the_brute_force_oracles(data):
    """On a drawn subspace S: the restricted matrix is the per-entry one;
    S is totally singular when that matrix vanishes; the radical, the
    vectors of S perpendicular to S and singular, has q^radical_dim
    vectors; and a nondegenerate S has a singular vector exactly when its
    Witt index is positive, (q - 1) times the point count of its kind."""
    kind, d, q = data.draw(st.sampled_from(_RESTRICTION_SPACES))
    F = gf.field_of_order(q)
    form = forms.standard_form(kind, d, F)
    vector = st.tuples(*[st.integers(0, q - 1)] * d)
    S = Subspace(F, d, data.draw(st.lists(vector, min_size=1, max_size=4)))
    assume(S.dim > 0)
    rep = forms.classify_restriction(form, S)
    rows = S.rows.tolist()
    oracle = _restriction_oracle(form, rows)
    assert form.restriction(S.rows).tolist() == oracle
    assert rep.dim == S.dim
    assert rep.totally_singular == (not any(map(any, oracle)))
    vectors = span(F, rows, d)
    radical = [v for v in vectors if form_value(form, v) == 0
               and all(pair_value(form, v, r) == 0 for r in rows)]
    assert len(radical) == q ** rep.radical_dim
    if not rep.nondegenerate:
        assert rep.kind is None and (rep.rank is None) != rep.totally_singular
        return
    singular = [v for v in vectors if any(v) and form_value(form, v) == 0]
    assert (len(singular) > 0) == (rep.rank > 0)
    assert len(singular) == (q - 1) * polar.expected_point_count(rep.kind, S.dim, q)
    assert rep.rank == polar.rank_of(rep.kind, S.dim)


# -- constructors -----------------------------------------------------------


def test_diagonal_form_kinds():
    F3, F5 = gf.field(3), gf.field(5)
    assert forms.diagonal_form(F3, (1, 2)).kind is FormKind.PLUS    # x^2 - y^2
    assert forms.diagonal_form(F3, (1, 1)).kind is FormKind.MINUS   # -1 nonsquare
    assert forms.diagonal_form(F5, (1, 1)).kind is FormKind.PLUS    # -1 = 2^2
    assert forms.diagonal_form(F3, (1, 1, 1)).kind is FormKind.PARABOLIC


def test_diagonal_form_rejects_char2():
    with pytest.raises(ValueError):
        forms.diagonal_form(gf.field(2), (1, 1))


@pytest.mark.parametrize("build,match", [
    (lambda F: forms.Form("W", F, [[0, 5], [-5, 0]]),
     r"matrix entry \(0, 1\) = 5 is out of range for q=3"),
    (lambda F: forms.Form("W", F, [[0, 1.0], [2, 0]]),
     r"matrix entry \(0, 1\) 1.0 is not an int"),
    (lambda F: forms.Form("W", F, [[0, True], [2, 0]]),
     r"matrix entry \(0, 1\) True is a bool, not an int"),
    (lambda F: forms.quadratic_form(F, [[1, 7], [0, 1]]),
     r"matrix entry \(0, 1\) = 7 is out of range for q=3"),
], ids=["out-of-range", "float", "bool", "quadratic-out-of-range"])
def test_form_entries_must_be_element_codes(f3, build, match):
    """A form's entries follow the rule of Semisimilarity's: ints in
    range(q), numpy integers included; bools, floats and codes out of range
    are refused with a message naming the entry."""
    with pytest.raises(ValueError, match=match):
        build(f3)
    data = forms.Form("W", f3, np.array([[0, 1], [2, 0]])).data
    assert data == ((0, 1), (2, 0)) and all(type(x) is int for r in data for x in r)


@pytest.mark.parametrize("kind,q,data,match", [
    ("W", 3, [[0]], "symplectic forms need even dimension"),
    ("W", 3, [[1, 1], [2, 0]], "symplectic Gram must have zero diagonal"),
    ("W", 3, [[0, 1], [1, 0]], "symplectic Gram must be alternating"),
    ("W", 3, [[0, 0], [0, 0]], "degenerate symplectic form"),
    ("H", 3, [[1]], "Hermitian forms need a square field"),
    ("H", 4, [[2]], "Hermitian Gram must be conjugate-symmetric"),
    ("H", 4, [[0]], "degenerate Hermitian form"),
    ("Q", 3, [[1, 0, 0], [1, 0, 1], [0, 0, 1]],
     "quadratic forms are stored upper-triangular"),
    ("Q", 3, [[0, 1], [0, 0]], "parabolic quadratic forms need odd dimension"),
    ("Q", 2, [[1]], "parabolic quadratic spaces are only supported for odd q"),
    ("Q", 3, [[0]], r"degenerate quadratic form \(polarized radical nonzero\)"),
    ("Q+", 3, [[1]], "PLUS quadratic forms need even dimension"),
    ("Q-", 3, [[0, 1], [0, 0]], "declared MINUS but computed type is PLUS"),
], ids=["W-odd", "W-diagonal", "W-alternating", "W-degenerate", "H-field",
        "H-conjugate", "H-degenerate", "Q-lower", "Q-even", "Q-even-q",
        "Q-degenerate", "Q+-odd", "Q--sign"])
def test_form_validation_refusals(kind, q, data, match):
    """Each refusal of Form's validation, one case per message."""
    with pytest.raises(ValueError, match=match):
        forms.Form(kind, gf.field_of_order(q), data)


@pytest.mark.parametrize("kind,q", [("Q+", 3), ("Q-", 3), ("Q+", 4), ("Q-", 4)])
def test_a_degenerate_even_quadratic_form_is_refused(kind, q):
    """x0 x1 + x2^2 on GF(q)^4: e3 lies in the radical of the polar Gram,
    for odd and even q alike, and either declared sign is refused with the
    same message, by the discriminant for odd q and by the Arf split for
    even q."""
    F = gf.field_of_order(q)
    C = [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]]
    with pytest.raises(ValueError, match=r"degenerate quadratic form "
                                         r"\(polarized radical nonzero\)"):
        forms.Form(kind, F, C)
    with pytest.raises(ValueError, match="polarized radical nonzero"):
        forms.quadratic_form(F, C)


@pytest.mark.parametrize("kind,q,dets", [("Q+", 3, 1), ("Q-", 5, 1), ("Q+", 4, 0),
                                         ("Q", 3, 1)])
def test_a_quadratic_form_takes_one_determinant(monkeypatch, kind, q, dets):
    """Validating a standard quadratic form computes the polar Gram's
    determinant once for odd q, for the sign test of an even dimension
    or the degeneracy test of an odd one, and not at all for even q, where
    the Arf split finds a degenerate Gram."""
    F = gf.field_of_order(q)
    data = forms.standard_form(kind, 5 if kind == "Q" else 4, F).data
    calls = []
    det = forms.la.det
    monkeypatch.setattr(forms.la, "det", lambda *a: calls.append(a) or det(*a))
    forms.Form(kind, F, data)
    assert len(calls) == dets


def test_quadratic_form_agrees_with_diagonal():
    F = gf.field(7)
    C = [[3, 0, 0], [0, 1, 0], [0, 0, 6]]
    qf = forms.quadratic_form(F, C)
    df = forms.diagonal_form(F, (3, 1, 6))
    assert qf.kind is df.kind
    for v in itertools.product(range(7), repeat=3):
        assert qf.evaluate(v) == df.evaluate(v)


def test_form_serialize_shape():
    form = forms.standard_form("H", 3, gf.field(2, 2))
    d = form.serialize()
    assert d["kind"] == "H" and d["q"] == 4 and d["d"] == 3
    assert len(d["matrix"]) == 3


# -- subspaces --------------------------------------------------------------


def test_span_is_canonical():
    F = gf.field(3)
    S1 = Subspace.span(F, [(1, 2, 0, 1), (0, 1, 1, 1)])
    S2 = Subspace.span(F, [(2, 4 % 3, 0, 2), (1, 0, 1 % 3, 2)])  # scaled + mixed
    assert S1.rows.tolist() == S2.rows.tolist() == [[1, 0, 1, 2], [0, 1, 1, 1]]
    assert S1 == S2 and hash(S1) == hash(S2)
    assert S1.dim == 2


@pytest.mark.parametrize("build,match", [
    (lambda F: Subspace(F, 3, [(-1, 0, 0)]),
     r"matrix entry \(0, 0\) = -1 is out of range for q=3"),
    (lambda F: Subspace(F, 3, [(1, 0, 0), (5, 0, 0)]),
     r"matrix entry \(1, 0\) = 5 is out of range for q=3"),
    (lambda F: Subspace(F, 3, [(1.0, 0, 0)]),
     r"matrix entry \(0, 0\) 1.0 is not an int"),
    (lambda F: Subspace(F, 3, [(True, 0, 0)]),
     r"matrix entry \(0, 0\) True is a bool, not an int"),
    (lambda F: Subspace.span(F, [(0, np.int64(3), 0)]),
     r"matrix entry \(0, 1\) = 3 is out of range for q=3"),
    (lambda F: Subspace(F, 3, [(1, 0)]),
     "row length does not match ambient dimension"),
    (lambda F: Subspace(F, 3, [(1, 0, 0)]).contains((-1, 0, 0)),
     r"matrix entry \(0, 0\) = -1 is out of range for q=3"),
    (lambda F: Subspace(F, 3, [(1, 0, 0)]).contains((True, 0, 0)),
     r"matrix entry \(0, 0\) True is a bool, not an int"),
    (lambda F: Subspace(F, 3, [(1, 0, 0)]).contains((1, 0)),
     "vector length does not match ambient dimension"),
], ids=["negative", "out-of-range", "float", "bool", "numpy-out-of-range",
        "short-row", "contains-negative", "contains-bool", "contains-short"])
def test_subspace_rows_must_be_element_codes(f3, build, match):
    """A subspace's rows, and a vector tested for membership, follow the
    rule of Form's entries: ints in range(q), numpy integers included;
    negative codes, codes out of range, floats and bools are refused with
    a message naming the entry, and rows of the wrong length too."""
    with pytest.raises(ValueError, match=match):
        build(f3)
    S = Subspace(f3, 3, np.array([[2, 0, 0], [0, 1, 1]]))
    assert S.rows.tolist() == [[1, 0, 0], [0, 1, 1]] and S.dim == 2
    assert S.contains(np.array([1, 2, 2])) and not S.contains((0, 0, 1))
    with pytest.raises(ValueError, match="read-only"):
        S.rows[0, 0] = 2


def test_subspace_vectors_and_contains():
    F = gf.field(2)
    S = Subspace.span(F, [(1, 0, 1), (0, 1, 1)])
    vecs = span(F, S.rows, 3) - {(0, 0, 0)}
    assert len(vecs) == 3
    for v in vecs:
        assert S.contains(v)
    assert S.contains((0, 0, 0))
    assert not S.contains((1, 1, 1))


def test_zero_subspace():
    F = gf.field(3)
    Z = Subspace.zero(F, 4)
    assert Z.dim == 0
    assert Z.contains((0, 0, 0, 0))


@given(st.data())
def test_subspace_contains_matches_the_spanned_set(data):
    F = data.draw(fields([2, 3, 4, 9]))
    d = data.draw(st.integers(1, 5))
    vector = st.tuples(*[st.integers(0, F.q - 1)] * d)
    rows = data.draw(st.lists(vector, max_size=3))
    spanned = span(F, rows, d)
    v = data.draw(st.one_of(vector, st.sampled_from(sorted(spanned))))
    assert Subspace(F, d, rows).contains(v) == (v in spanned)

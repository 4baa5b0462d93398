import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from polarkit import constructions, fieldred, forms, gf, group, intriguing, polar
from strategies import canonical, flatten, join, point_index


def _w19_down(alpha=None):
    F9, F3 = gf.field(3, 2), gf.field(3)
    return fieldred.reduce(1, forms.standard_form("W", 2, F9), F3, alpha=alpha)


# -- applicability ----------------------------------------------------------


def test_unknown_row():
    with pytest.raises(ValueError, match="row"):
        fieldred.reduce(4, forms.standard_form("W", 2, gf.field(3, 2)),
                        gf.field(3))


def test_row_kind_mismatch():
    F9 = gf.field(3, 2)
    with pytest.raises(ValueError, match="row 1 starts from"):
        fieldred.reduce(1, forms.standard_form("Q+", 4, F9), gf.field(3))
    with pytest.raises(ValueError, match="row 1 starts from"):
        fieldred.reduce(1, forms.standard_form("Q", 3, F9), gf.field(3))


def test_needs_proper_subfield():
    F3 = gf.field(3)
    with pytest.raises(ValueError):
        fieldred.reduce(1, forms.standard_form("W", 2, F3), F3)


def test_incompatible_fields():
    with pytest.raises(ValueError):
        fieldred.reduce(1, forms.standard_form("W", 2, gf.field(3, 2)),
                        gf.field(2))


def test_row9_parity():
    F9 = gf.field(3, 2)
    with pytest.raises(ValueError, match="odd"):
        fieldred.reduce(9, forms.standard_form("H", 2, F9), gf.field(3))


def test_row10_needs_even_b():
    # GF(729)/GF(9) has odd degree 3; the Hermitian source itself is fine
    F729 = gf.field(3, 6)
    with pytest.raises(ValueError, match="even b"):
        fieldred.reduce(10, forms.standard_form("H", 2, F729), gf.field(3, 2))


# -- the traced form and alpha ----------------------------------------------


def test_alpha_zero_rejected():
    with pytest.raises(ValueError, match="unit"):
        _w19_down(alpha=0)


def test_alpha_recorded_and_serialized():
    F9 = gf.field(3, 2)
    fr = _w19_down(alpha=F9.generator)
    assert fr.alpha == F9.generator
    d = fr.serialize()
    assert d == {"row": 1, "q": 3, "b": 2, "d": 4,
                 "alpha": F9.coeffs(F9.generator)}


def test_row9_alpha_must_be_fixed_by_involution():
    F9 = gf.field(3, 2)
    hform = forms.standard_form("H", 3, F9)
    fieldred.reduce(9, hform, gf.field(3), alpha=2)       # 2 is in GF(3)
    with pytest.raises(ValueError):
        fieldred.reduce(9, hform, gf.field(3), alpha=F9.generator)


def test_alpha_square_class_decides_the_graph():
    """The SL2(5) point partition of PG(3,3) is alpha-independent, but its
    classification under the traced form is decided by alpha mod squares:
    nonsquare alphas make both orbits 5-tight, squares make them 2-ovoids."""
    F9 = gf.field(3, 2)
    gset = constructions.sl2_5_in_sl2_9()
    orbits = group.vector_orbit_lists(gset)
    emb = gf.embedding(gf.field(3), F9)
    partitions = set()
    for alpha in F9.units():
        fr = _w19_down(alpha=alpha)
        sp = fr.small_space
        index = point_index(sp)
        sets = []
        for o in orbits:
            idx = {index[canonical(fr.small_field, flatten(emb, v))]
                   for v in o}
            sets.append(tuple(sorted(idx)))
        partitions.add(frozenset(sets))
        for s in sets:
            rep = intriguing.classify(sp, polar.PointSet(sp, s))
            if F9.is_square(alpha):
                assert (rep.ovoid_m, rep.h1, rep.h2) == (2, 5, 8)
            else:
                assert (rep.tight_i, rep.h1, rep.h2) == (5, 8, 5)
    assert len(partitions) == 1


def test_nonsquare_alpha_reproduces_standard_gram():
    F9 = gf.field(3, 2)
    fr = _w19_down(alpha=F9.generator)
    std = forms.standard_form("W", 4, gf.field(3))
    assert fr.small_space.form.data == std.data


# (row, small q, b, large kind, large dimension): the benchmark's five
# extension-field reductions, and Q+(3,4) -> Q+(7,2)
_TRACED = [(1, 3, 2, "W", 4), (1, 2, 3, "W", 4), (3, 2, 2, "Q-", 6),
           (9, 2, 2, "H", 5), (10, 3, 2, "H", 4), (2, 2, 2, "Q+", 4)]


@pytest.mark.parametrize("row,q,b,kind,m", _TRACED)
def test_traced_form_matches_its_definition(row, q, b, kind, m):
    """On small vectors x, y the traced form is the trace of the large form
    at the joined vectors X, Y (join written from emb.up and powers of G):
    kappa(x, y) = Tr(kappa'(X, Y)); for quadratic rows Q(x) = Tr(Q'(X))
    (rows 2, 3) or the half trace of kappa'(X, X) (rows 9, 10)."""
    S = gf.field_of_order(q)
    L = gf.field(S.p, S.f * b)
    large = forms.standard_form(kind, m, L)
    fr = fieldred.reduce(row, large, S)
    small = fr.small_space.form
    emb = gf.embedding(S, L)
    if row in (9, 10):
        mid = gf.field(L.p, L.f // 2)
        half = gf.embedding(S, mid)
        to_mid = gf.embedding(mid, L)
    rng = random.Random(row * 100 + L.q)

    def draw():
        x = tuple(rng.randrange(q) for _ in range(m * b))
        return x, tuple(join(emb, x[i * b:(i + 1) * b]) for i in range(m))

    for _ in range(100):
        (x, X), (y, Y) = draw(), draw()
        assert small.evaluate_pair(x, y) == emb.trace(large.evaluate_pair(X, Y))
        if row in (2, 3):
            assert small.evaluate(x) == emb.trace(large.evaluate(X))
        elif row in (9, 10):
            assert small.evaluate(x) == half.trace(
                to_mid.down(large.evaluate_pair(X, X)))


# -- point counts and blow-ups ----------------------------------------------


@pytest.mark.parametrize("row,q,b,d,large,small", [
    (1, 3, 2, 4, 10, 40),
    (2, 2, 2, 8, 25, 135),
    (3, 3, 2, 4, 0, 10),      # anisotropic elliptic line upstairs
    (3, 3, 2, 8, 82, 1066),
    (9, 3, 2, 6, 28, 112),
    (10, 2, 2, 8, 45, 135),
])
def test_table_point_counts(row, q, b, d, large, small):
    """The reduction table's point counts are those of the two spaces that
    reduce builds."""
    kind = fieldred.ROW_KINDS[row][0]
    large_form = forms.standard_form(kind, d // b, gf.field_of_order(q ** b))
    fr = fieldred.reduce(row, large_form, gf.field_of_order(q))
    assert (fr.large_space.num_points, fr.small_space.num_points) == (large, small)


def test_blow_up_row1_covers_w33():
    fr = _w19_down()
    m1 = fieldred.blow_up(fr)
    assert len(m1) == 40
    rep = intriguing.classify(fr.small_space, m1)
    assert rep.tight_i == 10 and rep.h1 == 13


def test_blow_up_row2():
    F4, F2 = gf.field(2, 2), gf.field(2)
    fr = fieldred.reduce(2, forms.standard_form("Q+", 4, F4), F2)
    m1 = fieldred.blow_up(fr)
    rep = intriguing.classify(fr.small_space, m1)
    assert (len(m1), rep.tight_i, rep.h1, rep.h2) == (75, 5, 43, 35)
    comp = intriguing.classify(fr.small_space, m1.complement())
    assert comp.tight_i == 4


def test_blow_up_row3_is_an_ovoid():
    """Unlike rows 1 and 2, the elliptic-to-elliptic blow-up is an m-ovoid
    with m = (q^b - 1)/(q - 1): Q-(3,9) -> Q-(7,3) gives a 4-ovoid."""
    F9, F3 = gf.field(3, 2), gf.field(3)
    fr = fieldred.reduce(3, forms.standard_form("Q-", 4, F9), F3)
    m1 = fieldred.blow_up(fr)
    rep = intriguing.classify(fr.small_space, m1)
    assert len(m1) == fr.large_space.num_points * (9 - 1) // (3 - 1) == 328
    assert (rep.ovoid_m, rep.h1, rep.h2) == (4, 85, 112)


def test_blow_up_row9_covers_qminus():
    F9, F3 = gf.field(3, 2), gf.field(3)
    fr = fieldred.reduce(9, forms.standard_form("H", 3, F9), F3)
    m1 = fieldred.blow_up(fr)
    assert len(m1) == fr.small_space.num_points == 112


def test_blow_up_row10():
    F4, F2 = gf.field(2, 2), gf.field(2)
    fr = fieldred.reduce(10, forms.standard_form("H", 4, F4), F2)
    m1 = fieldred.blow_up(fr)
    rep = intriguing.classify(fr.small_space, m1)
    assert rep.is_intriguing


# -- lifting and pushing ----------------------------------------------------


def test_push_down_lift_up_roundtrip():
    fr = _w19_down()
    big = polar.PointSet(fr.large_space, (0, 3, 7))
    small = fieldred.push_down(fr, big)
    assert len(small) == 3 * (9 - 1) // (3 - 1)    # 4 small points per large
    back = fieldred.lift_up(fr, small)
    assert back == big


def test_lift_up_rejects_partial_scalar_classes():
    fr0, sets = constructions.sl2_5_reduced_sets()
    with pytest.raises(ValueError, match="scalar"):
        fieldred.lift_up(fr0, sets[0])


def test_lift_up_names_a_witness_pair():
    fr = _w19_down()
    large = (0, 3, 7)
    small = fieldred.push_down(fr, polar.PointSet(fr.large_space, large))
    gone = small.members[5]
    part = polar.PointSet(fr.small_space,
                          tuple(m for m in small.members if m != gone))
    with pytest.raises(ValueError, match="scalars") as err:
        fieldred.lift_up(fr, part)
    m = re.search(r"small points (\d+) \(in\) and (\d+) \(out\) "
                  r"lie on large point (\d+)", str(err.value))
    i, k, j = map(int, m.groups())
    assert k == gone and j in large and i in part
    on_j = fieldred.push_down(fr, polar.PointSet(fr.large_space, (j,)))
    assert {i, k} <= set(on_j.members)


def test_lift_up_refuses_a_point_off_the_blow_up():
    """Small point 4 of Q+(7,2) lies on no singular point of Q+(3,4); it is
    named even when later such points (6, 8) and blow-up points come too."""
    F4, F2 = gf.field(2, 2), gf.field(2)
    fr = fieldred.reduce(2, forms.standard_form("Q+", 4, F4), F2)
    m1 = fieldred.blow_up(fr).members
    assert {4, 6, 8}.isdisjoint(m1)
    msg = ("small point 4 lies on a non-singular GF(4)-point and cannot be "
           "lifted")
    for members in [(4,), tuple(sorted(set(m1[:10]) | {4, 6, 8}))]:
        with pytest.raises(ValueError) as err:
            fieldred.lift_up(fr, polar.PointSet(fr.small_space, members))
        assert str(err.value) == msg


def test_push_down_wrong_space():
    fr = _w19_down()
    with pytest.raises(ValueError):
        fieldred.push_down(fr, polar.PointSet(fr.small_space, (0,)))


# -- the flattener ----------------------------------------------------------


# (small field, b, m) for _Flattener: prime and non-prime small fields
_FLATTENERS = [(gf.field(3), 2, 2), (gf.field(2), 3, 2), (gf.field(2), 2, 3),
               (gf.field(2, 2), 2, 2), (gf.field(3), 3, 1), (gf.field(5), 2, 2)]


@given(st.data())
@settings(max_examples=60)
def test_flattener_roundtrip(data):
    """flatten agrees with the brute-force oracle row by row, and unflatten
    undoes it, on arrays of code rows."""
    S, b, m = data.draw(st.sampled_from(_FLATTENERS))
    emb = gf.embedding(S, gf.field(S.p, S.f * b))
    fl = fieldred._Flattener(emb, m)
    n = data.draw(st.integers(1, 5))
    v = np.array([[data.draw(st.integers(0, emb.large.q - 1)) for _ in range(m)]
                  for _ in range(n)], dtype=np.int64)
    flat = fl.flatten(v)
    assert flat.shape == (n, m * b)
    assert [tuple(r) for r in flat.tolist()] == [flatten(emb, r)
                                                 for r in v.tolist()]
    assert np.array_equal(fl.unflatten(flat), v)


def test_flatten_is_additive():
    fr = _w19_down()
    L, S = fr.large_field, fr.small_field
    a, b = (3, 5), (7, 1)
    sa, sb = fr.flattener.flatten([a, b]).tolist()
    asum = tuple(L.add(x, y) for x, y in zip(a, b))
    ssum = tuple(S.add(x, y) for x, y in zip(sa, sb))
    assert tuple(fr.flattener.flatten([asum])[0].tolist()) == ssum
    assert flatten(gf.embedding(S, L), asum) == ssum

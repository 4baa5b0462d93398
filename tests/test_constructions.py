import hashlib
import itertools
import json

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from polarkit import constructions, forms, gf, group, intriguing, polar
from strategies import mat_mul, points


# -- adjoint module of SL3 --------------------------------------------------


def test_adjoint_sl3_q3():
    model = constructions.adjoint_sl3(3)
    sp = model.space
    assert sp.name == "Q(6,3)" and sp.num_points == 364
    assert model.orbits.orbit_sizes == (52, 312)
    tights = []
    for M in model.orbits.orbit_sets():
        rep = intriguing.classify(sp, M)
        tights.append(rep.tight_i)
    assert sorted(tights) == [4, 24]
    assert sum(tights) == sp.ovoid_number == 28


def test_adjoint_sl3_needs_char3():
    with pytest.raises(ValueError, match="p=3"):
        constructions.adjoint_sl3(5)


def test_adjoint_sl3_budget():
    with pytest.raises(ValueError):
        constructions.adjoint_sl3(27)


@given(st.lists(st.integers(0, 2), min_size=9, max_size=9))
def test_adjoint_quadratic_is_char_poly_coefficient(flat):
    """The ambient form Q(A) of the adjoint module agrees with minus the
    second elementary symmetric function of A, i.e. the lambda-coefficient
    of det(A - lambda I) up to the sign fixed by cubic charpoly
    conventions."""
    F = gf.field(3)
    A = [flat[0:3], flat[3:6], flat[6:9]]
    got = constructions._gl3_form(F).evaluate(flat)
    e2 = 0
    for i in range(3):
        for j in range(i + 1, 3):
            minor = F.sub(F.mul(A[i][i], A[j][j]), F.mul(A[i][j], A[j][i]))
            e2 = F.add(e2, minor)
    assert got == F.neg(e2)


def test_adjoint_quadratic_is_conjugation_invariant():
    F = gf.field(3)
    X = [[1, 2, 0], [0, 1, 1], [1, 0, 1]]
    g = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    ginv = tuple(zip(*g))      # a permutation matrix: its transpose
    Xg = mat_mul(F, mat_mul(F, ginv, X), g)
    Q = constructions._gl3_form(F)
    assert Q.evaluate(sum(map(list, Xg), [])) == Q.evaluate(sum(X, []))


def test_adjoint_quotient_roundtrip():
    model = constructions.adjoint_sl3(3)
    quo = model.quotient       # 7 = dim(trace-zero) - dim(scalars) in char 3
    assert quo.k == 7
    coords = list(itertools.islice(
        itertools.product(range(3), repeat=7), 0, 300, 11))
    assert len(coords) == 28
    lifted = mat_mul(model.space.field, coords, quo.vbasis.tolist())
    assert quo.project(lifted).tolist() == [list(c) for c in coords]


def test_quotient_refuses_dependent_rows():
    F = gf.field(3)
    with pytest.raises(ValueError, match="dependent"):
        constructions._Quotient(F, [(1, 0, 0), (0, 1, 0)], [(1, 1, 0)])


def test_quotient_refuses_a_stack_with_one_row_outside_the_span():
    F = gf.field(3)
    quo = constructions._Quotient(F, [(1, 0, 0)], [(0, 1, 0)])
    assert quo.project([(2, 0, 0), (1, 2, 0)]).tolist() == [[2], [1]]
    with pytest.raises(ValueError, match="does not lie"):
        quo.project([(2, 0, 0), (1, 2, 0), (0, 0, 1)])


# SHA-256 of json.dumps(x, sort_keys=True) of the serialized form, the
# serialized generators and the orbit labels, frozen when each construction
# still had its own form loop and induction code
_PINS = {
    ("adjoint_sl3", 3): (
        "a03147f43101b5683b8f9ec67f65d941e0aca00210a8d4725fb7462b6acab42b",
        "e4c6a27c2c933f2c95aa5d48f8b41d11c03be0c3b9ede248bf4d433df887a8cc",
        "2f65195899d344c0b79c755d751b820bc500e9d24b8f749609ecfe9743e5316b"),
    ("adjoint_sl3", 9): (
        "96f5c642bfc7d634e1ad072bba1d6e5ed1f0e97fb14be0d716dbb11a988c2ba8",
        "e9ad00770f646c566e6d7f71326adcc17fc723bbb2393a42a770032a67a40995",
        "8e2ed4031abeb8c807bc7d067c2a2b07c1e575c02b8f8da95d5c876c9bf1132d"),
    ("extsq_sp6", 3): (
        "03f4d797e39f8a7d3476d2611909e1689ed1ebf502528155c824682acc518897",
        "1d50bac41f8b269104c5b28cde05c09dc7a867cee99232f7b088238cf1470f6b",
        "60e7875158b06b9fc594c2a2a5e493ceb7456d67c54a5e3fe050be80ddc526db"),
}


def _sha(x):
    return hashlib.sha256(json.dumps(x, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name,q", list(_PINS), ids=[f"{n}-{q}" for n, q in _PINS])
def test_construction_pins(name, q):
    model = getattr(constructions, name)(q)
    got = (_sha(model.form.serialize()), _sha(model.gens.serialize()),
           _sha(model.orbits.labels.tolist()))
    assert got == _PINS[name, q]
    if name == "extsq_sp6":
        e0, e1 = (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)
        assert constructions.wedge_point(model, e0, e1) == 88573


# -- exterior square of Sp6 -------------------------------------------------


def test_extsq_budget():
    with pytest.raises(ValueError, match="q=3"):
        constructions.extsq_sp6(2)
    with pytest.raises(ValueError, match="q=3"):
        constructions.extsq_sp6(5)


# -- D-length partitions ----------------------------------------------------


@pytest.mark.parametrize("kind,q,t,expected", [
    ("H", 4, 4, {2: 18, 4: 27}),
    ("H", 4, 5, {2: 30, 4: 135}),
    ("Q-", 3, 6, {3: 80, 6: 32}),
    ("Q", 3, 7, {3: 140, 6: 224}),
    ("Q+", 3, 8, {3: 224, 6: 896}),
])
def test_dlength_class_sizes(kind, q, t, expected):
    part = constructions.dlength_partition(kind, q, t)
    assert {w: len(M) for w, M in part.classes.items()} == expected
    assert sum(len(M) for M in part.classes.values()) == part.space.num_points


def test_dlength_parameters():
    part = constructions.dlength_partition("H", 4, 5)
    reps = {w: intriguing.classify(part.space, M)
            for w, M in part.classes.items()}
    assert reps[2].tight_i == 6 and reps[4].tight_i == 27
    part2 = constructions.dlength_partition("Q-", 3, 6)
    reps2 = {w: intriguing.classify(part2.space, M)
             for w, M in part2.classes.items()}
    assert reps2[3].tight_i == 20 and reps2[6].tight_i == 8


def test_dlength_rejects_symplectic():
    with pytest.raises(ValueError, match="symplectic"):
        constructions.dlength_partition("W", 3, 4)


def test_dlength_kind_mismatch():
    # the all-ones diagonal on 7 coordinates over GF(3) is parabolic, not plus
    with pytest.raises(ValueError, match="not"):
        constructions.dlength_partition("Q+", 3, 7)


def test_dlength_rejects_even_q():
    with pytest.raises(ValueError, match="odd"):
        constructions.dlength_partition("Q", 2, 5)


def test_dlength_serialize():
    part = constructions.dlength_partition("H", 4, 4)
    d = part.serialize()
    assert d["lengths"] == [2, 4]
    assert d["class_sizes"] == {"2": 18, "4": 27}


# -- monomial splits of the Q(4,3) quadric ----------------------------------


def test_monomial_map_action():
    F = gf.field(3)
    g = constructions.monomial_map(F, (1, 2, 0), (1, 1, 2))
    assert g.apply((1, 0, 0)) is not None
    # basis vector e_i goes to signs-weighted e at the permuted position
    images = [g.apply(v) for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    for img in images:
        assert sum(1 for x in img if x) == 1


def test_q43_monomial_splits():
    out = constructions.q43_monomial_splits()
    sp = out["space"]
    assert sp.num_points == 40
    assert out["ovoid_split"].orbit_sizes == (20, 20)
    assert out["tight_split"].orbit_sizes == (16, 24)
    for M in out["ovoid_split"].orbit_sets():
        assert intriguing.classify(sp, M).ovoid_m == 2
    tights = sorted(intriguing.classify(sp, M).tight_i
                    for M in out["tight_split"].orbit_sets())
    assert tights == [4, 6]


def test_q43_points_all_have_length_three():
    out = constructions.q43_monomial_splits()
    for v in points(out["space"]):
        assert sum(1 for x in v if x) == 3


# -- SL2(5) -----------------------------------------------------------------


def test_sl2_5_generators():
    gset = constructions.sl2_5_in_sl2_9()
    F = gset.field
    a, b = gset.elements[0], gset.elements[1]
    assert constructions._mat_order(F, [list(r) for r in a.matrix]) == 4
    assert constructions._mat_order(F, [list(r) for r in b.matrix]) == 5
    form = forms.standard_form("W", 2, F)
    assert group.vector_orbits(form, gset) == (40, 40)


def _sl2_elements(F):
    """All of SL2(q) in lexicographic order of the flattened code tuple."""
    return [((a, b), (c, d)) for a, b, c, d in itertools.product(range(F.q), repeat=4)
            if F.sub(F.mul(a, d), F.mul(b, c)) == 1]


def _order(F, M, cap=12):
    P, one = M, ((1, 0), (0, 1))
    for k in range(1, cap + 1):
        if P == one:
            return k
        P = tuple(tuple(F.add(F.mul(P[i][0], M[0][j]), F.mul(P[i][1], M[1][j]))
                        for j in range(2)) for i in range(2))
    return None


def test_sl2_5_pair_is_the_first_found_by_search():
    """The frozen pair is the first (a of order 4, b of order 5) in
    lexicographic order of SL2(9) whose group has two vector orbits of
    size 40."""
    F = gf.field(3, 2)
    wform = forms.standard_form("W", 2, F)
    elems = _sl2_elements(F)
    assert len(elems) == 720

    def search():
        for a in elems:
            if _order(F, a) != 4:
                continue
            for b in elems:
                if _order(F, b) != 5:
                    continue
                gset = group.GeneratorSet(
                    F, [group.Semisimilarity(F, a), group.Semisimilarity(F, b)])
                if group.vector_orbits(wform, gset) == (40, 40):
                    return a, b

    assert search() == constructions._SL2_5_PAIR
    gset = constructions.sl2_5_in_sl2_9()
    assert tuple(g.matrix for g in gset.generators) == constructions._SL2_5_PAIR


@pytest.mark.parametrize("pair,match", [
    ((((0, 1), (2, 5)), ((0, 1), (2, 5))), "orders 4 and 5"),
    ((((0, 1), (2, 0)), ((0, 3), (7, 5))), "two vector orbits of size 40"),
], ids=["orders", "orbits"])
def test_sl2_5_checks_raise_on_a_wrong_pair(monkeypatch, pair, match):
    """Both checks are raises: a pair of the wrong orders, and a pair of
    orders 4 and 5 that generates all of SL2(9) (one orbit of 80)."""
    monkeypatch.setattr(constructions, "_SL2_5_PAIR", pair)
    with pytest.raises(AssertionError, match=match):
        constructions.sl2_5_in_sl2_9()


def test_sl2_5_reduced_sets_are_five_tight():
    fr, sets = constructions.sl2_5_reduced_sets()
    assert [len(s) for s in sets] == [20, 20]
    assert not set(sets[0].members) & set(sets[1].members)
    for s in sets:
        rep = intriguing.classify(fr.small_space, s)
        assert (rep.tight_i, rep.h1, rep.h2) == (5, 8, 5)

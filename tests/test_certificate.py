"""The order certificate of classical_generators, against an independent
oracle: the whole permutation group on the points, closed by breadth-first
search over its elements, with no stabiliser chain."""

import hashlib
import itertools
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from polarkit import _linalg as la
from polarkit import forms, gf, group, polar
from strategies import identity, mat_mul, points, random_words

_KIND = {"Sp": "W", "SU": "H", "Omega": "Q", "OmegaPlus": "Q+",
         "OmegaMinus": "Q-"}


def _space(family, d, q):
    F = gf.field_of_order(q)
    return polar.build(forms.standard_form(_KIND[family], d, F))


def _permutations(space, gens):
    """Each generator's action on the point indices, point by point through
    Semisimilarity.apply and a dictionary of the points."""
    F, pts = space.field, points(space)
    index = {v: i for i, v in enumerate(pts)}
    perms = []
    for g in gens:
        img = []
        for v in pts:
            w = g.apply(v)
            lead = F.inv(next(x for x in w if x))
            img.append(index[tuple(F.mul(lead, x) for x in w)])
        perms.append(np.array(img, dtype=np.int32))
    return perms


def _closure_order(perms):
    """The order of the permutation group generated by perms: every element,
    reached by breadth-first search from the identity."""
    identity = np.arange(len(perms[0]), dtype=np.int32)
    seen = {identity.tobytes()}
    frontier = identity[None, :]
    while len(frontier):
        new = []
        for s in perms:
            for row in s[frontier]:
                key = row.tobytes()
                if key not in seen:
                    seen.add(key)
                    new.append(row)
        frontier = np.array(new, dtype=np.int32).reshape(-1, len(identity))
    return len(seen)


_CLOSURE_ORDERS = {
    ("Sp", 4, 2): 720,             # PSp(4,2)
    ("Sp", 4, 3): 25_920,          # PSp(4,3)
    ("SU", 3, 9): 6_048,           # PSU(3,3)
    ("SU", 4, 4): 25_920,          # PSU(4,2)
    ("OmegaPlus", 6, 2): 20_160,   # POmega+(6,2)
    ("OmegaMinus", 6, 2): 25_920,  # POmega-(6,2)
    ("Omega", 5, 3): 25_920,       # POmega(5,3)
    ("SU", 3, 4): 72,              # PSU(3,2)
}


@pytest.mark.parametrize("family,d,q,order",
                         [(*k, v) for k, v in _CLOSURE_ORDERS.items()])
def test_certificate_matches_closure_order(family, d, q, order):
    space = _space(family, d, q)
    gs = group.classical_generators(family, d, space.field)
    assert group.point_image_order(family, d, q) == order
    assert group._certify(space, gs, order) == order
    assert _closure_order(_permutations(space, gs)) == order


def _refuse(*args):
    raise AssertionError("la.mat_inv called")


@pytest.mark.parametrize("family,d,q", sorted(set(_CLOSURE_ORDERS) | {
    ("Sp", 4, 4), ("Sp", 6, 3), ("Sp", 4, 9), ("SU", 3, 4), ("SU", 4, 9),
    ("SU", 5, 4), ("Omega", 5, 3), ("Omega", 7, 5), ("Omega", 5, 9),
    ("OmegaPlus", 6, 4), ("OmegaPlus", 8, 3), ("OmegaMinus", 6, 8),
    ("OmegaMinus", 8, 3)}))
def test_the_certified_set_is_a_pair_with_the_sources_orbits(
        monkeypatch, family, d, q):
    """The certified set is at most two words (Omega+(2,q) is cyclic), each
    with its inverse and none through la.mat_inv; it has the orbits of the
    source set it is drawn from, and the same draw every time.  For the
    groups small enough to list, test_certificate_matches_closure_order
    closes the certified pair by breadth-first search."""
    space = _space(family, d, q)
    F = space.field
    monkeypatch.setattr(la, "mat_inv", _refuse)
    gs = group.classical_generators(family, d, F)
    assert len(gs.generators) <= 2 and gs.label == f"{family}({d},{q})"
    for g in gs.generators:
        gi = g.inverse()
        assert gi.inverse() is g and g.sigma_power == gi.sigma_power == 0
        assert mat_mul(F, g.matrix, gi.matrix) == identity(d)
    source = group.classical_generators(family, d, F, self_check=False)
    assert group.orbits(space, gs).labels.tolist() \
        == group.orbits(space, source).labels.tolist()
    again = group.classical_generators(family, d, F)
    assert again.serialize() == gs.serialize()


# sha256 of json.dumps(serialize(), sort_keys=True), first 16 hex digits,
# and the element count: two words and their inverses
_PAIRS = {
    ("Sp", 6, 3): (4, "ad468e3dab5a3830"),
    ("OmegaMinus", 6, 4): (4, "7a3502a5b90f77c2"),
    ("SU", 3, 4): (4, "25f505ba7c2de164"),
}


@pytest.mark.parametrize("family,d,q", sorted(_PAIRS))
def test_the_certified_pair_is_pinned(family, d, q):
    gs = group.classical_generators(family, d, gf.field_of_order(q))
    text = json.dumps(gs.serialize(), sort_keys=True)
    assert (len(gs.elements), hashlib.sha256(text.encode()).hexdigest()[:16]) \
        == _PAIRS[family, d, q]


def _counting_draws(monkeypatch):
    """The generators of every pair _certified_pair draws, in order, those
    refused before any check or sift included: each draw images its
    pair's points once, through _point_images."""
    draws = []
    images = group._point_images

    def counting(space, gens):
        draws.append(gens)
        return images(space, gens)

    monkeypatch.setattr(group, "_point_images", counting)
    return draws


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_omega_plus_2_certifies_its_trivial_image_in_one_draw(monkeypatch, q):
    """Omega+(2,q) is diagonal and fixes both points of Q+(1,q), so the
    order of its image on points is 1, and the first pair certifies."""
    assert group.point_image_order("OmegaPlus", 2, q) == 1
    draws = _counting_draws(monkeypatch)
    space = _space("OmegaPlus", 2, q)
    gs = group.classical_generators("OmegaPlus", 2, space.field)
    assert len(draws) == 1 and space.num_points == 2
    assert _closure_order(_permutations(space, gs)) == 1


def test_a_source_that_falls_short_is_refused_at_the_draw_cap(monkeypatch):
    """SU(3,2)'s transvections alone generate a group of order 18 of 72 on
    the points; every pair of words in them falls short, and after _DRAWS
    pairs the source is refused by its label, not returned."""
    space = _space("SU", 3, 4)
    tv = group.GeneratorSet(space.field,
                            group._unitary_transvections(space.form),
                            label="SU(3,2) transvections")
    draws = _counting_draws(monkeypatch)
    with pytest.raises(AssertionError,
                       match=rf"SU\(3,2\) transvections failed its "
                             rf"self-check: none of the first "
                             rf"{group._DRAWS} pairs .* order 72"):
        group._certified_pair(space, tv, 72)
    assert len(draws) == group._DRAWS
    assert all(len(gens) <= 2 for gens in draws)


def test_su32_certifies_well_within_the_draw_cap(monkeypatch):
    """SU(3,2) takes the most draws of the families tested here (6); the
    cap leaves a wide margin over it."""
    draws = _counting_draws(monkeypatch)
    group.classical_generators("SU", 3, gf.field_of_order(4))
    assert 1 <= len(draws) <= group._DRAWS // 4


def test_a_defect_in_a_draw_raises_at_once(monkeypatch):
    """Only a shortfall is an unlucky draw.  An order above the claimed
    one, or a level that does not grow, raises from the first pair."""
    space = _space("Sp", 4, 3)
    source = group.classical_generators("Sp", 4, space.field, self_check=False)
    draws = _counting_draws(monkeypatch)
    with pytest.raises(AssertionError, match="at least 40 on points, above 39"):
        group._certified_pair(space, source, 39)
    assert len(draws) == 1
    randoms = group._random_elements
    monkeypatch.setattr(group, "_random_elements",
                        lambda perms, rng: itertools.islice(randoms(perms, rng), 500))
    monkeypatch.setattr(group._Level, "add", lambda self, g: None)
    with pytest.raises(AssertionError, match="basic orbit of length 1"):
        group._certified_pair(space, source, group.point_image_order("Sp", 4, 3))
    assert len(draws) == 2


def _refuse_to_run(*args):
    raise AssertionError("a refused draw was checked or sifted")


def test_an_intransitive_draw_is_refused_before_any_check_or_sift(monkeypatch):
    """Omega-(8,3)'s first two pairs move point 0 within orbits of 702 and
    729 of the 1,066 points of Q-(7,3), by a breadth-first closure of their
    point permutations.  The group is transitive, so both generate proper
    subgroups: each is refused from its first basic orbit, with no
    multiplier, no random element and no sift, and the third pair
    certifies."""
    space = _space("OmegaMinus", 8, 3)
    F = space.field
    source = group.classical_generators("OmegaMinus", 8, F, self_check=False)
    order = group.point_image_order("OmegaMinus", 8, 3)
    draws = _counting_draws(monkeypatch)
    with monkeypatch.context() as m:
        for name in ("multiplier", "_random_elements", "_sift"):
            m.setattr(group, name, _refuse_to_run)
        m.setattr(group, "_DRAWS", 2)
        with pytest.raises(AssertionError, match="none of the first 2 pairs"):
            group._certified_pair(space, source, order)
    assert [len(_closure(0, _permutations(space, gens))) for gens in draws] \
        == [702, 729] and space.num_points == 1066
    del draws[:]
    gs = group.classical_generators("OmegaMinus", 8, F)
    assert len(draws) == 3 and gs.generators == draws[-1]


def test_a_short_first_orbit_above_the_order_raises_on_the_first_draw(
        monkeypatch):
    """The transvections along e_0, ..., e_5 of Sp(6,3) are not transitive
    on W(5,3).  A claimed order below the first pair's first basic orbit is
    a defect, not an unlucky draw: it raises from that pair, which the
    intransitivity refusal would otherwise pass over."""
    space = _space("Sp", 6, 3)
    sub = group._symplectic_transvections(space.form)[:6]
    gs = group.GeneratorSet(space.field, sub, label="e_i transvections")
    draws = _counting_draws(monkeypatch)
    with pytest.raises(AssertionError, match="none of the first"):
        group._certified_pair(space, gs, group.point_image_order("Sp", 6, 3))
    reach = len(_closure(0, _permutations(space, draws[0])))
    assert 2 < reach < space.num_points
    del draws[:]
    with pytest.raises(AssertionError, match=rf"e_i transvections generates "
                                             rf"a group of order at least "
                                             rf"{reach} on points, above "
                                             rf"{reach - 1}"):
        group._certified_pair(space, gs, reach - 1)
    assert len(draws) == 1


@pytest.mark.parametrize("family,d,q", [
    ("Sp", 6, 3), ("Omega", 5, 3), ("OmegaMinus", 8, 3), ("Sp", 4, 4),
    ("SU", 5, 4), ("OmegaPlus", 6, 4), ("Sp", 4, 9), ("SU", 3, 9),
    ("OmegaMinus", 4, 9)])
def test_random_words_match_the_stacked_stepper(family, d, q):
    """The word draw on one state array gives the same first words, each
    with its inverse, as the stepper that stacked four operands a step."""
    F = gf.field_of_order(q)
    source = group.classical_generators(family, d, F, self_check=False)
    got = group._random_words(source, random.Random(0))
    want = random_words(source, random.Random(0))
    for _ in range(8):
        w = next(got)
        assert w.shape == (2, d, d) and w.dtype == np.int64
        assert np.array_equal(w, next(want))
        assert mat_mul(F, w[0].tolist(), w[1].tolist()) == identity(d)


def test_su32_transvections_alone_fall_short():
    """The transvections of SU(3,2) are transitive on the 9 points of
    H(2,4) and generate a group of order 18 there, a quarter of PSU(3,2);
    the certificate returns that product once _STALL random elements in a
    row sift to the identity."""
    space = _space("SU", 3, 4)
    tv = group.GeneratorSet(space.field,
                            group._unitary_transvections(space.form),
                            label="SU(3,2) transvections")
    assert group.orbits(space, tv).n_orbits == 1
    assert _closure_order(_permutations(space, tv)) == 18
    assert group._certify(space, tv, 72) == 18


def test_stall_bound_is_the_number_of_trivial_sifts(monkeypatch):
    space = _space("SU", 3, 4)
    tv = group.GeneratorSet(space.field,
                            group._unitary_transvections(space.form))
    sifts = []
    sift = group._sift

    def counting(levels, g):
        h, i = sift(levels, g)
        sifts.append(i == len(levels) and not (h != np.arange(len(h))).any())
        return h, i

    monkeypatch.setattr(group, "_sift", counting)
    monkeypatch.setattr(group, "_STALL", 5)
    assert group._certify(space, tv, 72) == 18
    assert sifts[-5:] == [True] * 5 and not all(sifts[-6:])


def test_a_proper_subset_is_refused():
    """The transvections along e_0, ..., e_5 alone generate SL2(3)^3 inside
    Sp(6,3), which is not even transitive on the points of W(5,3): the
    certificate's product stays at |SL2(3)^3 / <-I>| = 24^3 / 2, short of
    |PSp(6,3)|."""
    space = _space("Sp", 6, 3)
    sub = group._symplectic_transvections(space.form)[:6]
    gs = group.GeneratorSet(space.field, sub, label="e_i transvections")
    order = group.point_image_order("Sp", 6, 3)
    assert group._certify(space, gs, order) == 24 ** 3 // 2 < order
    assert group.orbits(space, gs).n_orbits > 1


def test_an_order_above_the_target_is_refused():
    """Sp(4,3) is transitive on the 40 points of W(3,3), so its first basic
    orbit alone exceeds a claimed order of 39."""
    space = _space("Sp", 4, 3)
    gs = group.classical_generators("Sp", 4, space.field, self_check=False)
    with pytest.raises(AssertionError, match="at least 40 on points, above 39"):
        group._certify(space, gs, 39)


@pytest.mark.parametrize("family,d,q,matrix,sigma", [
    # a similarity of W(3,3) with multiplier 2
    ("Sp", 4, 3, [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 0),
    # the Frobenius map of GF(4), a semilinear isometry of W(3,4)
    ("Sp", 4, 4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 1),
    # diag(eta, 1, 1), unitary of determinant eta != 1
    ("SU", 3, 4, [[2, 0, 0], [0, 1, 0], [0, 0, 1]], 0),
])
def test_a_generator_outside_the_special_isometries_is_refused(
        family, d, q, matrix, sigma):
    space = _space(family, d, q)
    F = space.field
    gens = list(group.classical_generators(family, d, F, self_check=False))
    odd = group.Semisimilarity(F, matrix, sigma)
    group.multiplier(space.form, odd)        # a semisimilarity all the same
    gs = group.GeneratorSet(F, gens + [odd])
    order = group.point_image_order(family, d, q)
    with pytest.raises(ValueError, match="not a special isometry"):
        group._certify(space, gs, order)
    if not sigma:    # words multiply matrices: only a linear map reaches a pair
        with pytest.raises(ValueError, match="not a special isometry"):
            group._certified_pair(space, gs, order)


def test_a_level_that_does_not_grow_raises_instead_of_hanging(monkeypatch):
    """With _Level.add a no-op the first residue's new level keeps a basic
    orbit of length 1, and the run would otherwise sift forever.  The
    random elements are capped, so a missing check fails with StopIteration
    rather than hanging."""
    space = _space("Sp", 4, 3)
    gs = group.classical_generators("Sp", 4, space.field, self_check=False)
    randoms = group._random_elements
    monkeypatch.setattr(group, "_random_elements",
                        lambda perms, rng: itertools.islice(randoms(perms, rng), 500))
    monkeypatch.setattr(group._Level, "add", lambda self, g: None)
    with pytest.raises(AssertionError, match="basic orbit of length 1"):
        group._certify(space, gs, group.point_image_order("Sp", 4, 3))


def test_certify_images_one_element_of_each_inverse_pair(monkeypatch):
    space = _space("Sp", 6, 3)
    gs = group.classical_generators("Sp", 6, space.field, self_check=False)
    drawn = []
    images = group._point_images

    def counting(space, gens):
        for img in images(space, gens):
            drawn.append(img)
            yield img

    monkeypatch.setattr(group, "_point_images", counting)
    order = group.point_image_order("Sp", 6, 3)
    assert group._certify(space, gs, order) == order
    assert len(drawn) == len(gs.generators) == 11 < len(gs) == 22


def test_certify_checks_each_generator_once(monkeypatch):
    """multiplier runs once per generator, 11 times for Sp(6,3), and det
    once, on the stack of those 11 matrices: neither sees the 11 inverses
    that close the set."""
    space = _space("Sp", 6, 3)
    gs = group.classical_generators("Sp", 6, space.field, self_check=False)
    calls = {"multiplier": 0, "det": 0}
    stacks = []
    multiplier, det = group.multiplier, group.la.det

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(group, "multiplier", counting("multiplier", multiplier))
    monkeypatch.setattr(group.la, "det", counting(
        "det", lambda F, A: stacks.append(np.shape(A)) or det(F, A)))
    order = group.point_image_order("Sp", 6, 3)
    assert group._certify(space, gs, order) == order
    assert calls == {"multiplier": 11, "det": 1} and len(gs) == 22
    assert stacks == [(11, 6, 6)]


def _closure(base, perms):
    """The orbit of base under perms, by breadth-first search over Python
    sets: the reference for _Level's orbit."""
    seen, frontier = {base}, [base]
    while frontier:
        nxt = []
        for x in frontier:
            for s in perms:
                y = int(s[x])
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def _check_level(lv, n, perms):
    assert len(lv.gens) == len(perms)
    assert all(s is t for s, t in zip(lv.gens, perms))
    assert sorted(lv.orbit.tolist()) == sorted(_closure(lv.base, perms))
    assert np.flatnonzero(lv.parent >= 0).tolist() == sorted(lv.orbit.tolist())
    for s, inv in zip(lv.gens, lv.invs):
        assert inv[s].tolist() == list(range(n))
    for x in lv.orbit.tolist():
        word, y = [], x
        while y != lv.base:
            assert len(word) < n, "the parent links of a point form a cycle"
            word.append(int(lv.via[y]))
            y = int(lv.parent[y])
        for k in reversed(word):
            y = int(lv.gens[k][y])
        assert y == x


@st.composite
def _permutation_lists(draw):
    """Permutations of range(n), some of them single transpositions or the
    identity, so that orbits grow a little at a time."""
    n = draw(st.integers(1, 30))
    perms = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            p = draw(st.permutations(range(n)))
        else:
            p = list(range(n))
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            p[i], p[j] = p[j], p[i]
        perms.append(np.array(p, dtype=np.int64))
    return n, draw(st.integers(0, n - 1)), draw(st.integers(0, len(perms))), perms


@settings(max_examples=200)
@given(_permutation_lists())
def test_level_extends_its_schreier_vector_like_a_fresh_closure(case):
    """After construction and after each add, the basic orbit is the
    breadth-first closure of the base, and each point's transversal word
    maps the base to it."""
    n, base, first, perms = case
    lv = group._Level(n, base, perms[:first])
    _check_level(lv, n, perms[:first])
    for k in range(first, len(perms)):
        lv.add(perms[k])
        _check_level(lv, n, perms[:k + 1])

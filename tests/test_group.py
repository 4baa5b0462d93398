import functools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
import hypothesis.strategies as st

from polarkit import _linalg as la
from polarkit import forms, gf, group, intriguing, polar
from strategies import (fields, frobenius, identity, invertible_matrices,
                        mat_mul, points)


def _identity(F, d):
    return group.Semisimilarity(F, [[1 if j == i else 0 for j in range(d)]
                                    for i in range(d)])


def test_apply_and_inverse(f9):
    g = group.Semisimilarity(f9, [[0, 1], [f9.neg(1), 0]])
    v = (3, 7)
    w = g.apply(v)
    assert g.inverse().apply(w) == v
    assert g.sigma_power == 0


def test_frobenius_twist(f9):
    g = group.Semisimilarity(f9, [[1, 0], [0, 1]], sigma_power=1)
    v = (f9.generator, 1)
    assert g.apply(v) == (f9.frobenius(f9.generator), 1)
    assert g.sigma_power != 0
    # sigma has order 2, so g squared acts trivially
    w = g.apply(g.apply(v))
    assert w == v


def test_singular_matrix_rejected(f3):
    with pytest.raises(ValueError):
        group.Semisimilarity(f3, [[1, 2], [2, 1]])  # det = 1 - 4 = 0 mod 3


def test_multiplier_of_scaling(f3):
    form = forms.standard_form("W", 4, f3)
    two = group.Semisimilarity(f3, [[2 if j == i else 0 for j in range(4)]
                                    for i in range(4)])
    assert group.multiplier(form, two) == f3.mul(2, 2)


def test_multiplier_rejects_non_isometry(f3):
    form = forms.standard_form("Q", 5, f3)
    shear = [[1 if j == i else 0 for j in range(5)] for i in range(5)]
    shear[0][1] = 1   # moves Q but fixes no scalar pattern
    with pytest.raises(ValueError):
        group.multiplier(form, group.Semisimilarity(f3, shear))


@pytest.mark.parametrize("matrix,sigma,match", [
    ([[1, 0], [0, -1]], 0, r"matrix entry \(1, 1\) = -1 is out of range for q=3"),
    ([[1, 0], [4, 1]], 0, r"matrix entry \(1, 0\) = 4 is out of range for q=3"),
    ([[1.5, 0], [0, 1]], 0, r"matrix entry \(0, 0\) 1.5 is not an int"),
    ([[1, "2"], [0, 1]], 0, r"matrix entry \(0, 1\) '2' is not an int"),
    ([[1, 0], [0, 1]], "x", r"sigma_power 'x' is not an int"),
    ([[1, 0], [0, 1]], 1.0, r"sigma_power 1.0 is not an int"),
])
def test_semisimilarity_rejects_entries_that_are_not_codes(f3, matrix, sigma, match):
    with pytest.raises(ValueError, match=match):
        group.Semisimilarity(f3, matrix, sigma)


def test_semisimilarity_takes_numpy_integers_as_codes(f9):
    g = group.Semisimilarity(f9, np.array([[0, 1], [8, 0]]), np.int64(3))
    assert g.matrix == ((0, 1), (8, 0)) and g.sigma_power == 1
    assert all(type(x) is int for row in g.matrix for x in row)
    assert type(g.sigma_power) is int


def test_generator_set_closes_under_inverse(f3):
    g = group.Semisimilarity(f3, [[1, 1], [0, 1]])
    gs = group.GeneratorSet(f3, [g])
    mats = {h.matrix for h in gs}
    assert g.inverse().matrix in mats
    assert len(gs) == 2


def test_generator_set_rejects_empty(f3):
    with pytest.raises(ValueError):
        group.GeneratorSet(f3, [])


def test_serialize_roundtrip(tmp_path, f9):
    gs = group.classical_generators("Sp", 2, f9, self_check=False)
    path = tmp_path / "gens.json"
    gs.save(path)
    back = group.GeneratorSet.load(path)
    assert back.field is f9
    assert {g.matrix for g in back} == {g.matrix for g in gs}
    # the JSON itself is plain coefficient lists
    data = json.loads(path.read_text())
    assert data["q"] == 9 and data["d"] == 2


# -- orbit machinery --------------------------------------------------------


def test_sp4_is_point_transitive(w33):
    gs = group.classical_generators("Sp", 4, w33.field)
    part = group.orbits(w33, gs)
    assert part.orbit_sizes == (40,)
    assert part.n_orbits == 1


def test_orbits_of_identity_are_singletons(w33):
    gs = group.GeneratorSet(w33.field, [_identity(w33.field, 4)])
    part = group.orbits(w33, gs)
    assert part.orbit_sizes == tuple([1] * 40)


def test_orbit_labels_are_canonical(q43):
    """Labels are smallest member indices, independent of generator order."""
    gs = group.classical_generators("Omega", 5, q43.field)
    part1 = group.orbits(q43, gs)
    reversed_gens = group.GeneratorSet(q43.field, list(gs.elements)[::-1])
    part2 = group.orbits(q43, reversed_gens)
    assert part1.labels.tolist() == part2.labels.tolist()
    for lab in part1.orbit_labels:
        assert min(part1.orbit(lab).members) == lab


def test_orbits_reject_corrupted_generator(w33):
    gs = group.classical_generators("Sp", 4, w33.field, self_check=False)
    bad = [[list(row) for row in g.matrix] for g in gs.elements][0]
    bad[0][0] = (bad[0][0] + 1) % 3
    try:
        broken = group.Semisimilarity(w33.field, bad)
    except ValueError:
        pytest.skip("perturbation made the matrix singular")
    gens = group.GeneratorSet(w33.field, [broken])
    with pytest.raises(ValueError, match="generator"):
        group.orbits(w33, gens)


def test_point_images_raise_on_a_point_leaving_the_space(q43):
    """Behind orbits' validation, the prime-field image path still refuses a
    map that sends a singular point off the quadric: swapping x0 and x1
    moves <(0,1,0,0,0)> to the nonsingular <(1,0,0,0,0)>."""
    swap = [[0, 1, 0, 0, 0], [1, 0, 0, 0, 0], [0, 0, 1, 0, 0],
            [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]
    gens = group.GeneratorSet(q43.field, [group.Semisimilarity(q43.field, swap)])
    with pytest.raises(AssertionError, match="image point missing from space"):
        list(group._point_images(q43, gens))


@pytest.mark.parametrize("rows,bad", [(20, "slice"), (80, "generator")])
def test_point_images_raise_when_only_the_last_block_leaves(monkeypatch, q43,
                                                             rows, bad):
    """The streamed images check every block, not only the first.  The map
    x2 += x0 keeps Q(x) = x0^2 + x1 x2 + x3 x4 exactly where x0 x1 = 0, so
    on the 40 points of Q(4,3) it sends only points 22 and up off the
    quadric: with 20 rows a block they all lie in the second, last block.
    With 80 rows a block, two of the 40-point images share a block, and the
    bad map comes third, alone in the last block."""
    F = q43.field
    shear = group.Semisimilarity(F, [[1, 0, 1, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0],
                                     [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]])
    n = q43.num_points
    off = [i for i, v in enumerate(points(q43)) if q43.form.evaluate(shear.apply(v))]
    assert off == list(range(22, n))
    gens = [shear]
    if bad == "slice":
        assert (n - 1) // rows * rows == rows < 22
    else:
        gens = list(group.classical_generators("Omega", 5, F, self_check=False)
                    .generators[:2]) + gens
    monkeypatch.setattr(la, "_SCAN_ROWS", rows)
    images = group._point_images(q43, gens)
    for _ in gens[:-1]:
        next(images)
    with pytest.raises(AssertionError, match="image point missing from space"):
        next(images)


def test_vector_orbits_of_full_group(f9):
    form = forms.standard_form("W", 2, f9)
    gs = group.classical_generators("Sp", 2, f9, self_check=False)
    assert group.vector_orbits(form, gs) == (80,)


@pytest.mark.parametrize("family,d,q,n", [
    ("Sp", 6, 2, 63),
    ("SU", 4, 4, 45),
    ("OmegaPlus", 6, 2, 35),
    ("OmegaMinus", 6, 3, 112),
    ("Omega", 5, 3, 40),
    ("OmegaPlus", 6, 4, 357),
])
def test_classical_generators_transitive(family, d, q, n):
    F = gf.field_of_order(q)
    gs = group.classical_generators(family, d, F)   # self-check = order certificate
    form_kind = {"Sp": "W", "SU": "H", "OmegaPlus": "Q+",
                 "OmegaMinus": "Q-", "Omega": "Q"}[family]
    sp = polar.build(forms.standard_form(form_kind, d, F))
    assert group.orbits(sp, gs).orbit_sizes == (n,)


def test_each_generator_matrix_is_inverted_once(monkeypatch, f3):
    """Each inverse is made once, when Sp(6,3)'s (2d - 1) f = 11
    transvections are built: 11 maps and 11 inverses, with no la.mat_inv;
    closing the set under inverses (11 more elements) makes nothing; and
    g g^-1 = g^-1 g = I by the scalar oracle."""
    made = []
    link = group.Semisimilarity._link

    def counting(self, F, M, Minv, s):
        made.extend((M, Minv))
        return link(self, F, M, Minv, s)

    monkeypatch.setattr(group.Semisimilarity, "_link", counting)
    monkeypatch.setattr(la, "mat_inv", _refuse)
    seen = {}
    gs_init = group.GeneratorSet.__init__

    def counting_init(self, field, elements, label=""):
        elements = list(elements)
        seen["constructed"], seen["before"] = len(elements), len(made)
        gs_init(self, field, elements, label)
        seen["after"] = len(made)

    monkeypatch.setattr(group.GeneratorSet, "__init__", counting_init)
    gs = group.classical_generators("Sp", 6, f3, self_check=False)
    assert seen["constructed"] == 11 and seen["before"] == 22
    assert seen["after"] == seen["before"]
    assert len(gs) == 22
    for g in gs:
        assert g.inverse().inverse() is g
        assert mat_mul(f3, g.matrix, g.inverse().matrix) == identity(6)
        assert mat_mul(f3, g.inverse().matrix, g.matrix) == identity(6)


def _refuse(*args):
    raise AssertionError("la.mat_inv called")


def _check_product(F, g, h, gh):
    """gh is g times h by the scalar oracle, (A, s)(B, t) = (A^t B, s + t),
    and it came with its inverse: gh (gh)^-1 and (gh)^-1 gh are I."""
    assert gh.sigma_power == (g.sigma_power + h.sigma_power) % F.f
    assert gh.matrix == mat_mul(F, frobenius(F, g.matrix, h.sigma_power), h.matrix)
    ghi = gh.inverse()
    assert ghi.inverse() is gh and (gh.sigma_power + ghi.sigma_power) % F.f == 0
    for a, b in ((gh, ghi), (ghi, gh)):
        assert mat_mul(F, frobenius(F, a.matrix, b.sigma_power), b.matrix) \
            == identity(gh.dim)


@pytest.mark.parametrize("self_check", [False, True])
@pytest.mark.parametrize("family,d,q", [
    ("Sp", 4, 4), ("SU", 3, 4), ("SU", 4, 9), ("Omega", 5, 3),
    ("OmegaPlus", 6, 4), ("OmegaMinus", 6, 8)])
def test_products_inverses_and_conjugates_invert_no_matrix(
        monkeypatch, family, d, q, self_check):
    """Every product knows its inverse from the stacked product that made
    it, so with la.mat_inv refused the classical generators on both paths
    multiply, invert, close under inverses and conjugate (gi * h * g, the
    benchmark's conjugation), a Frobenius twist made beforehand included;
    every product matches the scalar oracle and is inverted."""
    F = gf.field_of_order(q)
    twist = group.Semisimilarity(F, identity(d), 1)
    monkeypatch.setattr(la, "mat_inv", _refuse)
    gs = group.classical_generators(family, d, F, self_check=self_check)
    first, last = gs.elements[0], gs.elements[-1]
    g = first * twist * last
    _check_product(F, first * twist, last, g)
    gi = g.inverse()
    for h in gs:
        _check_product(F, first, h, first * h)
        _check_product(F, gi * h, g, gi * h * g)
    words = [first * last, last * twist, g * g]
    closed = group.GeneratorSet(F, words)
    assert all(x.inverse() in closed.elements for x in closed)
    conj = group.GeneratorSet(F, [gi * h * g for h in gs], label=gs.label)
    assert len(conj) == len(gs)


@pytest.mark.parametrize("family,d,q", [
    ("Sp", 4, 4), ("Sp", 6, 3), ("Sp", 4, 9), ("SU", 3, 4), ("SU", 4, 9),
    ("SU", 5, 4), ("Omega", 5, 3), ("Omega", 7, 5), ("Omega", 5, 9),
    ("OmegaPlus", 6, 4), ("OmegaPlus", 8, 3), ("OmegaMinus", 6, 8),
    ("OmegaMinus", 8, 3)])
def test_closed_form_inverses_match_the_scalar_oracle(monkeypatch, family, d, q):
    """Every classical generator, transvections, Eichler maps and SU(3,2)'s
    two Fourier elements alike, comes with its inverse and none goes
    through la.mat_inv: g g^-1 = g^-1 g = I by the scalar oracle."""
    F = gf.field_of_order(q)
    monkeypatch.setattr(la, "mat_inv", _refuse)
    gs = group.classical_generators(family, d, F, self_check=False)
    for g in gs.generators:
        gi = g.inverse()
        assert gi.inverse() is g and gi.sigma_power == 0
        assert mat_mul(F, g.matrix, gi.matrix) == identity(d)
        assert mat_mul(F, gi.matrix, g.matrix) == identity(d)


@pytest.mark.parametrize("q", [3, 4])
def test_identity_plus_refuses_rc_that_is_not_nilpotent(q):
    """I + C S inverts I + C R when (RC)^r = 0.  With R = [e2; e0] and C's
    columns e0, e1, RC has only its lower-left entry and the maps come back
    inverted; with R = [e1; e0], RC swaps the two rows, (RC)^2 = I, and
    _identity_plus raises."""
    F = gf.field_of_order(q)
    e = np.eye(4, dtype=np.int64)
    C = [e[:, :2]]
    (g,) = group._identity_plus(F, C, [e[[2, 0]]])
    assert mat_mul(F, g.matrix, g.inverse().matrix) == identity(4)
    with pytest.raises(ValueError, match="does not invert"):
        group._identity_plus(F, C, [e[[1, 0]]])


def test_generators_keep_one_element_per_inverse_pair(f3):
    """generators: the given order, an involution and a duplicate once, an
    explicitly listed inverse dropped; elements keeps the given list and
    appends the inverses that are missing."""
    a, b = group.classical_generators("Sp", 4, f3, self_check=False).elements[:2]
    minus = group.Semisimilarity(f3, [[2 if j == i else 0 for j in range(4)]
                                      for i in range(4)])
    assert minus.inverse() == minus and a.inverse() != a
    gs = group.GeneratorSet(f3, [a, minus, b, a.inverse(), b, minus])
    assert gs.generators == (a, minus, b)
    assert gs.elements == (a, minus, b, a.inverse(), b, minus, b.inverse())
    assert len(gs) == 7


# sha256 of json.dumps(serialize(), sort_keys=True), first 16 hex digits,
# and the element count, as written before GeneratorSet kept generators
_SERIALIZED = {
    ("Sp", 2, 9): (12, "839e79d81444a594"), ("Sp", 4, 2): (7, "0a2fedcbdbb94df4"),
    ("Sp", 4, 3): (14, "17198b96eca4fbd7"), ("Sp", 4, 4): (14, "50371ac3bcb78a60"),
    ("Sp", 4, 5): (14, "2f09b7d707b02ee8"), ("Sp", 4, 8): (21, "c51c925ffab29233"),
    ("Sp", 4, 9): (28, "765b455dc71e0a23"), ("Sp", 6, 3): (22, "f1c56285ec0f4b3f"),
    ("Sp", 6, 4): (22, "2c03e6874467f981"), ("Sp", 6, 5): (22, "3f7f2bfd4c31a272"),
    ("Sp", 8, 2): (15, "09e8495f9e34d10d"), ("Sp", 8, 3): (30, "b91ad587aad936c4"),
    ("SU", 2, 4): (3, "a89ce9d9ae5d334c"), ("SU", 3, 4): (10, "32627e2b695df505"),
    ("SU", 4, 4): (13, "89b059d966efcfb6"), ("SU", 5, 4): (17, "d3480e1d1eec3fc2"),
    ("SU", 6, 4): (21, "e4390bf014a9dfc3"), ("SU", 2, 9): (8, "e3fe5f613094a970"),
    ("SU", 3, 9): (22, "4d5e4db56a62519d"), ("SU", 4, 9): (32, "bb63dae097e099cf"),
    ("Omega", 3, 5): (8, "b0601a911116c1bf"), ("Omega", 5, 3): (32, "6976f831e028d7a2"),
    ("Omega", 5, 5): (32, "ee4d7c8d4556c51b"), ("Omega", 7, 3): (72, "a5ad0a54a7b23166"),
    ("Omega", 11, 3): (200, "e9b5f3355a6d44b3"),
    ("OmegaPlus", 4, 3): (18, "abf1283c675dff01"),
    ("OmegaPlus", 6, 2): (30, "b4ba7c9693d917a9"),
    ("OmegaPlus", 6, 4): (60, "b619600064a16efb"),
    ("OmegaPlus", 8, 3): (98, "c802c10b54407cf6"),
    ("OmegaMinus", 6, 2): (30, "4c0a2db40d9ef14c"),
    ("OmegaMinus", 6, 3): (50, "f5729bbd091c0f26"),
    ("OmegaMinus", 8, 3): (98, "4e6ec25cc6b14ad1"),
}


@pytest.mark.parametrize("family,d,q", sorted(_SERIALIZED))
def test_elements_keep_their_content_and_order(family, d, q):
    """elements, and so saved files and words that index it, are as before;
    generators holds one element of each inverse pair."""
    import hashlib
    gs = group.classical_generators(family, d, gf.field_of_order(q),
                                    self_check=False)
    text = json.dumps(gs.serialize(), sort_keys=True)
    assert (len(gs.elements), hashlib.sha256(text.encode()).hexdigest()[:16]) \
        == _SERIALIZED[family, d, q]
    kept = set(gs.generators)
    assert all(g in kept or g.inverse() in kept for g in gs.elements)
    assert not any(g != g.inverse() and g.inverse() in kept for g in kept)


def _first_hyperbolic_pair_oracle(form):
    """The first basis pair (e_i, e_j), i != j, both singular with
    B(e_i, e_j) = b != 0, by scalar evaluation: (e_i, e_j / b)."""
    F, d = form.field, form.dim
    for i in range(d):
        ei = tuple(1 if k == i else 0 for k in range(d))
        if form.evaluate(ei) != 0:
            continue
        for j in range(d):
            if j == i:
                continue
            ej = tuple(1 if k == j else 0 for k in range(d))
            if form.evaluate(ej) != 0:
                continue
            b = form.evaluate_pair(ei, ej)
            if b != 0:
                return ei, tuple(F.div(x, b) for x in ej)
    raise AssertionError("no hyperbolic pair among basis vectors")


@pytest.mark.parametrize("family,d,q", sorted(k for k in _SERIALIZED
                                              if k[0].startswith("Omega")))
def test_first_hyperbolic_pair_matches_the_scalar_loop(family, d, q):
    form = forms.standard_form(group._FAMILY_KIND[family], d, gf.field_of_order(q))
    got = group._first_hyperbolic_pair(form)
    assert got == _first_hyperbolic_pair_oracle(form)
    assert all(type(x) is int for v in got for x in v)


@pytest.mark.parametrize("family,d,q,aliases", [
    ("Sp", 4, 3, [forms.FormKind.SYMPLECTIC, "W", "sp"]),
    ("SU", 3, 4, [forms.FormKind.HERMITIAN, "H"]),
    ("Omega", 5, 3, [forms.FormKind.PARABOLIC, "Q"]),
    ("OmegaPlus", 6, 2, [forms.FormKind.PLUS, "q+", "Q+"]),
    ("OmegaMinus", 6, 3, [forms.FormKind.MINUS, "Q-", "elliptic"]),
])
def test_classical_generators_read_a_kind_as_its_family(family, d, q, aliases):
    F = gf.field_of_order(q)
    want = group.classical_generators(family, d, F, self_check=False)
    for alias in aliases:
        got = group.classical_generators(alias, d, F, self_check=False)
        assert got.elements == want.elements
        assert got.label == want.label == f"{family}({d},{q})"


def test_classical_generators_desk_scale_cap(f3):
    with pytest.raises(ValueError):
        group.classical_generators("Sp", 16, f3)


def test_orbit_partition_serialize(w33):
    gs = group.classical_generators("Sp", 4, w33.field)
    part = group.orbits(w33, gs)
    d = part.serialize()
    assert d["orbit_sizes"] == [40]
    assert len(d["labels"]) == 40
    assert d["space_descriptor"] == w33.descriptor()
    assert json.loads(json.dumps(d)) == d   # labels are Python ints


def test_orbit_partition_is_built_only_by_orbits(w33):
    with pytest.raises(TypeError, match="group.orbits"):
        group.OrbitPartition(w33, np.arange(40))
    part = group.orbits(w33, group.GeneratorSet(w33.field, [_identity(w33.field, 4)]))
    assert part.labels.dtype == np.int64 and not part.labels.flags.writeable
    assert part.n_orbits == 40 and part.orbit_labels == tuple(range(40))


# -- differential checks against test-only oracles -------------------------


def _canon(F, v):
    lead = next(x for x in v if x)
    return tuple(F.div(x, lead) for x in v)


def _bfs_labels(space, gens):
    """Breadth-first orbit labels, point by point: the reference for orbits()."""
    F, pts = space.field, points(space)
    index = {v: i for i, v in enumerate(pts)}
    labels = [-1] * space.num_points
    for seed in range(space.num_points):
        if labels[seed] != -1:
            continue
        labels[seed] = seed
        frontier = [seed]
        while frontier:
            nxt = []
            for i in frontier:
                for g in gens:
                    j = index[_canon(F, g.apply(pts[i]))]
                    if labels[j] == -1:
                        labels[j] = seed
                        nxt.append(j)
            frontier = nxt
    return labels


def _frobenius(F, d):
    return group.Semisimilarity(F, [[1 if j == i else 0 for j in range(d)]
                                    for i in range(d)], sigma_power=1)


_POOL_SPACES = [("W", 4, 3, "Sp"), ("Q", 5, 5, "Omega"), ("W", 4, 4, "Sp"),
                ("H", 4, 4, "SU"), ("Q+", 6, 4, "OmegaPlus"), ("H", 3, 9, "SU")]


@functools.lru_cache(maxsize=None)
def _pool(kind, d, q, family):
    """A space and a pool of its semisimilarities; over GF(4) and GF(9) the
    pool holds the Frobenius map and its products with isometries
    (semilinear)."""
    F = gf.field_of_order(q)
    space = polar.build(forms.standard_form(kind, d, F))
    pool = list(group.classical_generators(family, d, F, self_check=False))
    if F.f > 1:
        frob = _frobenius(F, d)
        pool += [frob] + [g * frob for g in pool[:8]]
    return space, pool


@settings(max_examples=60)
@given(st.data())
def test_orbits_match_bfs_on_intransitive_subsets(data):
    space, pool = _pool(*data.draw(st.sampled_from(_POOL_SPACES)))
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1,
                               max_size=3))
    gens = group.GeneratorSet(space.field, [pool[i] for i in picks])
    want = _bfs_labels(space, gens)
    assume(len(set(want)) > 1)
    assert group.orbits(space, gens).labels.tolist() == want


@settings(max_examples=40)
@given(st.data())
def test_orbits_match_bfs_on_sets_that_list_inverse_pairs(data):
    """Inverses listed next to their elements are dropped from generators,
    and the labels still match the breadth-first closure over every
    element."""
    space, pool = _pool(*data.draw(st.sampled_from(_POOL_SPACES)))
    picks = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
    listed = []
    for g in picks:
        listed += data.draw(st.permutations([g, g.inverse()]))
    gens = group.GeneratorSet(space.field, listed)
    assert len(gens.generators) <= len(picks)
    assert set(gens.elements) == set(listed)
    want = _bfs_labels(space, gens)
    assume(len(set(want)) > 1)
    assert group.orbits(space, gens).labels.tolist() == want


@settings(max_examples=40)
@given(st.data())
def test_classify_orbits_matches_classify_on_intransitive_subsets(data):
    """classify_orbits reads every orbit's report off the counts at one
    point per orbit; classify counts at every point of the space, here on
    orbits taken from the breadth-first labels."""
    space, pool = _pool(*data.draw(st.sampled_from(_POOL_SPACES)))
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1,
                               max_size=3))
    gens = group.GeneratorSet(space.field, [pool[i] for i in picks])
    want = _bfs_labels(space, gens)
    assume(len(set(want)) > 1)
    orbit_sets = [polar.PointSet(space, tuple(i for i, l in enumerate(want) if l == label))
                  for label in sorted(set(want))]
    assert intriguing.classify_orbits(group.orbits(space, gens)) \
        == [intriguing.classify(space, M) for M in orbit_sets]


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_classify_orbits_of_the_trivial_group_on_a_line(q):
    """Each point of W(1,q) is its own perp, so every singleton is 1-tight
    with h1 = 1 and h2 = 0."""
    F = gf.field_of_order(q)
    space = polar.build(forms.standard_form("W", 2, F))
    part = group.orbits(space, group.GeneratorSet(F, [_identity(F, 2)]))
    want = [intriguing.IntriguingReport(1, 1, 0, True, tight_i=1)] * (q + 1)
    assert intriguing.classify_orbits(part) == want
    assert [intriguing.classify(space, M) for M in part.orbit_sets()] == want


def test_classify_orbits_of_the_trivial_group_on_w33(w33):
    """A point of W(3,3) is collinear with 12 of the other 39, so no
    singleton is intriguing."""
    part = group.orbits(w33, group.GeneratorSet(w33.field, [_identity(w33.field, 4)]))
    reports = intriguing.classify_orbits(part)
    assert reports == [intriguing.classify(w33, M) for M in part.orbit_sets()]
    assert {(r.size, r.h1, r.h2, r.is_intriguing) for r in reports} == {(1, 1, None, False)}


def _union_find_labels(n, images):
    parent = list(range(n))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for img in images:
        for i, j in enumerate(img):
            a, b = root(i), root(int(j))
            parent[max(a, b)] = min(a, b)
    return [root(i) for i in range(n)]


@st.composite
def _index_maps(draw):
    """A few maps on range(n): random ones, identities with a few edges
    changed (trees that later maps re-hook), and shifted reversals, whose
    long paths need many rounds of hooking and pointer jumping."""
    n = draw(st.integers(1, 80))
    index = st.integers(0, n - 1)
    maps = []
    for _ in range(draw(st.integers(1, 6))):
        shape = draw(st.sampled_from(["random", "sparse", "reversal"]))
        if shape == "random":
            maps.append(draw(st.lists(index, min_size=n, max_size=n)))
        elif shape == "sparse":
            m = list(range(n))
            for i, j in draw(st.lists(st.tuples(index, index), max_size=3)):
                m[i] = j
            maps.append(m)
        else:
            k = draw(index)
            maps.append([(n - 1 - i + k) % n for i in range(n)])
    return n, maps


# after a single pointer jump per round, re-hooking a non-root would split
# these components
@example((8, [[0, 1, 2, 3, 4, 5, 6, 6], [2, 3, 1, 6, 4, 0, 5, 7]]))
@example((8, [[0, 1, 2, 3, 4, 5, 4, 7], [0, 1, 4, 2, 3, 5, 6, 7],
              [0, 1, 2, 3, 0, 5, 6, 7]]))
@settings(max_examples=300)
@given(_index_maps())
def test_close_matches_union_find(case):
    n, maps = case
    images = [np.array(m, dtype=np.int64) for m in maps]
    labels = group._close(n, iter(images)).tolist()
    want = _union_find_labels(n, maps)
    if any(want):
        assert labels == want
    else:   # one component: later maps may go unread, labels are all 0
        assert labels == [0] * n


@pytest.mark.parametrize("spec", [("W", 4, 3, "Sp"), ("H", 4, 4, "SU")])
def test_orbits_stop_once_transitive(monkeypatch, spec):
    space, pool = _pool(*spec)
    gens = group.GeneratorSet(space.field, pool)
    drawn = []
    images = group._point_images

    def counting(space, gens):
        for img in images(space, gens):
            drawn.append(img)
            yield img

    monkeypatch.setattr(group, "_point_images", counting)
    part = group.orbits(space, gens)
    assert part.labels.tolist() == [0] * space.num_points == _bfs_labels(space, gens)
    assert 0 < len(drawn) < len(gens)


@pytest.mark.parametrize("rows", [16, 120, 4096])
def test_orbits_image_only_the_blocks_they_draw(monkeypatch, rows):
    """A block's generators are expanded when its first image is drawn, and
    orbits stops drawing once transitive.  On W(3,3), 40 points, 16 rows
    a block is a slice of one generator, so exactly the generators drawn
    are expanded; 120 and 4096 rows put 3 and all 7 in a block, so the
    generators expanded are those of the blocks drawn from: at most one
    block's generators beyond those drawn."""
    space, pool = _pool("W", 4, 3, "Sp")
    gens = group.GeneratorSet(space.field, pool)
    n, drawn, expanded = space.num_points, [], []
    images, expand = group._point_images, la.expand

    def counting(space, gens):
        for img in images(space, gens):
            drawn.append(img)
            yield img

    def spy(F, M, s=0):
        expanded.append(M)
        return expand(F, M, s)

    monkeypatch.setattr(la, "_SCAN_ROWS", rows)
    monkeypatch.setattr(group, "_point_images", counting)
    monkeypatch.setattr(la, "expand", spy)
    part = group.orbits(space, gens)
    assert part.labels.tolist() == [0] * n
    step = max(1, rows // n)
    assert 0 < len(drawn) < len(gens.generators)
    assert expanded == [g.matrix for g in gens.generators[:len(expanded)]]
    assert len(expanded) == min(len(gens.generators), -(-len(drawn) // step) * step)


def test_point_images_stay_within_a_few_blocks_of_memory():
    """Four Omega(11,3) generators imaged on the 29,524 points of Q(10,3):
    the traced peak must stay below the float64 digit rows, the four index
    arrays and eight blocks of _SCAN_ROWS float64 image rows, 6.1 MiB.
    Imaging a whole generator at once peaked at about 11.3 MiB."""
    F = gf.field(3)
    space = polar.build(forms.standard_form("Q", 11, F))
    gens = group.classical_generators("Omega", 11, F, self_check=False).generators[:4]
    n, d = space.points_np.shape
    list(group._point_images(space, gens))   # field tables and code caches
    tracemalloc.start()
    try:
        images = list(group._point_images(space, gens))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(images) == 4
    assert peak < 8 * (n * d + 4 * n + 8 * la._SCAN_ROWS * d)


def _multiplier_by_basis_pairs(form, g):
    """Multiplier from every basis pair (d^2 form evaluations of O(d^2) each)
    and the basis Q-values: the reference for multiplier()."""
    F = form.field
    d = form.dim
    if g.dim != d or g.field is not F:
        raise ValueError("dimension or field mismatch")
    basis = [tuple(1 if j == i else 0 for j in range(d)) for i in range(d)]
    images = [g.apply(b) for b in basis]
    s = g.sigma_power
    pairs = [(form.evaluate_pair(basis[i], basis[j]),
              form.evaluate_pair(images[i], images[j]))
             for i in range(d) for j in range(d)]
    if form.kind.is_quadratic:
        pairs += [(form.evaluate(b), form.evaluate(w))
                  for b, w in zip(basis, images)]
    lam = None
    for val, got in pairs:
        if val == 0:
            if got != 0:
                raise ValueError("form invariance fails (zero value moved)")
        elif lam is None:
            lam = F.div(got, F.frobenius(val, s))
    if lam is None or lam == 0:
        raise ValueError("could not recover a multiplier")
    for val, got in pairs:
        if val != 0 and got != F.mul(lam, F.frobenius(val, s)):
            raise ValueError("form invariance fails")
    return lam


def _outcome(fn, form, g):
    try:
        return fn(form, g)
    except ValueError as exc:
        return str(exc)


_MULT_FAMILIES = [("W", 4, 3, "Sp"), ("W", 4, 5, "Sp"), ("W", 4, 8, "Sp"),
                  ("Q", 5, 3, "Omega"), ("Q", 5, 9, "Omega"),
                  ("Q-", 6, 3, "OmegaMinus"), ("Q-", 4, 8, "OmegaMinus"),
                  ("Q+", 6, 4, "OmegaPlus"),
                  ("H", 3, 4, "SU"), ("H", 3, 9, "SU"), ("H", 4, 9, "SU")]


@functools.lru_cache(maxsize=None)
def _isometries(kind, d, q, family):
    F = gf.field_of_order(q)
    return (forms.standard_form(kind, d, F),
            group.classical_generators(family, d, F, self_check=False).elements)


@settings(max_examples=150)
@given(st.data())
def test_multiplier_matches_basis_pair_oracle(data):
    form, isos = _isometries(*data.draw(st.sampled_from(_MULT_FAMILIES)))
    F, d = form.field, form.dim
    word = data.draw(st.lists(st.sampled_from(isos), min_size=1, max_size=3))
    g = word[0]
    for h in word[1:]:
        g = g * h
    # scaled similarity: c*I has multiplier c^2 (c^(sqrt q + 1) for Hermitian)
    c = data.draw(st.integers(1, F.q - 1))
    M = [[F.mul(c, x) for x in row] for row in g.matrix]
    sigma = data.draw(st.integers(0, F.f - 1))
    if data.draw(st.booleans()):
        i, j = data.draw(st.integers(0, d - 1)), data.draw(st.integers(0, d - 1))
        M[i][j] = F.add(M[i][j], data.draw(st.integers(1, F.q - 1)))
    try:
        g = group.Semisimilarity(F, M, sigma)
    except ValueError:
        assume(False)
    want = _outcome(_multiplier_by_basis_pairs, form, g)
    assert _outcome(group.multiplier, form, g) == want


def test_multiplier_of_semilinear_hermitian_similarity(f9):
    form = forms.standard_form("H", 3, f9)
    w = f9.generator
    scaled = [[w if j == i else 0 for j in range(3)] for i in range(3)]
    g = group.Semisimilarity(f9, scaled, sigma_power=1)
    lam = f9.pow(w, 4)                         # w * w^3, the norm of w
    assert lam != 1
    assert group.multiplier(form, g) == lam
    assert _multiplier_by_basis_pairs(form, g) == lam


def _symplectic_transvection(form, v):
    """x -> x + B(x, v) v for the polar form B of a characteristic-2
    quadratic form: it keeps B, and moves Q unless Q(v) = 1."""
    F, d = form.field, form.dim
    rows = [[int(i == j) for j in range(d)] for i in range(d)]
    for i, b in enumerate(form.pair_functional(v)):
        for j in range(d):
            rows[i][j] = F.add(rows[i][j], F.mul(b, v[j]))
    return group.Semisimilarity(F, rows)


@pytest.mark.parametrize("upper,message", [
    # the standard Q+(5,2): x0x1 + x2x3 + x4x5, so e0 -> e0 + e1 moves
    # Q(e0) = 0 to 1
    ("standard", "form invariance fails (zero value moved)"),
    # x0^2 + x0x1 + x2x3 + x4x5, also hyperbolic: Q(e0) = 1 goes to 0
    ([[1, 1, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0],
      [0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 0, 0]],
     "form invariance fails"),
])
def test_multiplier_sees_a_moved_q_value_behind_a_kept_gram(upper, message):
    F = gf.field(2)
    form = (forms.standard_form("Q+", 6, F) if upper == "standard"
            else forms.quadratic_form(F, upper))
    assert form.kind is forms.FormKind.PLUS
    t = _symplectic_transvection(form, (0, 1, 0, 0, 0, 0))
    gram = mat_mul(F, mat_mul(F, t.matrix, form.bilinear_gram),
                   tuple(zip(*t.matrix)))
    assert gram == form.bilinear_gram
    assert _outcome(_multiplier_by_basis_pairs, form, t) == message
    assert _outcome(group.multiplier, form, t) == message


def test_multiplier_cannot_recover_from_a_vanishing_first_value(f4):
    """The Hermitian form with Gram [[1, 1], [1, 0]] over GF(4): e0 -> (0, 1)
    and e1 -> (1, w) keep every zero of the Gram matrix but send its first
    nonzero entry, kappa(e0, e0) = 1, to 0."""
    form = forms.Form("H", f4, [[1, 1], [1, 0]])
    w = f4.generator
    g = group.Semisimilarity(f4, [[0, 1], [1, w]])
    message = "could not recover a multiplier"
    assert _outcome(_multiplier_by_basis_pairs, form, g) == message
    assert _outcome(group.multiplier, form, g) == message


def test_multiplier_keeps_no_constants_of_a_dropped_form(f3):
    """Forms of two kinds and the same dimension, each built, used and
    dropped in turn: every verdict matches the oracle on the live form.
    CPython soon hands a dropped form's address to a new one, so constants
    cached by id(form) would be served to the other kind.  The kinds follow
    a seeded random sequence, as a fixed alternation can fall in step with
    the allocator's reuse cycle and never put the other kind at a dropped
    address; the steps go on until that has happened (at most 100)."""
    import random
    sp = group.classical_generators("Sp", 4, f3, self_check=False).elements
    om = group.classical_generators("OmegaPlus", 4, f3, self_check=False).elements
    pool = list(sp[:4]) + list(om[:4]) + [_identity(f3, 4)]
    data = {kind: forms.standard_form(kind, 4, f3).data for kind in ("W", "Q+")}
    rng = random.Random(0)
    verdicts, kind_at, reused = set(), {}, False
    for _ in range(100):
        kind = rng.choice(("W", "Q+"))
        form = forms.Form(kind, f3, data[kind])
        reused |= kind_at.setdefault(id(form), kind) != kind
        kind_at[id(form)] = kind
        got = [_outcome(group.multiplier, form, g) for g in pool]
        assert got == [_outcome(_multiplier_by_basis_pairs, form, g)
                       for g in pool]
        verdicts.add(tuple(got))
        del form
        if reused and len(verdicts) == 2:
            break
    assert reused, "no dropped form's address went to the other kind"
    assert len(verdicts) == 2


@given(st.data())
def test_semisimilarity_product_and_inverse_match_the_scalar_oracle(data):
    """(A, s)(B, t) = (A^(p^t) B, s + t), and (A, s)^-1 is the (C, -s) with
    A^(p^-s) C = I, by the scalar oracle; GF(4) and GF(9) draw s != 0."""
    F = data.draw(fields([2, 3, 4, 9]))
    d = data.draw(st.integers(1, 6))
    (A, s), (B, t) = [(data.draw(invertible_matrices(F, d)),
                       data.draw(st.integers(0, F.f - 1))) for _ in range(2)]
    g, h = group.Semisimilarity(F, A, s), group.Semisimilarity(F, B, t)
    gh = g * h
    assert gh.matrix == mat_mul(F, frobenius(F, A, t), B)
    assert gh.sigma_power == (s + t) % F.f
    gi = g.inverse()
    assert gi.sigma_power == -s % F.f
    assert mat_mul(F, frobenius(F, A, -s), gi.matrix) == identity(d)
    assert mat_mul(F, frobenius(F, gi.matrix, s), A) == identity(d)

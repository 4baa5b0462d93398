import hashlib
import itertools
import random
import tracemalloc

import numpy as np
import pytest

from polarkit import _linalg as la
from polarkit import constructions as cx
from polarkit import fieldred, forms, gf, group, manifest, polar
from strategies import canonical, collinear, point_index, points, span

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
    assert points(a) == points(b)
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
    assert list(points(sp)) == _oracle_points(sp.form)


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


def test_cap(monkeypatch):
    monkeypatch.setattr(polar, "POINT_CAP", 10)
    form = forms.standard_form("W", 4, gf.field(3))
    with pytest.raises(ValueError, match="cap"):
        polar.build(form)


def test_scan_cap_is_checked_before_the_scan(monkeypatch):
    """Q(2,q) has q + 1 points but q^2 + q + 1 projective points to scan."""
    monkeypatch.setattr(polar, "SCAN_CAP", 30)
    form = forms.standard_form("Q", 3, gf.field(5))
    with pytest.raises(ValueError, match="scanning 31 projective points "
                                         "exceeds cap 30"):
        polar.build(form)
    monkeypatch.setattr(polar, "SCAN_CAP", 31)
    assert polar.build(form).num_points == 6


def test_collinearity_matches_form(w33):
    """Point j lies in the perp_residual of point i exactly when the form
    vanishes on the pair (on the diagonal too)."""
    form, pts = w33.form, points(w33)
    for i in range(0, 40, 7):
        perp = polar.perp_residual(w33, forms.Subspace.span(w33.field, [pts[i]]))
        for j in range(0, 40, 11):
            assert (j in perp) == (form.evaluate_pair(pts[i], pts[j]) == 0)


def test_point_set_membership_follows_the_integer_rule(w33):
    """A member index is found as an int or a numpy integer; a bool, a
    float or anything else is never a member, as the constructor refuses
    it."""
    M = polar.PointSet(w33, [0, 1, 3])
    assert 0 in M and 1 in M and np.int64(1) in M and np.uint8(3) in M
    for i in (True, False, np.True_, 1.0, 0.0, np.float64(3), "1", None,
              (1,), np.array([1]), 2, 40, -1, 2 ** 70, -2 ** 70):
        assert i not in M


def test_point_canonicalization(q43):
    for v in points(q43):
        lead = next(x for x in v if x)
        assert lead == 1
    assert len(set(points(q43))) == q43.num_points


# -- point sets -------------------------------------------------------------


def test_point_set_normalizes(w33):
    M = polar.PointSet(w33, (5, 3, 3, 1))
    assert M.members.tolist() == [1, 3, 5]
    assert len(M) == 3


def test_point_set_bounds(w33):
    with pytest.raises(ValueError):
        polar.PointSet(w33, (0, 40))


@pytest.mark.parametrize("members", [
    [5, 3, 3, 1, 5],
    np.array([5, 3, 3, 1], dtype=np.int8),
    np.array([3, 5, 1, 1, 5], dtype=np.int32),
    np.array([1, 5, 3, 3], dtype=np.uint64),
    np.array([1, 3, 5]),
    (1, 3, 3, 5),
    np.array([1, 1, 3, 5, 5]),
], ids=["list", "int8", "int32", "uint64", "sorted-int64", "sorted-duplicates",
        "sorted-duplicates-int64"])
def test_point_set_sorts_and_deduplicates(w33, members):
    M = polar.PointSet(w33, members)
    assert M.members.tolist() == [1, 3, 5] and M.members.dtype == np.int64
    assert len(M) == 3


@pytest.mark.parametrize("members,message", [
    (np.array([True, False]), "point indices of dtype bool are not ints"),
    ([0, True], "point index True is a bool, not an int"),
    (np.array([1.0, 2.0]), "point indices of dtype float64 are not ints"),
    (np.array([[1, 2], [3, 4]]), "point indices form a 2-d array, not 1-d"),
    (np.array(3), "point indices form a 0-d array, not 1-d"),
    ([0, 40], "point index out of range"),
    ((-1, 3), "point index out of range"),
    (np.array([3, 40]), "point index out of range"),
    (np.array([3, -1], dtype=np.int8), "point index out of range"),
    (np.array([2 ** 63, 1], dtype=np.uint64), "point index out of range"),
    ([2 ** 70], "point index out of range"),
])
def test_point_set_refuses(w33, members, message):
    with pytest.raises(ValueError) as exc:
        polar.PointSet(w33, members)
    assert str(exc.value) == message


def test_point_set_members_are_a_read_only_copy(w33):
    given = np.array([1, 3, 5])
    M = polar.PointSet(w33, given)
    given[0] = 7
    assert M.members.tolist() == [1, 3, 5] and given.flags.writeable
    with pytest.raises(ValueError):
        M.members[0] = 2
    assert not polar.full_set(w33).members.flags.writeable


def test_point_set_reads_like_a_set(w33):
    import json
    M = polar.PointSet(w33, [5, 3, 1])
    assert json.loads(json.dumps(M.serialize())) == {
        "space_descriptor": w33.descriptor(), "indices": [1, 3, 5]}
    assert 3 in M and np.int64(5) in M
    assert 4 not in M and 40 not in M and -1 not in M and 0 not in M
    assert M.complement().members.tolist() == [
        i for i in range(40) if i not in (1, 3, 5)]
    assert M.vectors() == tuple(points(w33)[i] for i in (1, 3, 5))
    assert all(type(x) is int for v in M.vectors() for x in v)
    same = polar.PointSet(w33, (1, 3, 5))
    assert M == same and hash(M) == hash(same) and len({M, same}) == 1
    assert M != polar.PointSet(w33, (1, 3)) and M != M.complement()
    assert M != (1, 3, 5)
    twin = polar.build(forms.standard_form("W", 4, gf.field(3)))
    assert M != polar.PointSet(twin, (1, 3, 5))


def test_complement(w33):
    M = polar.PointSet(w33, tuple(range(15)))
    C = M.complement()
    assert len(C) == 25
    assert not set(M.members) & set(C.members)
    assert polar.full_set(w33).complement().members.tolist() == []


# -- derived configurations -------------------------------------------------


@pytest.mark.parametrize("rows", [7, 40, 4096])
def test_locate_across_blocks(monkeypatch, q43, rows):
    """locate canonicalises and searches _SCAN_ROWS rows at a time: every
    point, scaled by 2 and listed in reverse, comes back as its index, and
    a nonsingular row in the last block raises."""
    n = q43.num_points
    scaled = q43.field.mul_np(q43.points_np[::-1], 2)
    bad = np.concatenate([scaled, [[1, 0, 0, 0, 0]]])   # Q = x0^2 = 1
    monkeypatch.setattr(la, "_SCAN_ROWS", rows)
    assert q43.locate(scaled).tolist() == list(range(n - 1, -1, -1))
    with pytest.raises(AssertionError, match="image point missing from space"):
        q43.locate(bad)


_FAMILY = {"W": "Sp", "H": "SU", "Q": "Omega", "Q+": "OmegaPlus",
           "Q-": "OmegaMinus"}


@pytest.mark.parametrize("kind,d,q", [
    # the standard-form spaces of the benchmark's workloads
    ("W", 6, 3), ("W", 8, 2), ("W", 4, 5), ("Q-", 8, 3), ("Q", 11, 3),
    ("H", 5, 4), ("Q-", 6, 4), ("Q+", 6, 4), ("Q-", 8, 4), ("H", 6, 4),
    ("Q+", 12, 3),
    # a line, a unital and the grid
    ("W", 2, 3), ("W", 2, 7), ("H", 3, 4), ("Q+", 4, 3), ("Q+", 4, 5)])
def test_locate_matches_a_searchsorted_oracle(kind, d, q):
    """The image of every point under a seeded isometry, each row scaled by
    a random unit and the rows shuffled, is located where a binary search
    in the point codes finds it.  Nonsingular rows at both ends of the code
    range, past the first and last point codes where there are any, raise."""
    F = gf.field_of_order(q)
    sp = polar.build(forms.standard_form(kind, d, F), allow_grid=True)
    rng = random.Random(f"locate {kind} {d} {q}")
    elements = group.classical_generators(_FAMILY[kind], d, F,
                                          self_check=False).elements
    g = elements[0]
    for _ in range(6):
        g = g * elements[rng.randrange(len(elements))]
    nrng = np.random.default_rng(rng.randrange(2 ** 32))
    X = F.digit_rows(sp.points_np[nrng.permutation(sp.num_points)])
    rows = F.code_rows(la.mulmod(X, la.expand(F, g.matrix, g.sigma_power), F.p))
    rows = F.mul_np(rows, nrng.integers(1, q, len(rows))[:, None])
    codes = polar.canonical_codes(F, rows)
    want = np.searchsorted(sp.codes, codes)
    assert np.array_equal(sp.codes[want], codes)
    assert np.array_equal(sp.locate(rows), want)
    blocks = list(la.projective_blocks(F, d))
    ends = np.concatenate((blocks[0], blocks[-1]))
    outside = ends[~np.isin(polar.canonical_codes(F, ends), sp.codes)]
    assert len(outside) or kind == "W"
    for bad in outside[[0, -1]] if len(outside) else ():
        at = nrng.integers(len(rows) + 1)
        with pytest.raises(AssertionError, match="image point missing"):
            sp.locate(np.insert(rows, at, bad, axis=0))


def test_locate_of_no_rows_on_a_space_without_points():
    """Q-(1,3) has no points, and locating no rows there finds none."""
    sp = polar.build(forms.standard_form("Q-", 2, gf.field(3)))
    assert sp.num_points == 0
    assert sp.locate(np.zeros((0, 2), dtype=np.int64)).tolist() == []


def test_perp_residual_of_zero_is_everything(q43):
    Z = forms.Subspace.zero(q43.field, q43.d)
    assert polar.perp_residual(q43, Z).members.tolist() == list(range(40))


def test_perp_residual_counts(q43, qm52):
    S = polar.nonsingular_point_with_residual(q43, "Q-")
    res = polar.perp_residual(q43, S)
    assert len(res) == 10          # elliptic Q-(3,3) inside Q(4,3)
    L = polar.first_subspace_of_type(qm52, 2, "Q-")
    res2 = polar.perp_residual(qm52, L)
    assert len(res2) == 9          # Q-(3,2) inside Q-(5,2)


def test_first_subspace_of_type_properties(qm52):
    L = polar.first_subspace_of_type(qm52, 2, "Q-")
    rep = forms.classify_restriction(qm52.form, L)
    assert rep.kind is forms.FormKind.MINUS and rep.nondegenerate
    for v in span(qm52.field, L.rows, qm52.d) - {(0,) * qm52.d}:
        assert qm52.form.evaluate(v) != 0


def test_first_subspace_scan_limit(w33):
    with pytest.raises(ValueError):
        polar.first_subspace_of_type(w33, 4, "W")


def test_maximal_ts_points(w33, q43):
    for sp in (w33, q43):
        gen = polar.maximal_ts_points(sp)
        u = (sp.q ** sp.rank - 1) // (sp.q - 1)
        assert len(gen) == u
        every = points(sp)
        pts = [every[i] for i in gen.members]
        for a in pts:
            for b in pts:
                assert sp.form.evaluate_pair(a, b) == 0


@pytest.mark.parametrize("kind,pdim,q", [("Q+", 7, 3), ("W", 5, 4),
                                         ("H", 4, 4), ("Q-", 5, 8),
                                         ("Q", 4, 9), ("Q-", 1, 3)])
def test_maximal_ts_points_match_the_span_oracle(kind, pdim, q):
    """Neither building a space, finding its maximal TS points nor looking
    points up through index builds the tuple point list; the members are
    the canonical forms of every nonzero vector in the span of the TS
    basis, found in a dict over that list."""
    sp = _space(kind, pdim, q)
    members = polar.maximal_ts_points(sp).members
    F = sp.field
    pts = {canonical(F, v) for v in span(F, sp.ts_basis, sp.d) if any(v)}
    found = sorted(sp.index[v] for v in pts)
    assert _holds_no_point_list(sp)
    assert members.tolist() == found == sorted(point_index(sp)[v] for v in pts)
    assert sp.num_points == len(points(sp)) == len(sp.points_np)


def _holds_no_point_list(sp):
    """No attribute of the space is a tuple, list or dict with an entry per
    point: points_np is the one point list."""
    return not any(isinstance(x, (tuple, list, dict)) and len(x) == sp.num_points > 0
                   for x in vars(sp).values())


@pytest.mark.parametrize("kind,pdim,q", [("W", 3, 3), ("Q", 4, 3), ("H", 3, 4),
                                         ("Q-", 5, 2), ("W", 1, 9)])
def test_index_answers_as_a_dict_over_the_points(kind, pdim, q):
    """index gives a dict's answers on every vector of F^d, as Python and
    as numpy ints: a point's index, else a KeyError (scalar multiples, the
    zero vector); and a KeyError for keys of the wrong length, entries out
    of range (even where their code is a point's), floats and keys that
    are not tuples.  len and iteration order are the dict's."""
    sp = _space(kind, pdim, q)
    index, oracle = sp.index, point_index(sp)
    for v in itertools.product(range(q), repeat=sp.d):
        for key in (v, tuple(map(np.int64, v)), tuple(map(np.uint8, v))):
            assert (key in index) is (v in oracle)
            assert index.get(key, -1) == oracle.get(v, -1)
            if v in oracle:
                assert type(index[key]) is int
            else:
                with pytest.raises(KeyError):
                    index[key]
    # a point's code from entries out of range
    lo = next(v for v in oracle if v[-2] < q - 1)
    hi = next(v for v in oracle if v[-2] > 0)
    p = next(iter(oracle))
    for key in (p + (0,), p[:-1], (), (q,) + p[1:],
                lo[:-2] + (lo[-2] + 1, lo[-1] - q),
                hi[:-2] + (hi[-2] - 1, hi[-1] + q),
                list(p), np.array(p), str(p), None,
                p[:-1] + (float(p[-1]),), p[:-1] + (str(p[-1]),)):
        assert key not in index and index.get(key) is None
        with pytest.raises(KeyError):
            index[key]
    assert len(index) == len(oracle) == sp.num_points
    assert list(index) == list(oracle)
    assert dict(index.items()) == oracle


def test_index_refuses_bool_coordinates():
    """A bool coordinate is no int (gf.integer's rule, as for Form,
    Semisimilarity and PointSet), though True would read as the 1 of a
    point's key: (1, 0, 0, 0) is a point of W(3,3)."""
    sp = _space("W", 3, 3)
    assert (1, 0, 0, 0) in sp.index
    for key in ((True, 0, 0, 0), (np.True_, 0, 0, 0), (1, False, 0, 0)):
        assert key not in sp.index and sp.index.get(key) is None
        with pytest.raises(KeyError):
            sp.index[key]


def test_index_lookups_build_no_point_list():
    """Looking the 121 maximal TS points of Q(10,3) up through index, its
    first use included, allocates under 1 MiB: no tuple point list and no
    dict over it (about 8 MiB at peak together).  The space holds no
    point list afterwards either."""
    sp = _space("Q", 10, 3)
    F = sp.field
    keys = sorted({canonical(F, v) for v in span(F, sp.ts_basis, sp.d) if any(v)})
    assert len(keys) == 121
    tracemalloc.start()
    try:
        found = [sp.index[v] for v in keys]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20 and _holds_no_point_list(sp)
    assert sorted(found) == polar.maximal_ts_points(sp).members.tolist()
    assert all(collinear(sp, i, j) for i in found[:5] for j in found)
    assert _holds_no_point_list(sp)


# -- pinned point arrays -----------------------------------------------------

# A SHA-1 of points_np and ts_basis for every space that the fast manifest
# targets and the benchmark workloads (perfbench/workloads.py) build, keyed
# by the space's name and a digest of its form's matrix.  Taken from the
# full-space scan that preceded polar's head/tail kernel.
PINNED = {
    "H(2,9) f23a5e8774":
        "b060c11f4d9616fbede1e58f2a8793d56c3b24a7",
    "H(3,4) 391ba227b6":
        "22eedf80751e7953577fa5d5612cc6ae793b495a",
    "H(3,9) 391ba227b6":
        "860a7d9c88e1df68e0c09e896a30540f0fcd89aa",
    "H(4,4) 104745ec68":
        "e4926d21968eaedaa5308cd93ce2ed3227acb04e",
    "H(5,4) fcdbab1b3d":
        "6e193e0068a20c726dcbf8fda02cb16120294be7",
    "Q(4,3) 0e338f2e64":
        "b15838a7f8b72945fbb30f8c1e79504313b342d0",
    "Q(4,3) 104745ec68":
        "3b788b28671834b228d7200ac8d9a2ab78031a1f",
    "Q(6,3) 04e6680168":
        "4b7436c303dc586765553f1c62836cc78e70c6c5",
    "Q(6,3) de5634c397":
        "55b77d701c1de7a217c2eaaf4bfd7fde8d88c4d6",
    "Q(6,3) fc4ed074dd":
        "a30e3d20083d3dee737c3455765937f15cd81dc8",
    "W(1,9) 8a06c9bdbb":
        "1fc7a650611d42a31e24657e2fc948555a0862ba",
    "W(3,3) 727ff9d81d":
        "a429c8740374fb2d0c1948d554ebe259fdc00823",
    "W(3,3) d35ae814ec":
        "a429c8740374fb2d0c1948d554ebe259fdc00823",
    "W(3,5) bd4bdfa323":
        "a6a920d8566a9df219ea0cdf332883aea09b5dff",
    "W(3,8) 4de2ed869e":
        "fbd44ca11dc37b855b6bec73c4d2bee8341a5bda",
    "W(3,9) d35ae814ec":
        "fa0403880406fba22b187fe5a30f0b725878bcf1",
    "W(5,2) 524432fe9d":
        "67afc02165b542574e85502d40d6a1bbc4bf8d26",
    "W(5,3) 1fe9bee57d":
        "73a3b3e350e3df248069793338906c3686737630",
    "W(7,2) aee9582e3f":
        "65e206b9ad6362dff73edf7bdde6a03eae27bce8",
    "W(7,3) c0a3f45217":
        "1ed093737b6e4243e6628976210a1d7581a23103",
    "Q(10,3) 336f01db92":
        "3c66e942e59234886f35581e9a973ece871f7a9c",
    "Q(10,3) bf73da8938":
        "5376fe539901721b62c2ff66de881778c9c5ba69",
    "Q+(3,4) f644a0abe0":
        "42f7a09fba3ce2e8b1f80d3954d4de6d7f946e2e",
    "Q+(5,2) 647c96f8d7":
        "6c8e851075ddf43895a83bd01154ab4092411d7a",
    "Q+(5,4) 647c96f8d7":
        "86fa7b8c2b4eac4b23f3d39eda29b928b595f739",
    "Q+(7,2) 5e2d27bab1":
        "02e0c48d0bceb62537c20dbf19c93ef0079beae4",
    "Q+(7,2) d80b43edbf":
        "48227632ee8f6f6f82712bbd110478648c4fafdf",
    "Q+(7,3) 5e2d27bab1":
        "be55fe45e20bd93fc44a175be9ca04c3a5556c6e",
    "Q+(7,3) 893dd7c74c":
        "8cdda7952e98f31b0059e797536c2979779cab4e",
    "Q+(7,3) aec4f08576":
        "a656063d5996e5eb3d9bb284f217d62bd4030b3b",
    "Q-(5,2) 907c7f4645":
        "f02624f381be261921b07b09be051c32164ff36e",
    "Q-(5,3) 3f36927932":
        "8ecb2c8a9217034c45eba59ae6fd167ac64fcc48",
    "Q-(5,3) d03a8ba9fb":
        "564e27a67c6eb528b1efd50c457909781a02fd8e",
    "Q-(5,3) fcdbab1b3d":
        "5b4834b30773a6cbf3e1869e8203d91ff049d903",
    "Q-(5,4) d03a8ba9fb":
        "bc26138bab08729078383363e05e0398214a5f20",
    "Q-(7,3) 77f0c459f2":
        "4ed9db13d8f8bce270263dd77fab6d0f3462ff69",
    "Q-(7,4) 77f0c459f2":
        "dbc64b3c504c5ed29079f5bb89ab54a29936524f",
    "Q-(9,2) 8b5e25eefe":
        "022927c0f6c898f1a3a9b9d08be84ed4948c644a",
    "W(11,2) df6761e4db":
        "e0121c919a4a7aed49e76dcbfda82164dd1d88fd",
    "Q+(11,3) a259641363":
        "b3bb626ff0189824d112544ce31f485b5b5ea332",
    "Q-(11,2) eae644cb0f":
        "decad9649f57b0363011f36fe4bcc9e3b9090e4a",
}


def _space_digest(space):
    h = hashlib.sha1(np.ascontiguousarray(space.points_np, dtype=np.int64).tobytes())
    h.update(repr(space.ts_basis).encode())
    return h.hexdigest()


def test_built_spaces_match_the_pinned_hashes(monkeypatch):
    built = {}
    build = polar.build

    def recording_build(form, *args, **kwargs):
        space = build(form, *args, **kwargs)
        key = f"{space.name} {hashlib.sha1(repr(form.data).encode()).hexdigest()[:10]}"
        built[key] = _space_digest(space)
        return space

    monkeypatch.setattr(polar, "build", recording_build)
    for target in manifest.TARGETS:
        if target.budget == "fast":
            manifest.run_target(target)
    # the workloads' orbit and generator jobs build standard forms, their
    # reduction jobs go through fieldred.reduce
    for kind, d, q in [("W", 6, 3), ("W", 8, 2), ("W", 4, 5), ("Q-", 8, 3),
                       ("Q", 11, 3), ("H", 5, 4), ("Q-", 6, 4), ("Q+", 6, 4),
                       ("Q-", 8, 4), ("H", 6, 4), ("Q+", 12, 3)]:
        polar.build(forms.standard_form(kind, d, gf.field_of_order(q)))
    for row, q, b, kind, m in [(1, 3, 2, "W", 4), (1, 2, 3, "W", 4),
                               (3, 2, 2, "Q-", 6), (9, 2, 2, "H", 5),
                               (10, 3, 2, "H", 4)]:
        S = gf.field_of_order(q)
        fieldred.reduce(row, forms.standard_form(kind, m, gf.field(S.p, S.f * b)), S)
    cx.adjoint_sl3(3)
    cx.dlength_partition("Q", 3, 5)
    cx.q43_monomial_splits()
    cx.dlength_partition("Q", 3, 11)
    assert built == PINNED

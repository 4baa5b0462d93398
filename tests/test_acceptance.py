"""End-to-end acceptance: the headline computations, all exact.

Every expected number here is frozen from an independent derivation (point
count formulas, double counting, or the gcd-stripping oracle below); the
suite never compares a computation against itself.  Everything is fast
except the exterior-square section, which rebuilds a 265,720-point orbit
partition and is budgeted in minutes, not seconds.
"""

import json
import math
import random

import pytest

from polarkit import (constructions, fieldred, forms, gf, group, intriguing,
                      manifest, polar)
from strategies import points

CORPUS = [
    ("W", 3, 3), ("W", 5, 2), ("Q", 4, 3), ("Q", 6, 3), ("Q+", 5, 2),
    ("Q+", 7, 2), ("Q+", 7, 3), ("Q-", 5, 2), ("Q-", 5, 3), ("H", 3, 4),
    ("H", 4, 4),
]


def _space(kind, pdim, q):
    return polar.build(forms.standard_form(kind, pdim + 1, gf.field_of_order(q)))


# -- point counts --------------------------------------------------------


@pytest.mark.parametrize("kind,pdim,q", CORPUS)
def test_point_counts_match_formulas(kind, pdim, q):
    sp = _space(kind, pdim, q)
    r, theta = sp.rank, sp.ovoid_number
    assert sp.num_points == (q ** r - 1) // (q - 1) * theta
    assert len(set(points(sp))) == sp.num_points


# -- the full point set is trivially intriguing --------------------------


@pytest.mark.parametrize("kind,pdim,q", CORPUS)
def test_full_set_is_tight_and_ovoid(kind, pdim, q):
    sp = _space(kind, pdim, q)
    rep = intriguing.classify(sp, polar.full_set(sp))
    r, theta = sp.rank, sp.ovoid_number
    u = (q ** r - 1) // (q - 1)
    assert rep.tight_i == theta
    assert rep.ovoid_m == u
    # h1 from either family's formula; no off-set points exist
    assert rep.h1 == q ** (r - 1) + theta * (q ** (r - 1) - 1) // (q - 1)
    assert rep.h1 == (u - 1) * sp.theta_j(r - 1) + 1
    assert rep.h2 is None


# -- SL3(q) on its adjoint module ----------------------------------------


def test_adjoint_sl3_two_orbit_tights():
    model = constructions.adjoint_sl3(3)
    assert model.space.name == "Q(6,3)"
    assert model.orbits.orbit_sizes == (52, 312)
    by_size = {len(M): intriguing.classify(model.space, M)
               for M in model.orbits.orbit_sets()}
    assert by_size[52].tight_i == 4           # q + 1
    assert by_size[312].tight_i == 24         # q^3 - q
    assert 4 + 24 == model.space.ovoid_number == 28


# -- D-length partitions and the monomial splits of Q(4,3) ---------------


DLENGTH_SUITE = [
    ("H", 4, 4, {2: (18, None, 2), 4: (27, None, 3)}),
    ("H", 4, 5, {2: (30, 6, None), 4: (135, 27, None)}),
    ("Q-", 3, 6, {3: (80, 20, None), 6: (32, 8, None)}),
    ("Q", 3, 7, {3: (140, None, 5), 6: (224, None, 8)}),
    ("Q+", 3, 8, {3: (224, None, 8), 6: (896, None, 32)}),
]


@pytest.mark.parametrize("kind,q,t,rows", DLENGTH_SUITE)
def test_dlength_partition_parameters(kind, q, t, rows):
    part = constructions.dlength_partition(kind, q, t)
    assert set(part.classes) == set(rows)
    for length, (size, tight_i, ovoid_m) in rows.items():
        M = part.classes[length]
        rep = intriguing.classify(part.space, M)
        assert (len(M), rep.tight_i, rep.ovoid_m) == (size, tight_i, ovoid_m)


def test_q43_monomial_splits():
    out = constructions.q43_monomial_splits()
    sp = out["space"]
    for v in points(sp):                       # D-length 3 everywhere
        assert sum(1 for x in v if x) == 3
    assert out["ovoid_split"].orbit_sizes == (20, 20)
    for M in out["ovoid_split"].orbit_sets():
        assert intriguing.classify(sp, M).ovoid_m == 2
    assert out["tight_split"].orbit_sizes == (16, 24)
    params = sorted(intriguing.classify(sp, M).tight_i
                    for M in out["tight_split"].orbit_sets())
    assert params == [4, 6]


# -- SL2(5) through the symplectic field reduction -----------------------


def test_sl2_5_field_reduction():
    gset = constructions.sl2_5_in_sl2_9()
    wform = forms.standard_form("W", 2, gset.field)
    assert group.vector_orbits(wform, gset) == (40, 40)

    fr, sets = constructions.sl2_5_reduced_sets()
    assert sorted(len(s) for s in sets) == [20, 20]
    assert not set(sets[0].members) & set(sets[1].members)
    for s in sets:
        rep = intriguing.classify(fr.small_space, s)
        assert rep.tight_i == 5
        assert (rep.h1, rep.h2) == (8, 5)

    # push_down / lift_up round-trip on a scalar-closed set
    big = polar.PointSet(fr.large_space, (0, 2, 5))
    down = fieldred.push_down(fr, big)
    assert fieldred.lift_up(fr, down) == big
    # ... and the orbit sets themselves are not scalar-closed
    with pytest.raises(ValueError):
        fieldred.lift_up(fr, sets[0])


# -- the tight family from the row-2 reduction ---------------------------


def test_row2_blow_up_family():
    F4, F2 = gf.field(2, 2), gf.field(2)
    fr = fieldred.reduce(2, forms.standard_form("Q+", 4, F4), F2)
    assert fr.large_space.num_points == 25
    assert fr.small_space.num_points == 135
    m1 = fieldred.blow_up(fr)
    assert len(m1) == 75
    rep = intriguing.classify(fr.small_space, m1)
    assert rep.tight_i == 5 == 2 ** 2 + 1
    comp = intriguing.classify(fr.small_space, m1.complement())
    assert comp.tight_i == 4 == fr.small_space.ovoid_number - 5


# -- perp residuals ------------------------------------------------------


def test_nonsingular_point_residuals():
    q43 = _space("Q", 4, 3)
    S = polar.nonsingular_point_with_residual(q43, "Q-")
    rep = intriguing.classify(q43, polar.perp_residual(q43, S))
    assert (rep.ovoid_m, rep.h1, rep.h2) == (1, 1, 4)

    qm52 = _space("Q-", 5, 2)
    L = polar.first_subspace_of_type(qm52, 2, "Q-")
    rep2 = intriguing.classify(qm52, polar.perp_residual(qm52, L))
    assert rep2.tight_i == 3 == 2 ** (qm52.rank - 1) + 1
    assert (rep2.h1, rep2.h2) == (5, 3)


# -- Zsigmondy against a factorization-free oracle -----------------------


def _mr_prime(n):
    """Deterministic Miller-Rabin below 2^64."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primitive_part(n, k):
    R = n ** k - 1
    for i in range(1, k):
        if k % i:
            continue
        g = math.gcd(R, n ** i - 1)
        while g > 1:
            R //= g
            g = math.gcd(R, n ** i - 1)
    return R


def _check_one(n, k, zs):
    R = _primitive_part(n, k)
    if zs is None:
        assert R == 1, f"missed primitive prime of {n}^{k}-1 (part {R})"
        return
    assert (n ** k - 1) % zs == 0
    assert all((n ** i - 1) % zs for i in range(1, k))
    assert _mr_prime(zs)
    assert R % zs == 0
    # minimality: strip zs, then the cofactor's factors are primitive primes
    C = R
    while C % zs == 0:
        C //= zs
    if C == 1:
        return
    if C < zs * zs:
        assert _mr_prime(C) and C > zs
        return
    # here zs <= R^(1/3) < 2^21, so scanning candidates 1 (mod k) is cheap
    step = k if k > 1 else 1
    r = 1 + step
    while r < zs:
        if C % r == 0:
            raise AssertionError(f"{r} < {zs} divides the primitive part")
        r += step


def test_zsigmondy_sweep_against_oracle():
    none_at_k2 = set()
    for n in range(2, 51):
        for k in range(1, 13):
            if n ** k >= 2 ** 63:
                continue
            zs = intriguing.zsigmondy(n, k)
            _check_one(n, k, zs)
            if k == 2 and zs is None:
                none_at_k2.add(n)
    assert intriguing.zsigmondy(2, 6) is None
    assert none_at_k2 == {n for n in range(2, 51) if (n + 1) & n == 0}
    assert none_at_k2 == {3, 7, 15, 31}


# -- the exterior-square section of Sp6(3) -------------------------------


@pytest.mark.slow
def test_extsq_sp6_orbit_partition():
    model = constructions.extsq_sp6(3)
    sp = model.space
    assert sp.name == "Q(12,3)" and sp.num_points == 265720
    assert model.orbits.orbit_sizes == (3640, 262080)
    orbit_sets = model.orbits.orbit_sets()
    by_size = {len(M): intriguing.classify(sp, M) for M in orbit_sets}
    assert intriguing.classify_orbits(model.orbits) \
        == [by_size[len(M)] for M in orbit_sets]
    assert by_size[3640].tight_i == 10        # q^2 + 1
    assert by_size[262080].tight_i == 720     # q^6 - q^2
    assert by_size[3640].h1 == 243 + 121 * 10
    assert by_size[262080].h2 == 121 * 720
    # the wedge of the first hyperbolic pair lands in the small orbit
    e0 = (1, 0, 0, 0, 0, 0)
    e1 = (0, 1, 0, 0, 0, 0)
    idx = constructions.wedge_point(model, e0, e1)
    assert len(model.orbits.orbit(model.orbits.labels[idx])) == 3640


# -- property suite -----------------------------------------------------


def test_complement_consistency():
    sp = _space("W", 5, 2)
    rng = random.Random(11)
    const = intriguing._collinear_constant(sp)
    for _ in range(12):
        size = rng.randrange(1, sp.num_points)
        members = sorted(rng.sample(range(sp.num_points), size))
        comp = sorted(set(range(sp.num_points)) - set(members))
        a = intriguing._raw_counts(sp, members)
        b = intriguing._raw_counts(sp, comp)
        assert (a + b == const).all()


def test_ovoids_meet_generators():
    cases = []
    q43 = _space("Q", 4, 3)
    S = polar.nonsingular_point_with_residual(q43, "Q-")
    cases.append((q43, polar.perp_residual(q43, S), 1))
    out = constructions.q43_monomial_splits()
    for M in out["ovoid_split"].orbit_sets():
        cases.append((out["space"], M, 2))
    part = constructions.dlength_partition("Q", 3, 7)
    cases.append((part.space, part.classes[3], 5))
    cases.append((part.space, part.classes[6], 8))
    for sp, M, m in cases:
        assert intriguing.classify(sp, M).ovoid_m == m
        gen = polar.maximal_ts_points(sp)
        assert intriguing.classify(sp, gen).tight_i == 1
        assert len(set(gen.members) & set(M.members)) == m


def test_orbit_determinism():
    sp = _space("Q", 4, 3)
    gens = group.classical_generators("Omega", 5, sp.field)
    baseline = group.orbits(sp, gens).labels.tolist()
    rng = random.Random(5)
    for _ in range(3):
        shuffled = list(gens.elements)
        rng.shuffle(shuffled)
        again = group.orbits(sp, group.GeneratorSet(sp.field, shuffled))
        assert again.labels.tolist() == baseline


def test_invariance_rejects_corruption():
    sp = _space("W", 3, 3)
    gens = group.classical_generators("Sp", 4, sp.field, self_check=False)
    mat = [list(row) for row in gens.elements[0].matrix]
    mat[0][0] = (mat[0][0] + 1) % 3
    try:
        bad = group.Semisimilarity(sp.field, mat)
    except ValueError:
        return      # the perturbation already failed invertibility: rejected
    with pytest.raises(ValueError, match="rejected"):
        group.orbits(sp, group.GeneratorSet(sp.field, [bad]))

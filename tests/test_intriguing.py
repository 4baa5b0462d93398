"""Classification of intriguing sets, plus the feasibility and Zsigmondy
helpers.  Frozen values were computed independently (direct perp counting
over the enumerated point lists) before being asserted here."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from polarkit import _linalg as la
from polarkit import constructions, fieldred, forms, gf, group, intriguing, polar
from polarkit.intriguing import FeasibilityQuery, classify, feasibility, zsigmondy
from strategies import collinear, point_index, points, span


def _lines(space):
    """All maximal totally singular subspaces of a rank-2 space, as point
    index frozensets (spans of collinear point pairs)."""
    assert space.rank == 2
    F = space.form.field
    index, vecs = point_index(space), points(space)
    out = set()
    n = space.num_points
    for i in range(n):
        for j in range(i + 1, n):
            if not collinear(space, i, j):
                continue
            pts = []
            for v in span(F, [vecs[i], vecs[j]], space.d):
                if any(v) and next(x for x in v if x) == 1:
                    pts.append(index[v])
            out.add(frozenset(pts))
    return out


# -- classification ---------------------------------------------------------


def test_full_set_w33(w33):
    rep = classify(w33, polar.full_set(w33))
    assert (rep.size, rep.h1, rep.h2) == (40, 13, None)
    assert rep.tight_i == 10 and rep.ovoid_m == 4
    assert rep.is_intriguing


def test_full_set_q63():
    sp = polar.build(forms.standard_form("Q", 7, gf.field(3)))
    rep = classify(sp, polar.full_set(sp))
    assert (rep.size, rep.h1) == (364, 121)
    assert rep.tight_i == 28 and rep.ovoid_m == 13


def test_generator_is_one_tight(w33, q43):
    for sp in (w33, q43):
        rep = classify(sp, polar.maximal_ts_points(sp))
        assert rep.tight_i == 1
        assert (rep.h1, rep.h2) == (4, 1)


def test_generator_complement_q63():
    sp = polar.build(forms.standard_form("Q", 7, gf.field(3)))
    comp = polar.maximal_ts_points(sp).complement()
    rep = classify(sp, comp)
    assert (rep.size, rep.h1, rep.h2) == (351, 117, 108)
    assert rep.tight_i == 27


def test_not_intriguing(w33):
    rep = classify(w33, polar.PointSet(w33, tuple(range(7))))
    assert not rep.is_intriguing
    assert rep.tight_i is None and rep.ovoid_m is None


def test_classify_rejects_empty(w33):
    with pytest.raises(ValueError):
        classify(w33, polar.PointSet(w33, ()))


def test_classify_rejects_foreign_set(w33, q43):
    with pytest.raises(ValueError):
        classify(w33, polar.PointSet(q43, (0, 1)))


@given(st.data())
@settings(max_examples=40)
def test_complement_count_identity(w33, data):
    """Double counting: the perp-count vectors of M and of its complement sum
    to the constant collinearity vector, for *any* M."""
    members = data.draw(st.sets(st.integers(0, 39), min_size=1, max_size=39))
    M = polar.PointSet(w33, tuple(members))
    a = intriguing._raw_counts(w33, list(M.members))
    b = intriguing._raw_counts(w33, list(M.complement().members))
    assert np.all(a + b == intriguing._collinear_constant(w33))


@pytest.mark.parametrize("kind,pdim,q", [
    ("W", 1, 3), ("Q+", 1, 3), ("Q", 2, 3), ("Q-", 3, 3), ("H", 2, 4),  # rank 1
    ("W", 3, 3), ("Q+", 5, 2), ("Q", 4, 3), ("H", 3, 4), ("Q-", 5, 2),
])
def test_collinear_constant_matches_every_point(kind, pdim, q):
    sp = polar.build(forms.standard_form(kind, pdim + 1, gf.field_of_order(q)))
    const = intriguing._collinear_constant(sp)
    assert type(const) is int
    pts = points(sp)
    for x in pts:
        assert sum(sp.form.evaluate_pair(x, y) == 0 for y in pts) == const


@given(st.data())
@settings(max_examples=25)
def test_classify_branches_agree(qm52, data):
    """classify streams small sets directly and large sets through the
    complement; forcing a set through both paths must agree."""
    members = data.draw(st.sets(st.integers(0, 26), min_size=10, max_size=17))
    M = polar.PointSet(qm52, tuple(members))
    via_m = intriguing._raw_counts(qm52, list(M.members))
    via_c = (intriguing._collinear_constant(qm52)
             - intriguing._raw_counts(qm52, list(M.complement().members)))
    assert np.all(via_m == via_c)


@pytest.mark.parametrize("kind,dim,q", [("Q-", 6, 2), ("W", 4, 4), ("H", 4, 9)])
def test_raw_counts_in_small_blocks_match_collinearity(monkeypatch, kind, dim, q):
    """Row and kernel blocks far smaller than the space and the member
    list, with a kernel block of 25 cells, which a cut along whole groups
    of f = 2 columns leaves at 24: every count is still |P^perp ∩ M| by the
    collinear oracle."""
    sp = polar.build(forms.standard_form(kind, dim, gf.field_of_order(q)))
    monkeypatch.setattr(intriguing, "_ROW_BLOCK", 7)
    monkeypatch.setattr(la, "_SCAN_CELLS", 25)
    members = list(range(0, sp.num_points, 3))
    want = [sum(collinear(sp, i, j) for j in members) for i in range(sp.num_points)]
    assert intriguing._raw_counts(sp, members).tolist() == want


def _span_spy(monkeypatch):
    """Record what every _span call returns: (R, piv), or None once the
    elimination stopped."""
    calls = []
    span = intriguing._span

    def spy(*args):
        calls.append(span(*args))
        return calls[-1]

    monkeypatch.setattr(intriguing, "_span", spy)
    return calls


def _points_in_span(space, vectors):
    """The indices of the points of the space lying in the span of the
    vectors, by listing the subspace."""
    index = point_index(space)
    return sorted(index[v] for v in span(space.field, vectors, space.d)
                  if any(v) and next(x for x in v if x) == 1 and v in index)


@pytest.mark.parametrize("kind,dim,q", [
    ("W", 6, 3), ("Q", 7, 3), ("Q+", 8, 2), ("Q-", 8, 2), ("H", 4, 4),
    ("H", 5, 4), ("Q-", 6, 4), ("W", 4, 9), ("H", 3, 9), ("W", 4, 8)])
def test_span_reduced_counts_match_the_direct_kernel(monkeypatch, kind, dim, q):
    """Sets inside the spans of 1-3 random points, and random halves of
    them, counted by the direct kernel (every call here is under the cell
    gate) and again with the gate at zero, so that every call tries the
    reduction to the span: over all points, over a random half of the
    points given as rows, and for the empty member list (K = 0)."""
    sp = polar.build(forms.standard_form(kind, dim, gf.field_of_order(q)))
    n, f = sp.num_points, sp.field.f
    rng = np.random.default_rng(dim * 1000 + q)
    pts = points(sp)
    sets = []
    for k in (1, 2, 3) * 2:
        picks = rng.choice(n, size=k, replace=False)
        members = _points_in_span(sp, [pts[i] for i in picks])
        half = rng.choice(members, size=max(1, len(members) // 2), replace=False)
        sets += [members, sorted(half.tolist())]
    rows = np.sort(rng.choice(n, size=n // 2, replace=False))
    direct = []
    for members in sets:
        assert n * len(members) * f < intriguing._REDUCE_CELLS
        direct.append(intriguing._raw_counts(sp, members))
    calls = _span_spy(monkeypatch)
    monkeypatch.setattr(intriguing, "_REDUCE_CELLS", 0)
    for members, want in zip(sets, direct):
        assert intriguing._raw_counts(sp, members).tolist() == want.tolist()
        assert (intriguing._raw_counts(sp, members, rows=rows).tolist()
                == want[rows].tolist())
    assert len(calls) == 2 * len(sets)
    assert any(span is not None for span in calls)
    assert intriguing._raw_counts(sp, []).tolist() == [0] * n
    assert len(calls[-1][1]) == 0


def test_span_reduction_taken_for_a_generator_and_stopped_on_a_full_span(
        monkeypatch):
    """The Q+(11,3) generator spans 6 of 12 dimensions: 3^6 = 729 grid rows
    against 88,816 points, so classify takes the reduction.  The length-3
    class of the diagonal Q(10,3) spans all 11, and the elimination stops
    at its 10th pivot, since 3^10 >= 29,524 points."""
    calls = _span_spy(monkeypatch)
    sp = polar.build(forms.standard_form("Q+", 12, gf.field(3)))
    rep = classify(sp, polar.maximal_ts_points(sp))
    assert (rep.size, rep.h1, rep.h2, rep.tight_i) == (364, 364, 121, 1)
    [(R, piv)] = calls
    assert len(piv) == 6 and R.shape == (6, 12)
    calls.clear()
    dp = constructions.dlength_partition("Q", 3, 11)
    rep = classify(dp.space, dp.classes[3])
    assert (rep.size, rep.h1, rep.h2) == (660, 273, None)
    assert calls == [None]


def _full_count_report(space, members):
    """The report from every point's count: the oracle for classify's early
    exit."""
    inside = np.zeros(space.num_points, dtype=bool)
    inside[members] = True
    counts = intriguing._raw_counts(space, members)
    return intriguing._report(space, len(members),
                              intriguing._constant(counts[inside]),
                              intriguing._constant(counts[~inside]))


def _drawn_sets(space, rng):
    """A generator and its complement (intriguing), the perp of a point
    (constant off the set only) and its complement (more than half the
    space, constant on the set only), the full set, random thirds and two
    thirds, and a generator with one more point (neither side constant)."""
    n = space.num_points
    gen = list(polar.maximal_ts_points(space).members)
    x = int(rng.integers(n))
    perp = [j for j in range(n) if collinear(space, x, j)]
    others = sorted(set(range(n)) - set(gen))
    return [gen, others, perp, sorted(set(range(n)) - set(perp)),
            list(range(n)),
            sorted(rng.choice(n, size=n // 3, replace=False).tolist()),
            sorted(rng.choice(n, size=2 * n // 3, replace=False).tolist()),
            sorted(gen + [int(rng.choice(others))])]


@pytest.mark.parametrize("kind,dim,q", [
    ("W", 6, 3), ("Q", 7, 3), ("Q-", 8, 3), ("H", 4, 4), ("W", 4, 9),
    ("Q", 9, 3)])
def test_early_exit_reports_match_the_full_count(monkeypatch, kind, dim, q):
    """classify stops reading a side at its first block with a second count.
    Its report must equal the one from every point's count: with the real
    blocks, with 7-row blocks (so exits fall inside a stream and inside the
    block that holds both sides), and with the span path tried on every
    count."""
    sp = polar.build(forms.standard_form(kind, dim, gf.field_of_order(q)))
    sets = _drawn_sets(sp, np.random.default_rng(dim * 100 + q))
    want = [_full_count_report(sp, members) for members in sets]
    kinds = {(r.h1 is not None, r.h2 is not None) for r in want}
    assert {(True, True), (True, False), (False, True), (False, False)} <= kinds
    assert any(2 * len(members) > sp.num_points and r.h1 is None
               for members, r in zip(sets, want))
    for patch in ({}, {"_ROW_BLOCK": 7}, {"_REDUCE_CELLS": 0},
                  {"_ROW_BLOCK": 7, "_REDUCE_CELLS": 0}):
        with monkeypatch.context() as m:
            for name, value in patch.items():
                m.setattr(intriguing, name, value)
            got = [classify(sp, polar.PointSet(sp, tuple(members)))
                   for members in sets]
        assert got == want, patch


def test_early_exit_on_the_length_classes_of_the_diagonal_q83(monkeypatch):
    """Q(8,3): 3280 points, 7 row blocks, and three length classes, each
    constant on the class and not off it."""
    dp = constructions.dlength_partition("Q", 3, 9)
    sp = dp.space
    sets = [list(dp.classes[w].members) for w in dp.lengths]
    want = [_full_count_report(sp, members) for members in sets]
    assert [(r.h1, r.h2) for r in want] == [(117, None), (891, None), (85, None)]
    for block in (512, 7):
        monkeypatch.setattr(intriguing, "_ROW_BLOCK", block)
        assert [classify(sp, dp.classes[w]) for w in dp.lengths] == want


def _rows_spy(monkeypatch):
    """Record the number of rows of every block a _counter counts."""
    rows = []
    counter = intriguing._counter

    def spy(*args):
        count = counter(*args)

        def counted(r0):
            counts = count(r0)
            rows.append(len(counts))
            return counts
        return counted

    monkeypatch.setattr(intriguing, "_counter", spy)
    return rows


def test_early_exit_counts_few_rows_of_a_set_that_is_not_intriguing(
        monkeypatch):
    """The length-3 class of the diagonal Q(10,3) is constant on the class
    and shows a second count off it within a few blocks, so it counts under
    a quarter of the 29,524 points.  The Q+(11,3) generator is intriguing,
    so both of its sides are read to the end: every point once."""
    rows = _rows_spy(monkeypatch)
    dp = constructions.dlength_partition("Q", 3, 11)
    rep = classify(dp.space, dp.classes[3])
    assert (rep.size, rep.h1, rep.h2) == (660, 273, None)
    assert 660 < sum(rows) < 29524 / 4
    rows.clear()
    sp = polar.build(forms.standard_form("Q+", 12, gf.field(3)))
    rep = classify(sp, polar.maximal_ts_points(sp))
    assert rep.tight_i == 1
    assert sum(rows) == sp.num_points == 88816


def test_a_space_within_one_block_takes_one_kernel_call_per_count(monkeypatch):
    """W(5,3) has 364 points, under one row block: classify runs the zero
    test kernel once per count, on every point against the member columns,
    as a single count of every point did.  A set covering more than half
    the space first checks the collinearity constant through perp_indices,
    which runs the same kernel once against point 0's functional;
    test_collinearity_cross_check_still_raises covers that check."""
    calls = []
    zero_groups = la.zero_groups

    def spy(X, G, p, f):
        calls.append((len(X), G.shape[1]))
        return zero_groups(X, G, p, f)

    sp = polar.build(forms.standard_form("W", 6, gf.field(3)))
    gen = polar.maximal_ts_points(sp)
    monkeypatch.setattr(la, "zero_groups", spy)
    classify(sp, polar.PointSet(sp, gen.members[:5]))
    assert calls == [(364, 5)]
    calls.clear()
    classify(sp, gen.complement())
    assert calls == [(364, 1), (364, len(gen))]


def test_collinearity_cross_check_still_raises(monkeypatch):
    """The closed form of |x^perp ∩ P| is checked against a direct count of
    point 0's perp whenever classify uses it.  With the residual's point
    count off by one, classify must raise on a set covering more than half
    the space and on the whole space, and leave smaller sets alone."""
    sp = polar.build(forms.standard_form("W", 6, gf.field(3)))
    gen = polar.maximal_ts_points(sp)
    count = polar.expected_point_count
    monkeypatch.setattr(polar, "expected_point_count",
                        lambda kind, d, q: count(kind, d, q) + 1)
    for M in (gen.complement(), polar.full_set(sp)):
        with pytest.raises(AssertionError, match="point 0 is collinear with "
                                                 "121 points, the closed form "
                                                 "gives 124"):
            classify(sp, M)
    assert classify(sp, gen).tight_i == 1


def test_perp_residual_over_several_blocks_matches_the_kernel():
    """Q+(9,3) has 9,922 points, three _linalg._SCAN_ROWS blocks of
    perp_residual: its members are exactly the points the perp-count
    kernel finds collinear with the subspace's points."""
    sp = polar.build(forms.standard_form("Q+", 10, gf.field(3)))
    assert sp.num_points > 2 * la._SCAN_ROWS
    pts = points(sp)
    for picks in ([0], [0, sp.num_points - 1], [5, 6000]):
        W = forms.Subspace.span(sp.field, [pts[i] for i in picks])
        counts = intriguing._raw_counts(sp, picks)
        want = np.flatnonzero(counts == len(picks))
        assert polar.perp_residual(sp, W).members.tolist() == want.tolist()
    assert len(polar.perp_residual(sp, W)) < sp.num_points


def test_no_numpy_ma_import():
    """np.unique without return_counts imports numpy.ma, about 1 MiB of RSS
    for the rest of the process; none of these paths may load it."""
    import subprocess
    import sys
    code = """
import sys
from polarkit import constructions, fieldred, forms, gf, intriguing, polar
constructions.dlength_partition("Q", 3, 5)
fr = fieldred.reduce(1, forms.standard_form("W", 4, gf.field(3, 2)), gf.field(3))
intriguing.classify(fr.small_space, fieldred.blow_up(fr))
sp = polar.build(forms.standard_form("Q", 11, gf.field(3)))
intriguing.classify(sp, polar.maximal_ts_points(sp))
intriguing.classify(sp, polar.full_set(sp))
intriguing.classify(sp, polar.maximal_ts_points(sp).complement())
polar.PointSet(sp, [5, 3, 3, 1, 5])
polar.PointSet(sp, list(range(100, 0, -1)) * 2)
constructions.q43_monomial_splits()["tight_split"].orbit_sets()
polar.perp_residual(sp, forms.Subspace.span(sp.field, sp.points_np[:1].tolist()))
print("numpy.ma" in sys.modules)
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout == "False\n"


def _dtype_spy(monkeypatch):
    """Record (k, p, dtype) for every choice of the exactness rule."""
    picks = []
    rule = la._exact_dtype

    def spy(k, p):
        picks.append((k, p, rule(k, p)))
        return picks[-1][2]

    monkeypatch.setattr(la, "_exact_dtype", spy)
    return picks


def test_raw_counts_float64_branch(monkeypatch):
    """W(1,2903) is the smallest prime space whose point rows, k = d*f = 2
    digits, pass the rule's 2^24 (2 * 2902^2 + 2903), so every product of
    its counts runs in float64.  Each point is perpendicular to itself
    only, so any k points form a k-tight set with h = (1, 0)."""
    p = 2903
    sp = polar.build(forms.standard_form("W", 2, gf.field(p)))
    picks = _dtype_spy(monkeypatch)
    for members in [(0,), tuple(range(0, sp.num_points, 2))]:
        rep = classify(sp, polar.PointSet(sp, members))
        assert (rep.tight_i, rep.h1, rep.h2) == (len(members), 1, 0)
    assert (2, p, np.float64) in picks
    assert {dtype for _, _, dtype in picks} == {np.float64}


def test_raw_counts_float64_branch_at_the_first_prime_that_needs_it(
        monkeypatch):
    """W(1,4099): (p - 1)^2 + p >= 2^24, the first prime where even a
    one-term product passes float32, so every product of the space runs
    in float64.  Each point is perpendicular to itself only, so any k
    points form a k-tight set with h = (1, 0)."""
    picks = _dtype_spy(monkeypatch)
    sp = polar.build(forms.standard_form("W", 2, gf.field(4099)))
    assert la._exact_dtype(1, 4099) is np.float64
    for members in [(0,), tuple(range(0, sp.num_points, 2))]:
        rep = classify(sp, polar.PointSet(sp, members))
        assert (rep.tight_i, rep.h1, rep.h2) == (len(members), 1, 0)
    assert {dtype for _, _, dtype in picks} == {np.float64}


def test_span_table_in_float64_at_the_first_prime_that_needs_it(monkeypatch):
    """W(1,4099): a point's functional spans K = 1 dimension, a 4099-row
    grid against 4100 points, and (p - 1)^2 + p >= 2^24 puts the table's
    one-term products in float64.  Each point is perpendicular to itself
    only."""
    sp = polar.build(forms.standard_form("W", 2, gf.field(4099)))
    calls = _span_spy(monkeypatch)
    picks = _dtype_spy(monkeypatch)
    monkeypatch.setattr(intriguing, "_REDUCE_CELLS", 0)
    counts = intriguing._raw_counts(sp, [5])
    assert len(calls[-1][1]) == 1
    assert (1, 4099, np.float64) in picks
    assert counts.tolist() == [int(i == 5) for i in range(sp.num_points)]


def test_intriguing_complement_parameters(q43):
    """The complement of an i-tight set is (theta - i)-tight."""
    gen = polar.maximal_ts_points(q43)
    rep = classify(q43, gen.complement())
    assert rep.tight_i == q43.ovoid_number - 1 == 9


# -- ovoids meet every generator in m points --------------------------------


def test_ovoids_meet_lines_w33():
    fr0, sets = constructions.sl2_5_reduced_sets()
    # alpha = 1 reading: the same partition is a pair of 2-ovoids
    sp1 = fieldred.reduce(1, forms.standard_form("W", 2, fr0.large_field),
                          fr0.small_field, alpha=1).small_space
    lines = _lines(sp1)
    assert len(lines) == 40
    for s in sets:
        for line in lines:
            assert len(line & set(s.members)) == 2


def test_ovoid_meets_lines_q43(q43):
    S = polar.nonsingular_point_with_residual(q43, "Q-")
    ovoid = polar.perp_residual(q43, S)
    assert classify(q43, ovoid).ovoid_m == 1
    for line in _lines(q43):
        assert len(line & set(ovoid.members)) == 1


def test_dlength_ovoids_meet_lines_h34():
    part = constructions.dlength_partition("H", 4, 4)
    lines = _lines(part.space)
    for length, m in ((2, 2), (4, 3)):
        M = part.classes[length]
        assert classify(part.space, M).ovoid_m == m
        for line in lines:
            assert len(line & set(M.members)) == m


def test_rank3_ovoid_meets_greedy_generator():
    part = constructions.dlength_partition("Q", 3, 7)
    gen = set(polar.maximal_ts_points(part.space).members)
    for length, m in ((3, 5), (6, 8)):
        M = part.classes[length]
        assert classify(part.space, M).ovoid_m == m
        assert len(gen & set(M.members)) == m


# -- feasibility ------------------------------------------------------------


def test_feasibility_sl25_in_w33():
    q = FeasibilityQuery(kind=forms.parse_kind("W"), d=4, q=3, group_order=120)
    rep = feasibility(q)
    assert rep.dim_ok and rep.divisibility_ok
    assert rep.witness_i == 5     # 20 + 20 is the only split dividing 120


def test_feasibility_tiny_group_fails_divisibility():
    q = FeasibilityQuery(kind=forms.parse_kind("W"), d=4, q=3, group_order=7)
    rep = feasibility(q)
    assert not rep.divisibility_ok and rep.witness_i is None


def test_feasibility_dim_bound_blocks_large_spaces():
    q = FeasibilityQuery(kind=forms.parse_kind("Q+"), d=24, q=3, group_order=120)
    assert not feasibility(q).dim_ok


def test_feasibility_rejects_bad_order():
    with pytest.raises(ValueError):
        feasibility(FeasibilityQuery(kind=forms.parse_kind("W"), d=4, q=3,
                                     group_order=0))


# -- Zsigmondy --------------------------------------------------------------


def _primitive_part(n, k):
    """n^k - 1 with every prime shared with a smaller n^i - 1 stripped out.
    What survives is exactly the product of primitive prime powers."""
    R = n ** k - 1
    for i in range(1, k):
        if k % i:
            continue
        g = math.gcd(R, n ** i - 1)
        while g > 1:
            R //= g
            g = math.gcd(R, n ** i - 1)
    return R


def _oracle_check(n, k, p):
    """Verify zsigmondy's answer against the gcd-stripped primitive part,
    with no integer factorization at all."""
    R = _primitive_part(n, k)
    if p is None:
        assert R == 1, (n, k, R)
        return
    assert R % p == 0
    # p really is prime and primitive
    assert all(p % d for d in range(2, int(p ** 0.5) + 1))
    assert (n ** k - 1) % p == 0
    assert all((n ** i - 1) % p for i in range(1, k))
    # nothing primitive is smaller: primitive primes are = 1 (mod k)
    step = k if k > 1 else 1
    for r in range(1 + step, p, step):
        assert (n ** k - 1) % r or math.gcd(_primitive_part(n, k), r) == 1 \
            or any(r % d == 0 for d in range(2, int(r ** 0.5) + 1))


@pytest.mark.parametrize("n,k,expected", [
    (2, 6, None), (7, 2, None), (3, 2, None),    # n + 1 a power of two
    (2, 10, 11), (6, 2, 7), (2, 12, 13), (3, 5, 11), (2, 1, None), (4, 3, 7),
])
def test_zsigmondy_spot_values(n, k, expected):
    got = zsigmondy(n, k)
    assert got == expected
    _oracle_check(n, k, got)


def test_zsigmondy_small_grid_matches_oracle():
    for n in range(2, 13):
        for k in range(1, 9):
            _oracle_check(n, k, zsigmondy(n, k))


def _smallest_primitive_prime(n, k):
    """By brute force: the primes of n^k - 1 by trial division, smallest
    first, until one with n^j != 1 (mod p) for every j < k."""
    N, p = n ** k - 1, 2
    while N > 1:
        if p * p > N:
            p = N
        if N % p == 0:
            if all(pow(n, j, p) != 1 for j in range(1, k)):
                return p
            while N % p == 0:
                N //= p
        p += 1
    return None


def test_zsigmondy_matches_brute_force():
    for n in range(2, 13):
        for k in range(1, 9):
            assert zsigmondy(n, k) == _smallest_primitive_prime(n, k), (n, k)


def test_zsigmondy_input_validation():
    with pytest.raises(ValueError):
        zsigmondy(1, 3)
    with pytest.raises(ValueError):
        zsigmondy(2, 0)
    with pytest.raises(ValueError):
        zsigmondy(2, 64)      # over the 63-bit budget


def test_cyclotomic_values_and_zsigmondy_match_sympy():
    """sympy as an independent oracle.  For 2 <= n <= 12 and k <= 30 the
    primitive part of n^k - 1 is the cyclotomic value Phi_k(n) with the
    primes of k divided out.  On those pairs and on the whole sweep of the
    manifest's zsigmondy target, n <= 50 and k <= 12, zsigmondy is the
    smallest prime p | n^k - 1 whose multiplicative order of n mod p is k,
    from sympy's factorisation (where n^k fits the 63-bit budget)."""
    sympy = pytest.importorskip("sympy")
    from sympy.ntheory import n_order
    for n in range(2, 13):
        for k in range(1, 31):
            phi = int(sympy.cyclotomic_poly(k, n))
            for p in sympy.primefactors(k):
                while phi % p == 0:
                    phi //= p
            assert intriguing._primitive_part(n, k) == phi
    pairs = {(n, k) for n in range(2, 13) for k in range(1, 31)}
    pairs |= {(n, k) for n in range(2, 51) for k in range(1, 13)}
    checked = 0
    for n, k in sorted(pairs):
        if n ** k >= intriguing._ZS_BUDGET:
            continue
        primitive = [p for p in sympy.factorint(n ** k - 1)
                     if n_order(n, p) == k]
        assert zsigmondy(n, k) == min(primitive, default=None), (n, k)
        checked += 1
    assert checked == 699

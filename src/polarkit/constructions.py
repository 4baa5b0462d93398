"""Explicit two-orbit constructions on polar spaces.

Four families, each returning exact objects that the classifier can check:

* ``adjoint_sl3`` -- SL3(q) conjugating trace-zero 3x3 matrices modulo
  scalars (char 3), which carries a parabolic quadratic form in dimension 7;
* ``extsq_sp6`` -- Sp6(q) on the 13-dimensional section of the exterior
  square (char 3), a parabolic quadric in dimension 13;
* ``dlength_partition`` -- coordinate-support classes of a diagonal or
  Hermitian-identity form, invariant under the full monomial group;
* ``sl2_5_in_sl2_9`` -- a frozen pair generating a copy of SL2(5) inside
  SL2(9) with two vector orbits of size 40.
"""

from dataclasses import dataclass

import numpy as np

from . import _linalg as la
from . import forms, gf, group, polar
from .forms import FormKind


# -- sections of a module with a form ----------------------------------------


class _Quotient:
    """Coordinates on a complement basis modulo a killed subspace.

    ``vbasis`` spans the complement, ``killed`` the subspace being factored
    out; together they must be independent.  project() solves exactly for
    the coordinates of a stack of ambient vectors (raising if one lies
    outside the span) and drops the killed components.
    """

    def __init__(self, F, vbasis, killed):
        self.F = F
        self.rows = np.concatenate((vbasis, killed)).astype(np.int64)
        self.k = len(vbasis)
        _, pivots, _ = la.rref_np(F, self.rows)
        if pivots.sum() != len(self.rows):
            raise ValueError("quotient basis rows are dependent")
        # the pivot columns of the rref cut out an invertible submatrix of
        # the *original* rows, giving exact coordinates by one inversion
        self.piv = np.flatnonzero(pivots)
        self.subinv = la.mat_inv(F, self.rows[:, self.piv])

    @property
    def vbasis(self):
        return self.rows[: self.k]

    @property
    def killed(self):
        return self.rows[self.k:]

    def project(self, vecs):
        vecs = np.asarray(vecs, dtype=np.int64)
        x = la.mat_mul_np(self.F, vecs[:, self.piv], self.subinv)
        if (la.mat_mul_np(self.F, x, self.rows) != vecs).any():
            raise ValueError("vector does not lie in the subspace")
        return x[:, : self.k]


def _compound2(F, M):
    """The 2x2 minors of the code matrix M: rows and columns indexed by the
    pairs i < j in lexicographic order, entry (ij, ab) M_ia M_jb - M_ib M_ja.
    For a square M it is M's action on the exterior square; for a Gram
    matrix the Gram of the induced form on wedges; for the rows u, v the
    coordinates of u^v."""
    M = np.asarray(M, dtype=np.int64)
    i, j = np.triu_indices(M.shape[0], 1)
    a, b = np.triu_indices(M.shape[1], 1)
    plus = F.mul_np(M[np.ix_(i, a)], M[np.ix_(j, b)])
    minus = F.mul_np(F.neg(1), F.mul_np(M[np.ix_(i, b)], M[np.ix_(j, a)]))
    return la.sum_np(F, np.stack((plus, minus)))


@dataclass(frozen=True)
class SectionModel:
    """A group acting with two orbits on the points of the polar space of a
    section of a module: the form and maps induced from the ambient module
    on the complement of quotient.killed."""
    space: object
    orbits: object
    gens: object
    quotient: object          # _Quotient from ambient coordinates

    @property
    def form(self):
        return self.space.form


def _section(ambient, quo, maps, label):
    """The section of quo with the form that ambient restricts to on
    quo.vbasis and the maps induced by the ambient matrices maps (rows are
    images), each quo.project(V M); raises unless they have two orbits."""
    F = ambient.field
    V = quo.vbasis
    form = forms.quadratic_form(F, ambient.restriction(V).tolist())
    space = polar.build(form)
    P = np.stack([quo.project(la.mat_mul_np(F, V, M)) for M in maps])
    gens = group.GeneratorSet(
        F, group.Semisimilarity._pairs(F, P, la.mat_inv(F, P)), label=label)
    orb = group.orbits(space, gens)
    if orb.n_orbits != 2:
        raise AssertionError(f"expected two orbits, got {orb.n_orbits}")
    return SectionModel(space=space, orbits=orb, gens=gens, quotient=quo)


# -- SL3(q) on its adjoint module ------------------------------------------


def _gl3_form(F):
    """Q(X) = sum_{i<j} (X_ij X_ji - X_ii X_jj) on 3x3 matrices flattened row
    by row: minus the second elementary symmetric function of the
    eigenvalues, a conjugation-invariant form, parabolic Q(8,q) for p = 3."""
    C = np.zeros((9, 9), dtype=np.int64)
    i, j = np.triu_indices(3, 1)
    C[3 * i + j, 3 * j + i] = 1
    C[4 * i, 4 * j] = F.neg(1)
    return forms.quadratic_form(F, C.tolist())


def adjoint_sl3(q):
    """SL3(q), char 3, acting on trace-zero matrices modulo scalars.

    In characteristic 3 the identity is trace-zero, so V = U/<I> has
    dimension 7 and Q descends to it (Q(A + tI) = Q(A) exactly when tr A = 0
    and p = 3).  The resulting space is the parabolic quadric Q(6,q) and
    SL3(q) splits its points into two orbits, tight sets with parameters
    q+1 and q^3-q.
    """
    F = gf.field_of_order(q)
    if F.p != 3:
        raise ValueError(
            "two-orbit case requires p=3 (scalars are trace-zero only then)")
    if F.f > 2:
        raise ValueError(f"q={q} exceeds the desk budget (q <= 9)")

    # basis of the trace-zero matrices: six off-diagonal units, then
    # H = E00 - E11; the identity (= H0 + 2*H1 here) is the killed line
    vbasis = np.eye(9, dtype=np.int64)[[1, 2, 3, 5, 6, 7]].tolist()
    vbasis.append([1, 0, 0, 0, F.neg(1), 0, 0, 0, 0])
    quo = _Quotient(F, vbasis, [np.eye(3, dtype=np.int64).ravel()])

    # SL3(q) = < x_01(lam) over an F_p-basis, 3-cycle Weyl element >:
    # conjugating the transvection around the cycle gives x_12 and x_20,
    # and commutators fill in the remaining root subgroups.  X -> g^-1 X g
    # on row-flattened X is the Kronecker matrix (g^-1)^T (x) g.
    gens3 = []
    for t in range(F.f):
        X = np.eye(3, dtype=np.int64)
        X[0, 1] = F.exp[t]
        gens3.append(X)
    gens3.append(np.roll(np.eye(3, dtype=np.int64), 1, axis=1))
    gens3 = np.array(gens3)
    maps = F.mul_np(la.mat_inv(F, gens3).transpose(0, 2, 1)[:, :, None, :, None],
                    gens3[:, None, :, None, :]).reshape(-1, 9, 9)
    return _section(_gl3_form(F), quo, maps, f"SL3({q}) on the adjoint module")


# -- Sp6(q) on the exterior-square section ---------------------------------


def extsq_sp6(q):
    """Sp6(q), char 3, on the section h-perp / <h> of the exterior square.

    h is the invariant bivector with beta1(h, u^v) = kappa1(u,v), beta1 the
    form induced on wedges; for p = 3 it lies in its own perp, so the
    section V has dimension 13 and carries the parabolic form
    kappa(x) = beta1(x,x)/2.  Sp6(q) has two orbits on the quadric's points,
    tight sets with parameters q^2+1 and q^6-q^2.  Only q = 3 fits the desk
    budget (q = 9 would mean ~2*10^8 points).
    """
    if q != 3:
        raise ValueError("only q=3 is within the desk budget")
    F = gf.field(3, 1)
    K = forms.standard_form("W", 6, F).matrix_np
    beta1 = _compound2(F, K)
    half = F.inv(F.add(1, 1))
    ambient = forms.quadratic_form(
        F, (np.triu(beta1, 1) + np.diag(F.mul_np(half, np.diagonal(beta1)))).tolist())

    # solve beta1(h, e_c ^ e_d) = kappa1(e_c, e_d) for h: that row of
    # kappa1 values is the functional beta1(h, .), whose kernel U = h-perp
    # contains h itself (char 3); the section basis is the rows of U's rref
    # outside the span of h and the rows before them: the pivot columns of
    # the rref of the columns h, U_0, U_1, ...
    h = la.mat_mul_np(F, K[np.triu_indices(6, 1)][None], la.mat_inv(F, beta1))
    U = forms.perp(ambient, forms.Subspace(F, 15, h)).rows
    pivots = la.rref_np(F, np.concatenate((h, U)).T)[1]
    vbasis = U[pivots[1:]]
    if not pivots[0] or len(vbasis) != 13:
        raise AssertionError("section should have dimension 13")

    maps = [_compound2(F, g.matrix)
            for g in group.classical_generators("Sp", 6, F).generators]
    return _section(ambient, _Quotient(F, vbasis, h), maps,
                    f"Sp6({q}) on the exterior-square section")


def wedge_point(model, u, v):
    """Index of <(u^v + <h>)> in the section's polar space, for vectors u, v
    of the symplectic 6-space with kappa1(u,v) = 0 and u^v not in <h>."""
    w = _compound2(model.space.field, [u, v])
    return int(model.space.locate(model.quotient.project(w))[0])


# -- D-length partitions ----------------------------------------------------


@dataclass(frozen=True)
class DlengthPartition:
    space: object
    lengths: tuple
    classes: dict             # length -> PointSet

    def serialize(self):
        return {"space": self.space.descriptor(),
                "lengths": list(self.lengths),
                "class_sizes": {str(w): len(s) for w, s in self.classes.items()}}


def dlength_partition(kind, q, t):
    """Partition of the points of a coordinate-diagonal polar space by the
    number of nonzero coordinates (the length with respect to the invariant
    decomposition into t perpendicular lines).

    Orthogonal kinds take the all-ones diagonal form (odd q); Hermitian takes
    the identity Gram (square q).  The requested kind must match what that
    form actually is in dimension t.
    """
    kind = forms.parse_kind(kind)
    if t < 1:
        raise ValueError(f"a length partition needs t >= 1 coordinates, got {t}")
    F = gf.field_of_order(q)
    if kind is FormKind.SYMPLECTIC:
        raise ValueError("no coordinate decomposition preserves a symplectic form")
    if kind is FormKind.HERMITIAN:
        form = forms.standard_form("H", t, F)
    else:
        if F.p == 2:
            raise ValueError("diagonal quadratic forms need odd q")
        form = forms.diagonal_form(F, (1,) * t)
        if form.kind is not kind:
            raise ValueError(
                f"the diagonal form on {t} coordinates over GF({q}) is "
                f"{form.kind.value}, not {kind.value}")
    space = polar.build(form)
    if not space.num_points:
        raise ValueError(f"{space.name} has no points to partition")
    weights = np.count_nonzero(space.points_np, axis=1)
    classes = {w: polar.PointSet(space, np.flatnonzero(weights == w))
               for w in np.flatnonzero(np.bincount(weights)).tolist()}
    return DlengthPartition(space=space, lengths=tuple(sorted(classes)),
                            classes=classes)


def monomial_map(F, perm, signs):
    """The monomial semisimilarity x_i -> signs[i] * x_perm[i] for a
    permutation perm and unit signs, made with its inverse, which is
    monomial too: x_perm[i] -> x_i / signs[i]."""
    d = len(perm)
    (signs,) = gf.element_codes(F, [signs])
    if sorted(perm) != list(range(d)) or len(signs) != d or 0 in signs:
        raise ValueError("a monomial map needs a permutation and unit signs")
    M = np.zeros((2, 1, d, d), dtype=np.int64)
    M[0, 0, np.arange(d), perm] = signs
    M[1, 0, perm, np.arange(d)] = F.inv_np[list(signs)]
    return group.Semisimilarity._pairs(F, *M)[0]


def q43_monomial_splits():
    """Two subgroups of the monomial group of the diagonal Q(4,3) quadric.

    Every point of x0^2+...+x4^2 = 0 over GF(3) has exactly three nonzero
    coordinates, so the length partition is trivial; but the monomial group
    has subgroups acting with two orbits.  The generator tuples below were
    found by enumerating small subgroups (few monomial generators) and are
    reverified on every call: a 5-cycle with one sign flip gives a 20+20
    split into two 2-ovoids, and the stabilizer of the coordinate split
    {0,1,2,3} | {4} (with sign flips) gives 16+24, a 4- and a 6-tight set.
    """
    F = gf.field(3, 1)
    form = forms.diagonal_form(F, (1,) * 5)
    space = polar.build(form)
    neg = F.neg(1)
    ovoid_gens = group.GeneratorSet(F, [
        monomial_map(F, (1, 2, 3, 4, 0), (1, 1, 1, 1, 1)),
        monomial_map(F, (0, 1, 2, 3, 4), (1, 1, 1, 1, neg)),
    ], label="C2^5:C5 inside the monomial group")
    tight_gens = group.GeneratorSet(F, [
        monomial_map(F, (1, 2, 3, 0, 4), (1, 1, 1, 1, 1)),
        monomial_map(F, (1, 0, 2, 3, 4), (1, 1, 1, 1, 1)),
        monomial_map(F, (0, 1, 2, 3, 4), (neg, 1, 1, 1, 1)),
        monomial_map(F, (0, 1, 2, 3, 4), (1, 1, 1, 1, neg)),
    ], label="coordinate-split stabilizer")
    return {
        "space": space,
        "ovoid_split": group.orbits(space, ovoid_gens),
        "tight_split": group.orbits(space, tight_gens),
    }


# -- SL2(5) inside SL2(9) ---------------------------------------------------


def _mat_order(F, M, cap=12):
    P = M = np.array(M, dtype=np.int64)
    for k in range(1, cap + 1):
        if (P == np.eye(len(M))).all():
            return k
        P = la.mat_mul_np(F, P, M)
    return None


# a and b of sl2_5_in_sl2_9; tests/test_constructions.py finds them again by
# a search over SL2(9) in lexicographic order of the flattened code tuples.
_SL2_5_PAIR = (((0, 1), (2, 0)), ((0, 1), (2, 5)))


def sl2_5_in_sl2_9():
    """A copy of SL2(5) inside SL2(9): a of order 4 and b of order 5 with
    exactly two orbits, of size 40 each, on the nonzero vectors of GF(9)^2.
    Such a pair generates a copy of SL2(5) (any proper overgroup inside
    SL2(9) is transitive on the 80 vectors).  The pair is the first one in
    lexicographic matrix order, frozen, and its orders and orbits are
    checked on every call.  Every 2x2 determinant-1 matrix is symplectic, so
    the result is a valid generator set for the W(1,9) form.
    """
    F = gf.field(3, 2)
    wform = forms.standard_form("W", 2, F)
    a, b = _SL2_5_PAIR
    if (_mat_order(F, a), _mat_order(F, b)) != (4, 5):
        raise AssertionError("SL2(9) arithmetic is broken: the frozen pair "
                             "does not have orders 4 and 5")
    M = np.array(_SL2_5_PAIR)
    gset = group.GeneratorSet(F, group.Semisimilarity._pairs(F, M, la.mat_inv(F, M)),
                              label="SL2(5) < SL2(9)")
    if group.vector_orbits(wform, gset) != (40, 40):
        raise AssertionError("SL2(9) arithmetic is broken: the frozen pair "
                             "does not have two vector orbits of size 40")
    return gset


def sl2_5_reduced_sets():
    """The two SL2(5) vector orbits on GF(9)^2, pushed down to W(3,3) points
    through the symplectic field reduction with alpha = a nonsquare.

    Each orbit has 40 vectors closed under negation (-I is the square of the
    order-4 generator), so it covers 20 of the 40 points of W(3,3); both
    sets are 5-tight.  The orbits are *not* closed under GF(9) scalars, so
    they do not arise from blowing up GF(9)-point sets.

    The partition of PG(3,3) does not depend on alpha, but the perp relation
    of the traced form Tr(alpha*kappa') does, through alpha mod squares: a
    nonsquare alpha makes both orbits 5-tight, a square alpha makes both
    2-ovoids.  (Rescaling vectors by s sends the alpha-graph to the
    alpha*s^2-graph, so only the two square classes can differ, and they do.)
    We take alpha = the field generator, which also makes the traced Gram
    literally equal to the standard alternating form on GF(3)^4.
    Returns (reduction, [set1, set2]).
    """
    from . import fieldred

    gset = sl2_5_in_sl2_9()
    F9 = gset.field
    F3 = gf.field(3, 1)
    wform = forms.standard_form("W", 2, F9)
    fr = fieldred.reduce(1, wform, F3, alpha=F9.generator)
    sets = []
    for orbit in group.vector_orbit_lists(gset):
        idx = fr.small_space.locate(fr.flattener.flatten(orbit))
        sets.append(polar.PointSet(fr.small_space, idx))
    return fr, sets

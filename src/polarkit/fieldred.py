"""Field reduction: regard a GF(q^b)-space with a form as a GF(q)-space with
the traced form, build the blow-up point set M1, and translate point sets
between the two polar spaces.

Supported reductions (row numbers follow the construction table used
throughout; rows not listed are out of scope here):

  1   W  (d/b-1, q^b) -> W  (d-1, q)    d/b even
  2   Q+ (d/b-1, q^b) -> Q+ (d-1, q)    d/b even
  3   Q- (d/b-1, q^b) -> Q- (d-1, q)    d/b even
  9   H  (d/b-1, q^b) -> Q- (d-1, q)    b even, d/b odd
  10  H  (d/b-1, q^b) -> Q+ (d-1, q)    b even, d/b even

Rows 1-3 trace the form value (kappa = Tr_{q^b/q} of alpha*kappa'; alpha = 1
here); rows 9-10 take the Hermitian length kappa'(v,v) — which lies in
GF(q^{b/2}) — through the half trace Tr_{q^{b/2}/q}, with the polarized
bilinear values going through the full trace.

Vectors pass between the two spaces through one flattening map
(_Flattener), a pair of GF(p) digit matrices on the GF(q)-basis {G^j e_i}
of GF(q^b)^m: the traced form is written on that basis, and blow-up,
push-down and lift-up are bulk products with those matrices followed by
PolarSpace.locate.
"""

from dataclasses import dataclass

import numpy as np

from . import _linalg as la
from . import forms as fm
from . import gf
from . import polar as pl
from .forms import FormKind
from .polar import PointSet

# (large kind, small kind) per supported recipe row
ROW_KINDS = {
    1: (FormKind.SYMPLECTIC, FormKind.SYMPLECTIC),
    2: (FormKind.PLUS, FormKind.PLUS),
    3: (FormKind.MINUS, FormKind.MINUS),
    9: (FormKind.HERMITIAN, FormKind.MINUS),
    10: (FormKind.HERMITIAN, FormKind.PLUS),
}


class _Flattener:
    """Coordinate transport GF(q^b)^m <-> GF(q)^(mb) over the GF(q)-basis
    {G^j e_i} (G the large generator, j < b): small coordinate i*b + j is
    the coefficient of G^j in large coordinate i.

    Both directions are GF(p)-linear on the digits (FiniteField.digit_rows),
    so they are two GF(p) matrices built from the same rows, the digits of
    the GF(p)-basis {G^j * p^t} of the large field (p^t the small field's
    digit basis): digit_matrix flattens and its inverse unflattens."""

    def __init__(self, emb, m):
        L, S = emb.large, emb.small
        self.large, self.small = L, S
        up = np.array([emb.up(c) for c in S.basis_np.tolist()], dtype=np.int64)
        rows = L.digits(L.mul_np(L.exp_np[:emb.b, None], up[None, :]))
        rows = rows.reshape(L.f, L.f)
        inv = la.mat_inv(gf.field(L.p), rows)
        eye = np.eye(m, dtype=np.int64)
        self.digit_matrix = np.kron(eye, inv)
        self.inverse_matrix = np.kron(eye, rows)

    def flatten(self, rows):
        """Large vectors (n, m) of element codes -> small vectors (n, mb)."""
        L = self.large
        return self.small.code_rows(la.mulmod(L.digit_rows(rows), self.digit_matrix, L.p))

    def unflatten(self, rows):
        """Small vectors (n, mb) of element codes -> large vectors (n, m)."""
        S = self.small
        return self.large.code_rows(la.mulmod(S.digit_rows(rows), self.inverse_matrix, S.p))


@dataclass(frozen=True, eq=False)
class FieldReduction:
    row: int
    b: int
    alpha: int
    small_space: object
    large_space: object
    flattener: object

    @property
    def small_field(self):
        return self.small_space.field

    @property
    def large_field(self):
        return self.large_space.field

    def serialize(self):
        return {"row": self.row, "q": self.small_field.q, "b": self.b,
                "d": self.small_space.d,
                "alpha": self.large_field.coeffs(self.alpha)}


def reduce(row, large_form, small_field, alpha=None):
    """Build the FieldReduction of `large_form` (over GF(q^b)) down to
    `small_field` = GF(q).  Checks the row's applicability conditions, builds
    the traced small form, and builds both spaces, the small one first:
    it never has fewer points than the large one, so polar.build refuses
    an over-cap request before the larger enumeration, and it checks each
    point count against the closed form.

    `alpha` scales the large form before tracing (default 1).  All choices
    give isomorphic small spaces, but the embedded point graph on the common
    PG(d-1, q) genuinely depends on alpha, so subsets flattened from the
    large space can classify differently under different alphas."""
    if row not in ROW_KINDS:
        raise ValueError(f"row {row} is not supported (have {sorted(ROW_KINDS)})")
    src_kind, dst_kind = ROW_KINDS[row]
    L = large_form.field
    S = small_field
    emb = gf.embedding(S, L)  # raises on incompatibility
    b = emb.b
    m = large_form.dim
    d = m * b
    if b < 2:
        raise ValueError("field reduction needs a proper subfield (b >= 2)")
    if large_form.kind is not src_kind:
        raise ValueError(f"row {row} starts from a {src_kind.value} form, "
                         f"got {large_form.kind.value}")
    if row in (1, 2, 3) and m % 2:
        raise ValueError(f"row {row} needs even dimension over the large field")
    if row in (9, 10):
        if b % 2:
            raise ValueError(f"row {row} needs even b")
        if row == 9 and m % 2 == 0:
            raise ValueError("row 9 needs odd dimension over the large field")
        if row == 10 and m % 2:
            raise ValueError("row 10 needs even dimension over the large field")
    if alpha is None:
        alpha = 1
    if alpha == 0:
        raise ValueError("alpha must be a unit of the large field")
    fl = _Flattener(emb, m)
    basis = fl.unflatten(np.eye(d, dtype=np.int64))
    small_space = pl.build(_traced_form(row, large_form, emb, basis, dst_kind, alpha))
    large_space = pl.build(large_form, allow_grid=True)
    return FieldReduction(row=row, b=b, alpha=alpha, small_space=small_space,
                          large_space=large_space, flattener=fl)


def _traced_form(row, large_form, emb, basis, dst_kind, alpha):
    """The small form on the rows of `basis`: the trace of alpha times the
    large form's restriction to them, entry by entry; for rows 9 and 10 the
    Hermitian lengths on the diagonal, which lie in GF(q^(b/2)), go
    through the half trace and the lower triangle is dropped."""
    L, S = emb.large, emb.small
    M = large_form.restriction(basis).tolist()
    C = [[emb.trace(L.mul(alpha, x)) for x in r] for r in M]
    if row == 1:
        return fm.Form(FormKind.SYMPLECTIC, S, C)
    if row in (9, 10):
        mid = gf.field(L.p, L.f // 2)
        mid_in_large = gf.embedding(mid, L)
        small_in_mid = gf.embedding(S, mid)
        # alpha*kappa' stays Hermitian only for alpha fixed by the involution,
        # i.e. alpha in the index-2 midfield; .down raises otherwise.
        alpha_mid = mid_in_large.down(alpha)
        for u, r in enumerate(C):
            r[:u] = [0] * u
            r[u] = small_in_mid.trace(mid.mul(alpha_mid, mid_in_large.down(M[u][u])))
    form = fm.quadratic_form(S, C)
    if form.kind is not dst_kind:
        raise AssertionError(f"traced form has type {form.kind.value}, "
                             f"row {row} expects {dst_kind.value}")
    return form


def _small_points_under(fr, rows):
    """The GF(q)-points on the GF(q^b)-points with the given vectors
    (element codes, shape (n, m)), as a PointSet of the small space.

    The GF(q)-points on <w> are the flattenings of eta*w, one for each
    coset eta*GF(q)* of GF(q^b)*: the cosets of the powers G^k,
    k < (q^b-1)/(q-1), of the generator G, since flatten is GF(q)-linear.
    Scaling by eta and flattening is one GF(p)-linear map on the digits, so
    each eta costs one mulmod over all the rows."""
    L, S = fr.large_field, fr.small_field
    X = L.digit_rows(rows)
    found = []
    for eta in L.exp[:(L.q - 1) // (S.q - 1)]:
        scale = la.expand(L, np.diag([eta] * fr.large_space.d))
        E = la.mulmod(scale, fr.flattener.digit_matrix, L.p)
        found.append(fr.small_space.locate(S.code_rows(la.mulmod(X, E, L.p))))
    return PointSet(fr.small_space, np.concatenate(found))


def blow_up(fr):
    """M1: every GF(q)-point lying on a GF(q^b)-singular point, by one
    expanded mulmod over the whole large point list per GF(q)* coset."""
    if not fr.large_space.num_points:
        raise ValueError(f"{fr.large_space.name} has no points to blow up")
    return _small_points_under(fr, fr.large_space.points_np)


def push_down(fr, large_set):
    """The GF(q)-points lying on the given GF(q^b)-points."""
    if large_set.space is not fr.large_space:
        raise ValueError("point set does not live in the large space")
    return _small_points_under(fr, fr.large_space.points_np[large_set.members])


def lift_up(fr, small_set):
    """The GF(q^b)-points spanned by the given GF(q)-points.

    All members are unflattened at once; a member on a non-singular large
    point is refused (the first such member is named), and the others are
    located in the large space by one locate.  Meaningful only when the set
    is a union of full GF(q^b)-scalar classes; this is checked by pushing
    the lifted points back down, and a violation reports a witnessing pair
    of small points (one inside the set, one outside, on the same large
    point).
    """
    if small_set.space is not fr.small_space:
        raise ValueError("point set does not live in the small space")
    L, form = fr.large_field, fr.large_space.form
    members = small_set.members
    V = fr.flattener.unflatten(fr.small_space.points_np[members])
    A = la.expand_quadratic(L, form.data, form.sigma)
    nonsingular = la.form_values(L, A, L.digit_rows(V)).any(axis=1)
    if nonsingular.any():
        raise ValueError(
            f"small point {members[np.argmax(nonsingular)]} lies on a "
            f"non-singular GF({L.q})-point and cannot be lifted")
    large = fr.large_space.locate(V)
    lifted = PointSet(fr.large_space, large)
    down = push_down(fr, lifted).members
    inside = np.zeros(fr.small_space.num_points, dtype=bool)
    inside[members] = True
    missing = down[~inside[down]]
    if missing.size:
        k = int(missing[0])
        j = fr.large_space.locate(
            fr.flattener.unflatten(fr.small_space.points_np[k:k + 1]))[0]
        raise ValueError(
            f"set is not closed under GF({L.q}) scalars: small points "
            f"{members[np.argmax(large == j)]} (in) and {k} (out) lie on "
            f"large point {j}")
    return lifted

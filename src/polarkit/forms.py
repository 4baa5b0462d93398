"""Nondegenerate reflexive/quadratic forms in their standard coordinate models.

Five kinds: symplectic, hyperbolic/elliptic/parabolic quadratic, Hermitian.
Quadratic forms are stored as upper-triangular coefficient matrices (the Gram
of the polarized bilinear form does not determine Q in characteristic 2), the
other two as Gram matrices.  The parabolic kind is restricted to odd q; in
even characteristic an odd-dimensional quadratic space degenerates to a
symplectic one and is not modelled here.
"""

import enum
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _linalg as la
from . import gf


class FormKind(enum.Enum):
    SYMPLECTIC = "W"
    PLUS = "Q+"
    MINUS = "Q-"
    PARABOLIC = "Q"
    HERMITIAN = "H"

    @property
    def is_quadratic(self):
        return self in (FormKind.PLUS, FormKind.MINUS, FormKind.PARABOLIC)


_KIND_ALIASES = {
    "w": FormKind.SYMPLECTIC, "sp": FormKind.SYMPLECTIC, "symplectic": FormKind.SYMPLECTIC,
    "q+": FormKind.PLUS, "plus": FormKind.PLUS, "hyperbolic": FormKind.PLUS,
    "q-": FormKind.MINUS, "minus": FormKind.MINUS, "elliptic": FormKind.MINUS,
    "q": FormKind.PARABOLIC, "parabolic": FormKind.PARABOLIC,
    "h": FormKind.HERMITIAN, "u": FormKind.HERMITIAN, "hermitian": FormKind.HERMITIAN,
}


def parse_kind(s):
    if isinstance(s, FormKind):
        return s
    try:
        return _KIND_ALIASES[s.strip().lower()]
    except KeyError:
        raise ValueError(f"unknown form kind {s!r}") from None


class Form:
    """A nondegenerate form on GF(q)^d.

    ``data`` is the upper-triangular coefficient matrix for quadratic kinds
    (Q(v) = v C v^T) and the Gram matrix otherwise, its entries element
    codes by gf.element_codes.  Construction validates shape,
    nondegeneracy and that the computed type matches the declared kind, so
    a Form that exists is a certificate.  _sign is for quadratic_form
    alone: the type it computed for even-dimensional data, which the check
    then reads instead of computing it a second time.
    """

    def __init__(self, kind, field, data, _sign=None):
        kind = parse_kind(kind)
        data = gf.element_codes(field, data)
        d = len(data)
        if any(len(row) != d for row in data):
            raise ValueError("form matrix must be square")
        self.kind = kind
        self.field = field
        self.dim = d
        self.data = data
        self.sigma = field.f // 2 if kind is FormKind.HERMITIAN else 0
        self.bilinear_gram = _polarized(field, data) if kind.is_quadratic else data
        self._validate(_sign)

    # -- validation --------------------------------------------------------

    def _validate(self, sign):
        F, d, K, M = self.field, self.dim, self.kind, self.data
        if K is FormKind.SYMPLECTIC:
            if d % 2:
                raise ValueError("symplectic forms need even dimension")
            if any(M[i][i] != 0 for i in range(d)):
                raise ValueError("symplectic Gram must have zero diagonal")
            if any(M[i][j] != F.neg(M[j][i]) for i in range(d) for j in range(d)):
                raise ValueError("symplectic Gram must be alternating")
            if la.det(F, M) == 0:
                raise ValueError("degenerate symplectic form")
        elif K is FormKind.HERMITIAN:
            if F.f % 2:
                raise ValueError("Hermitian forms need a square field")
            s = F.f // 2
            if any(M[i][j] != F.frobenius(M[j][i], s) for i in range(d) for j in range(d)):
                raise ValueError("Hermitian Gram must be conjugate-symmetric")
            if la.det(F, M) == 0:
                raise ValueError("degenerate Hermitian form")
        else:
            if any(M[i][j] != 0 for i in range(d) for j in range(i)):
                raise ValueError("quadratic forms are stored upper-triangular")
            if K is FormKind.PARABOLIC:
                if d % 2 == 0:
                    raise ValueError("parabolic quadratic forms need odd dimension")
                if F.p == 2:
                    raise ValueError("parabolic quadratic spaces are only supported for odd q")
                if la.det(F, self.bilinear_gram) == 0:
                    raise ValueError("degenerate quadratic form (polarized radical nonzero)")
            elif d % 2:
                raise ValueError(f"{K.name} quadratic forms need even dimension")
            else:
                if sign is None:
                    sign = _quadratic_sign(F, M, self.bilinear_gram)
                want = FormKind.PLUS if K is FormKind.PLUS else FormKind.MINUS
                if sign is not want:
                    raise ValueError(f"declared {K.name} but computed type is {sign.name}")

    # -- evaluation --------------------------------------------------------

    def evaluate(self, v):
        """Q(v) for quadratic kinds, kappa(v, v) otherwise: frame([v])[0, 0]."""
        if len(v) != self.dim:
            raise ValueError("dimension mismatch")
        return int(self.frame([v])[0, 0])

    def evaluate_pair(self, u, v):
        """kappa(u, v) = sum u_i G_ij v_j^sigma, G = bilinear_gram; for
        quadratic kinds the polarized form B(u, v).  Read from
        K = frame([u, v]): K_01, plus K_10 for quadratic kinds."""
        if len(u) != self.dim or len(v) != self.dim:
            raise ValueError("dimension mismatch")
        K = self.frame([u, v])
        if self.kind.is_quadratic:
            return int(la.sum_np(self.field, K[[0, 1], [1, 0]]))
        return int(K[0, 1])

    def pair_functional(self, s):
        """Coefficients w with kappa(x, s) = sum_i x_i w_i (linear in x), as
        int64 codes: shape (d,) for one vector s, (m, d) for a stack of m
        vectors, from one _linalg.mat_mul_np."""
        F = self.field
        S = F.frobenius_np(s, self.sigma)
        G = np.array(self.bilinear_gram, dtype=np.int64)
        return la.mat_mul_np(F, S.reshape(-1, self.dim), G.T).reshape(S.shape)

    def pair_matrix(self, rows):
        """The pair functionals of the rows s_1..s_m in bulk: a GF(p) matrix
        E of shape (d*f, m*f) such that digits(x) @ E lists the digits of
        kappa(x, s_1), ..., kappa(x, s_m) (see _linalg.expand)."""
        F = self.field
        S = np.asarray(rows, dtype=np.int64).reshape(-1, self.dim)
        conj = F.frobenius_np(S, self.sigma)
        return la.mulmod(la.expand(F, self.bilinear_gram), la.expand(F, conj.T), F.p)

    @cached_property
    def matrix_np(self):
        """The stored matrix as an int64 code array: the coefficient matrix
        for quadratic kinds, the Gram matrix otherwise."""
        return np.array(self.data, dtype=np.int64)

    def frame(self, V):
        """K = V A (V^tau)^T for the rows v_1..v_k of the code array V, with
        A = matrix_np and tau the Hermitian conjugation (trivial otherwise):
        two _linalg.mat_mul_np.  K_ij = kappa(v_i, v_j) for the Gram kinds;
        for quadratic kinds K_ii = Q(v_i) and K_ij + K_ji = B(v_i, v_j)."""
        F = self.field
        V = np.asarray(V, dtype=np.int64)
        return la.mat_mul_np(F, la.mat_mul_np(F, V, self.matrix_np),
                             F.frobenius_np(V, self.sigma).T)

    def restriction(self, V):
        """The form on the span of the rows of V, in the coordinates of those
        rows and stored as data is: the coefficient matrix
        triu(K + K^T, 1) + diag(K) for quadratic kinds, K otherwise, with
        K = frame(V)."""
        K = self.frame(V)
        if not self.kind.is_quadratic:
            return K
        C = np.triu(la.sum_np(self.field, np.stack((K, K.T))), 1)
        return C + np.diag(np.diagonal(K))

    def frame_values(self, K):
        """The form's values on a frame v_1..v_d, given K = frame(V):
        kappa(v_i, v_j) row by row, then Q(v_i) for quadratic kinds, whose
        Gram matrix is A + A^T and Q(v_i) = K_ii."""
        if not self.kind.is_quadratic:
            return K.ravel()
        return np.concatenate((la.sum_np(self.field, np.stack((K, K.T))).ravel(),
                               np.diagonal(K)))

    @cached_property
    def basis_values(self):
        """frame_values on the standard basis, computed once: the values,
        their zero mask and the index of the first nonzero value, which
        exists because the form is nondegenerate."""
        vals = self.frame_values(self.matrix_np)
        return vals, vals == 0, int(np.flatnonzero(vals)[0])

    # -- misc --------------------------------------------------------------

    @property
    def q(self):
        return self.field.q

    def serialize(self):
        F = self.field
        return {
            "kind": self.kind.value,
            "q": F.q,
            "d": self.dim,
            "matrix": [[F.coeffs(x) for x in row] for row in self.data],
        }

    def __repr__(self):
        return f"Form({self.kind.value}, d={self.dim}, {self.field!r})"


def _polarized(F, C):
    """The polar Gram C + C^T of a quadratic form's coefficient matrix."""
    d = len(C)
    return tuple(tuple(F.add(C[i][j], C[j][i]) for j in range(d)) for i in range(d))


def _quadratic_sign(F, C, B):
    """PLUS or MINUS for an even-dimensional quadratic form with coefficient
    matrix C and polar Gram B = C + C^T; ValueError if B is degenerate.

    Odd q: discriminant test on B ((-1)^k det B a square iff hyperbolic;
    the factor 2^d between B and the halved Gram is a square).
    Even q: the Arf invariant.  Split off hyperbolic pairs (e, f) of the
    polar form B, B(e, f) = 1, one at a time, projecting the other vectors
    w onto the perp of the pair, w' = w + a e + b f with a = B(w, f) and
    b = B(w, e); the form is hyperbolic iff Tr_{GF(q)/GF(2)} of
    sum Q(e) Q(f) is 0.  Only the Gram matrix G of the vectors left and
    their values Q are kept, from B and diag(C): in characteristic 2,
    G' = G + a b^T + b a^T and Q(w') = Q(w) + a^2 Q(e) + b^2 Q(f) + a b.
    """
    d = len(C)
    k = d // 2
    if F.p != 2:
        disc = int(la.det(F, B))
        if disc == 0:
            raise ValueError("degenerate quadratic form (polarized radical nonzero)")
        ref = F.neg(disc) if k % 2 else disc
        return FormKind.PLUS if F.is_square(ref) else FormKind.MINUS
    G = np.asarray(B, dtype=np.int64)
    Q = np.diagonal(np.asarray(C, dtype=np.int64))
    arf = 0
    while len(G):
        partners = np.flatnonzero(G[-1, :-1])
        if not partners.size:
            raise ValueError("degenerate quadratic form (polarized radical nonzero)")
        j = partners[0]
        s = F.inv(int(G[-1, j]))
        qe, qf = int(Q[-1]), F.mul(F.mul(s, s), int(Q[j]))
        arf = F.add(arf, F.mul(qe, qf))
        rest = np.delete(np.arange(len(G) - 1), j)
        a, b = F.mul_np(s, G[rest, j]), G[rest, -1]
        ab = F.mul_np(a[:, None], b)
        G = la.sum_np(F, np.stack((G[np.ix_(rest, rest)], ab, ab.T)))
        Q = la.sum_np(F, np.stack((Q[rest], F.mul_np(F.mul_np(a, a), qe),
                                   F.mul_np(F.mul_np(b, b), qf), np.diagonal(ab))))
    trace = 0
    for i in range(F.f):
        trace = F.add(trace, F.frobenius(arf, i))
    return FormKind.PLUS if trace == 0 else FormKind.MINUS


def standard_form(kind, d, field):
    """The fixed coordinate model for each (kind, d, q).

    Symplectic: kappa(e_i, e_{i+m}) = 1 (m = d/2).  Plus: Q = sum of products
    over coordinate pairs (2i, 2i+1).  Minus: hyperbolic pairs plus the norm
    form of GF(q^2)/GF(q) on the last two coordinates.  Parabolic: x_0^2 plus
    hyperbolic pairs.  Hermitian: identity Gram.
    """
    kind = parse_kind(kind)
    F = field
    if d < 1:
        raise ValueError(f"projective dimension {d - 1} is negative "
                         f"(vector dimension {d} < 1)")
    if kind is FormKind.SYMPLECTIC:
        if d % 2:
            raise ValueError("symplectic dimension must be even")
        m = d // 2
        gram = [[0] * d for _ in range(d)]
        for i in range(m):
            gram[i][m + i] = 1
            gram[m + i][i] = F.neg(1)
        return Form(kind, F, gram)
    if kind is FormKind.HERMITIAN:
        return Form(kind, F, np.eye(d, dtype=np.int64))
    C = [[0] * d for _ in range(d)]
    if kind is FormKind.PLUS:
        if d % 2:
            raise ValueError("hyperbolic dimension must be even")
        for i in range(d // 2):
            C[2 * i][2 * i + 1] = 1
    elif kind is FormKind.MINUS:
        if d % 2:
            raise ValueError("elliptic dimension must be even")
        for i in range(d // 2 - 1):
            C[2 * i][2 * i + 1] = 1
        s, n = _norm_form_coefficients(F)
        C[d - 2][d - 2] = 1
        C[d - 2][d - 1] = s
        C[d - 1][d - 1] = n
    elif kind is FormKind.PARABOLIC:
        if d % 2 == 0:
            raise ValueError("parabolic dimension must be odd")
        C[0][0] = 1
        for i in range((d - 1) // 2):
            C[2 * i + 1][2 * i + 2] = 1
    return Form(kind, F, C)


def _norm_form_coefficients(F):
    """(s, n) with x^2 + s x y + n y^2 the GF(q^2)/GF(q) norm form, anisotropic."""
    big = gf.field(F.p, 2 * F.f)
    emb = gf.embedding(F, big)
    w = big.generator
    return emb.trace(w), emb.norm(w)


def diagonal_form(field, entries):
    """Q = sum a_i x_i^2 (odd q), classified to the correct quadratic kind."""
    if field.p == 2:
        raise ValueError("diagonal quadratic forms need odd characteristic")
    return quadratic_form(field, [[a if j == i else 0 for j in range(len(entries))]
                                  for i, a in enumerate(entries)])


def quadratic_form(field, upper):
    """Build a quadratic Form from an upper-triangular matrix, computing its
    kind: one _quadratic_sign for an even dimension, which Form's check of
    the kind reads."""
    upper = gf.element_codes(field, upper)
    if len(upper) % 2:
        return Form(FormKind.PARABOLIC, field, upper)
    sign = _quadratic_sign(field, upper, _polarized(field, upper))
    return Form(sign, field, upper, _sign=sign)


class Subspace:
    """A subspace of GF(q)^d: rows is the canonical rref of its spanning rows
    (element codes by gf.element_codes), a read-only (dim, ambient) array."""

    __slots__ = ("field", "ambient", "rows", "dim")

    def __init__(self, field, ambient, rows):
        rows = gf.element_codes(field, rows)
        if any(len(r) != ambient for r in rows):
            raise ValueError("row length does not match ambient dimension")
        R, pivots, _ = la.rref_np(field, np.reshape(rows, (len(rows), ambient)))
        self.field = field
        self.ambient = ambient
        self.dim = int(pivots.sum())
        self.rows = R[:self.dim]
        self.rows.flags.writeable = False

    @classmethod
    def span(cls, field, vectors, ambient=None):
        vectors = list(vectors)
        if ambient is None:
            if not vectors:
                raise ValueError("ambient dimension required for the zero subspace")
            ambient = len(vectors[0])
        return cls(field, ambient, vectors)

    @classmethod
    def zero(cls, field, ambient):
        return cls(field, ambient, [])

    def contains(self, v):
        """v lies in the subspace when the rows and v together have rank
        dim."""
        (v,) = gf.element_codes(self.field, [v])
        if len(v) != self.ambient:
            raise ValueError("vector length does not match ambient dimension")
        _, pivots, _ = la.rref_np(self.field, np.vstack((self.rows, v)))
        return int(pivots.sum()) == self.dim

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.field is other.field
                and self.ambient == other.ambient
                and np.array_equal(self.rows, other.rows))

    def __hash__(self):
        return hash((id(self.field), self.ambient, self.rows.tobytes()))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


def _kernel(F, A):
    """A basis of {x : A x^T = 0} for each matrix of the code stack A
    (..., m, n), as a stack (..., n - r, n), from the rrefs R of one
    rref_np: a row per free column c, 1 at c and -R_ic at row i's pivot
    column.  Every matrix must have the same rank r (ValueError)."""
    R, pivots, _ = la.rref_np(F, A)
    ranks = pivots.sum(axis=-1)
    r = int(ranks.max(initial=0))
    if (ranks != r).any():
        raise ValueError("the matrices of the stack differ in rank")
    *stack, n = pivots.shape
    piv = np.nonzero(pivots)[-1].reshape(*stack, 1, r)
    free = np.nonzero(~pivots)[-1].reshape(*stack, n - r, 1)
    N = np.zeros((*stack, n - r, n), dtype=np.int64)
    np.put_along_axis(N, free, 1, axis=-1)
    Rf = np.take_along_axis(R[..., :r, :], np.swapaxes(free, -1, -2), axis=-1)
    np.put_along_axis(N, piv, F.mul_np(F.neg(1), np.swapaxes(Rf, -1, -2)), axis=-1)
    return N


def perp(form, S):
    """{x : kappa(x, s) = 0 for all s in S}, the kernel of S's functionals."""
    return Subspace(form.field, form.dim,
                    _kernel(form.field, form.pair_functional(S.rows)))


@dataclass(frozen=True)
class RestrictionReport:
    kind: object          # FormKind of the restriction, or None if degenerate/TS
    dim: int
    rank: object          # Witt index of the restriction (None when degenerate)
    radical_dim: int
    totally_singular: bool

    @property
    def nondegenerate(self):
        return self.radical_dim == 0


def classify_restriction(form, S):
    """Type of the form restricted to S: nondegenerate kind / totally singular /
    degenerate with its (singular) radical dimension.

    Sign of even-dimensional quadratic restrictions: discriminant for odd q,
    Arf invariant for even q.
    """
    F = form.field
    k = S.dim
    if k == 0:
        return RestrictionReport(None, 0, 0, 0, True)
    M = form.restriction(S.rows)
    if not M.any():
        return RestrictionReport(None, k, k, k, True)
    if form.kind.is_quadratic:
        B = la.sum_np(F, np.stack((M, M.T)))
        rad = _kernel(F, B)
        rad_dim = len(rad)
        if F.p == 2 and rad_dim:
            # singular radical: kernel of the semilinear functional Q on rad(B)
            if np.diagonal(la.mat_mul_np(F, la.mat_mul_np(F, rad, M), rad.T)).any():
                rad_dim -= 1
        if rad_dim > 0:
            return RestrictionReport(None, k, None, rad_dim, False)
        if k % 2:
            return RestrictionReport(FormKind.PARABOLIC, k, k // 2, 0, False)
        sign = _quadratic_sign(F, M, B)
        witt = k // 2 if sign is FormKind.PLUS else k // 2 - 1
        return RestrictionReport(sign, k, witt, 0, False)
    rad_dim = k - int(la.rref_np(F, M)[1].sum())
    if rad_dim:
        return RestrictionReport(None, k, None, rad_dim, False)
    return RestrictionReport(form.kind, k, k // 2, 0, False)

"""Exact linear algebra over FiniteField instances, on int64 arrays of
element codes: one Gauss-Jordan elimination and the one matrix product that
every field runs on.

rref_np reduces a whole stack of matrices (..., m, n) at once: each pivot
column is one F.mul_np and one sum_np over the stack.  It returns the
canonical rref, the pivot columns and, for a square matrix of full rank,
the determinant, so det and mat_inv (the right half of rref_np([A | I]))
are reads of it, and a rank is a count of its pivots.  A tiny matrix costs
more this way than scalar code would, so callers stack the matrices they
reduce together.  mat_mul_np is the matrix product: the products come from
the field's log tables and sum_np adds them up digit by digit.  vec_mat
images one vector of row tuples, for Semisimilarity.apply.

Bulk work writes GF(q)^d as GF(p)^(d*f) through the base-p digits of the
codes (FiniteField.digits).  expand turns a semilinear map into its GF(p)
matrix and expand_quadratic a (sesqui)linear form's values into GF(p)
quadratic forms; mulmod multiplies such matrices exactly, and zero_groups
tells which f-column groups of such a product vanish mod p, both in row
blocks of at most _SCAN_CELLS cells.  Over a prime field the expansions are
the matrices themselves.  projective_blocks owns the canonical point order
(first nonzero coordinate 1, then big-endian code order), and
singular_points finds the zeros of a form in that order from a head/tail
split of the coordinates.

Every float product of the package runs here, under one rule
(_exact_dtype): a product of integer matrices (n, k) and (k, m) with
entries in [0, p) runs in float32 while k*(p-1)^2 + p < 2^24, in float64
while that is below 2^53, and otherwise raises ValueError before any
product.  Let 2^t be the bound met, t the dtype's significand bits (24 or
53), so that every integer in [0, 2^t) is exact in the dtype.  Every entry,
p, and every partial sum of a dot product lie in [0, 2^t), so each entry S
of the product is exact, in whatever order BLAS adds.  Write S = a p + b
with 0 <= b < p.  The quotient fl(S/p) is S/p correctly rounded: within
S/p * 2^-t < 1/p of it.
- The floor reduction S - floor(fl(S/p)) p (mulmod) is b: a is exact and
  no greater than S/p, and rounding is monotone, so fl(S/p) >= a; and
  fl(S/p) < S/p + 1/p = a + (b + 1)/p <= a + 1.  So floor(fl(S/p)) = a,
  and a p <= S and S - a p = b are exact.
- The zero test rint(fl(S/p)) == fl(S/p) (zero_groups) holds exactly when
  b = 0: then S/p = a is exact; otherwise S/p lies at least 1/p from every
  integer and fl(S/p) less than 1/p from S/p, so fl(S/p) is no integer.
"""

import math

import numpy as np


def vec_mat(F, v, A):
    n = len(A[0])
    out = []
    for j in range(n):
        acc = 0
        for i, x in enumerate(v):
            if x:
                acc = F.add(acc, F.mul(x, A[i][j]))
        out.append(acc)
    return tuple(out)


# -- GF(q) arithmetic on code arrays ---------------------------------------


def sum_np(F, P, axis=0):
    """The sum over F of the code array P along a nonnegative axis: the
    base-p digits add mod p.  Exact in int64."""
    return F.from_digits(F.digits(P).sum(axis=axis) % F.p)


def mat_mul_np(F, A, B):
    """The product over F of code arrays A (..., n, k) and B (..., k, m),
    stacks broadcast as in np.matmul: the products come from the log
    tables, then sum_np adds them up."""
    P = F.mul_np(A[..., None], B[..., None, :, :])
    return sum_np(F, P, axis=P.ndim - 2)


def rref_np(F, A):
    """The reduced row echelon forms of the code arrays A (..., m, n) over
    F, by one Gauss-Jordan elimination over the whole stack: (R, pivots,
    unit).

    R has A's shape and holds each canonical rref, its nonzero rows first:
    two row spaces are equal iff their rrefs are.  pivots (..., n) marks the
    pivot columns, so pivots.sum(-1) is the rank.  For a square A of full
    rank, unit (...) is its determinant: the product of the pivots, negated
    once per transposition of the rows.

    The nonzero columns go one by one: each matrix with a nonzero at or
    below its next pivot row swaps the first such row up and scales it to a
    leading 1; then, unless the column is clear, one F.mul_np and one sum_np
    clear it in those matrices, over the whole stack.  A matrix without a
    pivot in the column is left as it is (a zero row below each matrix
    stands in as the pivot row of one that is out of rows).
    """
    A = np.asarray(A, dtype=np.int64)
    *stack, m, n = A.shape
    W = np.zeros((2, math.prod(stack), m + 1, n), dtype=np.int64)
    R = W[0]                     # the matrices; W[1] the multiples to add
    R[:, :m] = A.reshape(len(R), m, n)
    k = np.arange(len(R))
    top = np.zeros(len(R), dtype=np.int64)       # each matrix's next pivot row
    swaps = np.zeros(len(R), dtype=np.int64)
    values = np.zeros((len(R), n), dtype=np.int64)   # the pivots, 0 elsewhere
    rows = np.arange(m + 1)
    minus = F.neg(1)
    for c in np.flatnonzero(R.any(axis=(0, 1))):
        col = R[:, :, c]
        live = (col != 0) & (rows >= top[:, None])
        i = live.argmax(axis=1)
        found = live[k, i]
        if not found.any():
            continue
        i = np.where(found, i, top)
        values[:, c] = x = col[k, i]
        swaps += i != top
        pivot = F.mul_np(F.inv_np[x | ~found][:, None], R[k, i])
        R[k, i] = R[k, top]
        R[k, top] = pivot
        f = col * found[:, None]
        f[k, top] = 0
        if f.any():
            W[1] = F.mul_np(F.mul_np(minus, f)[:, :, None], pivot[:, None, :])
            R[...] = sum_np(F, W)
        top += found
        if top.min() == m:
            break
    # log 2(q-1) of a 0 off the pivots counts as log 1; log(-1) per swap
    logs = F.log_np[values].sum(axis=1) + swaps * F.log[minus]
    return (R[:, :m].reshape(A.shape), (values != 0).reshape(*stack, n),
            F.exp_np[logs % (F.q - 1)].reshape(stack))


def det(F, A):
    """The determinants of the square code arrays A (..., n, n), an int64
    array of shape (...): rref_np's unit where the rank is n, else 0."""
    _, pivots, unit = rref_np(F, A)
    return np.where(pivots.all(axis=-1), unit, 0)


def mat_inv(F, A):
    """The inverses of the square code arrays A (..., n, n): the right half
    of rref_np([A | I]).  ValueError if one is singular, that is if a pivot
    falls in the right half."""
    A = np.asarray(A, dtype=np.int64)
    n = A.shape[-1]
    I = np.broadcast_to(np.eye(n, dtype=np.int64), A.shape)
    R, pivots, _ = rref_np(F, np.concatenate((A, I), axis=-1))
    if not pivots[..., :n].all():
        raise ValueError("matrix is singular")
    return R[..., n:]


# -- the GF(p) digit kernel --------------------------------------------------

# each float dtype with 2^t, t its significand bits: the integers in [0, 2^t)
# are exact in it
_EXACT_BELOW = ((np.float32, 2 ** 24), (np.float64, 2 ** 53))


def _exact_dtype(k, p):
    """The float dtype of the rule in the module docstring for an inner
    dimension k and entries in [0, p); ValueError past float64."""
    top = k * (p - 1) ** 2 + p
    for dtype, bound in _EXACT_BELOW:
        if top < bound:
            return dtype
    raise ValueError(f"inner dimension {k} with p={p} exceeds the exact "
                     "float64 range")


def expand(F, M, s=0):
    """The GF(p) matrix of v -> (v^(p^s)) M, a d x e matrix M of codes
    over F = GF(p^f) acting on row vectors: shape (d*f, e*f), with
    digits(v^(p^s) M) = digits(v) @ expand(F, M, s), where a digit row
    lists the f digits of each coordinate in turn."""
    T = F.mul_matrix(M, s)                      # [i, j, r, c]
    d, e, f = T.shape[0], T.shape[1], F.f
    return T.transpose(0, 2, 1, 3).reshape(d * f, e * f)


def expand_quadratic(F, K, s=0):
    """The f GF(p) quadratic forms whose values are the digits of
    v -> sum_ij v_i K_ij v_j^(p^s), as a (d*f) x (d*f*f) matrix for
    form_values.  Quadratic forms pass their upper-triangular coefficient
    matrix and s = 0, Hermitian forms their Gram matrix and the
    conjugation's power."""
    K = np.asarray(K, dtype=np.int64)
    b = F.basis_np
    P = F.mul_np(b[:, None], F.frobenius_np(b, s)[None, :])
    T = F.digits(F.mul_np(K[:, :, None, None], P))   # [i, j, r, t, c]
    d, f = len(K), F.f
    return T.transpose(0, 2, 1, 3, 4).reshape(d * f, d * f * f)


def form_values(F, A, X):
    """Digits (n, f) of the form values at the rows of the digit matrix X
    (n, d*f), for A from expand_quadratic.  Exact in int64: each digit sums
    d*f products below p^2."""
    p, f = F.p, F.f
    Y = mulmod(X, A, p).reshape(len(X), X.shape[1], f)
    return (Y * X[:, :, None]).sum(axis=1) % p


_SCAN_ROWS = 2 ** 12   # rows per block (scans, locate, point images), to bound memory


def projective_blocks(F, d):
    """The canonical vectors of F^d, one per projective point, in code
    order, as arrays of at most _SCAN_ROWS rows of element codes (shape
    (n, d)).  Generating by descending leading-zero count yields sorted
    output; each block shares one leading-zero count."""
    q = F.q
    for lead in range(d - 1, -1, -1):
        total = q ** (d - 1 - lead)
        for start in range(0, total, _SCAN_ROWS):
            rem = np.arange(start, min(start + _SCAN_ROWS, total), dtype=np.int64)
            block = np.zeros((len(rem), d), dtype=np.int64)
            block[:, lead] = 1
            for col in range(d - 1, lead, -1):
                rem, block[:, col] = np.divmod(rem, q)
            yield block


_SCAN_CELLS = 2 ** 16   # cells per block of mulmod and zero_groups


def singular_points(F, K, s=0):
    """The canonical vectors v of F^d (see projective_blocks) where
    sum_ij v_i K_ij v_j^(p^s) = 0, in code order, as an (n, d) array of
    element codes: Q(v) for the upper-triangular coefficient matrix of a
    quadratic form (s = 0), kappa(v, v) for a Gram matrix and the form's
    conjugation power.

    v splits into a head h, its first dh = ceil(d/2) coordinates, and a
    tail t, the other dl.  Over the GF(p) digits each of the f value
    digits is Q(h) + Q(t) + h S t^T, S the head x tail block of M + M^T
    for the quadratic forms M of expand_quadratic.  A canonical v is a zero
    head with a canonical tail, or a canonical head with any tail; code
    order lists the first kind, then each head in code order with its
    tails in code order.  The form is evaluated once on the heads and once
    on all q^dl tails; then each chunk of heads (_SCAN_CELLS cells of
    value digits) takes one zero_groups call, whose rows [t | 1 | Q(t)]
    meet the columns [h S | Q(h) | e_c] in value digit c, a group of f
    columns per head.  Its inner dimension dl*f + 1 + f is checked against
    the rule first, so a space past it raises before any product.  Rows
    are built only for the cells that vanish, each the sum of a head and a
    tail."""
    p, f, q, d = F.p, F.f, F.q, len(K)
    dh = (d + 1) // 2
    kh, kl = dh * f, (d - dh) * f
    _exact_dtype(kl + 1 + f, p)
    # X: the zero head and the canonical heads, padded with a zero tail,
    # then every tail in code order, padded with a zero head
    heads = [np.zeros((1, dh), dtype=np.int64), *projective_blocks(F, dh)]
    nh, nt = sum(map(len, heads)), q ** (d - dh)
    X = np.zeros((nh + nt, d), dtype=np.int64)
    X[:nh, :dh] = np.concatenate(heads)
    rem = np.arange(nt)
    for col in range(d - 1, dh - 1, -1):
        rem, X[nh:, col] = np.divmod(rem, q)
    Xd = F.digit_rows(X)
    A = expand_quadratic(F, K, s)
    vals = np.concatenate([form_values(F, A, Xd[i:i + _SCAN_ROWS])
                           for i in range(0, nh + nt, _SCAN_ROWS)])
    M = A.reshape(d * f, d * f, f)
    S = (M[:kh, kh:] + M[kh:, :kh].transpose(1, 0, 2)).transpose(0, 2, 1)
    G = np.empty((nh, f, kl + 1 + f), dtype=np.int64)
    G[:, :, :kl] = (Xd[:nh, :kh] @ S.reshape(kh, f * kl) % p).reshape(nh, f, kl)
    G[:, :, kl] = vals[:nh]
    G[:, :, kl + 1:] = np.eye(f, dtype=np.int64)
    G = G.reshape(nh * f, kl + 1 + f).T
    U = np.concatenate((Xd[nh:, kh:], np.ones((nt, 1), dtype=np.int64),
                        vals[nh:]), axis=1)
    # zero head: the canonical tails (codes in [q^k, 2 q^k)) that are singular
    singular = ~vals[nh:].any(axis=1)
    ti = [nh + q ** k + np.flatnonzero(singular[q ** k:2 * q ** k])
          for k in range(d - dh)]
    hi = [np.zeros(sum(map(len, ti)), dtype=np.int64)]
    step = max(1, _SCAN_CELLS // (nt * f))
    for h0 in range(1, nh, step):
        vanish = zero_groups(U, G[:, h0 * f:(h0 + step) * f], p, f)
        h, t = np.divmod(np.flatnonzero(vanish.T), nt)
        hi.append(h0 + h)
        ti.append(nh + t)
    points = X.take(np.concatenate(hi), axis=0)
    ti = np.concatenate(ti)
    for r in range(0, len(ti), _SCAN_ROWS):   # no second full-size array
        points[r:r + _SCAN_ROWS] += X.take(ti[r:r + _SCAN_ROWS], axis=0)
    return points


def mulmod(A, B, p):
    """Exact (A @ B) % p as int64, for A (n, k) or (k,) and B (k, m) with
    entries in [0, p): the floor reduction in the dtype of the module
    docstring's rule, which raises ValueError before any product.  The rows
    of A go through in blocks of at most _SCAN_CELLS cells, a block's cells
    being its rows times max(k, m), so that the float temporaries stay
    cache-sized: each block is cast to the dtype, multiplied, reduced and
    written into one int64 output.  B is cast once."""
    dtype = _exact_dtype(A.shape[-1], p)
    if A.ndim == 1:
        return mulmod(A[None], B, p)[0]
    B = np.asarray(B, dtype=dtype)
    out = np.empty((len(A), B.shape[1]), dtype=np.int64)
    step = _SCAN_CELLS // max(B.shape) or 1
    for r in range(0, len(A), step):
        S = A[r:r + step].astype(dtype, copy=False) @ B
        S -= np.floor(S / p) * p
        out[r:r + step] = S
    return out


def zero_groups(X, G, p, f):
    """Which f-column groups of X @ G vanish mod p, as a bool array
    (n, m // f), for X (n, k) and G (k, m) with entries in [0, p) and m a
    multiple of f: entry [i, j] is true when row i of the product is 0 mod
    p on columns j*f .. j*f + f - 1.  The zero test runs in the dtype of
    the module docstring's rule, which raises ValueError before any
    product.  The work goes in blocks of at most _SCAN_CELLS cells, rows
    times max(k, columns); a G wider than _SCAN_CELLS columns is cut along
    whole groups.  Each block is cast, multiplied and divided by p, and
    the f digits of a group, strided slices of the test, are ANDed."""
    k, m = G.shape
    dtype = _exact_dtype(k, p)
    out = np.empty((len(X), m // f), dtype=bool)
    cols = max(f, min(m, _SCAN_CELLS) // f * f)
    rows = max(1, _SCAN_CELLS // max(k, cols))
    for c in range(0, m, cols):
        Gc = G[:, c:c + cols].astype(dtype)
        for r in range(0, len(X), rows):
            S = X[r:r + rows].astype(dtype, copy=False) @ Gc
            S /= p
            Z = np.rint(S) == S
            z = Z[:, ::f]
            for j in range(1, f):
                z &= Z[:, j::f]
            out[r:r + rows, c // f:(c + cols) // f] = z
    return out

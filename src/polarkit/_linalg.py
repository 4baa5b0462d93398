"""Small exact linear algebra over FiniteField instances, and the one array
kernel that every field runs on.

Vectors are tuples of int codes, matrices are tuples of row tuples, and
sizes are tiny (d <= 16).  rref is the one Gauss-Jordan elimination:
nullspace reads its pivots, mat_inv is the right half of rref([A | I]), and
a rank is the length of an rref.  det keeps a forward elimination of its
own, about half the work, because form validation runs it on every
standard form.  mat_mul_np is the one matrix product over GF(q), on int64
code arrays: the products come from the field's log tables and sum_np adds
them up digit by digit.

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

import numpy as np


def identity(F, n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


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


def dot(F, u, v):
    acc = 0
    for x, y in zip(u, v):
        if x and y:
            acc = F.add(acc, F.mul(x, y))
    return acc


def scale(F, c, v):
    return tuple(F.mul(c, x) for x in v)


def add_vec(F, u, v):
    return tuple(F.add(x, y) for x, y in zip(u, v))


def rref(F, rows):
    """Reduced row echelon form; returns (rows_tuple, pivot_columns).

    The output is canonical: two row spaces are equal iff their rrefs are
    byte-identical.
    """
    R = [list(r) for r in rows]
    if not R:
        return (), ()
    ncols = len(R[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(R)) if R[i][c]), None)
        if piv is None:
            continue
        R[r], R[piv] = R[piv], R[r]
        inv = F.inv(R[r][c])
        R[r] = [F.mul(inv, x) for x in R[r]]
        for i in range(len(R)):
            if i != r and R[i][c]:
                m = R[i][c]
                R[i] = [F.sub(x, F.mul(m, y)) for x, y in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
        if r == len(R):
            break
    R = [row for row in R[:r]]
    return tuple(tuple(row) for row in R), tuple(pivots)


def nullspace(F, rows, ncols):
    """Canonical rref basis of {x in F^ncols : rows . x^T = 0}."""
    R, pivots = rref(F, rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for i, pc in enumerate(pivots):
            v[pc] = F.neg(R[i][fc])
        basis.append(tuple(v))
    B, _ = rref(F, basis)
    return B


def mat_inv(F, A):
    """The inverse of the square matrix A: the right half of rref([A | I]).
    ValueError if A is singular, that is if a pivot falls in the right
    half."""
    n = len(A)
    R, pivots = rref(F, [tuple(a) + e for a, e in zip(A, identity(F, n))])
    if pivots != tuple(range(n)):
        raise ValueError("matrix is singular")
    return tuple(row[n:] for row in R)


def det(F, A):
    """The determinant, by forward elimination: a pivot row clears only the
    rows below it and is not scaled, so this is about half of rref's work.
    Form validation runs it on every standard form: on the 58 matrices of
    one pass of the 13 verify-fast targets, rref takes 1.3 ms and det 0.7
    ms, about 1% of the pass."""
    n = len(A)
    M = [list(r) for r in A]
    d = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if M[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            M[c], M[piv] = M[piv], M[c]
            d = F.neg(d)
        d = F.mul(d, M[c][c])
        inv = F.inv(M[c][c])
        for i in range(c + 1, n):
            if M[i][c]:
                m = F.mul(inv, M[i][c])
                M[i] = [F.sub(x, F.mul(m, y)) for x, y in zip(M[i], M[c])]
    return d


# -- the array kernel ------------------------------------------------------

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

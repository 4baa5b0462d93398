"""Shared hypothesis strategies (small fields, their elements and vectors),
scalar oracles written from FiniteField methods only, and random_words, the
word draw as it was before group._random_words kept one state array."""

import functools
import itertools

import hypothesis.strategies as st
import numpy as np

from polarkit import _linalg as la
from polarkit import gf

SMALL_ORDERS = [2, 3, 4, 5, 7, 8, 9, 16, 25, 27]


def fields(orders=None):
    return st.sampled_from([gf.field_of_order(q) for q in (orders or SMALL_ORDERS)])


@st.composite
def field_and_elements(draw, n=2, orders=None, nonzero=False):
    F = draw(fields(orders))
    lo = 1 if nonzero else 0
    xs = [draw(st.integers(lo, F.q - 1)) for _ in range(n)]
    return (F, *xs)


@st.composite
def field_and_vector(draw, dim, orders=None):
    F = draw(fields(orders))
    v = tuple(draw(st.integers(0, F.q - 1)) for _ in range(dim))
    return F, v


@st.composite
def invertible_matrices(draw, F, d):
    """A d x d invertible matrix over F as P L U: a permutation matrix, a
    unit lower and an upper triangular matrix with a nonzero diagonal.
    Every invertible matrix has this form."""
    perm = draw(st.permutations(range(d)))
    P = [[int(j == perm[i]) for j in range(d)] for i in range(d)]
    L = [[1 if i == j else draw(st.integers(0, F.q - 1)) if j < i else 0
          for j in range(d)] for i in range(d)]
    U = [[draw(st.integers(1, F.q - 1)) if i == j
          else draw(st.integers(0, F.q - 1)) if j > i else 0
          for j in range(d)] for i in range(d)]
    return mat_mul(F, mat_mul(F, P, L), U)


@st.composite
def singular_matrices(draw, F, d):
    """A d x d matrix of rank below d over F: a d x r times an r x d
    matrix with r < d."""
    r = draw(st.integers(0, d - 1))
    entries = st.integers(0, F.q - 1)
    C = [[draw(entries) for _ in range(r)] for _ in range(d)]
    B = [[draw(entries) for _ in range(d)] for _ in range(r)]
    return mat_mul(F, C, B) if r else ((0,) * d,) * d


# -- scalar oracles ------------------------------------------------------------


def identity(d):
    return tuple(tuple(int(i == j) for j in range(d)) for i in range(d))


def frobenius(F, A, k):
    """The entries of A raised to the power p^k, one at a time."""
    return tuple(tuple(F.pow(x, F.p ** (k % F.f)) for x in row) for row in A)


def points(space):
    """The space's points as coordinate tuples in index order, read from
    points_np: the point list the scalar oracles walk."""
    return tuple(map(tuple, space.points_np.tolist()))


def collinear(space, i, j):
    """Whether points i and j are perpendicular (true on the diagonal):
    pair_value on their coordinate tuples."""
    u, v = space.points_np[[i, j]].tolist()
    return pair_value(space.form, u, v) == 0


def form_value(form, v):
    """Q(v) = sum over i <= j of C_ij v_i v_j for quadratic kinds, on the
    stored coefficients C, and kappa(v, v) otherwise."""
    if not form.kind.is_quadratic:
        return pair_value(form, v, v)
    F, C = form.field, form.data
    acc = 0
    for i, x in enumerate(v):
        for j in range(i, len(v)):
            if x and v[j] and C[i][j]:
                acc = F.add(acc, F.mul(C[i][j], F.mul(x, v[j])))
    return acc


def pair_value(form, u, v):
    """kappa(u, v) = sum u_i G_ij v_j^sigma, with G = C + C^T for quadratic
    kinds and the stored Gram matrix otherwise, sigma = sqrt(q) for
    Hermitian forms and the identity otherwise."""
    F, M = form.field, form.data
    s = F.f // 2 if form.kind.value == "H" else 0
    quadratic = form.kind.is_quadratic
    acc = 0
    for i, x in enumerate(u):
        for j, y in enumerate(v):
            if x and y:
                g = F.add(M[i][j], M[j][i]) if quadratic else M[i][j]
                acc = F.add(acc, F.mul(x, F.mul(g, F.frobenius(y, s))))
    return acc


def point_index(space):
    """Point tuple -> point index, a dict over the tuple point list: the
    oracle for lookups, independent of space.index and space.locate."""
    return {v: i for i, v in enumerate(points(space))}


def canonical(F, v):
    """The canonical vector of the point <v>, for nonzero v: scaled so that
    the first nonzero coordinate is 1."""
    first = next(x for x in v if x)
    inv = F.inv(first)
    return tuple(F.mul(inv, x) for x in v)


def join(emb, cs):
    """b small-field elements c_j -> the large-field element sum up(c_j) G^j,
    G the large generator."""
    L = emb.large
    acc = 0
    for j, c in enumerate(cs):
        acc = L.add(acc, L.mul(emb.up(c), L.pow(L.generator, j)))
    return acc


@functools.lru_cache(maxsize=None)
def _split_table(emb):
    table = {join(emb, cs): cs
             for cs in itertools.product(range(emb.small.q), repeat=emb.b)}
    if len(table) != emb.large.q:
        raise AssertionError("join is not a bijection")
    return table


def flatten(emb, v):
    """A large vector -> its small coordinates, by brute force: each large
    coordinate y becomes the b-tuple cs with join(cs) = y."""
    table = _split_table(emb)
    return tuple(c for y in v for c in table[y])


def mat_mul(F, A, B):
    """The matrix product over F, one scalar product and sum at a time."""
    return tuple(tuple(functools.reduce(F.add, map(F.mul, row, col), 0)
                       for col in zip(*B)) for row in A)


def rref(F, rows):
    """The reduced row echelon form of the rows, one scalar operation at a
    time: (nonzero rows as a tuple of tuples, pivot columns)."""
    R = [list(r) for r in rows]
    if not R:
        return (), ()
    pivots = []
    r = 0
    for c in range(len(R[0])):
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
    return tuple(tuple(row) for row in R[:r]), tuple(pivots)


def det(F, A):
    """The determinant by forward elimination: a pivot row clears only the
    rows below it and is not scaled."""
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


def mat_inv(F, A):
    """The inverse of a square matrix, the right half of rref([A | I]), or
    None if A is singular."""
    n = len(A)
    R, pivots = rref(F, [tuple(a) + e for a, e in zip(A, identity(n))])
    if pivots != tuple(range(n)):
        return None
    return tuple(row[n:] for row in R)


def span(F, rows, ambient):
    """Every vector of the span of the rows in F^ambient, as a set: each
    row adds its multiples to the vectors found so far."""
    vectors = {(0,) * ambient}
    for row in rows:
        vectors = {tuple(F.add(x, F.mul(c, y)) for x, y in zip(v, row))
                   for v in vectors for c in F.elements()}
    return vectors


def random_words(gs, rng):
    """The word draw of group._random_words with its state as a list of
    (2, d, d) pairs, each step two np.stack of four operands and one
    mat_mul_np: s_i <- s_i s_j and acc <- acc s_i, each with its inverse,
    yielded from step 50 on."""
    F, gens = gs.field, gs.generators
    pairs = np.array([(g.matrix, g.inverse().matrix) for g in gens],
                     dtype=np.int64)
    state = pairs[np.arange(max(10, len(gens))) % len(gens)]
    acc = np.stack((np.eye(gs.dim, dtype=np.int64),) * 2)
    for step in itertools.count():
        i, j = rng.sample(range(len(state)), 2)
        (si, si_inv), (sj, sj_inv) = state[i], state[j]
        P = la.mat_mul_np(F, np.stack((si, sj_inv, acc[0], si_inv)),
                          np.stack((sj, si_inv, si, acc[1])))
        state[i], acc = P[:2], P[2:]
        if step >= 50:
            yield acc

"""Shared hypothesis strategies (small fields, their elements and vectors)
and scalar oracles written from FiniteField methods only."""

import functools
import itertools

import hypothesis.strategies as st

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
    Form.evaluate_pair on their coordinate tuples."""
    u, v = space.points_np[[i, j]].tolist()
    return space.form.evaluate_pair(u, v) == 0


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


def span(F, rows, ambient):
    """Every vector of the span of the rows in F^ambient, as a set: each
    row adds its multiples to the vectors found so far."""
    vectors = {(0,) * ambient}
    for row in rows:
        vectors = {tuple(F.add(x, F.mul(c, y)) for x, y in zip(v, row))
                   for v in vectors for c in F.elements()}
    return vectors

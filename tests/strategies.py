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


# -- scalar oracles ------------------------------------------------------------


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

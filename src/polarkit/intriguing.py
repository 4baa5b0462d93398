"""Tight sets and m-ovoids: exact classification of point sets by their
perp-intersection numbers, plus the order/divisibility feasibility filters
and the primitive-prime-divisor (Zsigmondy) test.

A set M is intriguing when |P^perp ∩ M| takes a single value h1 on M and a
single value h2 off M.  The two parameter families are i-tight sets
(size i(q^r-1)/(q-1)) and m-ovoids (size m·theta_r); the full point set is
the unique set matching both.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import gf
from . import polar as pl


@dataclass(frozen=True)
class IntriguingReport:
    size: int
    h1: object            # on-set intersection constant (None if not constant)
    h2: object            # off-set constant (None if not constant or no off-set)
    is_intriguing: bool
    tight_i: object = None
    ovoid_m: object = None


def classify(space, M):
    """Exact IntriguingReport for a point set, by computing |P^perp ∩ M| for
    every point P of the space (streamed in exact float32/float64 blocks over
    the GF(p) digits of the points, for every field)."""
    if len(M) == 0:
        raise ValueError("cannot classify the empty set")
    if M.space is not space:
        raise ValueError("point set belongs to a different space")
    counts = _perp_counts(space, M)
    inside = np.zeros(space.num_points, dtype=bool)
    inside[np.array(M.members, dtype=np.int64)] = True
    return _report(space, len(M), _constant(counts[inside]),
                   _constant(counts[~inside]))


def classify_orbits(partition):
    """The IntriguingReport of every orbit, in label order.  Semisimilarities
    map perps to perps, so |x^perp ∩ O| is one value on each orbit: count O
    at the k labels only; h1 is O's own label's, h2 the rest's if equal."""
    space, labels = partition.space, partition.labels
    reps = np.array(partition.orbit_labels)
    reports = []
    for j, label in enumerate(reps):
        members = np.flatnonzero(labels == label)
        counts = _raw_counts(space, members, rows=reps)
        reports.append(_report(space, len(members), int(counts[j]),
                               _constant(np.delete(counts, j))))
    return reports


def _report(space, size, h1, h2):
    """The report of a set of size points with perp counts h1 on it and h2
    off it, each None if not constant (h2 unread for the whole space)."""
    off_empty = size == space.num_points
    intr = h1 is not None and (off_empty or h2 is not None)
    tight_i = ovoid_m = None
    if intr:
        q, r = space.q, space.rank
        u = (q ** r - 1) // (q - 1)
        th, th1 = space.ovoid_number, space.theta_j(space.rank - 1)
        if size % u == 0:
            i = size // u
            if (h1 == q ** (r - 1) + i * (q ** (r - 1) - 1) // (q - 1)
                    and (off_empty or h2 == i * (q ** (r - 1) - 1) // (q - 1))):
                tight_i = i
        if size % th == 0:
            m = size // th
            if (h1 == (m - 1) * th1 + 1
                    and (off_empty or h2 == m * th1)):
                ovoid_m = m
    return IntriguingReport(size, h1, h2, intr, tight_i, ovoid_m)


def _constant(values):
    """The value every entry of a nonempty array shares, else None."""
    if values.size and values.min() == values.max():
        return int(values[0])
    return None


def _perp_counts(space, M):
    # For a set covering more than half the space, count against the
    # complement instead and subtract: |x^perp ∩ M| = c - |x^perp ∩ M^c|
    # with c the (point-independent) collinearity constant.
    n = space.num_points
    members = list(M.members)
    if 2 * len(members) > n:
        inside = np.zeros(n, dtype=bool)
        inside[members] = True
        comp = np.flatnonzero(~inside).tolist()
        return _collinear_constant(space) - _raw_counts(space, comp)
    return _raw_counts(space, members)


def _collinear_constant(space):
    """|x^perp ∩ P| for a point x, by the closed form 1 + q |P'|.

    The lines on x in x^perp are the points of the residual space P' =
    x^perp / x, of the same kind in dimension d - 2 and rank r - 1, and each
    carries q points besides x.  At rank 1 the residual is empty (its theta
    is not an integer there).  Point 0 is counted directly as a cross-check.
    """
    residual = (pl.expected_point_count(space.kind, space.d - 2, space.q)
                if space.rank > 1 else 0)
    count = 1 + space.q * residual
    sample = int(_raw_counts(space, [0]).sum())
    if sample != count:
        raise AssertionError(
            f"point 0 is collinear with {sample} points, the closed form "
            f"gives {count}")
    return count


# one block is _ROW_BLOCK x _COL_BLOCK cells, and a few temporaries of that
# size are alive at once: 512 x 4096 keeps them near 8 MiB each in float32,
# 16 MiB in float64
_ROW_BLOCK = 512
_COL_BLOCK = 4096
_F32_SAFE = 2 ** 24


def _count_dtype(d, f, p):
    """float32 when it holds every dot product of a point's digits with a
    pair-matrix column exactly, else float64.  Point rows are canonical, so
    the leading coordinate is 1, one digit 1 among its f; the other d - 1
    coordinates give f digits each, and every digit is at most p - 1.  The
    largest dot product is (d - 1) f (p - 1)^2 + (p - 1).  Below 2^24 every
    sum and the zero test's rint(S / p) * p up to S are exact in float32;
    at 2^24 a product S + 1 would round to S."""
    bound = (d - 1) * f * (p - 1) ** 2 + (p - 1)
    return np.float32 if bound < _F32_SAFE else np.float64


def _raw_counts(space, members, rows=slice(None)):
    """|P^perp ∩ members| for every point P indexed by rows: the zero count
    of kappa(P, Q) over Q in the member list.  Each member's pair functional
    is a (d*f) x f GF(p) block (Form.pair_matrix), and kappa(P, Q) = 0 when
    all f columns of its block vanish on P's digits.  Blocked matmuls in
    the dtype of _count_dtype, in which every accumulated dot product is an
    exact integer, so the zero test is exact."""
    F = space.field
    p, f = F.p, F.f
    X = F.digit_rows(space.points_np[rows])
    n = len(X)
    G = space.form.pair_matrix(space.points_np[members])
    dtype = _count_dtype(space.d, f, p)
    Gf = np.ascontiguousarray(G, dtype=dtype)
    Xf = np.ascontiguousarray(X, dtype=dtype)
    counts = np.zeros(n, dtype=np.int64)
    pinv = dtype(1.0) / dtype(p)
    cols = _COL_BLOCK // f * f
    for r0 in range(0, n, _ROW_BLOCK):
        A = Xf[r0:r0 + _ROW_BLOCK]
        acc = np.zeros(len(A), dtype=np.int64)
        for c0 in range(0, G.shape[1], cols):
            S = A @ Gf[:, c0:c0 + cols]
            T = np.multiply(S, pinv)
            np.rint(T, out=T)
            T *= p
            zero = (S == T).reshape(len(A), S.shape[1] // f, f).all(axis=2)
            acc += np.count_nonzero(zero, axis=1)
        counts[r0:r0 + len(A)] = acc
    return counts


# -- feasibility -----------------------------------------------------------


@dataclass(frozen=True)
class FeasibilityQuery:
    kind: object
    d: int
    q: int
    group_order: int

    @property
    def epsilon(self):
        return pl.epsilon_of(self.kind)


@dataclass(frozen=True)
class FeasibilityReport:
    dim_bound: float
    dim_ok: bool
    divisibility_ok: bool
    witness_i: object = None


def feasibility(query):
    """The two necessary conditions for a two-orbit group of order |H0|:

    dim(V) < 1 + epsilon + log_q(2|H0|), and some split of the trivial tight
    parameter theta_r into i + (theta_r - i) whose orbit sizes have an lcm
    dividing |H0| (orbit sizes divide the group order)."""
    if query.group_order < 1:
        raise ValueError("group order must be positive")
    q, d = query.q, query.d
    bound = float(1 + query.epsilon) + math.log(2 * query.group_order, q)
    r = pl.rank_of(query.kind, d)
    th = pl.theta(query.kind, d, q, r)
    u = (q ** r - 1) // (q - 1)
    witness = None
    for i in range(1, th):
        a, b = i * u, (th - i) * u
        if query.group_order % math.lcm(a, b) == 0:
            witness = i
            break
    return FeasibilityReport(dim_bound=bound, dim_ok=d < bound,
                             divisibility_ok=witness is not None,
                             witness_i=witness)


# -- Zsigmondy -------------------------------------------------------------


_ZS_BUDGET = 2 ** 63


def zsigmondy(n, k):
    """Smallest primitive prime divisor of n^k - 1, or None.

    Computed from the cyclotomic value Phi_k(n) with the intrinsic prime
    (the one dividing k) stripped out; what survives is exactly the product
    of primitive primes, so the exceptional pairs — k = 2 with n + 1 a power
    of two, and (n, k) = (2, 6) — fall out with no special-casing.
    """
    if n <= 1 or k < 1:
        raise ValueError("need n > 1 and k >= 1")
    if n ** k >= _ZS_BUDGET:
        raise ValueError("n^k exceeds the 63-bit budget")
    phi = _cyclotomic_value(n, k)
    for p in gf.prime_factors(k):
        while phi % p == 0:
            phi //= p
    if phi == 1:
        return None
    return _smallest_prime_factor(phi)


def _cyclotomic_value(n, k):
    num = den = 1
    for d in _divisors(k):
        mu = _mobius(k // d)
        if mu == 1:
            num *= n ** d - 1
        elif mu == -1:
            den *= n ** d - 1
    if num % den:
        raise AssertionError(f"cyclotomic quotient for ({n}, {k}) is not integral")
    return num // den


def _divisors(k):
    out = [d for d in range(1, k + 1) if k % d == 0]
    return out


def _mobius(k):
    fs = gf.prime_factors(k)
    m = k
    for p in fs:
        if m % (p * p) == 0:
            return 0
        m //= p
    return -1 if len(fs) % 2 else 1


def _pollard_rho(n):
    if n % 2 == 0:
        return 2
    import random
    rng = random.Random(0xC0FFEE ^ n)
    while True:
        c = rng.randrange(1, n)
        x = y = rng.randrange(2, n)
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d


def _smallest_prime_factor(n):
    """Smallest prime factor via trial division then recursive rho splitting."""
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        if n % p == 0:
            return p
    if gf.is_prime(n):
        return n
    d = _pollard_rho(n)
    a = _smallest_prime_factor(d)
    b = _smallest_prime_factor(n // d)
    return min(a, b)

"""Tight sets and m-ovoids: exact classification of point sets by their
perp-intersection numbers, plus the order/divisibility feasibility filters
and the primitive-prime-divisor (Zsigmondy) test.

A set M is intriguing when |P^perp ∩ M| takes a single value h1 on M and a
single value h2 off M.  The two parameter families are i-tight sets
(size i(q^r-1)/(q-1)) and m-ovoids (size m·theta_r); the full point set is
the unique set matching both.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _linalg as la
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
    """Exact IntriguingReport for a point set, from |P^perp ∩ M| at the
    points P of the space.  One _counter is set up for the whole space and
    read one _ROW_BLOCK of points at a time: the points of M first, then
    the rest, so at most one block holds points of both sides.

    Each side stops at the first block that shows it a second count, and
    its entry in the report is None: M's side then skips to the rest, and
    the rest ends the count.  A side read to its end had one count at every
    point, so every value reported is exact over its whole side.  A set
    covering more than half the space is counted against its complement,
    |P^perp ∩ M| = c - |P^perp ∩ M^c| with c the (point-independent)
    collinearity constant; a side is constant in one count when it is in
    the other.  The whole space has no complement to count: h1 is c."""
    if len(M) == 0:
        raise ValueError("cannot classify the empty set")
    if M.space is not space:
        raise ValueError("point set belongs to a different space")
    n, m = space.num_points, len(M)
    if m == n:
        return _report(space, n, _collinear_constant(space), None)
    members = M.members
    inside = np.zeros(n, dtype=bool)
    inside[members] = True
    order = np.concatenate((members, np.flatnonzero(~inside)))
    if 2 * m > n:
        c, sign, cols = _collinear_constant(space), -1, order[m:]
    else:
        c, sign, cols = 0, 1, order[:m]
    count = _counter(space, cols, order)
    # the least and greatest count read so far on M and off M
    lo, hi = [math.inf, math.inf], [-math.inf, -math.inf]
    r0 = 0
    while r0 < n:
        counts = count(r0)
        k = min(max(m - r0, 0), len(counts))    # the block's points of M
        for side, part in enumerate((counts[:k], counts[k:])):
            if part.size:
                lo[side] = min(lo[side], int(part.min()))
                hi[side] = max(hi[side], int(part.max()))
        r0 += len(counts)
        if hi[1] > lo[1]:
            break
        if r0 < m and hi[0] > lo[0]:
            r0 = m
    return _report(space, m, *(c + sign * a if a == b else None
                               for a, b in zip(lo, hi)))


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


def _collinear_constant(space):
    """|x^perp ∩ P| for a point x, by the closed form 1 + q |P'|.

    The lines on x in x^perp are the points of the residual space P' =
    x^perp / x, of the same kind in dimension d - 2 and rank r - 1, and each
    carries q points besides x.  At rank 1 the residual is empty (its theta
    is not an integer there).  Point 0 is counted directly as a cross-check:
    its perp, polar.perp_indices, is one blocked product over the space.
    """
    residual = (pl.expected_point_count(space.kind, space.d - 2, space.q)
                if space.rank > 1 else 0)
    count = 1 + space.q * residual
    sample = len(pl.perp_indices(space, space.points_np[:1]))
    if sample != count:
        raise AssertionError(
            f"point 0 is collinear with {sample} points, the closed form "
            f"gives {count}")
    return count


# rows per count(r0) of a _counter; the kernel cuts each into blocks of at
# most _linalg._SCAN_CELLS cells
_ROW_BLOCK = 512
# the fewest cells (rows x member columns) for which a count tries the span:
# a smaller count gains less from it than _span's elimination costs on the
# many small calls of a verify run
_REDUCE_CELLS = 2 ** 21 + 1


def _raw_counts(space, members, rows=slice(None)):
    """|P^perp ∩ members| for every point P indexed by rows: every block of
    one _counter over those rows, concatenated."""
    rows = np.arange(space.num_points)[rows]
    return _blocks(_counter(space, members, rows), len(rows))


def _blocks(count, n):
    """count(r0) for r0 = 0, _ROW_BLOCK, ... below n, concatenated."""
    return np.concatenate([np.zeros(0, dtype=np.int64)]
                          + [count(r0) for r0 in range(0, n, _ROW_BLOCK)])


def _counter(space, members, rows):
    """count(r0): |P^perp ∩ members| for the points P at the indices
    rows[r0:r0 + _ROW_BLOCK].  This is the zero count of kappa(P, Q) over Q
    in the member list.  Each member's pair functional is a (d*f) x f GF(p)
    block of G = Form.pair_matrix, and kappa(P, Q) = 0 when all f columns
    of its block vanish on P's digits x: _linalg.zero_groups, exact by the
    rule of that module's docstring.  The set-up runs here, once for all
    n = len(rows) rows: G, the path and the table of the span path.  Each
    count(r0) then costs one block of rows.

    When the direct count has at least _REDUCE_CELLS cells (n rows by G's
    columns), the set-up first tries the span of the functionals (_span): R,
    the K x (d*f) rref of the row space of G^T over GF(p), with pivot
    columns piv.  Every row of G^T is its entries at piv times R, so G =
    R^T G[piv] mod p, and x G vanishes exactly where y G[piv] does, with
    y = x R^T mod p (_linalg.mulmod) in GF(p)^K.  So the count depends on
    y alone: the set-up counts the zeros of all p^K vectors of GF(p)^K, and
    each point reads its y's entry of that table.  _span gives up once p^K
    would reach n, so the table is always the smaller count.  Otherwise
    count counts the zeros of the points' digits."""
    F = space.field
    p, f = F.p, F.f
    G = space.form.pair_matrix(space.points_np[members])
    n = len(rows)

    def digits(r0):
        block = np.take(space.points_np, rows[r0:r0 + _ROW_BLOCK], axis=0)
        return F.digit_rows(block)

    def zeros(X, H):
        return np.count_nonzero(la.zero_groups(X, H, p, f), axis=1)

    span = _span(G, p, n) if n * G.shape[1] >= _REDUCE_CELLS else None
    if span is None:
        return lambda r0: zeros(digits(r0), G)
    R, piv = span
    E = G[piv]
    powers = p ** np.arange(len(piv), dtype=np.int64)
    grid = np.arange(p ** len(piv), dtype=np.int64)[:, None] // powers % p
    table = _blocks(lambda r0: zeros(grid[r0:r0 + _ROW_BLOCK], E), len(grid))
    return lambda r0: table[la.mulmod(digits(r0), R.T, p) @ powers]


def _span(G, p, n):
    """(R, piv): the rref R of the row space of G^T over GF(p) and its pivot
    columns, or None when p^K would reach n."""
    R, pivots, _ = la.rref_np(gf.field(p), G.T)
    piv = np.flatnonzero(pivots)
    if p ** len(piv) >= n:
        return None
    return R[:len(piv)], piv


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

    A prime of n^k - 1 is primitive when the order of n mod p is exactly k;
    _primitive_part strips every other one, so the exceptional pairs — k = 2
    with n + 1 a power of two, and (n, k) = (2, 6) — fall out with no
    special-casing.
    """
    if n <= 1 or k < 1:
        raise ValueError("need n > 1 and k >= 1")
    if n ** k >= _ZS_BUDGET:
        raise ValueError("n^k exceeds the 63-bit budget")
    m = _primitive_part(n, k)
    return None if m == 1 else _smallest_prime_factor(m, k)


def _primitive_part(n, k):
    """The largest divisor of n^k - 1 all of whose primes are primitive.
    A prime of n^k - 1 that is not divides some n^d - 1 with d < k, so each
    g = gcd(m, n^d - 1) is divided out of m with all its primes, by gcds
    alone."""
    m = n ** k - 1
    for d in range(1, k):
        g = math.gcd(m, n ** d - 1)
        while g > 1:
            m //= g
            g = math.gcd(m, g)
    return m


_TRIAL = 256   # trial divisors 1 + jk tried before rho, at most
_BATCH = 64    # rho steps per gcd


def _smallest_prime_factor(m, k):
    """The smallest prime factor of m > 1 whose primes are all 1 mod k, as
    those of a primitive part are (the order k of n mod p divides p - 1).
    The divisors 1 + jk are tried in increasing order, so the first that
    divides m is a prime: its own prime factors divide m, are 1 mod k and
    smaller.  Past _TRIAL of them or sqrt(m), what is left goes to
    _rho_smallest."""
    root = math.isqrt(m)
    for c in range(k + 1, min(root, k * _TRIAL) + 1, k):
        if m % c == 0:
            return c
    if root <= k * _TRIAL:   # no factor up to sqrt(m)
        return m
    return _rho_smallest(m)


def _rho_smallest(m):
    """The smallest prime factor of m: m if gf.is_prime says it is prime,
    else the smaller of those of the two factors _brent splits it into."""
    if gf.is_prime(m):
        return m
    d = _brent(m)
    return min(_rho_smallest(d), _rho_smallest(m // d))


def _brent(n):
    """A proper factor of the odd composite n: Brent's variant of Pollard's
    rho (BIT 1980) on x -> x^2 + c from x = 2, with the differences
    multiplied up and one gcd per _BATCH steps; a batch that overshoots
    to n is replayed a step at a time, and c = 1, 2, ... in turn until a
    run finds a proper factor.  Deterministic."""
    for c in itertools.count(1):
        y, r, acc, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            for i in range(0, r, _BATCH):
                ys = y
                for _ in range(min(_BATCH, r - i)):
                    y = (y * y + c) % n
                    acc = acc * (x - y) % n
                g = math.gcd(acc, n)
                if g != 1:
                    break
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g

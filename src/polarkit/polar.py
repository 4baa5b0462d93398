"""Finite classical polar spaces as explicit, indexed point lists.

A PolarSpace materializes every singular/isotropic projective point of a
nondegenerate form in a canonical order (first nonzero coordinate 1, sorted
lexicographically), so downstream set machinery can work with dense integer
indices.  Rank is recomputed greedily and cross-checked against the expected
parameter table at construction time.
"""

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
import itertools
import math

import numpy as np

from . import _linalg as la
from . import forms as fm
from . import gf
from .forms import FormKind, Subspace

POINT_CAP = 2_000_000
SCAN_CAP = 100_000_000   # projective points of F^d that build scans

#: exponent e with theta_j = q^(j-1+e) + 1, in units of sqrt(q) for Hermitian
#: (stored as (numerator over 2) so Hermitian half-integers stay exact)


def rank_of(kind, d):
    kind = fm.parse_kind(kind)
    if kind is FormKind.SYMPLECTIC or kind is FormKind.PLUS:
        if d % 2:
            raise ValueError("even dimension required")
        return d // 2
    if kind is FormKind.MINUS:
        if d % 2:
            raise ValueError("even dimension required")
        return d // 2 - 1
    if kind is FormKind.PARABOLIC:
        if d % 2 == 0:
            raise ValueError("odd dimension required")
        return (d - 1) // 2
    return d // 2  # Hermitian


def theta(kind, d, q, j):
    """theta_j for the rank-j space of the same kind (and dimension parity).

    theta_j = q^(j-1+e) + 1 with e = 1 (W), 0 (Q+), 1 (Q), 2 (Q-),
    1/2 (H, even d), 3/2 (H, odd d).  Exact integers throughout; Hermitian
    half-integer exponents use sqrt(q), which is an integer there.
    """
    kind = fm.parse_kind(kind)
    if j < 0:
        raise ValueError("negative rank")
    if kind is FormKind.HERMITIAN:
        q0 = math.isqrt(q)
        if q0 * q0 != q:
            raise ValueError("Hermitian spaces need square q")
        e2 = 1 if d % 2 == 0 else 3  # twice the exponent e
        return q0 ** (2 * (j - 1) + e2) + 1
    e = {FormKind.SYMPLECTIC: 1, FormKind.PLUS: 0,
         FormKind.PARABOLIC: 1, FormKind.MINUS: 2}[kind]
    return q ** (j - 1 + e) + 1


def epsilon_of(kind):
    """The 0 / 1/2 / 1 constant of the dimension bound, by form family."""
    kind = fm.parse_kind(kind)
    if kind is FormKind.SYMPLECTIC:
        return Fraction(0)
    if kind is FormKind.HERMITIAN:
        return Fraction(1, 2)
    return Fraction(1)


def expected_point_count(kind, d, q):
    r = rank_of(kind, d)
    return (q ** r - 1) // (q - 1) * theta(kind, d, q, r)


def space_name(kind, d, q):
    return f"{fm.parse_kind(kind).value}({d - 1},{q})"


class PolarSpace:
    """Immutable: form, rank, ovoid number, and the full canonical point
    list as one int64 array, points_np."""

    def __init__(self, form, points_np, ts_basis, _token=None):
        if _token is not _BUILD:
            raise TypeError("use polar.build(form)")
        self.form = form
        self.kind = form.kind
        self.field = form.field
        self.d = form.dim
        self.q = form.field.q
        self.points_np = points_np
        self.rank = len(ts_basis)
        self.ts_basis = ts_basis
        self.ovoid_number = theta(self.kind, self.d, self.q, self.rank)

    # -- dense lookups -----------------------------------------------------

    @cached_property
    def index(self):
        """Point tuple -> point index, a read-only mapping over codes
        (_PointIndex), made on first use."""
        return _PointIndex(self.points_np, self.codes, self.q)

    @cached_property
    def codes(self):
        """The points' base-q codes, increasing (points are canonical and in
        code order)."""
        return self.points_np @ _powers(self.q, self.d)

    def locate(self, rows):
        """The indices of the points spanned by nonzero rows of element codes
        (shape (n, d)); raises if a row spans a point outside the space.

        The rows are canonicalised _linalg._SCAN_ROWS at a time, so the
        temporaries stay block-sized, and looked up through the bucket
        index (_bucket_index): j starts at the first point of the code's
        bucket, and each of a fixed number of vectorised halving steps moves
        it on by the step where the point code there is at most the row's.
        Buckets are code ranges, so the codes past a bucket are larger and j
        ends at the row's point if there is one.  A row outside the space,
        its code in a bucket or clipped to the first or last one, ends on a
        different code and raises."""
        codes, top = self.codes, self.num_points - 1
        out = np.empty(len(rows), dtype=np.int64)
        for r in range(0, len(rows), la._SCAN_ROWS):
            lo, shift, starts, steps = self._bucket_index
            x = canonical_codes(self.field, rows[r:r + la._SCAN_ROWS])
            j = starts.take((x - lo) >> shift, mode="clip")
            for step in steps:
                j += (codes.take(j + step, mode="clip") <= x) * step
            j = np.minimum(j, top)
            if not np.array_equal(codes[j], x):
                raise AssertionError("image point missing from space")
            out[r:r + la._SCAN_ROWS] = j
        return out

    @cached_property
    def _bucket_index(self):
        """(lo, shift, starts, steps), built on first use: the codes from lo
        on fall into buckets of 2^shift consecutive codes, the narrowest
        power of two that gives at most one bucket per four points (so at
        least one per eight), and the points of bucket b are starts[b] ..
        starts[b + 1] - 1, int32 offsets into codes.  steps are the
        descending powers of two, as int32, whose sum reaches from the
        first point of the fullest bucket to its last."""
        codes = self.codes
        lo = int(codes[0])
        span = int(codes[-1]) - lo + 1
        shift = ((span - 1) // max(1, self.num_points // 4)).bit_length()
        b = codes - lo
        b >>= shift
        counts = np.bincount(b)
        starts = np.zeros(len(counts) + 1, dtype=np.int32)
        np.cumsum(counts, out=starts[1:])
        width = int(counts.max() - 1).bit_length()
        return (lo, shift, starts,
                [np.int32(1 << t) for t in range(width - 1, -1, -1)])

    def theta_j(self, j):
        return theta(self.kind, self.d, self.q, j)

    @property
    def num_points(self):
        return len(self.points_np)

    @property
    def name(self):
        return space_name(self.kind, self.d, self.q)

    def descriptor(self):
        return {"kind": self.kind.value, "d": self.d, "q": self.q}

    def __repr__(self):
        return (f"PolarSpace({self.name}, rank={self.rank}, "
                f"theta={self.ovoid_number}, points={self.num_points})")


class _PointIndex(Mapping):
    """A polar space's points as a read-only mapping from coordinate tuples
    to indices, with no table of its own.  A key is looked up by its
    base-q code in the space's increasing codes, so only a tuple of d ints
    (numpy integers included) in range(q) that is a canonical point is
    found; a scalar multiple, an entry out of range, a bool or a float
    (gf.integer's rule), a wrong length or a non-tuple is a KeyError.
    Iteration yields the points as tuples in index order, one
    _linalg._SCAN_ROWS block of points at a time."""

    __slots__ = ("_points", "_codes", "_q")

    def __init__(self, points, codes, q):
        self._points, self._codes, self._q = points, codes, q

    def __getitem__(self, key):
        q, code = self._q, 0
        if not isinstance(key, tuple) or len(key) != self._points.shape[1]:
            raise KeyError(key)
        for x in key:
            if type(x) is not int:
                try:
                    x = gf.integer("coordinate", x)
                except ValueError:
                    raise KeyError(key) from None
            if not 0 <= x < q:
                raise KeyError(key)
            code = code * q + x
        i = int(self._codes.searchsorted(code))
        if i == len(self._codes) or self._codes[i] != code:
            raise KeyError(key)
        return i

    def __len__(self):
        return len(self._points)

    def __iter__(self):
        for r in range(0, len(self._points), la._SCAN_ROWS):
            yield from map(tuple, self._points[r:r + la._SCAN_ROWS].tolist())


_BUILD = object()


def build(form, allow_grid=False):
    """Enumerate the polar space of a nondegenerate form.

    The points are the canonical singular vectors (see the point
    representation below) in code order, found by one kernel for every
    field, _linalg.singular_points, which splits each vector into a head
    and a tail and evaluates the form on GF(p) digits.  Spaces over
    POINT_CAP points or SCAN_CAP projective points of F^d are refused
    before the scan.  The count is checked against the closed form and the
    greedy rank against the parameter table.

    The hyperbolic-quadric surface in projective 3-space (a grid, not a thick
    generalized quadrangle) degenerates most of the counting arguments here
    and is refused unless allow_grid is set (field reduction needs it as a
    source space).
    """
    kind, d, q = form.kind, form.dim, form.q
    if kind is FormKind.PLUS and d == 4 and not allow_grid:
        raise ValueError(f"{space_name(kind, d, q)} is a grid and is not supported")
    expected = expected_point_count(kind, d, q)
    if expected > POINT_CAP:
        raise ValueError(f"space too large: {expected} points exceeds cap {POINT_CAP}")
    scanned = (q ** d - 1) // (q - 1)
    if scanned > SCAN_CAP:
        raise ValueError(f"space too large: scanning {scanned} projective points "
                         f"exceeds cap {SCAN_CAP}")
    points = la.singular_points(form.field, form.data, form.sigma)
    if len(points) != expected:
        raise AssertionError(
            f"enumerated {len(points)} points, formula gives {expected}")
    ts = _greedy_ts_basis(form, points)
    r = rank_of(kind, d)
    if len(ts) != r:
        raise AssertionError(f"greedy rank {len(ts)} != expected rank {r}")
    return PolarSpace(form, points, ts, _token=_BUILD)


# -- the point representation ----------------------------------------------
#
# A projective point is its vector scaled so that the first nonzero
# coordinate is 1, and points are ordered by the big-endian base-q code of
# that vector, which equals lexicographic order on coordinate tuples.


def projective_vectors(F, d):
    """The canonical vectors of F^d, one per projective point, in code order:
    the rows of _linalg.projective_blocks, as tuples."""
    for block in la.projective_blocks(F, d):
        yield from map(tuple, block.tolist())


def _powers(q, d):
    """The weights q^(d-1), ..., q, 1 of the big-endian base-q code."""
    return q ** np.arange(d - 1, -1, -1, dtype=np.int64)


def canonical_codes(F, rows):
    """Base-q codes of the canonical vectors of nonzero rows: the one
    canonicaliser.  rows is an integer array of shape (n, d) of element
    codes, and the result is an int64 array of n codes (exact while
    q^d < 2^63)."""
    rows = np.asarray(rows, dtype=np.int64)
    lead = rows[np.arange(len(rows)), np.argmax(rows != 0, axis=1)]
    return F.mul_np(rows, F.inv_np[lead][:, None]) @ _powers(F.q, rows.shape[1])


# -- rank ------------------------------------------------------------------


def _greedy_ts_basis(form, points):
    """A maximal totally singular subspace, grown greedily through the point
    array (canonical, in code order): take the first point still alive,
    then strike every point not perpendicular to it and every point of the
    span so far, by code (the span is tiny: at most theta-many points).
    Maximality is certified by exhausting all points; the resulting
    dimension is the rank (all maximal TS subspaces share it)."""
    F, p = form.field, form.field.p
    d = points.shape[1]
    basis = []
    live = points   # the points still alive, in code order
    while len(live):
        basis.append(tuple(live[0].tolist()))
        if 2 * len(basis) > d:   # also bounds the span enumeration below
            raise AssertionError("greedy totally singular basis exceeds d/2")
        keep = la.zero_groups(F.digit_rows(live), form.pair_matrix(live[:1]),
                              p, F.f)[:, 0]
        coeffs = F.digit_rows(np.concatenate(list(la.projective_blocks(F, len(basis)))))
        span = F.code_rows(la.mulmod(coeffs, la.expand(F, np.array(basis)), p))
        # one coefficient vector per projective point, so the span's codes
        # are distinct and assume_unique holds (np.unique imports numpy.ma)
        keep &= ~np.isin(live @ _powers(F.q, d), canonical_codes(F, span),
                         assume_unique=True)
        live = live[keep]
    return tuple(basis)


# -- point sets ------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PointSet:
    """A subset of a polar space's points, as one sorted, duplicate-free,
    read-only int64 array of indices.

    members may be an integer array (not bool) of one dimension, or any
    other iterable of ints, numpy integers included; anything else, a bool
    included, is a ValueError naming it.  Members that are not strictly
    increasing are marked on a mask over the space's points and read back
    in order, which sorts and deduplicates them without np.unique (it
    imports numpy.ma) or a sort (its first call maps the sort's code into
    memory, about 0.2 MiB).  Two sets are equal when they share the space
    object and their members."""

    space: PolarSpace
    members: np.ndarray

    def __post_init__(self):
        ms = self.members
        if isinstance(ms, np.ndarray):
            if ms.dtype.kind not in "iu":   # a bool array is kind "b"
                raise ValueError(f"point indices of dtype {ms.dtype} are not ints")
            if ms.ndim != 1:
                raise ValueError(f"point indices form a {ms.ndim}-d array, not 1-d")
            # a copy; uint64 indices from 2^63 wrap negative and fail the
            # range check below
            ms = ms.astype(np.int64)
        else:
            ms = _index_array(list(ms))
        n = self.space.num_points
        if len(ms) and (ms.min() < 0 or ms.max() >= n):
            raise ValueError("point index out of range")
        if len(ms) > 1 and not (ms[1:] > ms[:-1]).all():
            inside = np.zeros(n, dtype=bool)
            inside[ms] = True
            ms = np.flatnonzero(inside)
        ms.setflags(write=False)
        object.__setattr__(self, "members", ms)

    def __len__(self):
        return len(self.members)

    def __contains__(self, i):
        """Whether i is a member index; by the constructor's rule
        (gf.integer's) a bool or a float never is."""
        try:
            i = gf.integer("point index", i)
        except ValueError:
            return False
        j = self.members.searchsorted(i)
        return bool(j < len(self.members) and self.members[j] == i)

    def __eq__(self, other):
        if not isinstance(other, PointSet):
            return NotImplemented
        return (self.space is other.space
                and np.array_equal(self.members, other.members))

    def __hash__(self):
        return hash((self.space, self.members.tobytes()))

    def complement(self):
        outside = np.ones(self.space.num_points, dtype=bool)
        outside[self.members] = False
        return PointSet(self.space, np.flatnonzero(outside))

    def vectors(self):
        """The members' points as tuples of int codes, in index order."""
        return tuple(map(tuple, self.space.points_np[self.members].tolist()))

    def serialize(self):
        return {"space_descriptor": self.space.descriptor(),
                "indices": self.members.tolist()}

    def __repr__(self):
        return f"PointSet({self.space.name}, {len(self.members)} points)"


def _index_array(members):
    """A list of point indices as an int64 array.  Plain ints are taken as
    they are and anything else by gf.integer's rule, which refuses a bool;
    the first member that is no int is named."""
    if not set(map(type, members)) <= {int}:
        members = [gf.integer("point index", i) for i in members]
    try:
        return np.array(members, dtype=np.int64)
    except OverflowError:   # beyond int64, so beyond every space
        raise ValueError("point index out of range") from None


def full_set(space):
    return PointSet(space, np.arange(space.num_points))


def perp_residual(space, W):
    """The points of the space lying in W^perp (all of it for W = 0)."""
    if W.ambient != space.d:
        raise ValueError("subspace ambient dimension mismatch")
    return PointSet(space, perp_indices(space, W.rows))


def perp_indices(space, rows):
    """The indices of the points perpendicular to all of rows: those whose
    digits make the one group of the rows' pair functionals vanish, by
    _linalg.zero_groups, _linalg._SCAN_ROWS points at a time."""
    if not len(rows):
        return np.arange(space.num_points)
    F, points = space.field, space.points_np
    G = space.form.pair_matrix(rows)
    ok = [np.zeros(0, dtype=bool)] + [
        la.zero_groups(F.digit_rows(points[r:r + la._SCAN_ROWS]), G, F.p,
                       G.shape[1])[:, 0]
        for r in range(0, len(points), la._SCAN_ROWS)]
    return np.flatnonzero(np.concatenate(ok))


def maximal_ts_points(space):
    """The points of the standard (greedily built) maximal TS subspace: the
    images of the projective points of F^r under x -> x B, B the basis."""
    F = space.field
    if not space.ts_basis:
        return PointSet(space, ())
    basis = la.expand(F, space.ts_basis)
    images = [F.code_rows(la.mulmod(F.digit_rows(block), basis, F.p))
              for block in la.projective_blocks(F, len(space.ts_basis))]
    return PointSet(space, space.locate(np.concatenate(images)))


def nonsingular_point_with_residual(space, sign):
    """First canonical nonsingular projective point whose perp meets the form
    in a nondegenerate restriction of the given kind (e.g. MINUS for an
    elliptic residual).  Deterministic; used by the constructive examples."""
    sign = fm.parse_kind(sign)
    F = space.field
    for v in projective_vectors(F, space.d):
        if space.form.evaluate(v) == 0:
            continue
        S = Subspace.span(F, [v])
        rep = fm.classify_restriction(space.form, fm.perp(space.form, S))
        if rep.kind is sign and rep.nondegenerate:
            return S
    raise ValueError(f"no nonsingular point with {sign.name} residual")


def first_subspace_of_type(space, dim, sign):
    """First dim-subspace (in the canonical projective-vector order) whose
    restriction is nondegenerate of the given kind.  The kind and dimension
    fix the restriction's Witt index, and it contains a singular point
    exactly when that index is positive: an elliptic line of Q^-(5,2), for
    one, is anisotropic.  Scans combinations, so only meant for dim <= 3 at
    desk scale."""
    sign = fm.parse_kind(sign)
    F = space.field
    if dim > 3:
        raise ValueError("subspace scan is limited to dim <= 3")
    for combo in itertools.combinations(projective_vectors(F, space.d), dim):
        S = Subspace.span(F, list(combo))
        if S.dim != dim:
            continue
        rep = fm.classify_restriction(space.form, S)
        if rep.kind is sign and rep.nondegenerate:
            return S
    raise ValueError(f"no {sign.name} subspace of dimension {dim} found")

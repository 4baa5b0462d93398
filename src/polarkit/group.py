"""Semisimilarities, generator sets for the classical groups used in the
examples, and the orbit engine on polar-space points.

Actions are on row vectors: v.g = (v^sigma) M, with the field automorphism
applied entrywise first.  Composition is left-to-right, (A,s)(B,t) = (A^t B,
s+t), so v.(gh) = (v.g).h.
"""

import itertools
import json
import math
import random
from functools import cached_property

import numpy as np

from . import _linalg as la
from . import gf
from . import polar as pl
from .forms import FormKind
from .polar import PointSet

VECTOR_CAP = 2_000_000


class Semisimilarity:
    """An invertible semilinear map recorded as (matrix, sigma_power), made
    together with its inverse, each knowing the other.

    The multiplier is not stored by callers; it is recovered from a nonzero
    form value during validation, which leaves fewer ways to supply
    inconsistent data.
    """

    __slots__ = ("field", "matrix", "sigma_power", "_inverse")

    def __init__(self, field, matrix, sigma_power=0):
        matrix = gf.element_codes(field, matrix)
        d = len(matrix)
        if any(len(r) != d for r in matrix):
            raise ValueError("matrix must be square")
        s = gf.integer("sigma_power", sigma_power) % field.f
        inv = la.mat_inv(field, matrix)   # an array; raises if singular
        self._link(field, matrix, field.frobenius_np(inv, -s).tolist(), s)

    def _link(self, F, M, Minv, s):
        """Make self the map (M, s) and a new map (Minv, -s) its inverse,
        each linked to the other; the caller has proved that they invert.
        The one constructor: __init__ runs it on checked input, _pairs on
        matrices whose inverses are known.  M and Minv are rows of codes."""
        inv = object.__new__(Semisimilarity)
        for g, A, k in ((self, M, s), (inv, Minv, -s)):
            g.field = F
            g.matrix = tuple(map(tuple, A))
            g.sigma_power = k % F.f
        self._inverse, inv._inverse = inv, self
        return self

    @classmethod
    def _pairs(cls, F, M, Minv, s=0):
        """Maps (M[k], s) for the code stack M (n, d, d), each linked to
        (Minv[k], -s) as its inverse: the caller has proved the inverses."""
        return [object.__new__(cls)._link(F, m.tolist(), minv.tolist(), s)
                for m, minv in zip(M, Minv)]

    @property
    def dim(self):
        return len(self.matrix)

    def apply(self, v):
        F = self.field
        if self.sigma_power:
            v = tuple(F.frobenius(x, self.sigma_power) for x in v)
        return la.vec_mat(F, v, self.matrix)

    def __mul__(self, other):
        """gh and its inverse h^-1 g^-1 from one stacked product: with
        h^-1 = (B', t') and g^-1 = (A', s'), gh = (A^t B, s + t) and
        h^-1 g^-1 = (B'^s' A', t' + s')."""
        F = self.field
        if F is not other.field:
            raise ValueError("mismatched fields")
        gi, hi = self._inverse, other._inverse
        P = la.mat_mul_np(F, np.stack((F.frobenius_np(self.matrix, other.sigma_power),
                                       F.frobenius_np(hi.matrix, gi.sigma_power))),
                          np.array((other.matrix, gi.matrix), dtype=np.int64))
        return Semisimilarity._pairs(F, P[:1], P[1:],
                                     self.sigma_power + other.sigma_power)[0]

    def inverse(self):
        """The inverse map, made with self."""
        return self._inverse

    def serialize(self):
        F = self.field
        return {"matrix": [[F.coeffs(x) for x in row] for row in self.matrix],
                "sigma_power": self.sigma_power}

    def __eq__(self, other):
        return (isinstance(other, Semisimilarity) and self.field is other.field
                and self.matrix == other.matrix
                and self.sigma_power == other.sigma_power)

    def __hash__(self):
        return hash((id(self.field), self.matrix, self.sigma_power))

    def __repr__(self):
        return f"Semisimilarity(d={self.dim}, sigma={self.sigma_power})"


def multiplier(form, g):
    """The multiplier lambda of g for the form, or ValueError if g is not a
    semisimilarity.

    Row i of M is the image of e_i, so the form on image pairs is the Gram
    congruence H = M G (M^tau)^T, with tau the Hermitian conjugation (trivial
    otherwise).  g is a semisimilarity exactly when H = lambda G^(sigma^s)
    entrywise and, for quadratic forms, Q(M_i) = lambda Q(e_i)^(sigma^s) on
    the basis; together these pin the identity on the whole space.  Both
    sides are Form.frame_values, of Form.frame(M) for the image frame and
    of the form's matrix itself (cached in Form.basis_values) for the basis:
    one frame product and one array comparison; lambda comes from the
    first nonzero basis value.
    """
    F = form.field
    if g.dim != form.dim or g.field is not F:
        raise ValueError("dimension or field mismatch")
    vals, zero, first = form.basis_values
    got = form.frame_values(form.frame(g.matrix))
    if got[zero].any():
        raise ValueError("form invariance fails (zero value moved)")
    s = g.sigma_power
    lam = F.div(int(got[first]), F.frobenius(int(vals[first]), s))
    if lam == 0:
        raise ValueError("could not recover a multiplier")
    if not np.array_equal(got, F.mul_np(lam, F.frobenius_np(vals, s))):
        raise ValueError("form invariance fails")
    return lam


class GeneratorSet:
    """An immutable list of semisimilarities over one field and dimension.

    elements is the given list closed under inversion: the inverses not
    already present are appended in order, and a given duplicate stays.
    It is what serialize writes and what callers index.  generators is the
    given list in its given order with one element kept from each inverse
    pair and one copy of any duplicate.  It generates the same group, and g
    and g^-1 give the same orbit graph, so the orbit engine and the
    certificate image only generators.
    """

    def __init__(self, field, elements, label=""):
        elements = list(elements)
        if not elements:
            raise ValueError("empty generator set")
        d = elements[0].dim
        for g in elements:
            if g.field is not field or g.dim != d:
                raise ValueError("generators must share field and dimension")
        present = set(elements)
        generators, kept = [], set()
        for g in list(elements):
            gi = g.inverse()
            if g not in kept and gi not in kept:
                generators.append(g)
                kept.add(g)
            if gi not in present:
                elements.append(gi)
                present.add(gi)
        self.field = field
        self.dim = d
        self.elements = tuple(elements)
        self.generators = tuple(generators)
        self.label = label

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def serialize(self):
        return {"q": self.field.q, "d": self.dim,
                "generators": [g.serialize() for g in self.elements]}

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.serialize(), fh, indent=1)

    @classmethod
    def load(cls, path, label=None):
        with open(path) as fh:
            data = json.load(fh)
        return cls.deserialize(data, label=label or str(path))

    @classmethod
    def deserialize(cls, data, label=""):
        for key in ("generators", "q", "d"):
            if not isinstance(data, dict) or key not in data:
                raise ValueError(f"generator data has no {key!r} entry")
        if not isinstance(data["generators"], list):
            raise ValueError("'generators' is not a list")
        F = gf.field_of_order(gf.integer("header entry 'q'", data["q"]))
        d = gf.integer("header entry 'd'", data["d"])

        def decode(c):
            # entries are coefficient lists as written by serialize(), but a
            # hand-written file may use plain int codes, which
            # Semisimilarity checks
            if not isinstance(c, list):
                return c
            if not all(type(x) is int and 0 <= x < F.p for x in c):
                raise ValueError(f"coefficient list {c} is not a list of "
                                 f"ints in range({F.p})")
            return F.from_coeffs(c)

        gens = []
        for k, item in enumerate(data["generators"]):
            if isinstance(item, list):
                item = {"matrix": item}
            try:
                if not isinstance(item, dict) or "matrix" not in item:
                    raise ValueError("no 'matrix' entry")
                if not isinstance(item["matrix"], list):
                    raise ValueError("'matrix' is not a list of rows")
                for i, row in enumerate(item["matrix"]):
                    if not isinstance(row, list):
                        raise ValueError(f"matrix row {i} is {row!r}, not a list")
                M = [[decode(c) for c in row] for row in item["matrix"]]
                if len(M) != d:
                    raise ValueError("matrix dimension disagrees with header")
                gens.append(Semisimilarity(F, M, item.get("sigma_power", 0)))
            except ValueError as exc:
                raise ValueError(f"generator {k}: {exc}") from None
        return cls(F, gens, label=label)

    def __repr__(self):
        return f"GeneratorSet({len(self.elements)} elements, d={self.dim}, q={self.field.q})"


class OrbitPartition:
    """Orbit labels per point in one read-only int64 array; a label is the
    smallest point index in its orbit.  Only orbits() builds one."""

    def __init__(self, space, labels, _token=None):
        if _token is not _ORBITS:
            raise TypeError("use group.orbits(space, gens)")
        labels.setflags(write=False)
        self.space = space
        self.labels = labels

    @property
    def orbit_sizes(self):
        return tuple(sorted(np.bincount(self.labels)[list(self.orbit_labels)].tolist()))

    @cached_property
    def orbit_labels(self):
        # the points that are their own label (np.unique imports numpy.ma)
        return tuple(np.flatnonzero(self.labels == np.arange(len(self.labels))).tolist())

    def orbit(self, label):
        return PointSet(self.space, np.flatnonzero(self.labels == label))

    def orbit_sets(self):
        return [self.orbit(l) for l in self.orbit_labels]

    @property
    def n_orbits(self):
        return len(self.orbit_labels)

    def serialize(self):
        return {"space_descriptor": self.space.descriptor(),
                "orbit_sizes": list(self.orbit_sizes),
                "labels": self.labels.tolist()}


_ORBITS = object()


def _validate_gens(form, gens):
    """The multipliers of the generators; a generator that is not a
    semisimilarity raises ValueError naming its index."""
    lams = []
    for i, g in enumerate(gens):
        try:
            lams.append(multiplier(form, g))
        except ValueError as exc:
            raise ValueError(f"generator {i} rejected: {exc}") from None
    return lams


def orbits(space, gens):
    """Exact orbit partition of the generated group on the space's points.

    Every generator is checked for form invariance first; a failure names the
    offending index and no orbit work happens.  gens.generators, one
    element of each inverse pair, are then taken in order: each one's image
    of the whole point list becomes an index array, and _close merges the
    components of the graph i -- g(i), which g^-1 would only repeat.  Work
    stops once a single orbit remains, which no later generator can refine.
    Deterministic: labels are canonical (smallest member index),
    independent of generator order.
    """
    _validate_gens(space.form, gens.elements)
    labels = _close(space.num_points, _point_images(space, gens.generators))
    return OrbitPartition(space, labels, _token=_ORBITS)


def _point_images(space, gens):
    """Each generator's image of the point list as an index array, lazily.

    Every semilinear map of GF(q)^d is GF(p)-linear on the digits
    (la.expand), so exact mulmods move the points, and PolarSpace.locate
    finds the images through its bucket index of the point codes (it
    raises on an image outside the space).  The work streams in blocks of at most
    la._SCAN_ROWS image rows: on a space of n <= la._SCAN_ROWS points a
    block is _SCAN_ROWS // n whole generators, their expanded matrices side
    by side in one product; on a larger space it is a slice of one
    generator.  A block is imaged when its first generator is drawn, so a
    caller that stops early (orbits, once transitive) leaves later blocks
    undone.
    """
    F, n = space.field, space.num_points
    X = F.digit_rows(space.points_np)
    gens = list(gens)
    step, rows = max(1, la._SCAN_ROWS // n), min(n, la._SCAN_ROWS)
    for i in range(0, len(gens), step):
        chunk = gens[i:i + step]
        E = np.concatenate([la.expand(F, g.matrix, g.sigma_power)
                            for g in chunk], axis=1)
        out = np.empty((len(chunk), n), dtype=np.int64)
        for r in range(0, n, rows):
            found = space.locate(_image_rows(F, X[r:r + rows], E))
            out[:, r:r + rows] = found.reshape(-1, len(chunk)).T
        yield from out


def _image_rows(F, X, E):
    """The element-code rows of the images of the GF(p) digit rows X under
    c semilinear maps, E their expanded matrices side by side: row i*c + j
    is row i under map j, exact by the rule of _linalg's docstring."""
    return F.code_rows(la.mulmod(X, E, F.p)).reshape(-1, E.shape[0] // F.f)


def _close(n, images):
    """Connected components of the graph on range(n) with the edges
    i -- img[i] for every index array img drawn from images.

    Returns labels, each the smallest index of its component.  Union by
    min-root hooking with pointer jumping: labels always point at roots, a
    root is the smallest index of its tree, and a root only hooks onto a
    smaller one (any of them, when several edges leave it), so the result
    does not depend on the order of the images.  No more images are drawn
    once every label is 0.
    """
    labels = np.arange(n, dtype=np.int64)
    for img in images:
        while True:
            a, b = labels, labels[img]
            moved = a != b
            if not moved.any():
                break
            a, b = a[moved], b[moved]
            labels[np.maximum(a, b)] = np.minimum(a, b)
            while True:
                jumped = labels[labels]
                if np.array_equal(jumped, labels):
                    break
                labels = jumped
        if not labels.any():
            break
    return labels


def vector_orbit_lists(gens):
    """The orbits of the generated group on the nonzero vectors of F^d.

    Each orbit is a list of vectors in lexicographic order; orbits are listed
    by their first vector.  Same engine as orbits(), over gens.generators: a
    vector's index is its big-endian base-q code minus one.  No form
    validation (see vector_orbits).
    """
    F, d = gens.field, gens.dim
    q = F.q
    total = q ** d - 1
    if total > VECTOR_CAP:
        raise ValueError(f"too many vectors: {total} exceeds cap {VECTOR_CAP}")
    vecs = list(itertools.product(F.elements(), repeat=d))[1:]
    X = F.digit_rows(vecs)
    powvec = q ** np.arange(d - 1, -1, -1, dtype=np.int64)
    images = (_image_rows(F, X, la.expand(F, g.matrix, g.sigma_power))
              @ powvec - 1 for g in gens.generators)
    labels = _close(total, images)
    members = {}
    for v, label in zip(vecs, labels.tolist()):
        members.setdefault(label, []).append(v)
    return list(members.values())


def vector_orbits(form, gens):
    """Orbit sizes on the nonzero vectors of the form's space (capped)."""
    _validate_gens(form, gens.elements)
    return tuple(sorted(len(o) for o in vector_orbit_lists(gens)))


# -- classical generator sets ----------------------------------------------


_FAMILY_KIND = {
    "Sp": FormKind.SYMPLECTIC,
    "SU": FormKind.HERMITIAN,
    "Omega": FormKind.PARABOLIC,
    "OmegaPlus": FormKind.PLUS,
    "OmegaMinus": FormKind.MINUS,
}


def classical_generators(family, d, field, self_check=True):
    """Generators for the named isometry group on the standard form.

    The family is a name of _FAMILY_KIND or anything parse_kind reads.
    The source set is built first: Sp and SU get transvections along O(d)
    vectors with the parameter over a GF(p)-basis (see
    _symplectic_transvections, _unitary_transvections); the Omega families
    use Eichler transformations anchored at the first hyperbolic pair, with
    v scaled by a GF(p)-basis of GF(q).

    With self_check (the default) the result is two seeded random words in
    the source, drawn by _certified_pair until a pair passes _certify:
    every word is an isometry of determinant 1, and a Schreier-Sims run on
    the point permutations proves that the pair's image on the polar points
    has the closed-form order of the family's projective group.  Every
    later orbit run and every map induced from the set then costs two
    generators, not the whole source.  Without self_check the source set
    itself is returned, uncertified: it is the construction, fixed by how
    it is built rather than by a random draw, so callers that index its
    elements or pin its serialized form see the same list in every
    version.
    """
    from . import forms as fm
    if family not in _FAMILY_KIND:
        kind = fm.parse_kind(family)
        family = next(name for name, k in _FAMILY_KIND.items() if k is kind)
    kind = _FAMILY_KIND[family]
    if d > 14 or field.q > 9:
        raise ValueError("generator construction supported at desk scale only")
    form = fm.standard_form(kind, d, field)
    if kind is FormKind.SYMPLECTIC:
        gens = _symplectic_transvections(form)
    elif kind is FormKind.HERMITIAN:
        gens = _unitary_transvections(form)
        if (d, field.q) == (3, 4):
            gens += _su32_fourier(field)
    else:
        gens = _eichler_generators(form)
    gs = GeneratorSet(field, gens, label=f"{family}({d},{field.q})")
    if not self_check:
        return gs
    allow_grid = kind is FormKind.PLUS and d == 4
    return _certified_pair(pl.build(form, allow_grid=allow_grid), gs,
                           point_image_order(family, d, field.q))


def point_image_order(family, d, q):
    """The order of the family's group on its standard form, acting on the
    polar points: |PSp(d,q)|, |PSU(d,q0)| (q = q0^2) or |POmega^e(d,q)|, the
    order of the group divided by the scalars it contains.  The scalars are
    the kernel of the action once the singular points contain a frame, as
    they do for d >= 3 and for the lines of Sp and SU.  Omega+(2, q) is
    diagonal and fixes both points of Q+(1, q): its image is trivial.
    Sp(2m, q) and Omega(2m+1, q) have the same order."""
    prod = math.prod
    m = d // 2
    if (family, d) == ("OmegaPlus", 2):
        return 1
    if family in ("Sp", "Omega"):
        order = q ** (m * m) * prod(q ** (2 * i) - 1 for i in range(1, m + 1))
        return order // math.gcd(2, q - 1)
    if family == "SU":
        q0 = math.isqrt(q)
        order = q0 ** (d * (d - 1) // 2) * prod(
            q0 ** i - (-1) ** i for i in range(2, d + 1))
        return order // math.gcd(d, q0 + 1)
    eps = {"OmegaPlus": 1, "OmegaMinus": -1}[family]
    order = q ** (m * (m - 1)) * (q ** m - eps) * prod(
        q ** (2 * i) - 1 for i in range(1, m))
    return order // math.gcd(4, q ** m - eps)


_STALL = 32   # consecutive trivial sifts after which a shortfall is final
_DRAWS = 64   # pairs of words drawn before a source is refused


def _certified_pair(space, source, order):
    """The first of the pairs of random words in source (_random_words,
    seeded, taken two at a time) whose _certify product reaches `order`, as
    a GeneratorSet with the source's label.

    The words are products of the source's elements, so they lie in the
    group it generates, and _certify's checks and order argument apply to
    the pair unchanged.  A pair that falls short of `order` is only an
    unlucky draw and the next one is tried; after _DRAWS of them the
    source is refused with AssertionError naming its label.  A product
    above `order`, a basic orbit that does not grow, or a word that is not
    a special isometry shows a defect and raises at once, as in _certify.
    """
    F = source.field
    words = _random_words(source, random.Random(0))
    for _ in range(_DRAWS):
        M, Minv = np.stack((next(words), next(words)), axis=1)
        pair = GeneratorSet(F, Semisimilarity._pairs(F, M, Minv),
                            label=source.label)
        if _certify(space, pair, order) == order:
            return pair
    raise AssertionError(
        f"{source.label} failed its self-check: none of the first {_DRAWS} "
        f"pairs of random words generates a group of order {order} on points")


def _random_words(gs, rng):
    """Random elements of the group generated by gs, each as a (2, d, d)
    code array of its matrix and its inverse's: product replacement with an
    accumulator (Celler et al., 1995) on the matrices of gs.generators, as
    _random_elements runs it on permutations.

    The maps are linear (sigma power 0) and know their inverses, and the
    inverse of a product is the product of the inverses in reverse order,
    so one mat_mul_np over a stack of four makes a step: s_i <- s_i s_j and
    acc <- acc s_i (the s_i before the step), each with its inverse.  No
    elimination inverts a matrix, and no Semisimilarity is built."""
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
        if step >= 50:        # the first 50 steps only mix the state
            yield acc


def _certify(space, gs, order):
    """The product of the basic orbit lengths of a stabiliser chain for the
    group gs generates on the space's points: `order` once the chain
    reaches it, or the shortfall left after _STALL consecutive random
    elements sift to the identity.  It raises only on a defect.

    Each of gs.generators must be an isometry (multiplier 1, sigma power 0)
    of determinant 1, so the generated group lies in the special isometry
    group; the inverses and duplicates that gs.elements adds are special
    isometries too and are not checked again (a failure raises ValueError
    naming the index in gs.generators).  A random Schreier-Sims run
    (Seress, Permutation Group Algorithms, 2003) on the point permutations
    of gs.generators then builds a base and strong generators; in a finite
    group g^-1 is a power of g, so the appended inverses add nothing.
    Every strong generator is a word in gs, so the product is a lower bound
    on the order of the generated image, and the run stops once it reaches
    `order`.  For Sp and SU that is the order of the whole special isometry
    group's image; the Eichler transformations lie in Omega, whose image
    has that order.  A product above `order`, or a level whose basic orbit
    stays of length 1 after a residue that moves its base is added, is a
    defect and raises AssertionError.  Random elements come from product
    replacement with a fixed seed: the run is deterministic.  For d >= 3
    the whole group is transitive on the points, so a certified set is too
    and needs no orbit check of its own.
    """
    F = space.field
    gens = gs.generators
    dets = la.det(F, [g.matrix for g in gens])
    for i, (g, lam) in enumerate(zip(gens, _validate_gens(space.form, gens))):
        if lam != 1 or g.sigma_power or dets[i] != 1:
            raise ValueError(f"generator {i} rejected: not a special isometry "
                             f"(multiplier {lam}, sigma power {g.sigma_power})")
    perms = list(_point_images(space, gs.generators))
    n = space.num_points
    levels = [_Level(n, 0, perms)]
    found = len(levels[0].orbit)
    stall = 0
    randoms = _random_elements(perms, random.Random(0))
    while found < order:
        if stall == _STALL:
            return found
        h, i = _sift(levels, next(randoms))
        if i == len(levels):
            moved = np.flatnonzero(h != np.arange(n))
            if not moved.size:
                stall += 1
                continue
            levels.append(_Level(n, int(moved[0]), []))
        stall = 0
        for lv in levels[1:i + 1]:
            lv.add(h)
        if len(levels[i].orbit) == 1:
            raise AssertionError(
                f"{gs.label}: level {i} of the stabiliser chain has a basic "
                f"orbit of length 1 after adding a residue that moves its base")
        found = math.prod(len(lv.orbit) for lv in levels)
    if found > order:
        raise AssertionError(f"{gs.label} generates a group of order at least "
                             f"{found} on points, above {order}")
    return found


class _Level:
    """One level of a stabiliser chain: a base point, the strong generators
    that fix the earlier base points with their inverse permutations, and
    the basic orbit as a Schreier vector (for each orbit point the point it
    was reached from and the generator that took it there; -1 off the
    orbit).  The orbit stays closed under the strong generators, and add
    extends it in place."""

    def __init__(self, n, base, gens):
        self.base = base
        self.gens, self.invs = [], []
        self.parent = np.full(n, -1, dtype=np.int64)
        self.via = np.full(n, -1, dtype=np.int64)
        self.parent[base] = base
        self.orbit = np.array([base], dtype=np.int64)
        self._extend(gens)

    def add(self, g):
        self._extend([g])

    def _extend(self, new):
        """Append the generators new.  The orbit so far is closed under the
        earlier ones, so only new is applied to all of it; after that,
        every generator is applied to the newly reached points only."""
        k = len(self.gens)
        for g in new:
            inv = np.empty_like(g)
            inv[g] = np.arange(len(g))
            self.gens.append(g)
            self.invs.append(inv)
        parent, via = self.parent, self.via
        movers = list(enumerate(self.gens))[k:]
        frontier = self.orbit
        layers = [frontier]
        while frontier.size and movers:
            nxt = []
            for j, s in movers:
                img = s[frontier]
                fresh = parent[img] < 0
                img = img[fresh]
                parent[img] = frontier[fresh]
                via[img] = j
                nxt.append(img)
            frontier = np.concatenate(nxt)
            layers.append(frontier)
            movers = list(enumerate(self.gens))
        self.orbit = np.concatenate(layers)


def _sift(levels, g):
    """Strip g through the chain: (residue, level).  The level is where
    the residue's base image left the basic orbit, len(levels) if it fixes
    every base point."""
    for i, lv in enumerate(levels):
        x = g[lv.base]
        if lv.parent[x] < 0:
            return g, i
        while x != lv.base:       # multiply by the transversal's inverse
            g = lv.invs[lv.via[x]][g]
            x = lv.parent[x]
    return g, len(levels)


def _random_elements(perms, rng):
    """Random elements of the group generated by perms, by product
    replacement (Celler et al., 1995) with an accumulator."""
    state = [perms[i % len(perms)] for i in range(max(10, len(perms)))]
    acc = np.arange(len(perms[0]))
    for step in itertools.count():
        i, j = rng.sample(range(len(state)), 2)
        state[i] = state[j][state[i]]
        acc = state[i][acc]
        if step >= 50:        # the first 50 steps only mix the state
            yield acc


def _identity_plus(F, C, R):
    """The maps x -> x + (x C_k) R_k, Semisimilarities with the matrices
    I + C_k R_k and their inverses, for stacked code arrays C (n, d, r) and
    R (n, r, d): transvections for r = 1, Eichler transformations for r = 2.

    The inverse of I + C R is I + C S with S = sum_{k=1..r} (-1)^k (RC)^(k-1) R,
    by Horner's rule.  (I + C R)(I + C S) = I + C (R + S + (RC) S), so the
    r x d identity R + S + (RC) S = 0, checked over the whole stack, proves
    it; it holds when (RC)^r = 0, as it does here (RC = 0 for a
    transvection along an isotropic v, and RC has only a lower-left entry
    for an Eichler map, u being singular and perpendicular to v).  Each
    product is one mat_mul_np over the whole stack; no elimination runs."""
    C = np.asarray(C, dtype=np.int64)
    R = np.asarray(R, dtype=np.int64)
    RC = la.mat_mul_np(F, R, C)
    minus = F.neg(1)
    X = R
    for _ in range(R.shape[1] - 1):
        NX = F.mul_np(minus, la.mat_mul_np(F, RC, X))
        X = la.sum_np(F, np.stack((R, NX)))
    S = F.mul_np(minus, X)
    if la.sum_np(F, np.stack((R, S, la.mat_mul_np(F, RC, S)))).any():
        raise ValueError("I + C S does not invert I + C R: (RC)^r != 0")
    I = np.eye(C.shape[1], dtype=np.int64)
    M, Minv = (la.sum_np(F, np.stack(np.broadcast_arrays(
        I, la.mat_mul_np(F, C, Y)))) for Y in (R, S))
    return Semisimilarity._pairs(F, M, Minv)


def _symplectic_transvections(form):
    """Transvections x -> x + t kappa(x, v) v along v in {e_i} and
    {e_i + e_{i+1}}, with t over the GF(p)-basis omega^k (k < f) of GF(q):
    (2d - 1) f maps.  t -> T_{v,t} is additive, so each v contributes its
    whole root group."""
    F, d = form.field, form.dim
    I = np.eye(d, dtype=np.int64)
    return _transvections(form, np.concatenate((I, I[:-1] + I[1:])),
                          F.exp_np[:F.f])


def _transvections(form, V, ts):
    """The transvections x -> x + t kappa(x, v) v for the rows v of V and
    the scalars t, v major: I + C R with the column t kappa(., v) in C and
    the row v in R."""
    W = form.field.mul_np(form.pair_functional(V)[:, None], ts[:, None])
    return _identity_plus(form.field, W.reshape(-1, form.dim, 1),
                          np.repeat(V, len(ts), axis=0)[:, None])


def _unitary_transvections(form):
    """Unitary transvections x -> x + lam kappa(x, v) v, v isotropic, along
    e_i + a e_{i+1} for every a with a^(q0+1) = -1 and along the first d
    isotropic vectors of weight >= 3 in point order, with lam over a
    GF(p)-basis of the trace-zero line {lam : lam + lam^q0 = 0}."""
    F, d = form.field, form.dim
    s = form.sigma
    q0 = F.p ** s
    minus_one = F.neg(1)
    lam0 = next(x for x in F.units() if F.add(x, F.frobenius(x, s)) == 0)
    omega0 = F.exp[q0 + 1]   # primitive in GF(q0), so its powers k < s span it
    lams = np.array([F.mul(lam0, F.pow(omega0, k)) for k in range(s)])
    roots = [a for a in F.units() if F.pow(a, q0 + 1) == minus_one]
    V = np.zeros((d - 1, len(roots), d), dtype=np.int64)
    for i in range(d - 1):
        V[i, :, i], V[i, :, i + 1] = 1, roots
    heavy = (v for v in pl.projective_vectors(F, d)
             if sum(1 for x in v if x) >= 3 and form.evaluate(v) == 0)
    V = np.concatenate((V.reshape(-1, d),
                        np.array(list(itertools.islice(heavy, d)),
                                 dtype=np.int64).reshape(-1, d)))
    if not len(V):
        raise ValueError("no isotropic directions: unitary transvections need rank >= 1")
    return _transvections(form, V, lams)


def _su32_fourier(F):
    """Two elements that complete SU(3,2)'s transvections, the one case
    where the transvections do not generate SU(d, q0).  PSU(3,2) = 3^2:Q8
    and the transvections generate 3^2:2, the 2 being the centre of Q8; Q8
    is not cyclic, so one element more does not suffice.  These are the
    Fourier matrix D = (eta^(ij)), unitary because D D^* = 3I = I in
    characteristic 2, and its conjugate by diag(eta, 1, 1) in GU(3,2).
    D^-1 is D^* = (eta^(2ij)), and the conjugate's inverse is the
    conjugate of D^-1; the products with the matrices are checked to be
    I."""
    eta = F.exp[1]
    D = np.array([[[F.pow(eta, e * i * j) for j in range(3)] for i in range(3)]
                  for e in (1, 2)])                    # D and D^-1
    c = np.array([eta, 1, 1])
    DC = F.mul_np(F.mul_np(F.inv_np[c][:, None], D), c)   # diag(c)^-1 D diag(c)
    M, Minv = np.stack((D, DC), axis=1)
    if not (la.mat_mul_np(F, M, Minv) == np.eye(3, dtype=np.int64)).all():
        raise AssertionError("the Fourier matrices are not inverted")
    return Semisimilarity._pairs(F, M, Minv)


def _eichler_generators(form):
    """Eichler (Siegel) transformations rho_{u,v} for u in the first
    hyperbolic pair and v running over a spanning set of u^perp, each
    scaled by every omega^k (k < f), a GF(p)-basis of GF(q):
    x -> x + B(x,v)u - B(x,u)v - Q(v)B(x,u)u, that is I + C R with the
    columns B(., v) and -B(., u) in C and the rows u and v + Q(v)u in R.

    For fixed singular u, v -> rho_{u,v} is additive, so the v's must span
    u^perp over GF(p), not only over GF(q): without the scalings Omega+(6,4)
    is not transitive.  Over a prime field omega^0 = 1 is the only scaling."""
    from . import forms as fm
    F, d = form.field, form.dim
    C, R = [], []
    for u in _first_hyperbolic_pair(form):
        P = fm.perp(form, fm.Subspace.span(F, [u])).rows
        i, j = np.triu_indices(len(P), 1)
        V = np.concatenate((P, la.sum_np(F, np.stack((P[i], P[j])))))
        V = F.mul_np(V[:, None], F.exp_np[:F.f, None]).reshape(-1, d)
        u = np.array(u, dtype=np.int64)
        fu = F.mul_np(F.neg(1), form.pair_functional(u))
        qu = F.mul_np(np.diagonal(form.frame(V))[:, None], u)
        C.append(np.stack(np.broadcast_arrays(form.pair_functional(V), fu), 2))
        R.append(np.stack(np.broadcast_arrays(u, la.sum_np(F, np.stack((V, qu)))), 1))
    return _identity_plus(F, np.concatenate(C), np.concatenate(R))


def _first_hyperbolic_pair(form):
    """(e_i, e_j / B_ij) for the first (i, j) in row-major order with
    Q(e_i) = Q(e_j) = 0 and B_ij != 0, read from Form.basis_values."""
    F, d = form.field, form.dim
    vals, zero, _ = form.basis_values
    singular = zero[d * d:]
    B = vals[:d * d].reshape(d, d)
    hits = np.argwhere(singular[:, None] & singular & (B != 0))
    if not len(hits):
        raise ValueError("no hyperbolic pair among basis vectors (rank 0?)")
    i, j = map(int, hits[0])
    e = np.eye(d, dtype=np.int64)
    return tuple(e[i].tolist()), tuple(F.mul_np(F.inv(int(B[i, j])), e[j]).tolist())

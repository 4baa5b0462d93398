"""Exact arithmetic in small finite fields GF(p^f).

Elements are plain ints in ``range(q)``: the int's base-p digits, little-endian,
are the coefficients of the element in the polynomial basis ``1, g, ..., g^(f-1)``
where ``g`` is the residue class of x modulo the defining polynomial.  Keeping
elements as ints makes them free to hash, compare and pack into numpy arrays;
all structure lives in the :class:`FiniteField` object (discrete-log tables,
addition tables, Frobenius tables), which also holds the tables as numpy
arrays for the bulk helpers that every array kernel uses.

Defining polynomials come from a frozen table of Conway polynomials so that the
same (p, f) always produces the same field on every machine, and so that the
subfield embedding ``g0 -> G^((q^b-1)/(q0-1))`` is an honest ring homomorphism
(norm-compatibility of the Conway family).  Pairs outside the table fall back
to the lexicographically minimal primitive polynomial under the same ordering.
"""

import operator
from functools import lru_cache

import numpy as np

__all__ = ["FiniteField", "SubfieldEmbedding", "field", "embedding", "integer",
           "element_codes"]

# Conway polynomials, little-endian coefficient tuples (monic, degree f).
# Generated offline by the standard recursive lex-minimal search and frozen.
_CONWAY = {
    (2, 1): (1, 1),
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 1, 1, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (2, 8): (1, 0, 1, 1, 1, 0, 0, 0, 1),
    (2, 9): (1, 0, 0, 0, 1, 0, 0, 0, 0, 1),
    (2, 10): (1, 1, 1, 1, 0, 1, 1, 0, 0, 0, 1),
    (3, 1): (1, 1),
    (3, 2): (2, 2, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 0, 0, 2, 1),
    (3, 5): (1, 2, 0, 0, 0, 1),
    (3, 6): (2, 2, 1, 0, 2, 0, 1),
    (5, 1): (3, 1),
    (5, 2): (2, 4, 1),
    (5, 3): (3, 3, 0, 1),
    (5, 4): (2, 4, 4, 0, 1),
    (7, 1): (4, 1),
    (7, 2): (3, 6, 1),
    (7, 3): (4, 0, 6, 1),
    (7, 4): (3, 4, 5, 0, 1),
    (11, 1): (9, 1),
    (11, 2): (2, 7, 1),
    (13, 1): (11, 1),
    (13, 2): (2, 12, 1),
}

_Q_CAP = 2 ** 16          # the exp/log tables cover fields up to here
_ADD_TABLE_CAP = 512      # full q x q addition table below this


def is_prime(n):
    """Deterministic Miller-Rabin for n < 2^64 (the prime bases up to 37)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FiniteField:
    """GF(p^f) with table-driven exact arithmetic.

    Do not call the constructor directly; use :func:`field` so that the same
    (p, f) always returns the same shared instance.
    """

    def __init__(self, p, f, _token=None):
        if _token is not _FIELD_TOKEN:
            raise TypeError("use field(p, f) to construct fields")
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        q = p ** f
        if q > _Q_CAP:
            raise ValueError(f"field size q = {q} > {_Q_CAP} is not supported "
                             "by the table backend")
        self.p = p
        self.f = f
        self.q = q
        self.defining_polynomial = self._pick_polynomial()
        self.generator = p if f > 1 else (-self.defining_polynomial[0]) % p
        self._build_tables()

    # -- construction ------------------------------------------------------

    def _pick_polynomial(self):
        try:
            return _CONWAY[(self.p, self.f)]
        except KeyError:
            return self._search_polynomial()

    def _search_polynomial(self):
        # the least primitive polynomial under the Conway ordering, walking the
        # keys in increasing order; no subfield-compatibility pass (embeddings
        # then fall back to root search)
        p, f = self.p, self.f
        import itertools
        for key in itertools.product(range(p), repeat=f):
            poly = tuple((-1) ** (f - i) * key[f - 1 - i] % p for i in range(f)) + (1,)
            if _poly_is_primitive(poly, p, f):
                return poly
        raise RuntimeError(f"no primitive polynomial found for GF({p}^{f})")

    def _build_tables(self):
        p, f, q = self.p, self.f, self.q
        # exp/log by repeated multiplication by x in coefficient form: shift up,
        # then reduce the top coefficient by the defining polynomial (for f = 1
        # this is multiplication by the root -c0, the generator)
        poly = self.defining_polynomial
        exp = [0] * (2 * (q - 1))
        log = [-1] * q
        coeffs = [1] + [0] * (f - 1)
        for i in range(q - 1):
            code = self._coeffs_to_code(coeffs)
            exp[i] = exp[i + q - 1] = code
            log[code] = i
            top = coeffs[-1]
            coeffs = [(c - top * r) % p for c, r in zip([0] + coeffs[:-1], poly)]
        if self._coeffs_to_code(coeffs) != 1:
            raise RuntimeError(f"generator of GF({p}^{f}) does not have order q-1")
        if any(l < 0 for l in log[1:]):
            raise RuntimeError(f"defining polynomial for GF({p}^{f}) is not primitive/irreducible")
        self.exp = exp
        self.log = log
        # frobenius x -> x^p as a flat table
        frob = [0] * q
        for a in range(1, q):
            frob[a] = exp[(log[a] * p) % (q - 1)]
        self._frob = frob
        # the codes p^r of the basis 1, g, ..., g^(f-1): the digit weights;
        # row a of the digit table is the f little-endian base-p digits of a
        self.basis_np = p ** np.arange(f, dtype=np.int64)
        self.digit_table = D = np.arange(q, dtype=np.int64)[:, None] // self.basis_np % p
        self._neg = ((-D % p) @ self.basis_np).tolist()
        # inverse table
        inv = [0] * q
        for a in range(1, q):
            inv[a] = exp[(q - 1 - log[a]) % (q - 1)]
        self._inv = inv
        # addition: full table for small q, digitwise otherwise (XOR for p=2)
        if p != 2 and q <= _ADD_TABLE_CAP:
            tbl = (D[:, None] + D[None]) % p @ self.basis_np
            self._add_tbl = ([bytes(row) for row in tbl.astype(np.uint8)]
                             if q <= 256 else tbl.tolist())
        else:
            self._add_tbl = None
        # the same tables as arrays, for the bulk helpers below; exp_np is
        # zero past index 2(q-1) and log_np[0] points there, so
        # exp_np[log_np[a] + log_np[b]] is a*b for zero factors too
        self.exp_np = np.zeros(4 * (q - 1) + 1, dtype=np.int64)
        self.exp_np[:2 * (q - 1)] = exp
        self.log_np = np.array([2 * (q - 1)] + log[1:], dtype=np.int64)
        self.inv_np = np.array(inv, dtype=np.int64)
        self.frob_np = np.array(frob, dtype=np.int64)

    # -- element codecs ----------------------------------------------------

    def _code_to_coeffs(self, a):
        p = self.p
        out = []
        for _ in range(self.f):
            out.append(a % p)
            a //= p
        return out

    def _coeffs_to_code(self, cs):
        code = 0
        for c in reversed(cs):
            code = code * self.p + (c % self.p)
        return code

    def coeffs(self, a):
        """Little-endian coefficient list of an element (the serialization form)."""
        return self._code_to_coeffs(a)

    def from_coeffs(self, cs):
        if len(cs) > self.f:
            raise ValueError(f"coefficient list longer than f={self.f}")
        cs = list(cs) + [0] * (self.f - len(cs))
        return self._coeffs_to_code(cs)

    # -- arithmetic --------------------------------------------------------

    def add(self, a, b):
        if self.p == 2:
            return a ^ b
        if self._add_tbl is not None:
            return self._add_tbl[a][b]
        return self._coeffs_to_code([(x + y) % self.p for x, y in
                                     zip(self._code_to_coeffs(a), self._code_to_coeffs(b))])

    def neg(self, a):
        return self._neg[a]

    def sub(self, a, b):
        return self.add(a, self._neg[b])

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        return self.exp[self.log[a] + self.log[b]]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverting 0")
        return self._inv[a]

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, e):
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("0 to a negative power")
            return 0 if e else 1
        return self.exp[(self.log[a] * e) % (self.q - 1)]

    def frobenius(self, a, k=1):
        """a^(p^k); k is reduced mod f."""
        k %= self.f
        x = a
        for _ in range(k):
            x = self._frob[x]
        return x

    def elements(self):
        return range(self.q)

    def units(self):
        return range(1, self.q)

    # -- bulk arithmetic on integer arrays ------------------------------------
    #
    # GF(q) is GF(p)^f through the digits of the codes, so every semilinear
    # map of GF(q)^d is a GF(p)-linear map of GF(p)^(d*f); _linalg.expand
    # builds its matrix from mul_matrix.

    def mul_np(self, a, b):
        """Elementwise products of broadcastable arrays of element codes."""
        return self.exp_np[self.log_np[a] + self.log_np[b]]

    def frobenius_np(self, a, k=1):
        """Elementwise a^(p^k) of an array of element codes; k is reduced mod f."""
        a = np.asarray(a, dtype=np.int64)
        for _ in range(k % self.f):
            a = self.frob_np[a]
        return a

    def digits(self, a):
        """Little-endian base-p digits of element codes: shape (..., f).

        One contiguous gather of rows of the digit table (take, not fancy
        indexing, which copies each (f,) row on its own); a code >= q
        raises IndexError."""
        a = np.asarray(a, dtype=np.int64)
        if self.f == 1:
            return a[..., None]
        return self.digit_table.take(a, axis=0)

    def from_digits(self, x):
        """Element codes from digit arrays of shape (..., f), digits in [0, p)."""
        x = np.asarray(x, dtype=np.int64)
        if self.f == 1:
            return x[..., 0]
        return x @ self.basis_np

    def digit_rows(self, rows):
        """An (n, d) array of element codes as (n, d*f) GF(p) digits, the f
        digits of each coordinate in turn."""
        rows = np.asarray(rows, dtype=np.int64)
        n, d = rows.shape
        return self.digits(rows).reshape(n, d * self.f)

    def code_rows(self, x):
        """The inverse of digit_rows: (n, d*f) digits to (n, d) codes."""
        x = np.asarray(x, dtype=np.int64)
        n, k = x.shape
        return self.from_digits(x.reshape(n, k // self.f, self.f))

    def mul_matrix(self, a, k=0):
        """The f x f GF(p) matrices of x -> x^(p^k) * a, for an array of
        codes a: shape (..., f, f), with digits(x^(p^k) * a) =
        digits(x) @ mul_matrix(a, k)."""
        basis = self.frobenius_np(self.basis_np, k)
        return self.digits(self.mul_np(np.asarray(a, dtype=np.int64)[..., None],
                                       basis))

    # -- misc --------------------------------------------------------------

    def is_square(self, a):
        if a == 0:
            return True
        if self.p == 2:
            return True
        return self.log[a] % 2 == 0

    def sqrt(self, a):
        """A square root, or None.  Deterministic: the even-log root of smaller code."""
        if a == 0:
            return 0
        if self.p == 2:
            return self.pow(a, self.q // 2)  # squaring is bijective
        l = self.log[a]
        if l % 2:
            return None
        r = self.exp[l // 2]
        return min(r, self._neg[r])

    def __repr__(self):
        return f"GF({self.q})" if self.f > 1 else f"GF({self.p})"

    def __reduce__(self):
        return (field, (self.p, self.f))


_FIELD_TOKEN = object()


def _poly_is_primitive(poly, p, f):
    # x^n = 1 and x^(n/r) != 1 modulo poly for each prime r of n = p^f - 1
    n = p ** f - 1

    def pmulmod(a, b):
        res = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    res[i + j] = (res[i + j] + x * y) % p
        for k in range(len(res) - 1, f - 1, -1):
            c = res[k]
            if c:
                res[k] = 0
                for i in range(f):
                    res[k - f + i] = (res[k - f + i] - c * poly[i]) % p
        del res[f:]
        while len(res) > 1 and res[-1] == 0:
            res.pop()
        return res

    def ppow(e):
        r, b = [1], [0, 1]
        while e:
            if e & 1:
                r = pmulmod(r, b)
            b = pmulmod(b, b)
            e >>= 1
        return r

    if ppow(n) != [1]:
        return False
    return all(ppow(n // r) != [1] for r in prime_factors(n))


def prime_factors(n):
    """The distinct prime factors of n >= 1, ascending, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


@lru_cache(maxsize=None)
def field(p, f=1):
    """The shared GF(p^f) instance."""
    return FiniteField(p, f, _token=_FIELD_TOKEN)


def field_of_order(q):
    """GF(q) from the prime-power order (e.g. 9 -> GF(3^2))."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    p = 2
    while p * p <= q and q % p:
        p += 1
    if q % p:
        p = q
    f = 0
    m = q
    while m % p == 0:
        m //= p
        f += 1
    if m != 1:
        raise ValueError(f"{q} is not a prime power")
    return field(p, f)


def integer(name, x):
    """x as an int; ValueError naming it if it is not one (floats, strings
    and bools are refused, numpy integers accepted)."""
    if isinstance(x, bool):
        raise ValueError(f"{name} {x!r} is a bool, not an int")
    try:
        return operator.index(x)
    except TypeError:
        raise ValueError(f"{name} {x!r} is not an int") from None


def element_codes(F, matrix):
    """The matrix as a tuple of row tuples of element codes of F: ints in
    range(q), else ValueError naming the entry."""
    out = []
    for i, row in enumerate(matrix):
        codes = []
        for j, x in enumerate(row):
            if type(x) is not int:
                x = integer(f"matrix entry ({i}, {j})", x)
            if not 0 <= x < F.q:
                raise ValueError(f"matrix entry ({i}, {j}) = {x} is out of "
                                 f"range for q={F.q}")
            codes.append(x)
        out.append(tuple(codes))
    return tuple(out)


class SubfieldEmbedding:
    """The canonical embedding GF(q0) -> GF(q0^b).

    The image of the small generator is G^((Q-1)/(q0-1)) with G the large
    generator; for Conway-table fields this is a root of the small defining
    polynomial, which makes composed embeddings agree with direct ones.  If the
    power image fails the root test (non-table fallback polynomials) the
    smallest root of the small polynomial in the large field is used instead.
    """

    def __init__(self, small, large):
        if small.p != large.p or large.f % small.f != 0:
            raise ValueError("incompatible fields")
        self.small = small
        self.large = large
        self.b = large.f // small.f
        img = large.exp[(large.q - 1) // (small.q - 1) * small.log[small.generator]] \
            if small.q > 2 else 1
        if not self._is_root(img):
            img = next(a for a in range(1, large.q) if self._is_root(a))
        self.image_of_generator = img
        # forward table on the small field, inverse dict on the image
        up = [0] * small.q
        for k in range(small.q - 1):
            up[small.exp[k]] = large.exp[(large.log[img] * k) % (large.q - 1)]
        self._up = up
        self._down = {v: a for a, v in enumerate(up)}

    def _is_root(self, a):
        L, acc, x = self.large, 0, 1
        for c in self.small.defining_polynomial:
            if c:
                acc = L.add(acc, L.mul(c % L.p, x))
            x = L.mul(x, a)
        return acc == 0

    def up(self, a):
        return self._up[a]

    def down(self, y):
        try:
            return self._down[y]
        except KeyError:
            raise ValueError(f"element {y} of {self.large!r} is not in the subfield image") from None

    def trace(self, y):
        """Relative trace sum_{i<b} y^(q0^i), expressed in the small field."""
        L, q0 = self.large, self.small.q
        acc, t = 0, y
        for _ in range(self.b):
            acc = L.add(acc, t)
            t = L.pow(t, q0)
        return self.down(acc)

    def norm(self, y):
        """Relative norm y^((Q-1)/(q0-1)), expressed in the small field."""
        return self.down(self.large.pow(y, (self.large.q - 1) // (self.small.q - 1)))

    def __repr__(self):
        return f"Embedding({self.small!r} -> {self.large!r})"


@lru_cache(maxsize=None)
def embedding(small, large):
    """Memoized canonical embedding; raises ValueError('incompatible fields') otherwise."""
    return SubfieldEmbedding(small, large)

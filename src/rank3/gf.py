"""Finite field GF(p^d) arithmetic on element indices.

A field is its modulus: the lexicographically smallest monic primitive
polynomial of degree d over GF(p), coefficients compared high-degree-first,
so element numbering is reproducible across runs and platforms.  Its
distinguished primitive element omega (a generator of the multiplicative
group) is the residue x of the modulus, which is g when d = 1 and the
modulus is x - g.  An element is its index sum(coeffs[i] * p**i) in [0, q):
index 0 is zero and index 1 is one.  This indexing fixes the vertex order
for every graph construction downstream.

A field keeps three read-only numpy tables: ``coeffs`` (row i holds the d
coefficients of element i), ``exp`` (exp[k] = omega**k) and ``log`` (its
inverse, -1 at zero).  The field operations read them and take scalars or
arrays of indices, broadcasting like numpy.  Fields stop at q = 2**16, far
past the order of any dense graph built here.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

import numpy as np


class NotPrime(ValueError):
    """p is not a prime number."""


class TooLarge(ValueError):
    """p**d exceeds the supported field size (2**16)."""


class DivisionByZero(ZeroDivisionError):
    """Multiplicative inverse of zero requested."""


class DoesNotDivide(ValueError):
    """e does not divide q - 1."""


_MAX_Q = 2**16


# -- elementary number theory ---------------------------------------------------
#
# The few integer helpers the package needs, each returning the same value as
# its sympy namesake (the smallest primitive root, the smallest square root),
# so element numbering and vertex labels do not depend on which one ran.

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def isprime(n: int) -> bool:
    """Whether n is prime: Miller-Rabin to the first 13 prime bases, which is
    exact for n < 3.3 * 10**24."""
    if n < 2:
        return False
    for b in _SMALL_PRIMES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _SMALL_PRIMES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorint(n: int) -> dict[int, int]:
    """The prime factorization {prime: exponent} of n >= 1, by trial division,
    primes ascending."""
    if n < 1:
        raise ValueError(f"n = {n} must be >= 1")
    out: dict[int, int] = {}
    r = 2
    while r * r <= n:
        while n % r == 0:
            out[r] = out.get(r, 0) + 1
            n //= r
        r += 1 if r == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def n_order(a: int, n: int) -> int:
    """The multiplicative order of a modulo n >= 2; ValueError unless
    gcd(a, n) = 1."""
    if n < 2 or gcd(a, n) != 1:
        raise ValueError(f"{a} is not a unit modulo {n}")
    phi = 1
    for r, e in factorint(n).items():
        phi *= (r - 1) * r ** (e - 1)
    order = phi
    for r in factorint(phi):
        while order % r == 0 and pow(a, order // r, n) == 1:
            order //= r
    return order


def primitive_root(p: int) -> int:
    """The smallest primitive root modulo the prime p (1 for p = 2)."""
    if not isprime(p):
        raise NotPrime(f"p = {p} is not prime")
    if p == 2:
        return 1
    cofactors = [(p - 1) // r for r in factorint(p - 1)]
    return next(g for g in range(2, p) if all(pow(g, c, p) != 1 for c in cofactors))


def sqrt_mod(a: int, p: int) -> int | None:
    """The smallest x in [0, p) with x**2 = a mod the prime p, or None if a is
    not a square mod p (Tonelli-Shanks)."""
    a %= p
    if a == 0 or p == 2:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
    m, c, t, x = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, x = i, b * b % p, t * b * b % p, x * b % p
    return min(x, p - x)


def digits(n: int, p: int, dim: int) -> np.ndarray:
    """(n, dim) int64 array whose row i holds the little-endian base-p digits
    of i: the coefficients of field element i, or the coordinates of vector i
    of GF(p)**dim (of GF(q)**dim, as field indices, for base p = q)."""
    idx = np.arange(n, dtype=np.int64)
    return np.stack([idx // p**j % p for j in range(dim)], axis=1)


def _out(x):
    """A 0-d result as a Python int; arrays pass through."""
    return int(x) if np.ndim(x) == 0 else x


class FiniteField:
    """GF(p^d) = GF(p)[x]/(modulus) for a primitive modulus, whose residue x
    is the primitive element omega.

    Elements are their indices in [0, q); omega is an index too.  Immutable
    after construction, so a field is safely shareable across threads.  Use
    make_field(): it canonicalizes instances and caches the 64 last used.

    The exp table is filled by doubling, in log2(q) int64 products over
    GF(p): with the coefficients of omega**0 .. omega**(h-1) made,
    multiplication by omega**h, a d x d matrix, gives the next h, and the
    matrix is squared.  The first matrix is the companion matrix of the
    modulus (_companion), transposed to act on coefficient rows.
    """

    def __init__(self, p: int, d: int, modulus: tuple[int, ...]):
        self.p = p
        self.d = d
        self.q = p**d
        self.modulus = modulus  # little-endian, length d+1, monic
        self._place = p ** np.arange(d, dtype=np.int64)
        self.coeffs = digits(self.q, p, d)
        # powers[k]: the coefficients of omega**k; row i of step: those of
        # x**i * omega**h
        powers = np.zeros((self.q - 1, d), dtype=np.int64)
        powers[0, 0] = 1
        step = _companion(np.array([modulus[:-1]], dtype=np.int64), p)[0].T
        self.omega = self.index(step[0])  # the residue x
        h = 1
        while h < self.q - 1:
            top = min(2 * h, self.q - 1)
            powers[h:top] = powers[: top - h] @ step % p
            step = step @ step % p
            h = top
        self.exp = powers @ self._place
        self.log = np.full(self.q, -1, dtype=np.int64)
        self.log[self.exp] = np.arange(self.q - 1)
        for table in (self._place, self.coeffs, self.exp, self.log):
            table.setflags(write=False)

    def index(self, coeffs):
        """The element with these coefficients (last axis, little-endian,
        reduced mod p): the inverse of the ``coeffs`` table."""
        return _out((np.asarray(coeffs, dtype=np.int64) % self.p) @ self._place)

    def add(self, a, b):
        return self.index(self.coeffs[a] + self.coeffs[b])

    def sub(self, a, b):
        return self.index(self.coeffs[a] - self.coeffs[b])

    def neg(self, a):
        return self.index(-self.coeffs[a])

    def mul(self, a, b):
        a, b = np.asarray(a), np.asarray(b)
        prod = self.exp[(self.log[a] + self.log[b]) % (self.q - 1)]
        return _out(np.where((a == 0) | (b == 0), 0, prod))

    def power(self, a, k):
        """a**k for integer k; 0**0 = 1, and DivisionByZero for 0**k, k < 0."""
        a, k = np.asarray(a), np.asarray(k)
        zero = a == 0
        if np.any(zero & (k < 0)):
            raise DivisionByZero("zero has no multiplicative inverse")
        nonzero = self.exp[self.log[a] * k % (self.q - 1)]
        return _out(np.where(zero, (k == 0).astype(np.int64), nonzero))

    def inv(self, a):
        return self.power(a, -1)

    def frobenius(self, a):
        """The Frobenius automorphism a -> a**p; d-fold application is the
        identity."""
        return self.power(a, self.p)

    def __repr__(self) -> str:
        return f"FiniteField(p={self.p}, d={self.d}, modulus={self.modulus})"


# -- companion matrices and the search for a primitive modulus -----------------


def _companion(moduli: np.ndarray, p: int) -> np.ndarray:
    """For each row of the (K, d) array moduli, the low coefficients f_0 ..
    f_(d-1) of a monic f of degree d, the matrix M of multiplication by x mod
    f on coefficient columns, as a (K, d, d) int64 stack: x * x**j =
    x**(j + 1) for j < d - 1, and x * x**(d-1) = -f."""
    k, d = moduli.shape
    step = np.zeros((k, d, d), dtype=np.int64)
    step[:, np.arange(1, d), np.arange(d - 1)] = 1
    step[:, :, d - 1] = -moduli % p
    return step


def _x_has_full_order(moduli: np.ndarray, p: int, q: int, prime_factors: list[int]) -> np.ndarray:
    """For each row of the (K, d) array moduli, the low coefficients f_0 ..
    f_(d-1) of a monic f of degree d: whether the residue x has
    multiplicative order exactly q - 1 mod f, as a (K,) bool array.

    An element of order q - 1 exists in GF(p)[x]/(f) only when f is
    irreducible, so this single test certifies both primitivity and
    irreducibility.  x**e is column 0 of M**e, M the companion matrix of f
    (_companion), taken for e = q - 1 and every (q - 1) / r at once and for
    all K moduli as one stack: one squaring of M per bit of q - 1, and per
    bit one product, kept by the exponents that have the bit.  Entries are
    residues, so a product sums d terms below p**2.
    """
    k, d = moduli.shape
    exponents = np.array([q - 1] + [(q - 1) // r for r in prime_factors])
    step = _companion(moduli, p)
    powers = np.zeros((k, d, len(exponents)), dtype=np.int64)  # x**(the bits of e so far)
    powers[:, 0] = 1
    for b in range((q - 1).bit_length()):
        if b:
            step = step @ step % p
        powers = np.where((exponents >> b) & 1 == 1, step @ powers % p, powers)
    is_one = (powers[:, 0] == 1) & (powers[:, 1:] == 0).all(axis=1)  # (K, exponents)
    return is_one[:, 0] & ~is_one[:, 1:].any(axis=1)


@lru_cache(maxsize=64)
def make_field(p: int, d: int) -> FiniteField:
    """Build GF(p^d) with the canonical primitive modulus.

    The modulus is the lexicographically smallest (coefficients compared
    high-degree-first) monic primitive polynomial of degree d over GF(p), found
    by exhaustive search, 16 candidates in order at a time
    (_x_has_full_order).  For d = 1 the modulus is x - g with g the
    smallest primitive root mod p.  The field takes the residue x as omega
    (FiniteField), so the modulus is all it is given.
    """
    if d < 1:
        raise ValueError(f"extension degree must be >= 1, got {d}")
    if not isprime(p):
        raise NotPrime(f"p = {p} is not prime")
    if p**d > _MAX_Q:
        raise TooLarge(f"p**d = {p}**{d} exceeds {_MAX_Q}")
    q = p**d
    if d == 1:
        g = primitive_root(p)
        return FiniteField(p, d, ((-g) % p, 1))  # x - g
    prime_factors = list(factorint(q - 1))
    # row c of digits(q, p, d) holds the low coefficients of the candidate
    # whose high-degree-first coefficients are c's digits, so the rows run
    # in the search order; constant term 0: x divides f, never primitive
    candidates = digits(q, p, d)
    candidates = candidates[candidates[:, 0] != 0]
    for chunk in np.split(candidates, range(16, len(candidates), 16)):
        hit = np.flatnonzero(_x_has_full_order(chunk, p, q, prime_factors))
        if hit.size:
            return FiniteField(p, d, tuple(chunk[hit[0]].tolist()) + (1,))
    raise AssertionError(f"no primitive polynomial of degree {d} over GF({p})")


def power_residue_classes(field: FiniteField, e: int) -> list[np.ndarray]:
    """The e cosets C, C*omega, ..., C*omega**(e-1) of C = <omega**e> in F*,
    each as a sorted index array.

    Each class has (q-1)/e elements; together they partition the nonzero
    elements.  Class 0 is the subgroup C itself (contains 1).
    """
    q = field.q
    if e < 1 or (q - 1) % e != 0:
        raise DoesNotDivide(f"e = {e} does not divide q - 1 = {q - 1}")
    return [np.sort(field.exp[j::e]) for j in range(e)]

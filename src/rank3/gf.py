"""Finite field GF(p^d) arithmetic in a polynomial basis.

Every field carries a distinguished primitive element omega (a generator of
the multiplicative group).  The modulus is the lexicographically smallest
monic primitive polynomial of degree d over GF(p), coefficients compared
high-degree-first, so element numbering is reproducible across runs and
platforms.  Elements are indexed by sum(coeffs[i] * p**i) in [0, q); index 0
is the zero element.  This indexing fixes the vertex order for every graph
construction downstream.

Discrete-log/exp tables are precomputed for q <= 2**16, making multiplication,
inversion and power-residue membership O(1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import gcd
from typing import Iterator


class NotPrime(ValueError):
    """p is not a prime number."""


class TooLarge(ValueError):
    """p**d exceeds the supported field size (2**31)."""


class DivisionByZero(ZeroDivisionError):
    """Multiplicative inverse of zero requested."""


class FieldMismatch(ValueError):
    """Operands belong to different fields."""


class DoesNotDivide(ValueError):
    """e does not divide q - 1."""


_MAX_Q = 2**31
_TABLE_LIMIT = 2**16


# -- elementary number theory ---------------------------------------------------
#
# The few integer helpers the package needs, each returning the same value as
# its sympy namesake (the smallest primitive root, the smallest square root),
# so element numbering and vertex labels do not depend on which one ran.

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def isprime(n: int) -> bool:
    """Whether n is prime: Miller-Rabin to the first 13 prime bases, which is
    exact for n < 3.3 * 10**24 (far beyond the 2**31 field cap)."""
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


@dataclass(frozen=True)
class FieldElement:
    """An element of a FiniteField, as d coefficients over GF(p) (little-endian)."""

    field: "FiniteField"
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.field.d:
            raise ValueError(f"expected {self.field.d} coefficients, got {len(self.coeffs)}")
        if any(c < 0 or c >= self.field.p for c in self.coeffs):
            raise ValueError(f"coefficients out of range [0, {self.field.p}): {self.coeffs}")

    @property
    def index(self) -> int:
        """Integer index sum(coeffs[i] * p**i) in [0, q)."""
        p = self.field.p
        i = 0
        for c in reversed(self.coeffs):
            i = i * p + c
        return i

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __add__(self, other: "FieldElement") -> "FieldElement":
        return add(self, other)

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        return sub(self, other)

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        return mul(self, other)

    def __neg__(self) -> "FieldElement":
        return neg(self)

    def __pow__(self, k: int) -> "FieldElement":
        return power(self, k)

    def __repr__(self) -> str:
        return f"GF({self.field.q}).element{self.coeffs}"


class FiniteField:
    """GF(p^d) with a fixed primitive modulus and primitive element omega.

    Immutable after construction; all operations are pure functions, so a
    field instance is safely shareable across threads.  Use make_field() —
    it canonicalizes and caches instances, so elements of the "same" field
    always share one FiniteField object.
    """

    def __init__(self, p: int, d: int, modulus: tuple[int, ...], omega_coeffs: tuple[int, ...]):
        self.p = p
        self.d = d
        self.q = p**d
        self.modulus = modulus  # little-endian, length d+1, monic
        self.zero = FieldElement(self, (0,) * d)
        one = [0] * d
        one[0] = 1
        self.one = FieldElement(self, tuple(one))
        self.omega = FieldElement(self, omega_coeffs)
        self._exp: list[int] | None = None  # exp[k] = index of omega**k
        self._log: list[int] | None = None  # log[index] = k, -1 for zero
        if self.q <= _TABLE_LIMIT:
            self._build_tables()

    # -- element plumbing ---------------------------------------------------

    def element(self, coeffs) -> FieldElement:
        """Element from a coefficient sequence (reduced mod p)."""
        cs = tuple(int(c) % self.p for c in coeffs)
        if len(cs) < self.d:
            cs = cs + (0,) * (self.d - len(cs))
        elif len(cs) > self.d:
            raise ValueError(f"too many coefficients for degree-{self.d} extension")
        return FieldElement(self, cs)

    def from_int(self, n: int) -> FieldElement:
        """Element of the prime subfield from an integer."""
        cs = [0] * self.d
        cs[0] = n % self.p
        return FieldElement(self, tuple(cs))

    def from_index(self, i: int) -> FieldElement:
        """Inverse of FieldElement.index."""
        if not 0 <= i < self.q:
            raise ValueError(f"index {i} out of range [0, {self.q})")
        cs = []
        for _ in range(self.d):
            cs.append(i % self.p)
            i //= self.p
        return FieldElement(self, tuple(cs))

    def index(self, x: FieldElement) -> int:
        return x.index

    def elements(self) -> Iterator[FieldElement]:
        """All q elements in index order."""
        for i in range(self.q):
            yield self.from_index(i)

    # -- coefficient-level arithmetic ---------------------------------------

    def _add(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def _sub(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def _neg(self, a: tuple[int, ...]) -> tuple[int, ...]:
        p = self.p
        return tuple((-x) % p for x in a)

    def _mul(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        if self._log is not None:
            ia, ib = _coeffs_to_index(a, self.p), _coeffs_to_index(b, self.p)
            if ia == 0 or ib == 0:
                return (0,) * self.d
            k = (self._log[ia] + self._log[ib]) % (self.q - 1)
            return _index_to_coeffs(self._exp[k], self.p, self.d)
        return _polymulmod(a, b, self.modulus, self.p)

    def _inv(self, a: tuple[int, ...]) -> tuple[int, ...]:
        if not any(a):
            raise DivisionByZero("zero has no multiplicative inverse")
        if self._log is not None:
            ia = _coeffs_to_index(a, self.p)
            k = (-self._log[ia]) % (self.q - 1)
            return _index_to_coeffs(self._exp[k], self.p, self.d)
        return _polyinvmod(a, self.modulus, self.p)

    def _build_tables(self) -> None:
        exp = [0] * (self.q - 1)
        cur = self.one.coeffs
        wc = self.omega.coeffs
        for k in range(self.q - 1):
            exp[k] = _coeffs_to_index(cur, self.p)
            cur = _polymulmod(cur, wc, self.modulus, self.p)
        log = [-1] * self.q
        for k, i in enumerate(exp):
            log[i] = k
        self._exp = exp
        self._log = log

    def log(self, x: FieldElement) -> int:
        """Discrete log of x base omega (x nonzero)."""
        if x.is_zero():
            raise DivisionByZero("discrete log of zero")
        if self._log is not None:
            return self._log[x.index]
        # fall back to a linear scan (only reachable for q > 2**16)
        cur = self.one
        for k in range(self.q - 1):
            if cur == x:
                return k
            cur = mul(cur, self.omega)
        raise AssertionError("omega failed to generate the multiplicative group")

    def omega_pow(self, k: int) -> FieldElement:
        """omega**k using the exp table when available."""
        if self._exp is not None:
            return self.from_index(self._exp[k % (self.q - 1)])
        return power(self.omega, k)

    def __repr__(self) -> str:
        return f"FiniteField(p={self.p}, d={self.d}, modulus={self.modulus})"


# -- polynomial helpers (little-endian coefficient tuples over GF(p)) --------


def _coeffs_to_index(a: tuple[int, ...], p: int) -> int:
    i = 0
    for c in reversed(a):
        i = i * p + c
    return i


def _index_to_coeffs(i: int, p: int, d: int) -> tuple[int, ...]:
    cs = []
    for _ in range(d):
        cs.append(i % p)
        i //= p
    return tuple(cs)


def _polymulmod(a, b, modulus, p: int) -> tuple[int, ...]:
    """(a * b) mod modulus, all little-endian over GF(p); modulus monic."""
    d = len(modulus) - 1
    prod = [0] * (2 * d - 1) if d > 1 else [0]
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    prod[i + j] = (prod[i + j] + ai * bj) % p
    for i in range(len(prod) - 1, d - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(d):
                prod[i - d + j] = (prod[i - d + j] - c * modulus[j]) % p
    return tuple(prod[:d])


def _polydivmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of polynomial division over GF(p)."""
    a = list(a)
    db = len(b) - 1
    while len(b) > 1 and b[-1] == 0:
        b = b[:-1]
        db -= 1
    inv_lead = pow(b[-1], -1, p)
    quot = [0] * max(1, len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = (a[i] * inv_lead) % p
        if c:
            quot[i - db] = c
            for j in range(db + 1):
                a[i - db + j] = (a[i - db + j] - c * b[j]) % p
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return quot, a


def _polyinvmod(a, modulus, p: int) -> tuple[int, ...]:
    """Inverse of a mod modulus via the extended Euclidean algorithm."""
    d = len(modulus) - 1
    r0, r1 = list(modulus), [c for c in a]
    while len(r1) > 1 and r1[-1] == 0:
        r1.pop()
    s0, s1 = [0], [1]
    while r1 != [0]:
        q, r = _polydivmod(r0, r1, p)
        s = _polysub(s0, _polymul(q, s1, p), p)
        r0, s0, r1, s1 = r1, s1, r, s
    # r0 is now a nonzero constant gcd
    c = pow(r0[0], -1, p)
    inv = [(x * c) % p for x in s0]
    inv += [0] * (d - len(inv))
    return tuple(inv[:d])


def _polymul(a: list[int], b: list[int], p: int) -> list[int]:
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    while len(prod) > 1 and prod[-1] == 0:
        prod.pop()
    return prod


def _polysub(a: list[int], b: list[int], p: int) -> list[int]:
    n = max(len(a), len(b))
    a = a + [0] * (n - len(a))
    b = b + [0] * (n - len(b))
    out = [(x - y) % p for x, y in zip(a, b)]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _x_has_full_order(modulus: tuple[int, ...], p: int, q: int, prime_factors: list[int]) -> bool:
    """True iff the residue x has multiplicative order exactly q - 1 mod modulus.

    An element of order q - 1 exists in GF(p)[x]/(f) only when f is irreducible,
    so this single test certifies both primitivity and irreducibility.
    """
    d = len(modulus) - 1
    x = tuple([0, 1] + [0] * (d - 2)) if d >= 2 else (0,)
    one = tuple([1] + [0] * (d - 1))

    def polypow(base, k):
        result = one
        while k:
            if k & 1:
                result = _polymulmod(result, base, modulus, p)
            base = _polymulmod(base, base, modulus, p)
            k >>= 1
        return result

    if polypow(x, q - 1) != one:
        return False
    return all(polypow(x, (q - 1) // r) != one for r in prime_factors)


@lru_cache(maxsize=None)
def make_field(p: int, d: int) -> FiniteField:
    """Build GF(p^d) with the canonical primitive modulus.

    The modulus is the lexicographically smallest (coefficients compared
    high-degree-first) monic primitive polynomial of degree d over GF(p), found
    by exhaustive search; the residue x is then itself primitive and is taken
    as omega.  For d = 1 the modulus is x - g with g the smallest primitive
    root mod p, and omega = g.
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
        modulus = ((-g) % p, 1)  # x - g
        return FiniteField(p, d, modulus, (g % p,))
    prime_factors = list(factorint(q - 1))
    for high_first in product(range(p), repeat=d):
        if high_first[-1] == 0:
            continue  # constant term 0: x divides f, never primitive
        modulus = tuple(reversed(high_first)) + (1,)
        if _x_has_full_order(modulus, p, q, prime_factors):
            omega = tuple([0, 1] + [0] * (d - 2))
            return FiniteField(p, d, modulus, omega)
    raise AssertionError(f"no primitive polynomial of degree {d} over GF({p})")


# -- field operations ---------------------------------------------------------


def _same_field(x: FieldElement, y: FieldElement) -> FiniteField:
    if x.field is not y.field:
        raise FieldMismatch(f"operands from different fields: {x.field} vs {y.field}")
    return x.field


def add(x: FieldElement, y: FieldElement) -> FieldElement:
    f = _same_field(x, y)
    return FieldElement(f, f._add(x.coeffs, y.coeffs))


def sub(x: FieldElement, y: FieldElement) -> FieldElement:
    f = _same_field(x, y)
    return FieldElement(f, f._sub(x.coeffs, y.coeffs))


def mul(x: FieldElement, y: FieldElement) -> FieldElement:
    f = _same_field(x, y)
    return FieldElement(f, f._mul(x.coeffs, y.coeffs))


def neg(x: FieldElement) -> FieldElement:
    return FieldElement(x.field, x.field._neg(x.coeffs))


def inv(x: FieldElement) -> FieldElement:
    return FieldElement(x.field, x.field._inv(x.coeffs))


def power(x: FieldElement, k: int) -> FieldElement:
    """x**k by square-and-multiply; negative k inverts first."""
    f = x.field
    if k < 0:
        x = inv(x)
        k = -k
    result = f.one
    base = x
    while k:
        if k & 1:
            result = mul(result, base)
        base = mul(base, base)
        k >>= 1
    return result


def frobenius(x: FieldElement) -> FieldElement:
    """The Frobenius automorphism x -> x**p; d-fold application is the identity."""
    return power(x, x.field.p)


def power_residue_classes(field: FiniteField, e: int) -> list[set[FieldElement]]:
    """The e cosets C, C*omega, ..., C*omega**(e-1) of C = <omega**e> in F*.

    Each class has (q-1)/e elements; together they partition the nonzero
    elements.  Class 0 is the subgroup C itself (contains 1).
    """
    q = field.q
    if e < 1 or (q - 1) % e != 0:
        raise DoesNotDivide(f"e = {e} does not divide q - 1 = {q - 1}")
    classes: list[set[FieldElement]] = [set() for _ in range(e)]
    for k in range(q - 1):
        classes[k % e].add(field.omega_pow(k))
    return classes

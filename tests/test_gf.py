"""Tests for rank3.gf: fixed small-field oracles plus algebraic properties.

The GF(9) oracle below was worked by hand: candidate quadratics over GF(3) in
high-degree-first lexicographic order are x^2+1 (x has order 4 — not primitive),
x^2+2 = (x+1)(x+2) (reducible), x^2+x+1 = (x-1)^2 (reducible), then x^2+x+2,
whose residue x has order 8.  So the canonical modulus is x^2+x+2 and
omega = x, giving omega = 3 (as an index) and frobenius(omega) = x^3 = 2x+2
(index 8).
"""

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from rank3 import gf
from rank3.gf import make_field, power_residue_classes


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


def test_gf9_canonical_modulus_and_omega():
    F = make_field(3, 2)
    assert F.q == 9
    assert F.modulus == (2, 1, 1)  # x^2 + x + 2, little-endian
    assert F.omega == 3  # the residue x
    assert F.frobenius(F.omega) == 8  # x^3 = 2x + 2
    assert F.power(F.omega, 8) == 1
    assert F.power(F.omega, 4) == F.neg(1)  # omega^4 = -1 in GF(9)


def test_prime_field_omega_is_smallest_primitive_root():
    assert make_field(3, 1).omega == 2
    assert make_field(5, 1).omega == 2
    assert make_field(7, 1).omega == 3
    assert make_field(13, 1).omega == 2
    assert make_field(41, 1).omega == 6


def test_gf2_and_gf4():
    F2 = make_field(2, 1)
    assert F2.omega == 1
    F4 = make_field(2, 2)
    assert F4.modulus == (1, 1, 1)  # x^2 + x + 1
    assert F4.power(F4.omega, 3) == 1
    assert F4.power(F4.omega, 2) != 1


def test_element_indexing_round_trip():
    F = make_field(5, 3)
    for i in (0, 1, 7, 124):
        assert F.index(F.coeffs[i]) == i
    assert np.array_equal(F.index(F.coeffs), np.arange(F.q))
    # index = sum coeffs[i] * p^i
    assert F.index((4, 0, 2)) == 4 + 2 * 25
    assert F.coeffs[4 + 2 * 25].tolist() == [4, 0, 2]
    assert np.array_equal(gf.digits(F.q, 5, 3), F.coeffs)


def test_arithmetic_small_prime_field():
    F = make_field(7, 1)
    assert F.mul(3, 5) == 1  # 15 = 1 mod 7
    assert F.inv(3) == 5  # 3 * 5 = 1
    assert F.add(3, 5) == 1
    assert F.sub(3, 5) == 5
    assert F.neg(3) == 4
    assert np.array_equal(F.mul(np.arange(7), 3), [0, 3, 6, 2, 5, 1, 4])


def test_division_by_zero():
    F = make_field(11, 1)
    with pytest.raises(ZeroDivisionError, match="zero has no multiplicative inverse"):
        F.inv(0)
    with pytest.raises(ZeroDivisionError, match="zero has no multiplicative inverse"):
        F.power(0, -1)
    with pytest.raises(ZeroDivisionError, match="zero has no multiplicative inverse"):
        F.inv(np.arange(3))
    assert F.power(0, 0) == 1
    assert F.power(0, 3) == 0


def test_make_field_rejects_bad_input():
    with pytest.raises(ValueError, match=r"^p = 6 is not prime$"):
        make_field(6, 1)
    with pytest.raises(ValueError, match=r"^p\*\*d = 2\*\*40 exceeds 65536$"):
        make_field(2, 40)
    with pytest.raises(ValueError, match=r"^p\*\*d = 2\*\*17 exceeds 65536$"):
        make_field(2, 17)  # 2**17 > 2**16
    with pytest.raises(ValueError, match=r"^p\*\*d = 257\*\*2 exceeds 65536$"):
        make_field(257, 2)


def test_make_field_is_cached():
    assert make_field(9 - 2, 1) is make_field(7, 1)


def test_make_field_cache_is_bounded():
    # a cached field keeps its tables alive, so only the last 64 stay; one
    # rebuilt after eviction is the same field
    first = make_field(2, 2)
    for p in sympy.primerange(3, sympy.prime(70)):  # 68 more fields
        make_field(p, 1)
    assert make_field.cache_info().currsize <= 64
    again = make_field(2, 2)
    assert again is not first  # evicted and rebuilt
    assert again.modulus == first.modulus
    assert np.array_equal(again.exp, first.exp) and np.array_equal(again.log, first.log)


def test_power_residue_classes_gf13_squares():
    F = make_field(13, 1)
    classes = power_residue_classes(F, 2)
    assert classes[0].tolist() == [1, 3, 4, 9, 10, 12]
    assert sorted(classes[0].tolist() + classes[1].tolist()) == list(range(1, 13))


def test_power_residue_classes_gf16_cubes():
    F = make_field(2, 4)
    classes = power_residue_classes(F, 3)
    assert len(classes) == 3
    assert all(len(c) == 5 for c in classes)
    assert 1 in classes[0]


def test_power_residue_classes_bad_e():
    F = make_field(13, 1)
    with pytest.raises(ValueError, match=r"^e = 5 does not divide q - 1 = 12$"):
        power_residue_classes(F, 5)


FIELDS = [(2, 1), (3, 1), (13, 1), (2, 2), (3, 2), (2, 4), (5, 2), (3, 4), (2, 8)]


@pytest.mark.parametrize("p,d", FIELDS)
def test_omega_has_full_multiplicative_order(p, d):
    F = make_field(p, d)
    seen = []
    x = 1
    for _ in range(F.q - 1):
        seen.append(x)
        x = F.mul(x, F.omega)
    assert x == 1
    assert len(set(seen)) == F.q - 1
    assert F.exp.tolist() == seen
    assert F.log[seen].tolist() == list(range(F.q - 1))


EXTENSIONS = [(p, d) for p in sympy.primerange(2, 65) for d in range(2, 13) if p**d <= 4096]


@pytest.mark.parametrize("p,d", EXTENSIONS)
def test_exp_table_matches_stepwise_powers(p, d):
    # the doubling fill of exp gives the power sequence of omega that one
    # polynomial product per step gives, on every extension field up to 4096
    F = make_field(p, d)
    omega = tuple(F.coeffs[F.omega].tolist())
    powers = [(1,) + (0,) * (d - 1)]
    for _ in range(F.q - 2):
        powers.append(_polymulmod(powers[-1], omega, F.modulus, p))
    assert F.exp.tolist() == [F.index(c) for c in powers]


def x_has_full_order(modulus: tuple[int, ...], p: int) -> bool:
    """Whether x has multiplicative order p**d - 1 mod the monic modulus of
    degree d, one candidate at a time: x**(q - 1) = 1 and x**((q - 1) / r)
    != 1 for every prime r | q - 1, by square and multiply on coefficient
    tuples."""
    d = len(modulus) - 1
    q, one, x = p**d, (1,) + (0,) * (d - 1), (0, 1) + (0,) * (d - 2)

    def power(k):
        result, base = one, x
        while k:
            if k & 1:
                result = _polymulmod(result, base, modulus, p)
            base = _polymulmod(base, base, modulus, p)
            k >>= 1
        return result

    cofactors = [(q - 1) // r for r in sympy.primefactors(q - 1)]
    return power(q - 1) == one and all(power(k) != one for k in cofactors)


@pytest.mark.parametrize("p,d", EXTENSIONS)
def test_modulus_is_the_first_primitive_candidate(p, d):
    # the stacked order test, 16 candidates at a time, keeps the modulus the
    # one-at-a-time search picks: every candidate before it in
    # high-degree-first order fails the reference test, and it passes
    F = make_field(p, d)
    assert x_has_full_order(F.modulus, p)
    c = sum(a * p**j for j, a in enumerate(F.modulus[:-1]))  # its place in that order
    earlier = [tuple(row) + (1,) for row in gf.digits(c, p, d).tolist() if row[0]]
    assert not any(x_has_full_order(m, p) for m in earlier)
    stack = np.array([m[:-1] for m in earlier + [F.modulus]])
    got = gf._x_has_full_order(stack, p, p**d, sympy.primefactors(p**d - 1))
    assert got.tolist() == [False] * len(earlier) + [True]


def _indices(F, data, size=None):
    """One drawn index, or an array of `size` drawn indices."""
    idx = st.integers(min_value=0, max_value=F.q - 1)
    if size is None:
        return data.draw(idx)
    return np.array(data.draw(st.lists(idx, min_size=size, max_size=size)), dtype=np.int64)


@given(st.sampled_from(FIELDS), st.data())
def test_field_axioms_sampled(pd, data):
    F = make_field(*pd)
    size = data.draw(st.sampled_from([None, 5]))
    x, y, z = (_indices(F, data, size) for _ in range(3))

    def eq(a, b):
        return np.array_equal(a, b)

    assert eq(F.sub(F.add(x, y), y), x)
    assert eq(F.add(x, F.neg(x)), np.zeros_like(x))
    assert eq(F.mul(x, F.add(y, z)), F.add(F.mul(x, y), F.mul(x, z)))
    assert eq(F.mul(F.mul(x, y), z), F.mul(x, F.mul(y, z)))
    assert eq(F.mul(x, y), F.mul(y, x))
    # the log/exp product against polynomial multiplication mod the modulus
    for a, b in np.broadcast(x, y):
        prod = _polymulmod(F.coeffs[a], F.coeffs[b], F.modulus, F.p)
        assert F.mul(int(a), int(b)) == F.index(prod)
    nonzero = np.where(np.asarray(x) == 0, 1, x)
    assert eq(F.mul(nonzero, F.inv(nonzero)), np.ones_like(nonzero))
    assert eq(F.power(nonzero, F.q - 1), np.ones_like(nonzero))
    if size is not None:
        # array operations agree with the scalar ones elementwise
        assert F.add(x, y).tolist() == [F.add(int(a), int(b)) for a, b in zip(x, y)]
        assert F.mul(x, y).tolist() == [F.mul(int(a), int(b)) for a, b in zip(x, y)]


@given(st.sampled_from(FIELDS), st.data())
def test_frobenius_is_a_field_automorphism(pd, data):
    F = make_field(*pd)
    size = data.draw(st.sampled_from([None, 5]))
    x, y = (_indices(F, data, size) for _ in range(2))
    frob = F.frobenius
    assert np.array_equal(frob(F.add(x, y)), F.add(frob(x), frob(y)))
    assert np.array_equal(frob(F.mul(x, y)), F.mul(frob(x), frob(y)))
    # d-fold application is the identity
    z = x
    for _ in range(F.d):
        z = frob(z)
    assert np.array_equal(z, x)


@settings(max_examples=30)
@given(st.sampled_from([(3, 2), (2, 4), (13, 1), (5, 2)]))
def test_power_residue_classes_partition(pd):
    F = make_field(*pd)
    for e in range(1, F.q):
        if (F.q - 1) % e != 0:
            continue
        classes = power_residue_classes(F, e)
        assert len(classes) == e
        assert all(np.array_equal(c, np.sort(c)) for c in classes)
        union = set().union(*(c.tolist() for c in classes))
        assert union == set(range(1, F.q))
        assert sum(len(c) for c in classes) == F.q - 1
        # class 0 is multiplicatively closed
        c0 = classes[0]
        assert 1 in c0
        sample = c0[:4]
        assert np.isin(F.mul(sample[:, None], sample), c0).all()


# -- integer helpers against sympy ---------------------------------------------


def test_number_theory_helpers_match_sympy_below_2000():
    # the helpers replace sympy on the import path; labels depend on their
    # exact values (smallest primitive root, smallest square root)
    for n in range(2000):
        assert gf.isprime(n) == sympy.isprime(n), n
        if n >= 1:
            assert gf.factorint(n) == sympy.factorint(n), n
            assert list(gf.factorint(n)) == sorted(gf.factorint(n)), n
    for p in sympy.primerange(2, 2000):
        assert gf.primitive_root(p) == sympy.primitive_root(p), p
        for a in range(p):
            assert gf.sqrt_mod(a, p) == sympy.sqrt_mod(a, p), (a, p)
        for a in range(1, min(p, 40)):
            assert gf.n_order(a, p) == sympy.n_order(a, p), (a, p)
        for e in (3, 5, 7, 11, 13):
            if p % e:
                assert gf.n_order(p, e) == sympy.n_order(p, e), (p, e)


def test_isprime_beyond_trial_bases():
    # strong pseudoprimes to the first 12 prime bases, and Mersenne primes
    assert not gf.isprime(3215031751)
    assert not gf.isprime(318665857834031151167461)
    assert gf.isprime(2**31 - 1)
    assert gf.isprime(2**61 - 1)


def test_helpers_reject_bad_arguments():
    with pytest.raises(ValueError, match=r"^p = 15 is not prime$"):
        gf.primitive_root(15)
    with pytest.raises(ValueError):
        gf.n_order(6, 9)
    with pytest.raises(ValueError):
        gf.factorint(0)
    assert gf.sqrt_mod(3, 7) is None

"""Tests for rank3.gf: fixed small-field oracles plus algebraic properties.

The GF(9) oracle below was worked by hand: candidate quadratics over GF(3) in
high-degree-first lexicographic order are x^2+1 (x has order 4 — not primitive),
x^2+2 = (x+1)(x+2) (reducible), x^2+x+1 = (x-1)^2 (reducible), then x^2+x+2,
whose residue x has order 8.  So the canonical modulus is x^2+x+2 and
omega = x, giving omega.index = 3 and frobenius(omega) = x^3 = 2x+2 (index 8).
"""

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from rank3 import gf
from rank3.gf import (
    DivisionByZero,
    DoesNotDivide,
    FieldMismatch,
    NotPrime,
    TooLarge,
    frobenius,
    make_field,
    power,
    power_residue_classes,
)


def test_gf9_canonical_modulus_and_omega():
    F = make_field(3, 2)
    assert F.q == 9
    assert F.modulus == (2, 1, 1)  # x^2 + x + 2, little-endian
    assert F.omega.index == 3  # the residue x
    assert frobenius(F.omega).index == 8  # x^3 = 2x + 2
    assert power(F.omega, 8) == F.one
    assert power(F.omega, 4) == F.from_int(-1)  # omega^4 = -1 in GF(9)


def test_prime_field_omega_is_smallest_primitive_root():
    assert make_field(3, 1).omega.index == 2
    assert make_field(5, 1).omega.index == 2
    assert make_field(7, 1).omega.index == 3
    assert make_field(13, 1).omega.index == 2
    assert make_field(41, 1).omega.index == 6


def test_gf2_and_gf4():
    F2 = make_field(2, 1)
    assert F2.omega == F2.one
    F4 = make_field(2, 2)
    assert F4.modulus == (1, 1, 1)  # x^2 + x + 1
    assert power(F4.omega, 3) == F4.one
    assert power(F4.omega, 2) != F4.one


def test_element_indexing_round_trip():
    F = make_field(5, 3)
    for i in (0, 1, 7, 124):
        assert F.from_index(i).index == i
    # index = sum coeffs[i] * p^i
    x = F.element((4, 0, 2))
    assert x.index == 4 + 2 * 25


def test_arithmetic_small_prime_field():
    F = make_field(7, 1)
    three, five = F.from_int(3), F.from_int(5)
    assert (three * five).index == 1  # 15 = 1 mod 7
    assert gf.inv(three) == five  # 3 * 5 = 1
    assert (three + five).index == 1
    assert (three - five).index == 5
    assert (-three).index == 4


def test_division_by_zero():
    F = make_field(11, 1)
    with pytest.raises(DivisionByZero):
        gf.inv(F.zero)
    with pytest.raises(DivisionByZero):
        power(F.zero, -1)


def test_field_mismatch_rejected():
    a = make_field(3, 1).one
    b = make_field(5, 1).one
    with pytest.raises(FieldMismatch):
        gf.add(a, b)


def test_make_field_rejects_bad_input():
    with pytest.raises(NotPrime):
        make_field(6, 1)
    with pytest.raises(TooLarge):
        make_field(2, 40)


def test_make_field_is_cached():
    assert make_field(9 - 2, 1) is make_field(7, 1)


def test_power_residue_classes_gf13_squares():
    F = make_field(13, 1)
    classes = power_residue_classes(F, 2)
    squares = {x.index for x in classes[0]}
    assert squares == {1, 3, 4, 9, 10, 12}
    non_squares = {x.index for x in classes[1]}
    assert squares | non_squares == set(range(1, 13))


def test_power_residue_classes_gf16_cubes():
    F = make_field(2, 4)
    classes = power_residue_classes(F, 3)
    assert len(classes) == 3
    assert all(len(c) == 5 for c in classes)
    assert F.one in classes[0]


def test_power_residue_classes_bad_e():
    F = make_field(13, 1)
    with pytest.raises(DoesNotDivide):
        power_residue_classes(F, 5)


def test_inverse_without_tables():
    # polynomial-arithmetic fallback: exercised directly on the coefficient level
    F = make_field(3, 2)
    for x in F.elements():
        if x.is_zero():
            continue
        inv_coeffs = gf._polyinvmod(x.coeffs, F.modulus, F.p)
        assert gf._polymulmod(x.coeffs, inv_coeffs, F.modulus, F.p) == F.one.coeffs


FIELDS = [(2, 1), (3, 1), (13, 1), (2, 2), (3, 2), (2, 4), (5, 2), (3, 4), (2, 8)]


@pytest.mark.parametrize("p,d", FIELDS)
def test_omega_has_full_multiplicative_order(p, d):
    F = make_field(p, d)
    seen = set()
    x = F.one
    for _ in range(F.q - 1):
        seen.add(x.index)
        x = x * F.omega
    assert x == F.one
    assert len(seen) == F.q - 1


@given(st.sampled_from(FIELDS), st.data())
def test_field_axioms_sampled(pd, data):
    F = make_field(*pd)
    idx = st.integers(min_value=0, max_value=F.q - 1)
    x = F.from_index(data.draw(idx))
    y = F.from_index(data.draw(idx))
    z = F.from_index(data.draw(idx))
    assert (x + y) - y == x
    assert x * (y + z) == x * y + x * z
    assert (x * y) * z == x * (y * z)
    if not x.is_zero():
        assert x * gf.inv(x) == F.one
        assert power(x, F.q - 1) == F.one


@given(st.sampled_from(FIELDS), st.data())
def test_frobenius_is_a_field_automorphism(pd, data):
    F = make_field(*pd)
    idx = st.integers(min_value=0, max_value=F.q - 1)
    x = F.from_index(data.draw(idx))
    y = F.from_index(data.draw(idx))
    assert frobenius(x + y) == frobenius(x) + frobenius(y)
    assert frobenius(x * y) == frobenius(x) * frobenius(y)
    # d-fold application is the identity
    z = x
    for _ in range(F.d):
        z = frobenius(z)
    assert z == x


@settings(max_examples=30)
@given(st.sampled_from([(3, 2), (2, 4), (13, 1), (5, 2)]))
def test_power_residue_classes_partition(pd):
    F = make_field(*pd)
    for e in range(1, F.q):
        if (F.q - 1) % e != 0:
            continue
        classes = power_residue_classes(F, e)
        assert len(classes) == e
        union = set().union(*classes)
        assert len(union) == F.q - 1
        assert sum(len(c) for c in classes) == F.q - 1
        # class 0 is multiplicatively closed
        c0 = classes[0]
        assert F.one in c0
        sample = sorted(c0, key=lambda t: t.index)[:4]
        for a in sample:
            for b in sample:
                assert a * b in c0


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
    with pytest.raises(NotPrime):
        gf.primitive_root(15)
    with pytest.raises(ValueError):
        gf.n_order(6, 9)
    with pytest.raises(ValueError):
        gf.factorint(0)
    assert gf.sqrt_mod(3, 7) is None

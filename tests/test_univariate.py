"""Univariate polynomials in r: interpolation, rational roots, rendering."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from holanom import univariate as uni

from oracles import random_rational, rational_roots_by_divisors


def test_lagrange_recovers_cubic():
    # p(r) = 2r^3 - r + 5/3
    def p(r):
        return 2 * r**3 - r + F(5, 3)

    nodes = [F(0), F(1), F(-1), F(2)]
    coeffs = uni.lagrange_interpolate([(x, p(x)) for x in nodes])
    assert coeffs == (F(5, 3), F(-1), F(0), F(2))
    assert uni.evaluate(coeffs, F(7, 3)) == p(F(7, 3))


def test_lagrange_random_polynomials():
    rng = random.Random(3)
    for _ in range(200):
        true = tuple(random_rational(rng) for _ in range(4))
        nodes = [F(0), F(1), F(-1), F(2)]
        points = [(x, uni.evaluate(true, x)) for x in nodes]
        assert uni.lagrange_interpolate(points) == uni.normalize(true)


def test_lagrange_rejects_repeated_nodes():
    with pytest.raises(ValueError):
        uni.lagrange_interpolate([(F(1), F(0)), (F(1), F(2))])


def test_rational_roots_complete():
    # (r + 3/5)(r - 2)(r - 1/7) cleared of denominators
    factors = [(F(3, 5), F(1)), (F(-2), F(1)), (F(-1, 7), F(1))]
    coeffs = (F(1),)
    for f in factors:
        coeffs = uni.multiply(coeffs, f)
    assert uni.rational_roots(coeffs) == [F(-3, 5), F(1, 7), F(2)]


def test_rational_roots_zero_constant():
    # r^2(r - 4)
    coeffs = (F(0), F(0), F(-4), F(1))
    assert uni.rational_roots(coeffs) == [F(0), F(4)]


def test_rational_roots_none_rational():
    # r^2 - 2 has no rational roots
    assert uni.rational_roots((F(-2), F(0), F(1))) == []


def test_rational_roots_rejects_zero_polynomial():
    with pytest.raises(ValueError):
        uni.rational_roots(())


def random_root_test_polynomial(rng):
    """A random polynomial of degree <= 4 with small coefficients.

    A non-zero constant times factors q*x - p, x, random quadratics and
    repeats of the previous factor, so repeated, zero, rational and
    irrational roots and constant polynomials all occur.
    """
    coeffs = (F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4)),)
    target = rng.randint(0, 4)
    factor = (F(0), F(1))
    while uni.degree(coeffs) < target:
        kind = rng.random()
        if kind < 0.45:
            factor = (F(rng.randint(-6, 6)), F(rng.randint(1, 6)))
        elif kind < 0.7:
            factor = uni.normalize([random_rational(rng) for _ in range(3)])
        elif kind < 0.85:
            factor = (F(0), F(1))
        # otherwise the previous factor is repeated
        if 1 <= uni.degree(factor) <= target - uni.degree(coeffs):
            coeffs = uni.multiply(coeffs, factor)
    return coeffs


def test_rational_roots_match_divisor_oracle():
    rng = random.Random(11)
    seen = {"repeated": 0, "zero": 0, "constant": 0}
    for _ in range(2000):
        coeffs = random_root_test_polynomial(rng)
        roots = uni.rational_roots(coeffs)
        assert roots == rational_roots_by_divisors(coeffs), coeffs
        derivative = tuple(i * c for i, c in enumerate(coeffs))[1:]
        seen["repeated"] += any(uni.evaluate(derivative, x) == 0 for x in roots)
        seen["zero"] += F(0) in roots
        seen["constant"] += uni.degree(coeffs) == 0
    assert min(seen.values()) >= 50, seen


@pytest.mark.parametrize("seed", range(6))
def test_rational_roots_of_huge_linear_factors(seed):
    # prod (q x - p) with |p|, q up to 10**18, times an irreducible quadratic
    rng = random.Random(seed)
    expected = set()
    coeffs = (F(2), F(0), F(rng.choice([-3, 3])))
    for _ in range(rng.randint(1, 3)):
        p, q = rng.randint(-(10**18), 10**18), rng.randint(1, 10**18)
        coeffs = uni.multiply(coeffs, (F(-p), F(q)))
        expected.add(F(p, q))
    if seed % 2:
        coeffs = uni.multiply(coeffs, (F(-p), F(q)))  # a repeated root
    assert uni.rational_roots(coeffs) == sorted(expected)


def test_rational_roots_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(12)
    for _ in range(200):
        coeffs = random_root_test_polynomial(rng)
        if uni.degree(coeffs) < 1:
            continue
        poly = sum(sympy.Rational(c.numerator, c.denominator) * x**i for i, c in enumerate(coeffs))
        found = sympy.roots(sympy.Poly(poly, x))
        rational = sorted(F(int(r.p), int(r.q)) for r in found if r.is_Rational)
        assert uni.rational_roots(coeffs) == rational, coeffs


def test_polynomial_gcd():
    # gcd((x - 1)^2 (x + 2), (x - 1)(x - 3)) = x - 1, monic
    a = uni.multiply(uni.multiply((F(-1), F(1)), (F(-1), F(1))), (F(2), F(1)))
    b = uni.multiply((F(-2), F(2)), (F(-3), F(1)))
    assert uni.gcd(a, b) == (F(-1), F(1))
    assert uni.gcd(a, (F(5),)) == (F(1),)
    assert uni.gcd((), b) == (F(3), F(-4), F(1))
    assert uni.gcd((), ()) == ()


def test_format_poly():
    assert uni.format_poly((F(-3), F(-5))) == "-5*r - 3"
    assert uni.format_poly((F(1, 2), F(0), F(1))) == "r^2 + 1/2"
    assert uni.format_poly(()) == "0"

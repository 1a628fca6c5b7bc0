"""Univariate polynomials in r: interpolation, rational roots, rendering."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from holanom import univariate as uni

from oracles import random_rational


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


def test_format_poly():
    assert uni.format_poly((F(-3), F(-5))) == "-5*r - 3"
    assert uni.format_poly((F(1, 2), F(0), F(1))) == "r^2 + 1/2"
    assert uni.format_poly(()) == "0"

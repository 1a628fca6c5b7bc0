"""Exact truncated-ring arithmetic: examples pinned by oracles, plus ring laws."""

from __future__ import annotations

import random
from fractions import Fraction as F
from math import comb

import pytest

from holanom.chern import gravitational_context, todd, twist_context, untwisted_context
from holanom.ring import (
    GeneratorMismatch,
    GeneratorSet,
    GradedPoly,
    SeriesDomainError,
    format_rational,
    homogeneous_monomials,
    parse_rational,
)

from oracles import (
    from_graded,
    monomial_count,
    naive_degree,
    naive_exp,
    naive_homogeneous_monomials,
    naive_log,
    naive_mul,
    random_graded_poly,
    random_rational,
)

CTX2 = GeneratorSet(("g1", "g2"), (2, 4), 6)
CTX1 = GeneratorSet(("g1",), (2,), 4)
CTX1_DEEP = GeneratorSet(("g1",), (2,), 6)


def gen(ctx, name):
    return GradedPoly.generator(ctx, name)


# ---------------------------------------------------------------------------
# generator sets


def test_generator_set_validation():
    with pytest.raises(ValueError):
        GeneratorSet(("a", "a"), (2, 2), 4)
    with pytest.raises(ValueError):
        GeneratorSet(("a",), (3,), 4)
    with pytest.raises(ValueError):
        GeneratorSet(("a",), (6,), 4)
    with pytest.raises(ValueError):
        GeneratorSet(("a",), (2,), 5)


def test_monomial_name_round_trip():
    assert CTX2.monomial_name((2, 1)) == "g1^2*g2"
    assert CTX2.monomial_name((0, 0)) == "1"
    assert CTX2.monomial({"g2": 1}) == (0, 1)
    with pytest.raises(GeneratorMismatch):
        CTX2.monomial({"nope": 1})


def test_homogeneous_monomials_degree_six():
    assert homogeneous_monomials(CTX2, 6) == [(3, 0), (1, 1)]


# rings whose first generator cannot fill every remainder, and one that is not a twist ring
OTHER_RINGS = {
    "first-4": GeneratorSet(("a", "b", "c"), (4, 2, 6), 24),
    "first-6": GeneratorSet(("a",), (6,), 18),
    "first-10": GeneratorSet(("a", "b", "c"), (10, 2, 2), 20),
    "untwisted": untwisted_context(),
}


def four_twist_contexts(n):
    return [twist_context(n, simple, abelian) for simple in (False, True) for abelian in (False, True)]


@pytest.mark.parametrize("ring", [*range(1, 10), *OTHER_RINGS])
def test_homogeneous_monomials_match_brute_force(ring):
    contexts = four_twist_contexts(ring) if isinstance(ring, int) else [OTHER_RINGS[ring]]
    for ctx in contexts:
        for degree in range(-2, ctx.cap + 3):
            assert homogeneous_monomials(ctx, degree) == naive_homogeneous_monomials(
                ctx.degrees, degree
            ), (ctx.names, degree)


def test_homogeneous_monomials_of_the_empty_ring():
    empty = GeneratorSet((), (), 4)
    assert homogeneous_monomials(empty, 0) == [()]
    for degree in (-2, -1, 1, 2, 4, 6):
        assert homogeneous_monomials(empty, degree) == []


@pytest.mark.parametrize("n", range(10, 21))
def test_homogeneous_monomials_count_and_order_past_brute_force(n):
    # strictly descending, of the right degree and as many as the Hilbert series counts:
    # together these pin both the set and the order
    for ctx in four_twist_contexts(n):
        found = homogeneous_monomials(ctx, 2 * n + 2)
        assert all(a > b for a, b in zip(found, found[1:]))
        assert all(naive_degree(e, ctx.degrees) == 2 * n + 2 for e in found)
        assert len(found) == monomial_count(ctx.degrees, 2 * n + 2)


# ---------------------------------------------------------------------------
# addition


def test_add_cancels_to_zero():
    g1 = gen(CTX2, "g1")
    assert (g1 + (-g1)).is_zero()


def test_add_disjoint_monomials():
    g1 = gen(CTX1, "g1")
    assert 1 + g1 + g1**2 == GradedPoly(CTX1, {(0,): 1, (1,): 1, (2,): 1})


def test_add_rational_coefficients():
    # oracle: 1/2 + 1/2 == 1 exactly
    half = F(1, 2) * gen(CTX2, "g1") * gen(CTX2, "g2")
    assert half + half == gen(CTX2, "g1") * gen(CTX2, "g2")


def test_add_context_mismatch():
    with pytest.raises(GeneratorMismatch):
        gen(CTX2, "g1") + gen(CTX1, "g1")


# ---------------------------------------------------------------------------
# multiplication


def test_mul_generators():
    assert gen(CTX2, "g1") * gen(CTX2, "g2") == GradedPoly(CTX2, {(1, 1): 1})


def test_mul_truncates_above_cap():
    g1, g2 = gen(CTX2, "g1"), gen(CTX2, "g2")
    assert (g1**2 * g2).is_zero()  # degree 8 > cap 6


def test_mul_hand_expansion():
    g1 = gen(CTX2, "g1")
    product = (1 + g1 * F(1, 2)) * (1 - g1 * F(1, 2))
    assert product == 1 - g1**2 * F(1, 4)


PRODUCT_RINGS = [
    CTX2,
    *(ctx for n in range(1, 4) for ctx in four_twist_contexts(n)),
    untwisted_context(),
]


def test_mul_against_oracle():
    rng = random.Random(7)
    for ctx in PRODUCT_RINGS:
        for _ in range(300 if ctx == CTX2 else 100):
            a = random_graded_poly(rng, ctx)
            b = random_graded_poly(rng, ctx)
            expected = naive_mul(from_graded(a), from_graded(b), ctx.degrees, ctx.cap)
            assert from_graded(a * b) == expected, ctx.names


def test_product_component_matches_full_product():
    rng = random.Random(11)
    for ctx in PRODUCT_RINGS:
        for _ in range(150 if ctx == CTX2 else 50):
            a = random_graded_poly(rng, ctx, max_terms=6)
            b = random_graded_poly(rng, ctx, max_terms=6)
            for degree in range(-2, ctx.cap + 3):
                assert a.product_component(b, degree) == (a * b).component(degree), ctx.names


# ---------------------------------------------------------------------------
# exp / log


def test_exp_of_line_class():
    g1 = gen(CTX2, "g1")
    expanded = (g1 * F(-1, 3)).exp()
    assert expanded == 1 - F(1, 3) * g1 + F(1, 18) * g1**2 - F(1, 162) * g1**3


def test_exp_of_zero():
    assert GradedPoly.zero(CTX2).exp() == 1


def test_exp_two_generators():
    # frozen from the series oracle: exp(g1+g2) = 1 + g1 + g2 + g1^2/2 + g1g2 + g1^3/6
    g1, g2 = gen(CTX2, "g1"), gen(CTX2, "g2")
    combined = g1 + g2
    expected = naive_exp(from_graded(combined), CTX2.degrees, CTX2.cap)
    assert expected == {
        (0, 0): F(1),
        (1, 0): F(1),
        (0, 1): F(1),
        (2, 0): F(1, 2),
        (1, 1): F(1),
        (3, 0): F(1, 6),
    }
    assert from_graded(combined.exp()) == expected


def test_exp_rejects_constant_term():
    with pytest.raises(SeriesDomainError):
        (1 + gen(CTX2, "g1")).exp()


def test_log_of_one():
    assert GradedPoly.constant(CTX2, 1).log().is_zero()


def test_log_inverts_exp():
    g1 = gen(CTX2, "g1")
    assert (g1 * F(1, 2)).exp().log() == g1 * F(1, 2)


def test_log_series():
    g1 = gen(CTX1_DEEP, "g1")
    expected = naive_log(from_graded(1 + g1), CTX1_DEEP.degrees, CTX1_DEEP.cap)
    assert expected == {(1,): F(1), (2,): F(-1, 2), (3,): F(1, 3)}
    assert from_graded((1 + g1).log()) == expected


def test_log_rejects_wrong_constant():
    with pytest.raises(SeriesDomainError):
        gen(CTX2, "g1").log()
    with pytest.raises(SeriesDomainError):
        (2 + gen(CTX2, "g1")).log()


# ---------------------------------------------------------------------------
# component / coefficient


def test_component_picks_degree():
    g1 = gen(CTX1, "g1")
    poly = 1 + g1 + g1**2
    assert poly.component(4) == g1**2
    assert poly.component(0) == GradedPoly.constant(CTX1, 1)
    assert poly.component(100).is_zero()


def test_coefficient_binomial():
    g1 = gen(CTX1_DEEP, "g1")
    cube = (1 + g1) ** 3
    for k in range(4):
        assert cube.coefficient({"g1": k}) == comb(3, k)


def test_coefficient_of_zero():
    assert GradedPoly.zero(CTX2).coefficient({"g1": 1}) == 0


def test_coefficient_unknown_generator():
    with pytest.raises(GeneratorMismatch):
        gen(CTX2, "g1").coefficient({"bogus": 1})


# ---------------------------------------------------------------------------
# ring laws and truncation invariants


def check_ring_laws(cases: int, seed: int = 11):
    rng = random.Random(seed)
    for _ in range(cases):
        a = random_graded_poly(rng, CTX2)
        b = random_graded_poly(rng, CTX2)
        c = random_graded_poly(rng, CTX2)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_ring_laws_random():
    check_ring_laws(1000)


def check_exp_log_inverse(cases: int, seed: int = 13):
    rng = random.Random(seed)
    for _ in range(cases):
        p = random_graded_poly(rng, CTX2)
        nilpotent = p - GradedPoly.constant(CTX2, p.constant_term)
        assert nilpotent.exp().log() == nilpotent
        assert (1 + nilpotent).log().exp() == 1 + nilpotent


def test_exp_log_mutually_inverse():
    check_exp_log_inverse(500)


def test_truncation_never_exceeds_cap():
    rng = random.Random(17)
    for _ in range(400):
        a = random_graded_poly(rng, CTX2)
        b = random_graded_poly(rng, CTX2)
        for result in (a + b, a * b, a - b, a**2):
            assert all(CTX2.degree(e) <= CTX2.cap for e, _ in result.terms())


def test_arbitrary_precision_and_lowest_terms():
    big = F(10**40 + 1, 10**40)
    poly = GradedPoly.constant(CTX2, big) ** 2
    value = poly.constant_term
    assert value == big * big
    assert value.denominator > 0
    from math import gcd

    assert gcd(value.numerator, value.denominator) == 1


# ---------------------------------------------------------------------------
# substitution and evaluation


def test_substitute_between_contexts():
    src = GeneratorSet(("tc1",), (2,), 6)
    poly = GradedPoly.generator(src, "tc1") ** 3
    target = CTX1_DEEP
    image = {"tc1": gen(target, "g1") * 2}
    assert poly.substitute(target, image) == 8 * gen(target, "g1") ** 3


def test_substitute_missing_image():
    with pytest.raises(GeneratorMismatch):
        gen(CTX2, "g2").substitute(CTX1_DEEP, {"g1": gen(CTX1_DEEP, "g1")})


def test_evaluate_at_rationals():
    rng = random.Random(19)
    for _ in range(100):
        p = random_graded_poly(rng, CTX2)
        q = random_graded_poly(rng, CTX2)
        point = {"g1": random_rational(rng), "g2": random_rational(rng)}
        assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)


# ---------------------------------------------------------------------------
# rendering


@pytest.mark.parametrize(
    "poly,text",
    [
        (GradedPoly.zero(CTX2), "0"),
        (GradedPoly.constant(CTX2, F(-3, 4)), "-3/4"),
        (
            todd(2, gravitational_context(2)),
            "1 + 1/2*g1 - 1/12*g2 + 1/8*g1^2 - 1/24*g1*g2 + 1/48*g1^3",
        ),
        (-gen(CTX2, "g1") + gen(CTX2, "g2") - 1, "-1 - g1 + g2"),
        (
            gen(CTX2, "g1") * gen(CTX2, "g2") - F(2, 3) * gen(CTX2, "g1") ** 3
            + F(5, 2) * gen(CTX2, "g2"),
            "5/2*g2 + g1*g2 - 2/3*g1^3",
        ),
        (-F(1, 2) * gen(CTX2, "g1") - gen(CTX2, "g1") ** 2, "-1/2*g1 - g1^2"),
        (7 * gen(CTX2, "g2") + 1, "1 + 7*g2"),
    ],
)
def test_str_orders_by_degree_and_signs_each_term(poly, text):
    # degree first, then exponent tuple; unit coefficients print bare
    assert str(poly) == text


# ---------------------------------------------------------------------------
# rational text form


def test_parse_rational():
    assert parse_rational("3/5") == F(3, 5)
    assert parse_rational("-7") == F(-7)
    assert parse_rational("+2/4") == F(1, 2)


@pytest.mark.parametrize("bad", ["1.5", "1/0", "a/b", "1e3", "", "1/ 2"])
def test_parse_rational_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_format_round_trip():
    rng = random.Random(23)
    for _ in range(200):
        x = random_rational(rng, 100, 97)
        assert parse_rational(format_rational(x)) == x

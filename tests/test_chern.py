"""Chern characters, Todd classes, Newton identities, wedge and pushforward."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from holanom.chern import (
    MAX_DIMENSION,
    Atom,
    COTANGENT,
    FieldContent,
    GaugeRep,
    Kpow,
    TANGENT,
    TRIVIAL,
    adjoint,
    antifundamental,
    c_from_ch,
    ch_atom,
    ch_content,
    ch_geom,
    ch_rep,
    fundamental,
    gravitational_context,
    pushforward_curve,
    todd,
    todd_log_coefficients,
    trivial,
    twist_context,
)
from holanom.ring import GeneratorMismatch, GradedPoly

from oracles import ch_from_c, ch_of_roots, elementary_symmetric, random_rational, wedge_total

CTX1 = gravitational_context(1)
CTX2 = gravitational_context(2)
CTX3 = gravitational_context(3)


def gen(ctx, name):
    return GradedPoly.generator(ctx, name)


# ---------------------------------------------------------------------------
# built-in representations


def test_builtin_representations():
    assert fundamental(3) == GaugeRep(3, F(1), F(1), F(0))
    assert antifundamental(3) == GaugeRep(3, F(1), F(-1), F(0))
    assert adjoint(3) == GaugeRep(8, F(6), F(0), F(0))
    assert adjoint(2) == GaugeRep(3, F(4), F(0), F(0))
    assert trivial(5, F(2, 3)).q == F(2, 3)


# ---------------------------------------------------------------------------
# ch of geometric factors


def test_ch_canonical_power():
    expected = 1 - F(1, 3) * gen(CTX2, "g1") + F(1, 18) * gen(CTX2, "g1") ** 2 - F(
        1, 162
    ) * gen(CTX2, "g1") ** 3
    assert ch_geom(Kpow(F(1, 3)), 2, CTX2) == expected


def test_ch_trivial_factor():
    assert ch_geom(TRIVIAL, 2, CTX2) == 1


def test_ch_tangent_rank_two():
    # Newton extension: ch_3(T) = g1*g2/2 - g1^3/12 for a rank-2 bundle
    g1, g2 = gen(CTX2, "g1"), gen(CTX2, "g2")
    expected = 2 + g1 + g2 + F(1, 2) * g1 * g2 - F(1, 12) * g1**3
    assert ch_geom(TANGENT, 2, CTX2) == expected


def test_ch_tangent_against_chern_roots():
    # oracle: a rank-n bundle with explicit rational Chern roots x_i has
    # ch_k = sum x_i^k / k!; the package polynomial must evaluate to the
    # same numbers at g_k = ch_k(roots).
    rng = random.Random(31)
    for n, ctx in ((1, CTX1), (2, CTX2), (3, CTX3)):
        tangent = ch_geom(TANGENT, n, ctx)
        cotangent = ch_geom(COTANGENT, n, ctx)
        for _ in range(100):
            roots = [random_rational(rng, 5, 3) for _ in range(n)]
            point = {f"g{k}": ch_of_roots(roots, k) for k in range(1, n + 1)}
            expected = n + sum(ch_of_roots(roots, k) for k in range(1, ctx.cap // 2 + 1))
            assert tangent.evaluate(point) == expected
            dual = n + sum(
                ch_of_roots([-x for x in roots], k) for k in range(1, ctx.cap // 2 + 1)
            )
            assert cotangent.evaluate(point) == dual


# ---------------------------------------------------------------------------
# ch of representations and atoms


def test_ch_fundamental_su3():
    ctx = twist_context(2, simple=True)
    assert ch_rep(fundamental(3), ctx) == 3 + gen(ctx, "s2") + gen(ctx, "s3")


def test_ch_adjoint_su3():
    # quadratic index doubles 2*N_c; the cubic trace vanishes on the adjoint
    ctx = twist_context(2, simple=True)
    assert ch_rep(adjoint(3), ctx) == 8 + 6 * gen(ctx, "s2")


def test_ch_charged_line_dimension_one():
    ctx = twist_context(1, abelian=True)
    f1 = gen(ctx, "f1")
    assert ch_rep(trivial(1, 1), ctx) == 1 + f1 + F(1, 2) * f1**2


def test_ch_rep_missing_generator():
    with pytest.raises(GeneratorMismatch):
        ch_rep(fundamental(3), CTX2)
    with pytest.raises(GeneratorMismatch):
        ch_rep(trivial(1, 1), CTX1)


def test_ch_rep_cubic_term_truncates_in_dimension_one():
    # s3 has degree 6 > cap 4, so the cubic part is legitimately zero
    ctx = twist_context(1, simple=True)
    assert ch_rep(fundamental(2), ctx) == 2 + gen(ctx, "s2")


def test_ch_atom_odd_adjoint():
    ctx = twist_context(2, simple=True)
    assert ch_atom(Atom(TRIVIAL, adjoint(2), "odd"), 2, ctx) == -(3 + 4 * gen(ctx, "s2"))


def test_ch_atom_even_canonical():
    assert ch_atom(Atom(Kpow(F(1)), trivial(1), "even"), 2, CTX2) == (
        -gen(CTX2, "g1")
    ).exp()


def test_ch_atom_odd_tangent_dimension_one():
    g1 = gen(CTX1, "g1")
    assert ch_atom(Atom(TANGENT, trivial(1), "odd"), 1, CTX1) == -(1 + g1 + F(1, 2) * g1**2)


# ---------------------------------------------------------------------------
# ch of field content


def test_ch_content_vector_plus_partner():
    dim_g = 8
    content = FieldContent(
        2,
        (
            (dim_g, Atom(TRIVIAL, trivial(1), "odd")),
            (dim_g, Atom(Kpow(F(1, 3)), trivial(1), "even")),
        ),
    )
    g1 = gen(CTX2, "g1")
    expected = dim_g * (-F(1, 3) * g1 + F(1, 18) * g1**2 - F(1, 162) * g1**3)
    assert ch_content(content, CTX2) == expected


def test_ch_content_empty():
    assert ch_content(FieldContent(2), CTX2).is_zero()


def test_ch_content_full_exterior_cube():
    # the full alternating cube collapses to a single top-degree class
    ctx = twist_context(2, simple=True)
    content = wedge_total(F(1, 3), 3, adjoint(2), "odd")
    dim_g = 3
    assert ch_content(content, ctx) == -F(dim_g, 27) * gen(ctx, "g1") ** 3


def test_ch_content_additive_and_parity():
    rng = random.Random(37)
    ctx = twist_context(2, simple=True, abelian=True)
    for _ in range(200):
        a = _random_content(rng)
        b = _random_content(rng)
        assert ch_content(a + b, ctx) == ch_content(a, ctx) + ch_content(b, ctx)
        assert ch_content(a.flipped(), ctx) == -ch_content(a, ctx)


def _random_content(rng):
    geoms = [TRIVIAL, TANGENT, COTANGENT, Kpow(random_rational(rng, 4, 3))]
    reps = [
        trivial(1),
        trivial(2, rng.randint(-2, 2)),
        fundamental(3),
        antifundamental(3),
        adjoint(2),
    ]
    pieces = []
    for _ in range(rng.randint(0, 4)):
        pieces.append(
            (
                rng.choice([-2, -1, 1, 2, 3]),
                Atom(rng.choice(geoms), rng.choice(reps), rng.choice(["even", "odd"])),
            )
        )
    return FieldContent(2, tuple(pieces))


def test_ch_canonical_powers_multiply():
    rng = random.Random(41)
    for _ in range(200):
        lam = random_rational(rng, 6, 5)
        mu = random_rational(rng, 6, 5)
        lhs = ch_geom(Kpow(lam), 2, CTX2) * ch_geom(Kpow(mu), 2, CTX2)
        assert lhs == ch_geom(Kpow(lam + mu), 2, CTX2)


# ---------------------------------------------------------------------------
# Todd class


def test_todd_log_coefficients():
    coefficients = todd_log_coefficients(4)
    assert coefficients == (F(1, 2), F(-1, 24), F(0), F(1, 2880))


def test_todd_dimension_one():
    g1 = gen(CTX1, "g1")
    assert todd(1, CTX1) == 1 + F(1, 2) * g1 + F(1, 12) * g1**2


def test_todd_dimension_two_top_degree():
    g1, g2 = gen(CTX2, "g1"), gen(CTX2, "g2")
    assert todd(2, CTX2).component(6) == -F(1, 24) * g1 * g2 + F(1, 48) * g1**3
    assert todd(2, CTX2).coefficient({"g1": 1, "g2": 1}) == F(-1, 24)


@pytest.mark.parametrize("n", range(1, 7))
def test_todd_cache_matches_uncached(n):
    for simple in (False, True):
        for abelian in (False, True):
            ctx = twist_context(n, simple, abelian)
            assert todd(n, ctx) == todd.__wrapped__(n, ctx)
            assert todd(n, ctx) is todd(n, ctx)
    assert todd.cache_info().maxsize == 4 * MAX_DIMENSION


def test_dimension_ceiling():
    assert gravitational_context(MAX_DIMENSION).names[-1] == f"g{MAX_DIMENSION}"
    with pytest.raises(ValueError, match="exceeds the supported maximum"):
        twist_context(MAX_DIMENSION + 1, simple=True, abelian=True)


def test_todd_dimension_two_degree_four():
    # classical expansion (c1^2 + c2)/12 with c2 = (g1^2 - 2 g2)/2
    g1, g2 = gen(CTX2, "g1"), gen(CTX2, "g2")
    c2 = (g1**2 - 2 * g2) * F(1, 2)
    assert todd(2, CTX2).component(4) == (g1**2 + c2) * F(1, 12)


@pytest.mark.parametrize("n,ctx", [(1, CTX1), (2, CTX2), (3, CTX3)])
def test_todd_low_degrees(n, ctx):
    t = todd(n, ctx)
    assert t.constant_term == 1
    assert t.component(2) == F(1, 2) * gen(ctx, "g1")


def test_todd_times_canonical_power_closed_form():
    rng = random.Random(43)
    g1, g2 = gen(CTX2, "g1"), gen(CTX2, "g2")
    t2 = todd(2, CTX2)
    for _ in range(20):
        lam = random_rational(rng, 8, 7)
        shifted = lam - F(1, 2)
        expected = F(1, 12) * shifted * g1 * g2 - F(1, 6) * shifted**3 * g1**3
        assert (t2 * ch_geom(Kpow(lam), 2, CTX2)).component(6) == expected


# ---------------------------------------------------------------------------
# Newton identities


def test_chern_classes_from_characters():
    g1, g2 = gen(CTX2, "g1"), gen(CTX2, "g2")
    cs = c_from_ch(2, CTX2)
    assert cs[0] == g1
    assert cs[1] == (g1**2 - 2 * g2) * F(1, 2)
    assert c_from_ch(1, CTX1) == [gen(CTX1, "g1")]


def test_tangent_extension_rank_two():
    g1, g2 = gen(CTX2, "g1"), gen(CTX2, "g2")
    extended = ch_from_c(c_from_ch(2, CTX2))
    assert extended[2] == F(1, 2) * g1 * g2 - F(1, 12) * g1**3


@pytest.mark.parametrize("n,ctx", [(1, CTX1), (2, CTX2), (3, CTX3)])
def test_newton_round_trip(n, ctx):
    characters = ch_from_c(c_from_ch(n, ctx))
    for k in range(1, n + 1):
        assert characters[k - 1] == gen(ctx, f"g{k}")


def check_newton_against_roots(cases: int, seed: int = 47):
    # oracle: for explicit rational roots, the c polynomials must evaluate
    # to the elementary symmetric functions of the roots.
    rng = random.Random(seed)
    contexts = {1: CTX1, 2: CTX2, 3: CTX3}
    for _ in range(cases):
        n = rng.randint(1, 3)
        ctx = contexts[n]
        roots = [random_rational(rng, 5, 3) for _ in range(n)]
        point = {f"g{k}": ch_of_roots(roots, k) for k in range(1, n + 1)}
        for k, c_poly in enumerate(c_from_ch(n, ctx), start=1):
            assert c_poly.evaluate(point) == elementary_symmetric(roots, k)


def test_newton_against_roots():
    check_newton_against_roots(300)


# ---------------------------------------------------------------------------
# exterior algebra


def test_wedge_cube_structure():
    content = wedge_total(F(1, 3), 3, adjoint(3), "odd")
    expected = FieldContent(
        2,
        (
            (1, Atom(TRIVIAL, adjoint(3), "odd")),
            (3, Atom(Kpow(F(1, 3)), adjoint(3), "even")),
            (3, Atom(Kpow(F(2, 3)), adjoint(3), "odd")),
            (1, Atom(Kpow(F(1)), adjoint(3), "even")),
        ),
    )
    assert content == expected


def test_wedge_single_line():
    content = wedge_total(F(1, 3), 1, adjoint(2), "odd")
    expected = FieldContent(
        2,
        (
            (1, Atom(TRIVIAL, adjoint(2), "odd")),
            (1, Atom(Kpow(F(1, 3)), adjoint(2), "even")),
        ),
    )
    assert content == expected


def test_wedge_of_trivial_power_has_zero_character():
    content = wedge_total(F(0), 1, trivial(1), "odd")
    assert ch_content(content, CTX2).is_zero()


# ---------------------------------------------------------------------------
# pushforward along a curve


def test_pushforward_todd_top_degree():
    target_g1 = gen(CTX1, "g1")
    for chi in (F(1), F(0), F(-3), F(5, 7)):
        pushed = pushforward_curve(todd(2, CTX2).component(6), 1, chi)
        assert pushed == chi * F(1, 12) * target_g1**2


def test_pushforward_of_constant_is_zero():
    assert pushforward_curve(GradedPoly.constant(CTX2, 1), 1, F(3)).is_zero()


def test_pushforward_cube():
    pushed = pushforward_curve(gen(CTX2, "g1") ** 3, 1, F(1))
    assert pushed == 6 * gen(CTX1, "g1") ** 2


def test_pushforward_rejects_deep_generators():
    ctx4 = gravitational_context(3)
    poly = gen(ctx4, "g3") * gen(ctx4, "g1")
    with pytest.raises(GeneratorMismatch):
        pushforward_curve(poly, 1, F(1))


def test_pushforward_two_to_one_matches_hand_expansion():
    # (g1 + s)^2 has s-coefficient 2 g1, and g2 -> g1^2/2 contributes nothing linear
    pushed = pushforward_curve(gen(CTX2, "g1") ** 2, 1, F(1, 2))
    assert pushed == 2 * gen(CTX1, "g1")

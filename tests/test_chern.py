"""Chern characters, Todd classes, Newton identities, wedge and pushforward."""

from __future__ import annotations

import random
from fractions import Fraction as F
from math import factorial

import pytest

from holanom.chern import (
    MAX_DIMENSION,
    Atom,
    COTANGENT,
    FieldContent,
    GaugeGroup,
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
    tangent_ch,
    todd,
    todd_log_coefficients,
    trivial,
    twist_context,
)
from holanom.anomaly import anomaly_polynomial, context_for_theory
from holanom.ring import GeneratorMismatch, GeneratorSet, GradedPoly
from holanom.theory import Chiral, Theory, Vector, twist_content

from oracles import (
    _newton,
    ch_from_c,
    ch_of_roots,
    coprime_big_rationals,
    elementary_symmetric,
    from_graded,
    is_canonical,
    naive_ch_content,
    pushforward_curve_square_zero,
    random_graded_poly,
    random_rational,
    todd_log_closed_form,
    wedge_total,
)

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


def _random_oracle_content(rng, n):
    """Seeded content in dimension n: zero, negative and fractional lam, tangent and
    cotangent factors, built-in and arbitrary (charged, su-valued) reps, both parities."""
    def weight():
        return rng.choice([F(0), random_rational(rng, 4, 3)])

    def rep():
        pick = rng.randrange(6)
        if pick == 0:
            return trivial(rng.randint(1, 3), rng.choice([0, random_rational(rng, 3, 3)]))
        if pick <= 2:
            return rng.choice([fundamental, antifundamental, adjoint])(rng.randint(2, 4))
        return GaugeRep(rng.randint(1, 4), weight(), weight(), weight())

    def geom():
        pick = rng.randrange(5)
        if pick == 0:
            return rng.choice([TANGENT, COTANGENT])
        return Kpow(F(0) if pick == 1 else random_rational(rng, 7, 4))

    pieces = [
        (rng.choice([-3, -1, 1, 2, 5]), Atom(geom(), rep(), rng.choice(["even", "odd"])))
        for _ in range(rng.randint(0, 4))
    ]
    return FieldContent(n, tuple(pieces))


def test_ch_content_matches_naive_oracle():
    # 400 seeded contents over dimensions 1-6 in all four twist contexts; dimension 1
    # (cap 4) drops s3 and every cap drops the high powers of f1 and g1
    rng = random.Random(53)
    compared = refused = 0
    for case in range(400):
        n = 1 + case % 6
        ctx = twist_context(n, simple=rng.random() < 0.5, abelian=rng.random() < 0.5)
        content = _random_oracle_content(rng, n)
        try:
            expected = naive_ch_content(content, ctx.names, ctx.degrees, ctx.cap)
        except GeneratorMismatch:
            with pytest.raises(GeneratorMismatch):
                ch_content(content, ctx)
            refused += 1
            continue
        assert from_graded(ch_content(content, ctx)) == expected
        compared += 1
    assert compared >= 150 and refused >= 50


def test_ch_content_matches_oracle_on_big_coprime_denominators():
    # lam, t2, t3 and q of each atom have pairwise coprime denominators up to 10^30, and every
    # content has an even and an odd atom
    rng = random.Random(59)
    for n in range(1, 5):
        for simple in (False, True):
            for abelian in (False, True):
                ctx = twist_context(n, simple, abelian)
                for _ in range(4):
                    pieces = []
                    for parity in rng.sample(["even", "odd", rng.choice(["even", "odd"])], 3):
                        lam, t2, t3, q = coprime_big_rationals(rng, 4)
                        rep = GaugeRep(rng.randint(1, 4), *((t2, t3) if simple else (0, 0)), q if abelian else 0)
                        geom = rng.choice([Kpow(lam), Kpow(lam), TANGENT, COTANGENT])
                        pieces.append((rng.choice([-3, -1, 1, 2]), Atom(geom, rep, parity)))
                    content = FieldContent(n, tuple(pieces))
                    ch = ch_content(content, ctx)
                    assert from_graded(ch) == naive_ch_content(content, ctx.names, ctx.degrees, ctx.cap)
                    assert is_canonical(ch)


@pytest.mark.parametrize("inexact", [0.1, "1/2", None])
def test_inexact_charges_and_powers_are_refused(inexact):
    for build in (
        lambda: Kpow(inexact),
        lambda: GaugeRep(1, inexact),
        lambda: GaugeRep(1, 0, inexact),
        lambda: GaugeRep(1, 0, 0, inexact),
        lambda: pushforward_curve(GradedPoly.zero(gravitational_context(2)), 1, inexact),
    ):
        with pytest.raises(TypeError):
            build()
    assert Kpow(1).power == 1 and GaugeRep(1, 2, F(1, 3), -1).t3 == F(1, 3)


@pytest.mark.parametrize(
    "ctx,pieces",
    [
        # a charged atom, canonical or tangent, in a ring without f1
        (twist_context(2, simple=True), [(1, Atom(Kpow(F(1, 3)), trivial(1, F(1, 2))))]),
        (twist_context(3), [(2, Atom(TANGENT, trivial(2, 1), "odd"))]),
        # an su-valued atom in a ring without s2, also when a flipped copy cancels it
        (twist_context(2, abelian=True), [(1, Atom(TRIVIAL, adjoint(2)))]),
        (twist_context(1, abelian=True), [(1, Atom(Kpow(F(-1)), fundamental(2)))]),
        (
            twist_context(2),
            [(1, Atom(TRIVIAL, fundamental(3))), (1, Atom(TRIVIAL, fundamental(3), "odd"))],
        ),
    ],
)
def test_ch_content_refuses_atoms_outside_the_ring(ctx, pieces):
    content = FieldContent(ctx.cap // 2 - 1, tuple(pieces))
    with pytest.raises(GeneratorMismatch):
        ch_content(content, ctx)
    for _, atom in pieces:
        with pytest.raises(GeneratorMismatch):
            ch_atom(atom, content.dimension, ctx)


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


@pytest.mark.parametrize("kmax", range(1, MAX_DIMENSION + 2))
def test_todd_log_coefficients_match_bernoulli_closed_form(kmax):
    assert todd_log_coefficients(kmax) == todd_log_closed_form(kmax)


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


@pytest.mark.parametrize("n", range(1, 11))
def test_closed_forms_match_newton(n):
    a = todd_log_closed_form(n + 1)
    for simple in (False, True):
        for abelian in (False, True):
            ctx = twist_context(n, simple, abelian)
            cs, power_sums = _newton(n, ctx)
            assert c_from_ch(n, ctx) == cs
            assert tangent_ch(n, ctx) == [
                p * F(1, factorial(k)) for k, p in enumerate(power_sums, start=1)
            ]
            assert todd.__wrapped__(n, ctx) == sum(x * p for x, p in zip(a, power_sums)).exp()
            for lam in (F(0), F(1, 3), F(-7, 5)):
                assert ch_geom(Kpow(lam), n, ctx) == (gen(ctx, "g1") * -lam).exp()
            if abelian:
                rep = GaugeRep(3, F(1), F(-1), F(2, 3)) if simple else trivial(2, F(-5, 4))
                body = rep.dim + sum(
                    c * gen(ctx, name)
                    for c, name in ((rep.t2, "s2"), (rep.t3, "s3"))
                    if name in ctx.names
                )
                assert ch_rep(rep, ctx) == (gen(ctx, "f1") * rep.q).exp() * body


def test_closed_forms_refuse_other_caps():
    # c_{n+1} = 0 and the linear exp(p_{n+1}) hold only at the rank-n cap 2n+2
    g1g2 = (("g1", "g2"), (2, 4))
    for n, ctx in ((1, CTX2), (2, GeneratorSet(*g1g2, 8)), (2, GeneratorSet(*g1g2, 4))):
        for build in (c_from_ch, tangent_ch, todd):
            with pytest.raises(GeneratorMismatch, match="need cap"):
                build(n, ctx)


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


@pytest.mark.parametrize(
    "ctx",
    [
        GeneratorSet(("g1", "g2"), (2, 4), 8),  # cap 2n+6, not 2n+4
        GeneratorSet(("g1", "g2", "h"), (2, 4, 2), 6),  # a name no twist context has
        GeneratorSet(("g1", "g2", "s2"), (2, 4, 6), 6),  # s2 at the wrong degree
    ],
)
def test_pushforward_rejects_rings_outside_the_twist_contexts(ctx):
    with pytest.raises(GeneratorMismatch):
        pushforward_curve(gen(ctx, "g1") ** 2, 1, F(1))


def test_pushforward_two_to_one_matches_hand_expansion():
    # (g1 + s)^2 has s-coefficient 2 g1, and g2 -> g1^2/2 contributes nothing linear
    pushed = pushforward_curve(gen(CTX2, "g1") ** 2, 1, F(1, 2))
    assert pushed == 2 * gen(CTX1, "g1")


# every twist context of the total space, except n = 1 with s3: the reference
# keeps s3 (degree 6) in the cap-4 target ring, which cannot be built
@pytest.mark.parametrize(
    "n,simple,abelian",
    [
        (n, simple, abelian)
        for n in range(1, 5)
        for simple in (False, True)
        for abelian in (False, True)
        if not (n == 1 and simple)
    ],
)
def test_pushforward_matches_square_zero_reference(n, simple, abelian):
    rng = random.Random(1000 * n + 10 * simple + abelian)
    ctx = twist_context(n + 1, simple, abelian)
    for _ in range(15):
        poly = random_graded_poly(rng, ctx, max_terms=6)
        chi = random_rational(rng, 5, 3)
        # GradedPoly equality compares the ring as well as the terms
        assert pushforward_curve(poly, n, chi) == pushforward_curve_square_zero(poly, n, chi)


def test_pushforward_of_su_anomaly_drops_s3():
    theory = Theory(
        gauge=GaugeGroup(su=3),
        multiplets=(Vector(), Chiral(F(1, 3), fundamental(3), copies=4)),
    )
    poly = anomaly_polynomial(twist_content(theory), context_for_theory(theory))
    assert poly.ctx.names == ("g1", "g2", "s2", "s3")
    assert any(e[3] for e, _ in poly.terms())
    no_s3 = GeneratorSet(("g1", "g2", "s2"), (2, 4, 4), 6)
    stripped = GradedPoly(no_s3, {e[:3]: c for e, c in poly.terms() if not e[3]})
    pushed = pushforward_curve(poly, 1, F(1))
    assert pushed.ctx.names == ("g1", "s2")
    assert pushed == pushforward_curve(stripped, 1, F(1))
    assert pushed == pushforward_curve_square_zero(stripped, 1, F(1))

"""Anomaly computation, classification, conversions, obstructions and solving."""

from __future__ import annotations

import collections
import random
from fractions import Fraction as F

import pytest

from holanom import anomaly
from holanom.anomaly import (
    anomaly_in_r,
    anomaly_polynomial,
    classify,
    context_for_content,
    context_for_theory,
    gauge_obstruction,
    holomorphic_ac,
    monomial_buckets,
    multiplet_table,
    physical_ac,
    r_symmetry_polynomial,
    render_local_cocycle,
    solve_r,
    t_background_obstruction,
    twist_substitute,
)
from holanom.chern import (
    COTANGENT,
    Atom,
    FieldContent,
    GaugeGroup,
    GaugeRep,
    Kpow,
    TANGENT,
    TRIVIAL,
    adjoint,
    antifundamental,
    fundamental,
    gravitational_context,
    todd,
    trivial,
    twist_context,
    untwisted_context,
)
from holanom.duality import SQCDSpec, seiberg_match
from holanom.ring import GeneratorMismatch, GradedPoly, homogeneous_monomials
from holanom.theory import (
    Chiral,
    ConfigurationError,
    Hyper,
    N2Vector,
    N4Vector,
    Raw,
    Theory,
    Vector,
    twist_content,
    with_unknown_r,
)
from holanom.univariate import evaluate, normalize

from oracles import interpolate_in_r, random_rational

CTX2 = gravitational_context(2)


def gen(ctx, name):
    return GradedPoly.generator(ctx, name)


def _line(parity="even", q=0, n=2):
    return FieldContent(n, ((1, Atom(TRIVIAL, trivial(1, q), parity)),))


# ---------------------------------------------------------------------------
# the anomaly polynomial


def test_anomaly_of_trivial_line():
    expected = -F(1, 24) * gen(CTX2, "g1") * gen(CTX2, "g2") + F(1, 48) * gen(CTX2, "g1") ** 3
    assert anomaly_polynomial(_line()) == expected


def test_anomaly_of_ghost_system():
    ctx1 = gravitational_context(1)
    ghost = FieldContent(1, ((1, Atom(TANGENT, trivial(1), "odd")),))
    assert anomaly_polynomial(ghost) == -F(13, 12) * gen(ctx1, "g1") ** 2


def test_anomaly_cancels_against_parity_flip():
    rng = random.Random(61)
    for _ in range(50):
        content = _random_content(rng)
        doubled = content + content.flipped()
        assert anomaly_polynomial(doubled, twist_context(2, True, True)).is_zero()


def _random_content(rng, n=2):
    geoms = [TRIVIAL, Kpow(random_rational(rng, 3, 3))]
    reps = [trivial(1), trivial(2, rng.randint(-2, 2)), fundamental(2), adjoint(2)]
    pieces = tuple(
        (
            rng.choice([-2, -1, 1, 2]),
            Atom(rng.choice(geoms), rng.choice(reps), rng.choice(["even", "odd"])),
        )
        for _ in range(rng.randint(0, 4))
    )
    return FieldContent(n, pieces)


def check_anomaly_additivity(cases: int, seed: int = 67):
    rng = random.Random(seed)
    ctx = twist_context(2, True, True)
    for _ in range(cases):
        a = _random_content(rng)
        b = _random_content(rng)
        assert anomaly_polynomial(a + b, ctx) == anomaly_polynomial(a, ctx) + anomaly_polynomial(b, ctx)
        assert anomaly_polynomial(a.flipped(), ctx) == -anomaly_polynomial(a, ctx)


def test_anomaly_additivity():
    check_anomaly_additivity(500)


# ---------------------------------------------------------------------------
# classification


def test_classify_todd():
    report = classify(todd(2, CTX2).component(6), 2)
    assert report.a_hol == F(-1, 24)
    assert report.c_hol == F(1, 48)
    assert report.pure_gauge == {} and report.mixed == {}


def test_classify_virasoro_ghost():
    ctx1 = gravitational_context(1)
    report = classify(-F(13, 12) * gen(ctx1, "g1") ** 2, 1)
    assert report.virasoro_c == -26


def test_classify_virasoro_free_boson():
    ctx1 = gravitational_context(1)
    report = classify(F(1, 12) * gen(ctx1, "g1") ** 2, 1)
    assert report.virasoro_c == 2


def test_classify_rejects_non_homogeneous():
    with pytest.raises(ValueError):
        classify(1 + gen(CTX2, "g1") ** 3, 2)
    with pytest.raises(ValueError):
        classify(gen(CTX2, "g1"), 2)


def check_classify_partition(cases: int, seed: int = 71):
    rng = random.Random(seed)
    ctx = twist_context(2, True, True)
    from holanom.ring import homogeneous_monomials

    monomials = homogeneous_monomials(ctx, 6)
    for _ in range(cases):
        poly = GradedPoly(
            ctx, {m: random_rational(rng) for m in rng.sample(monomials, rng.randint(0, len(monomials)))}
        )
        report = classify(poly, 2)
        rebuilt = {}
        for bucket in (report.gravitational, report.pure_gauge, report.mixed):
            for name, coeff in bucket.items():
                rebuilt[ctx.monomial(_mapping(name))] = coeff
        assert GradedPoly(ctx, rebuilt) == poly
        overlap = (
            set(report.gravitational) & set(report.pure_gauge)
            | set(report.gravitational) & set(report.mixed)
            | set(report.pure_gauge) & set(report.mixed)
        )
        assert not overlap


def _mapping(name):
    out = {}
    for part in name.split("*"):
        if "^" in part:
            g, e = part.split("^")
            out[g] = int(e)
        else:
            out[part] = 1
    return out


def test_classify_partition_reconstruction():
    check_classify_partition(500)


def test_monomial_inventories_dimension_two():
    ctx = twist_context(2, True, True)
    assert monomial_buckets(ctx, 2) == {
        "gravitational": ["g1^3", "g1*g2"],
        "pure_gauge": ["s2*f1", "s3", "f1^3"],
        "mixed": ["g1^2*f1", "g1*s2", "g1*f1^2", "g2*f1"],
    }


# ---------------------------------------------------------------------------
# coefficient conversions


@pytest.mark.parametrize(
    "a_hol,c_hol,a,c",
    [
        (F(1, 24), F(-1, 48), F(3, 16), F(1, 8)),
        (F(-1, 72), F(1, 1296), F(1, 48), F(1, 24)),
        (F(0), F(-1, 54), F(1, 4), F(1, 4)),
        (F(0), F(0), F(0), F(0)),
    ],
)
def test_physical_and_holomorphic(a_hol, c_hol, a, c):
    assert physical_ac(a_hol, c_hol) == (a, c)
    assert holomorphic_ac(a, c) == (a_hol, c_hol)


def test_conversion_round_trip():
    rng = random.Random(73)
    for _ in range(50):
        a, c = random_rational(rng, 30, 17), random_rational(rng, 30, 17)
        assert physical_ac(*holomorphic_ac(a, c)) == (a, c)
        a_hol, c_hol = random_rational(rng, 30, 17), random_rational(rng, 30, 17)
        assert holomorphic_ac(*physical_ac(a_hol, c_hol)) == (a_hol, c_hol)


# ---------------------------------------------------------------------------
# untwisted pipeline


def test_r_symmetry_polynomial_unit():
    ctx = untwisted_context()
    tc1, p1 = gen(ctx, "tc1"), gen(ctx, "p1")
    assert r_symmetry_polynomial(1, 1) == F(1, 6) * tc1**3 - F(1, 24) * tc1 * p1
    assert r_symmetry_polynomial(0, 0).is_zero()


def test_trace_relations_for_vector_multiplet():
    a, c = F(3, 16), F(1, 8)
    assert 16 * (a - c) == 1
    assert F(16, 3) * (F(5, 3) * a - c) == 1


def test_twist_substitute_unit():
    ctx = untwisted_context()
    tc1, p1 = gen(ctx, "tc1"), gen(ctx, "p1")
    poly = F(1, 6) * tc1**3 - F(1, 24) * tc1 * p1
    g1, g2 = gen(CTX2, "g1"), gen(CTX2, "g2")
    assert twist_substitute(poly) == -F(1, 48) * g1**3 + F(1, 24) * g1 * g2
    assert twist_substitute(GradedPoly.zero(ctx)).is_zero()
    assert twist_substitute(tc1 * p1) == -g1 * g2


def test_twist_substitute_rejects_foreign_generators():
    with pytest.raises(GeneratorMismatch):
        twist_substitute(gen(CTX2, "g1"))


def check_untwisted_pipeline(cases: int, seed: int = 79):
    rng = random.Random(seed)
    for _ in range(cases):
        a, c = random_rational(rng, 20, 13), random_rational(rng, 20, 13)
        tr_r = 16 * (a - c)
        tr_r3 = F(16, 3) * (F(5, 3) * a - c)
        report = classify(twist_substitute(r_symmetry_polynomial(tr_r, tr_r3)), 2)
        assert (report.a_hol, report.c_hol) == holomorphic_ac(a, c)


def test_untwisted_pipeline_matches_direct_conversion():
    check_untwisted_pipeline(100)


# ---------------------------------------------------------------------------
# canonical-power closed form


def check_canonical_power_closed_form(cases: int, seed: int = 83):
    rng = random.Random(seed)
    for _ in range(cases):
        lam = random_rational(rng, 9, 8)
        r = 2 * lam - 1
        content = FieldContent(2, ((1, Atom(Kpow(lam), trivial(1), "even")),))
        report = classify(anomaly_polynomial(content), 2)
        assert report.a_hol == r / 24
        assert report.c_hol == -(r**3) / 48


def test_canonical_power_closed_form():
    check_canonical_power_closed_form(100)


def test_canonical_power_antisymmetry():
    rng = random.Random(89)
    for _ in range(50):
        lam = random_rational(rng, 9, 8)
        one = classify(
            anomaly_polynomial(FieldContent(2, ((1, Atom(Kpow(lam), trivial(1), "even")),))), 2
        )
        mirrored = classify(
            anomaly_polynomial(
                FieldContent(2, ((1, Atom(Kpow(1 - lam), trivial(1), "even")),))
            ),
            2,
        )
        assert one.a_hol == -mirrored.a_hol
        assert one.c_hol == -mirrored.c_hol


def test_vector_encodings_agree():
    # parity-odd untwisted adjoint vs parity-even full canonical twist
    ctx = twist_context(2, simple=True)
    odd_form = FieldContent(2, ((1, Atom(TRIVIAL, adjoint(3), "odd")),))
    even_form = FieldContent(2, ((1, Atom(Kpow(F(1)), adjoint(3), "even")),))
    assert anomaly_polynomial(odd_form, ctx) == anomaly_polynomial(even_form, ctx)


# ---------------------------------------------------------------------------
# obstructions


def _sqcd_theory(nc, nf, r=None):
    r = F(-nc, nf) if r is None else r
    return Theory(
        gauge=GaugeGroup(su=nc),
        multiplets=(
            Vector(),
            Chiral(r, fundamental(nc), copies=nf),
            Chiral(r, antifundamental(nc), copies=nf),
        ),
    )


def _report(theory):
    return classify(
        anomaly_polynomial(twist_content(theory), context_for_theory(theory)),
        theory.dimension,
    )


def test_gauge_obstruction_sqcd_free():
    for nc, nf in ((2, 2), (3, 5), (4, 3)):
        bucket, free = gauge_obstruction(_report(_sqcd_theory(nc, nf)))
        assert free and bucket == {}


def test_gauge_obstruction_pure_gauge_free():
    theory = Theory(gauge=GaugeGroup(su=4), multiplets=(Vector(),))
    bucket, free = gauge_obstruction(_report(theory))
    assert free  # the adjoint carries no cubic trace


def test_gauge_obstruction_single_fundamental():
    theory = Theory(gauge=GaugeGroup(su=3), multiplets=(Chiral(F(0), fundamental(3)),))
    bucket, free = gauge_obstruction(_report(theory))
    assert not free
    assert bucket == {"s3": F(1)}


def test_t_background_sqcd_at_solved_charge():
    report = _report(_sqcd_theory(3, 5))
    bucket, free = t_background_obstruction(report)
    assert free and bucket == {}


def test_t_background_sqcd_at_zero_charge():
    report = _report(_sqcd_theory(3, 5, r=F(0)))
    bucket, free = t_background_obstruction(report)
    assert not free
    assert bucket == {"g1*s2": F(-3)}


def test_equal_fundamental_pairs_are_gauge_free():
    # the cubic coefficients of fundamental and antifundamental cancel
    rng = random.Random(103)
    for _ in range(100):
        nc = rng.randint(2, 5)
        pieces = []
        for _ in range(rng.randint(1, 3)):
            lam = random_rational(rng, 4, 3)
            count = rng.randint(1, 4)
            parity = rng.choice(["even", "odd"])
            pieces.append((count, Atom(Kpow(lam), fundamental(nc), parity)))
            pieces.append((count, Atom(Kpow(lam), antifundamental(nc), parity)))
        report = classify(anomaly_polynomial(FieldContent(2, tuple(pieces))), 2)
        _, free = gauge_obstruction(report)
        assert free


def test_mixed_abelian_line_dimension_one():
    content = _line("even", 0, 1) + _line("odd", 1, 1)
    report = classify(anomaly_polynomial(content), 1)
    assert report.mixed == {"g1*f1": F(-1, 2)}
    assert report.gravitational == {}
    _, free = t_background_obstruction(report)
    assert not free


# ---------------------------------------------------------------------------
# solving for R-charges


def _sqcd_template(nc, nf):
    return Theory(
        gauge=GaugeGroup(su=nc),
        multiplets=(
            Vector(),
            Chiral(F(0), fundamental(nc), copies=nf, unknown_r=True),
            Chiral(F(0), antifundamental(nc), copies=nf, unknown_r=True),
        ),
    )


@pytest.mark.parametrize("nc,nf", [(3, 5), (2, 3)])
def test_solve_r_sqcd(nc, nf):
    result = solve_r(_sqcd_template(nc, nf))
    assert not result.unconstrained
    assert result.roots == [F(-nc, nf)]


def test_solve_r_specific_monomial():
    result = solve_r(_sqcd_template(3, 5), target="g1*s2")
    assert result.roots == [F(-3, 5)]
    assert result.polynomials["g1*s2"] == (F(-3), F(-5))


def test_solve_r_unconstrained_without_gauge_matter():
    theory = Theory(
        gauge=GaugeGroup(su=2),
        multiplets=(Chiral(F(0), trivial(1), unknown_r=True),),
    )
    result = solve_r(theory)
    assert result.unconstrained
    assert result.roots is None


def test_solve_r_without_gauge_group_has_nothing_to_constrain(monkeypatch):
    # unmarked: the same error as an unmarked gauge theory
    with pytest.raises(ConfigurationError, match="no multiplet is marked"):
        solve_r(Theory(multiplets=(Chiral(F(-1, 3), trivial(1)),)))
    with pytest.raises(ConfigurationError, match="no multiplet is marked"):
        solve_r(Theory(gauge=GaugeGroup(su=3), multiplets=(Vector(),)))
    # marked: nothing to constrain, and no sample theory is run
    monkeypatch.setattr(anomaly, "anomaly_polynomial", None)
    result = solve_r(Theory(multiplets=(Chiral(F(-1, 3), trivial(1), unknown_r=True),)))
    assert result.polynomials == {}
    assert result.unconstrained


def test_solve_r_rejects_unknown_target():
    with pytest.raises(ValueError):
        solve_r(_sqcd_template(3, 5), target="g1*g2")


def _charged_sqcd_template(nc, nf):
    """SU(N_c) x U(1) SQCD: quarks at charge 1, antiquarks at charge -1/2."""
    return Theory(
        gauge=GaugeGroup(su=nc, abelian=True),
        multiplets=(
            Vector(),
            Chiral(F(0), GaugeRep(nc, 1, 1, 1), copies=nf, unknown_r=True),
            Chiral(F(0), GaugeRep(nc, 1, -1, F(-1, 2)), copies=nf, unknown_r=True),
        ),
    )


def test_solve_r_all_mixed_polynomials_match_the_pipeline():
    theory = _charged_sqcd_template(3, 5)
    ctx = context_for_theory(theory)
    result = solve_r(theory)
    assert list(result.polynomials) == monomial_buckets(ctx, 2)["mixed"]
    for r in (F(-3, 5), F(7, 2), F(-11, 3)):
        report = classify(anomaly_polynomial(twist_content(with_unknown_r(theory, r)), ctx), 2)
        for name, coeffs in result.polynomials.items():
            assert evaluate(coeffs, r) == report.mixed.get(name, 0)


def _random_marked_theory(rng, seen):
    """A dimension-2 theory with 1-3 marked chirals, in one of the four twist contexts.

    Fixed vectors, chirals, hypers and raw atoms ride along; reps may be
    SU(N)-valued and charged, and copies reach 10^6.  seen counts what was
    drawn.
    """
    su = rng.choice([2, 3, 5]) if rng.random() < 0.5 else None
    abelian = rng.random() < 0.5
    seen[("context", su is not None, abelian)] += 1

    def rep():
        base = rng.choice([trivial(rng.randint(1, 4))] + (
            [fundamental(su), antifundamental(su), adjoint(su)] if su else []))
        q = rng.choice([0, random_rational(rng, 5, 3)]) if abelian else 0
        seen["su rep"] += bool(base.t2)
        seen["charged rep"] += bool(q)
        return GaugeRep(base.dim, base.t2, base.t3, q)

    def copies():
        count = rng.choice([1, rng.randint(2, 9), rng.randint(10, 10**6)])
        seen["copies >= 10^5"] += count >= 10**5
        return count

    multiplets = [Chiral(random_rational(rng), rep(), copies(), unknown_r=True)
                  for _ in range(rng.randint(1, 3))]
    if su and rng.random() < 0.6:
        multiplets.append(rng.choice([Vector, N2Vector, N4Vector])())
        seen["vector"] += 1
    for _ in range(rng.randint(0, 2)):
        kind = rng.choice(["chiral", "hyper", "raw"])
        seen[kind] += 1
        if kind == "chiral":
            multiplets.append(Chiral(random_rational(rng), rep(), copies()))
        elif kind == "hyper":
            multiplets.append(Hyper(rep(), copies()))
        else:
            geom = rng.choice([Kpow(random_rational(rng, 7, 4)), TANGENT, COTANGENT])
            atom = Atom(geom, rep(), rng.choice(["even", "odd"]))
            multiplets.append(Raw(FieldContent(2, ((rng.choice([-3, -1, 1, 2]), atom),))))
    rng.shuffle(multiplets)
    return Theory(gauge=GaugeGroup(su=su, abelian=abelian), multiplets=tuple(multiplets))


def test_anomaly_in_r_matches_the_interpolation_oracle():
    rng = random.Random(12)
    seen = collections.Counter()
    for _ in range(200):
        theory = _random_marked_theory(rng, seen)
        ctx = context_for_theory(theory)
        monomials = homogeneous_monomials(ctx, 6)

        def coefficients(instance):
            poly = anomaly_polynomial(twist_content(instance), ctx)
            return {e: poly.coefficient(e) for e in monomials}

        expected = interpolate_in_r(theory, coefficients)
        found = anomaly_in_r(theory)
        assert len(found) == 4  # degree <= 3 in r
        assert all(a.ctx == ctx and a.homogeneous_degree() in (0, 6) for a in found)
        for e in monomials:
            assert normalize([a.coefficient(e) for a in found]) == expected[e], (theory, e)
    contexts = [key for key in seen if key[0] == "context"]
    assert len(contexts) == 4
    assert min(seen.values()) >= 20, seen


def test_anomaly_in_r_requires_a_marked_chiral():
    with pytest.raises(ConfigurationError):
        anomaly_in_r(Theory(multiplets=(Chiral(F(0), trivial(1)),)))


@pytest.mark.parametrize(
    "call,runs",
    [
        (lambda: solve_r(_charged_sqcd_template(3, 5)), 1),
        (lambda: seiberg_match(SQCDSpec(3, 5)), 3),
    ],
    ids=["solve_r-su3xu1-all-mixed", "seiberg_match-3-5"],
)
def test_pipeline_runs_per_call(monkeypatch, call, runs):
    original = anomaly.anomaly_polynomial
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(anomaly, "anomaly_polynomial", counted)
    call()
    assert len(calls) == runs


# ---------------------------------------------------------------------------
# display form


def test_render_local_cocycle_contains_coefficients():
    text = render_local_cocycle(F(-1, 24), F(1, 48))
    assert "-1/24" in text and "1/48" in text
    assert "tr(Jμ) tr(∂Jμ ∂Jμ)" in text
    assert "tr(Jμ) tr(∂Jμ) tr(∂Jμ)" in text


def test_render_local_cocycle_zero():
    assert "vanishes" in render_local_cocycle(0, 0)


def test_render_local_cocycle_sign_flip():
    flipped = render_local_cocycle(F(1, 24), F(-1, 48))
    assert "(1/24)" in flipped and "(-1/48)" in flipped


# ---------------------------------------------------------------------------
# the reference table


def test_multiplet_table_values():
    expected = {
        "n1-vector": (F(3, 16), F(1, 8), F(1, 24), F(-1, 48)),
        "n1-chiral": (F(1, 48), F(1, 24), F(-1, 72), F(1, 1296)),
        "n2-vector": (F(5, 24), F(1, 6), F(1, 36), F(-13, 648)),
        "n2-hyper": (F(1, 24), F(1, 12), F(-1, 36), F(1, 648)),
        "n4-vector": (F(1, 4), F(1, 4), F(0), F(-1, 54)),
    }
    rows = {label: values for label, *values in multiplet_table()}
    assert {k: tuple(v) for k, v in rows.items()} == expected


def test_context_inference_from_content():
    content = FieldContent(2, ((1, Atom(TRIVIAL, fundamental(2), "even")),))
    assert "s2" in context_for_content(content).names
    plain = FieldContent(2, ((1, Atom(TRIVIAL, trivial(1), "even")),))
    assert context_for_content(plain).names == ("g1", "g2")

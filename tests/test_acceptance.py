"""Acceptance suite: every criterion exact (tolerance zero), one per test.

Each test prints a PASS line on success so `pytest -v -s` doubles as a
checklist.  Randomized property criteria run at >= 500 cases each.
"""

from __future__ import annotations

import random
from fractions import Fraction as F

from holanom.anomaly import (
    anomaly_polynomial,
    classify,
    context_for_theory,
    gauge_obstruction,
    holomorphic_ac,
    multiplet_table,
    physical_ac,
    r_symmetry_polynomial,
    solve_r,
    t_background_obstruction,
    twist_substitute,
)
from holanom.chern import (
    Atom,
    FieldContent,
    GaugeGroup,
    Kpow,
    TANGENT,
    TRIVIAL,
    antifundamental,
    fundamental,
    gravitational_context,
    pushforward_curve,
    todd,
    trivial,
)
from holanom.duality import SQCDSpec, electric_anomalies, magnetic_anomalies, seiberg_match
from holanom.ring import GradedPoly
from holanom.theory import Chiral, Theory, Vector, twist_content

from oracles import random_rational
from test_anomaly import (
    check_anomaly_additivity,
    check_classify_partition,
)
from test_chern import check_newton_against_roots
from test_ring import check_exp_log_inverse, check_ring_laws

CTX1 = gravitational_context(1)
CTX2 = gravitational_context(2)


def _passed(number, text):
    print(f"ACCEPTANCE {number}: PASS - {text}")


def test_criterion_1_todd_expansions():
    g1 = GradedPoly.generator(CTX1, "g1")
    assert todd(1, CTX1) == 1 + F(1, 2) * g1 + F(1, 12) * g1**2
    G1, G2 = GradedPoly.generator(CTX2, "g1"), GradedPoly.generator(CTX2, "g2")
    assert todd(2, CTX2).component(6) == -F(1, 24) * G1 * G2 + F(1, 48) * G1**3
    _passed(1, "Todd class expansions in dimensions 1 and 2")


def test_criterion_2_multiplet_table():
    expected = {
        "n1-vector": (F(3, 16), F(1, 8), F(1, 24), F(-1, 48)),
        "n1-chiral": (F(1, 48), F(1, 24), F(-1, 72), F(1, 1296)),
        "n2-vector": (F(5, 24), F(1, 6), F(1, 36), F(-13, 648)),
        "n2-hyper": (F(1, 24), F(1, 12), F(-1, 36), F(1, 648)),
        "n4-vector": (F(1, 4), F(1, 4), F(0), F(-1, 54)),
    }
    computed = {label: tuple(values) for label, *values in multiplet_table()}
    assert computed == expected
    _passed(2, "all five multiplet rows of the (a, c, a_hol, c_hol) table")


def test_criterion_3_dimension_one_sanity():
    ghost = FieldContent(1, ((1, Atom(TANGENT, trivial(1), "odd")),))
    assert classify(anomaly_polynomial(ghost), 1).virasoro_c == -26
    boson = FieldContent(1, ((1, Atom(TRIVIAL, trivial(1), "even")),))
    assert classify(anomaly_polynomial(boson), 1).virasoro_c == 2
    thirteen = boson.scaled(13) + ghost
    assert anomaly_polynomial(thirteen).is_zero()
    _passed(3, "ghost c = -26, free boson c = 2, thirteen bosons cancel the ghost")


def test_criterion_4_canonical_power_closed_forms():
    for lam in (F(0), F(1, 3), F(2, 3), F(1), F(5, 7), F(-2, 3)):
        r = 2 * lam - 1
        content = FieldContent(2, ((1, Atom(Kpow(lam), trivial(1), "even")),))
        report = classify(anomaly_polynomial(content), 2)
        assert (report.a_hol, report.c_hol) == (r / 24, -(r**3) / 48)
        mirrored = FieldContent(2, ((1, Atom(Kpow(1 - lam), trivial(1), "even")),))
        mirror_report = classify(anomaly_polynomial(mirrored), 2)
        assert (mirror_report.a_hol, mirror_report.c_hol) == (
            -report.a_hol,
            -report.c_hol,
        )
    _passed(4, "canonical-power closed forms and the lam <-> 1-lam antisymmetry")


def _sqcd_unknown_template(nc, nf):
    return Theory(
        gauge=GaugeGroup(su=nc),
        multiplets=(
            Vector(),
            Chiral(F(0), fundamental(nc), copies=nf, unknown_r=True),
            Chiral(F(0), antifundamental(nc), copies=nf, unknown_r=True),
        ),
    )


def test_criterion_5_qcd():
    for nc, nf in ((2, 3), (3, 5), (4, 7)):
        spec = SQCDSpec(nc, nf)
        a_hol, c_hol = electric_anomalies(spec)
        assert a_hol == F(-(nc**2 + 1), 24)
        assert c_hol == F(2 * nc**4 - nc**2 * nf**2 + nf**2, 48 * nf**2)

        from holanom.duality import electric_theory

        report = classify(
            anomaly_polynomial(
                twist_content(electric_theory(spec)),
                context_for_theory(electric_theory(spec)),
            ),
            2,
        )
        _, gauge_free = gauge_obstruction(report)
        assert gauge_free

        result = solve_r(_sqcd_unknown_template(nc, nf))
        assert result.roots == [F(-nc, nf)]

        a, c = physical_ac(a_hol, c_hol)
        assert a == F(-3, 16 * nf**2) * (3 * nc**4 - 2 * nc**2 * nf**2 + nf**2)
        assert c == F(-1, 16 * nf**2) * (9 * nc**4 - 7 * nc**2 * nf**2 + 2 * nf**2)
    _passed(5, "QCD gauge freedom, solved R-charge, and all closed-form coefficients")


def test_criterion_6_seiberg_matching():
    for nc in range(2, 5):
        for nf in range(nc + 2, 9):
            spec = SQCDSpec(nc, nf)
            result = seiberg_match(spec)
            assert result.r_meson == 1 - F(2 * nc, nf)
            assert result.matched
            electric = electric_anomalies(spec)
            magnetic = magnetic_anomalies(spec, result.r_meson)
            assert physical_ac(*electric) == physical_ac(*magnetic)
    _passed(6, "Seiberg matching across the whole (N_c, N_f) grid")


def test_criterion_7_compactification():
    g1 = GradedPoly.generator(CTX1, "g1")
    top = todd(2, CTX2).component(6)
    for chi in (F(1), F(0), F(-3)):
        assert pushforward_curve(top, 1, chi) == chi * F(1, 12) * g1**2
    _passed(7, "curve pushforward of the top Todd component for chi in {1, 0, -3}")


def test_criterion_8_r_symmetry_pipeline():
    rng = random.Random(101)
    for _ in range(25):
        a = random_rational(rng, 25, 19)
        c = random_rational(rng, 25, 19)
        tr_r = 16 * (a - c)
        tr_r3 = F(16, 3) * (F(5, 3) * a - c)
        report = classify(twist_substitute(r_symmetry_polynomial(tr_r, tr_r3)), 2)
        assert (report.a_hol, report.c_hol) == holomorphic_ac(a, c)
    _passed(8, "untwisted R-symmetry pipeline agrees with the direct conversion")


def test_criterion_9_mixed_dimension_one():
    content = FieldContent(
        1,
        (
            (1, Atom(TRIVIAL, trivial(1), "even")),
            (1, Atom(TRIVIAL, trivial(1, 1), "odd")),
        ),
    )
    report = classify(anomaly_polynomial(content), 1)
    assert report.mixed.get("g1*f1", F(0)) != 0
    assert report.gravitational == {}
    _, t_free = t_background_obstruction(report)
    assert not t_free
    _passed(9, "charged/uncharged line pair has a pure mixed anomaly in dimension 1")


def test_criterion_10_property_suites():
    check_ring_laws(500, seed=211)
    check_exp_log_inverse(500, seed=223)
    _check_ch_properties(500, seed=227)
    check_newton_against_roots(500, seed=229)
    check_anomaly_additivity(500, seed=233)
    check_classify_partition(500, seed=239)
    _passed(10, "six property suites at 500 randomized cases each")


def _check_ch_properties(cases, seed):
    from holanom.chern import ch_content, ch_geom, twist_context
    from test_chern import _random_content

    rng = random.Random(seed)
    ctx = twist_context(2, simple=True, abelian=True)
    for _ in range(cases // 2):
        a = _random_content(rng)
        b = _random_content(rng)
        assert ch_content(a + b, ctx) == ch_content(a, ctx) + ch_content(b, ctx)
        assert ch_content(a.flipped(), ctx) == -ch_content(a, ctx)
    for _ in range(cases // 2):
        lam = random_rational(rng, 6, 5)
        mu = random_rational(rng, 6, 5)
        product = ch_geom(Kpow(lam), 2, ctx) * ch_geom(Kpow(mu), 2, ctx)
        assert product == ch_geom(Kpow(lam + mu), 2, ctx)

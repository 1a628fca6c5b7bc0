"""Electric/magnetic SQCD construction and exact anomaly matching."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from holanom import duality
from holanom.anomaly import (
    anomaly_polynomial,
    classify,
    context_for_theory,
    gauge_obstruction,
    physical_ac,
    t_background_obstruction,
)
from holanom.chern import gravitational_context
from holanom.duality import (
    SQCDSpec,
    electric_anomalies,
    electric_theory,
    magnetic_anomalies,
    magnetic_theory,
    quark_charge,
    seiberg_match,
)
from holanom.ring import GradedPoly
from holanom.theory import Chiral, ConfigurationError, ConsistencyError, twist_content

from oracles import random_rational


def _report(theory):
    return classify(
        anomaly_polynomial(twist_content(theory), context_for_theory(theory)), 2
    )


def test_electric_charges():
    assert quark_charge(SQCDSpec(3, 5)) == F(-3, 5)
    assert quark_charge(SQCDSpec(2, 3)) == F(-2, 3)
    theory = electric_theory(SQCDSpec(3, 5))
    charges = {m.r for m in theory.multiplets if isinstance(m, Chiral)}
    assert charges == {F(-3, 5)}


@pytest.mark.parametrize(
    "nc,nf,a_hol,c_hol",
    [
        (3, 5, F(-5, 12), F(-19, 600)),
        (2, 3, F(-5, 24), F(5, 432)),
        (4, 7, F(-17, 24), F(-223, 2352)),
    ],
)
def test_electric_anomalies(nc, nf, a_hol, c_hol):
    assert electric_anomalies(SQCDSpec(nc, nf)) == (a_hol, c_hol)


def test_electric_a_hol_independent_of_flavors():
    values = {electric_anomalies(SQCDSpec(3, nf))[0] for nf in range(1, 9)}
    assert values == {F(-10, 24)}


def test_electric_closed_forms():
    for nc in range(2, 6):
        for nf in range(1, 9):
            a_hol, c_hol = electric_anomalies(SQCDSpec(nc, nf))
            assert a_hol == F(-(nc**2 + 1), 24)
            assert c_hol == F(2 * nc**4 - nc**2 * nf**2 + nf**2, 48 * nf**2)


def test_magnetic_construction():
    theory = magnetic_theory(SQCDSpec(3, 5), F(0))
    assert theory.gauge.su == 2
    dual_quarks = [
        m for m in theory.multiplets if isinstance(m, Chiral) and m.rep.t2 != 0
    ]
    assert {m.r for m in dual_quarks} == {F(-2, 5)}
    mesons = [m for m in theory.multiplets if isinstance(m, Chiral) and m.rep.t2 == 0]
    assert len(mesons) == 1 and mesons[0].copies == 25
    assert theory.superpotential_note is not None

    assert magnetic_theory(SQCDSpec(2, 5), F(0)).gauge.su == 3
    dual = [m for m in magnetic_theory(SQCDSpec(2, 5), F(0)).multiplets if isinstance(m, Chiral)]
    assert dual[0].r == F(-3, 5)


def test_magnetic_rejects_tiny_dual_group():
    with pytest.raises(ConfigurationError):
        magnetic_theory(SQCDSpec(3, 4), F(0))


def test_mesons_do_not_touch_gauge_obstruction():
    bare = magnetic_theory(SQCDSpec(3, 5), F(0))
    no_mesons = type(bare)(
        dimension=2, gauge=bare.gauge, multiplets=bare.multiplets[:-1]
    )
    _, free_with = gauge_obstruction(_report(bare))
    _, free_without = gauge_obstruction(_report(no_mesons))
    assert free_with == free_without
    assert _report(bare).pure_gauge == _report(no_mesons).pure_gauge


def test_magnetic_a_hol_formula():
    # (1/24)(-1 + 2 N_f N_c - N_c^2 + N_f^2 (r_M - 1)) for random meson charges
    rng = random.Random(97)
    for _ in range(10):
        r_m = random_rational(rng, 10, 7)
        for nc, nf in ((3, 5), (2, 4), (4, 8)):
            a_hol, _ = magnetic_anomalies(SQCDSpec(nc, nf), r_m)
            expected = F(1, 24) * (-1 + 2 * nf * nc - nc**2 + nf**2 * (r_m - 1))
            assert a_hol == expected


@pytest.mark.parametrize(
    "nc,nf,r_m",
    [(3, 5, F(-1, 5)), (2, 5, F(1, 5)), (3, 7, F(1, 7))],
)
def test_seiberg_match_instances(nc, nf, r_m):
    result = seiberg_match(SQCDSpec(nc, nf))
    assert result.r_meson == r_m
    assert result.matched


@pytest.mark.parametrize("equal_to_electric", [False, True])
def test_seiberg_match_rejects_a_constant_magnetic_a_hol(monkeypatch, equal_to_electric):
    spec = SQCDSpec(3, 5)
    a_hol = electric_anomalies(spec)[0] if equal_to_electric else F(1, 24)
    constant = GradedPoly(gravitational_context(2), {(1, 1): a_hol})  # a_hol * g1*g2
    monkeypatch.setattr(duality, "anomaly_in_r", lambda theory: [constant])
    with pytest.raises(ConsistencyError, match="not linear"):
        seiberg_match(spec)


def test_seiberg_match_reads_c_hol_from_the_polynomials_in_r(monkeypatch):
    # 1*g1^3 added to the r^1 coefficient moves c_hol(r) by r and leaves a_hol(r)
    # linear: the root stays, and c_hol at it no longer matches the electric one
    real = duality.anomaly_in_r

    def perturbed(theory):
        coefficients = real(theory)
        ctx = coefficients[1].ctx
        g1_cubed = tuple(3 if name == "g1" else 0 for name in ctx.names)
        coefficients[1] = coefficients[1] + GradedPoly(ctx, {g1_cubed: F(1)})
        return coefficients

    monkeypatch.setattr(duality, "anomaly_in_r", perturbed)
    result = seiberg_match(SQCDSpec(3, 5))
    assert result.r_meson == F(-1, 5)
    assert result.matched is False


def test_seiberg_match_grid():
    for nc in range(2, 7):
        for nf in range(nc + 2, 9):
            spec = SQCDSpec(nc, nf)
            result = seiberg_match(spec)
            assert result.r_meson == 1 - F(2 * nc, nf)
            assert result.matched
            electric = electric_anomalies(spec)
            magnetic = magnetic_anomalies(spec, result.r_meson)
            assert electric == magnetic
            assert physical_ac(*electric) == physical_ac(*magnetic)


def test_both_sides_free_of_obstructions():
    for nc, nf in ((2, 4), (3, 5), (4, 6)):
        spec = SQCDSpec(nc, nf)
        for theory in (electric_theory(spec), magnetic_theory(spec, 1 - F(2 * nc, nf))):
            report = _report(theory)
            _, gauge_free = gauge_obstruction(report)
            _, t_free = t_background_obstruction(report)
            assert gauge_free and t_free


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        SQCDSpec(1, 5)
    with pytest.raises(ConfigurationError):
        SQCDSpec(3, 0)

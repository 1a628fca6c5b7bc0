"""Electric/magnetic SQCD pairs and exact anomaly matching.

The electric theory is SU(N_c) with N_f fundamental and N_f
anti-fundamental chirals at the anomaly-free R-charge r = -N_c/N_f.  The
magnetic dual is SU(N_f - N_c) with N_f flavors of dual quarks at
r = -(N_f - N_c)/N_f plus N_f^2 gauge-singlet mesons whose R-charge is the
matching variable.  Matching solves the linear equation for a_hol and then
verifies the cubic c_hol equation exactly at the root.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import univariate
from .anomaly import AnomalyReport, anomaly_in_r, classify, theory_report
from .chern import GaugeGroup, antifundamental, fundamental, trivial
from .theory import (
    Chiral,
    ConfigurationError,
    ConsistencyError,
    Theory,
    Vector,
)
from .ring import RationalLike


@dataclass(frozen=True)
class SQCDSpec:
    colors: int
    flavors: int

    def __post_init__(self):
        if self.colors < 2:
            raise ConfigurationError("SQCD needs at least 2 colors")
        if self.flavors < 1:
            raise ConfigurationError("SQCD needs at least 1 flavor")

    @property
    def dual_colors(self) -> int:
        return self.flavors - self.colors


def quark_charge(spec: SQCDSpec) -> Fraction:
    """The unique R-charge admitting a background of holomorphic vector fields."""
    return Fraction(-spec.colors, spec.flavors)


def electric_theory(spec: SQCDSpec) -> Theory:
    r = quark_charge(spec)
    return Theory(
        gauge=GaugeGroup(su=spec.colors),
        multiplets=(
            Vector(),
            Chiral(r, fundamental(spec.colors), copies=spec.flavors),
            Chiral(r, antifundamental(spec.colors), copies=spec.flavors),
        ),
    )


def electric_report(spec: SQCDSpec) -> AnomalyReport:
    """Anomaly report of electric SQCD, its (a_hol, c_hol) checked against the closed forms.

    a_hol = -(N_c^2 + 1)/24 independently of N_f;
    c_hol = (2 N_c^4 - N_c^2 N_f^2 + N_f^2) / (48 N_f^2).
    """
    report = theory_report(electric_theory(spec))
    nc, nf = spec.colors, spec.flavors
    expected_a = Fraction(-(nc**2 + 1), 24)
    expected_c = Fraction(2 * nc**4 - nc**2 * nf**2 + nf**2, 48 * nf**2)
    if (report.a_hol, report.c_hol) != (expected_a, expected_c):
        raise ConsistencyError(
            f"computed ({report.a_hol}, {report.c_hol}) != closed form ({expected_a}, {expected_c})"
        )
    return report


def electric_anomalies(spec: SQCDSpec) -> tuple[Fraction, Fraction]:
    """(a_hol, c_hol) of electric SQCD, cross-checked against the closed forms."""
    report = electric_report(spec)
    return report.a_hol, report.c_hol


def magnetic_theory(spec: SQCDSpec, r_meson: RationalLike, meson_unknown: bool = False) -> Theory:
    """SU(N_f - N_c) dual with N_f^2 singlet mesons at R-charge r_meson."""
    dual = spec.dual_colors
    if dual < 2:
        raise ConfigurationError(
            f"magnetic gauge group SU({dual}) needs N_f - N_c >= 2"
        )
    r_dual = Fraction(-dual, spec.flavors)
    return Theory(
        gauge=GaugeGroup(su=dual),
        multiplets=(
            Vector(),
            Chiral(r_dual, fundamental(dual), copies=spec.flavors),
            Chiral(r_dual, antifundamental(dual), copies=spec.flavors),
            Chiral(
                Fraction(r_meson),
                trivial(1),
                copies=spec.flavors**2,
                unknown_r=meson_unknown,
            ),
        ),
        superpotential_note="dual superpotential coupling mesons to dual quarks; "
        "recorded only, excluded from all anomaly arithmetic",
    )


def magnetic_anomalies(spec: SQCDSpec, r_meson: RationalLike) -> tuple[Fraction, Fraction]:
    report = theory_report(magnetic_theory(spec, r_meson))
    return report.a_hol, report.c_hol


@dataclass(frozen=True)
class MatchResult:
    r_meson: Fraction
    matched: bool
    a_hol: Fraction
    c_hol: Fraction


def seiberg_match(spec: SQCDSpec) -> MatchResult:
    """Solve the meson R-charge from the a_hol match, then verify c_hol at it.

    The magnetic a_hol is affine in the meson charge with slope N_f^2/24, so
    the match condition is a linear equation with one rational root; any
    other degree is an internal error.  Three pipeline runs: the electric
    theory, the magnetic one in anomaly_in_r and the magnetic check at the root.
    """
    a_electric, c_electric = electric_anomalies(spec)
    template = magnetic_theory(spec, 0, meson_unknown=True)
    a_coeffs = tuple(classify(a, 2).a_hol for a in anomaly_in_r(template))
    difference = univariate.add(a_coeffs, (-a_electric,))
    if univariate.degree(difference) != 1:
        raise ConsistencyError(
            f"a_hol match {univariate.format_poly(difference)} = 0 "
            "is not linear in the meson charge r"
        )
    r_meson = -difference[0] / difference[1]
    _, c_magnetic = magnetic_anomalies(spec, r_meson)
    return MatchResult(r_meson, c_magnetic == c_electric, a_electric, c_electric)

"""Exact anomaly polynomials of holomorphically twisted 4d supersymmetric theories."""

from .ring import (
    GeneratorMismatch,
    GeneratorSet,
    GradedPoly,
    Rational,
    SeriesDomainError,
    format_rational,
    parse_rational,
)
from .chern import (
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
    ch_atom,
    ch_content,
    ch_geom,
    ch_rep,
    c_from_ch,
    fundamental,
    gravitational_context,
    pushforward_curve,
    todd,
    trivial,
    twist_context,
    untwisted_context,
)
from .theory import (
    Chiral,
    ConfigurationError,
    ConsistencyError,
    Hyper,
    N2Vector,
    N4Vector,
    Raw,
    Theory,
    Vector,
    chiral_twist_power,
    interpolate_in_r,
    twist_content,
    with_unknown_r,
)
from .anomaly import (
    AnomalyReport,
    anomaly_polynomial,
    classify,
    context_for_content,
    context_for_theory,
    gauge_obstruction,
    holomorphic_ac,
    multiplet_table,
    physical_ac,
    r_symmetry_polynomial,
    render_local_cocycle,
    solve_r,
    t_background_obstruction,
    theory_report,
    twist_substitute,
)
from .duality import (
    MatchResult,
    SQCDSpec,
    electric_anomalies,
    electric_theory,
    magnetic_anomalies,
    magnetic_theory,
    seiberg_match,
)
from .theoryfile import TheoryParseError, parse_theory_file, render_theory

__version__ = "0.1.0"

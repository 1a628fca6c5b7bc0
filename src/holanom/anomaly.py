"""Anomaly polynomials of twisted theories: computation and classification.

The top-degree component of Td * ch(V) on a dimension-n space is the
complete one-loop anomaly of the twisted theory built on V.  Its monomials
split into three buckets that answer different questions:

  pure gauge      -- monomials in s2, s3, f1 only: the internal obstruction
                     to quantizing the gauge theory at all;
  mixed           -- monomials containing both a gravitational and a gauge
                     generator: the obstruction to a background of
                     holomorphic vector fields;
  gravitational   -- monomials in the g's only: the residual central
                     charges once the other two buckets vanish.

In dimension 2 the gravitational bucket is spanned by g1*g2 and g1^3 with
coefficients a_hol and c_hol; in dimension 1 it is spanned by g1^2, with
c = 24 times its coefficient in the standard Virasoro normalization.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import reduce
from math import factorial
from typing import Union

from . import univariate
from .chern import (
    FieldContent,
    GAUGE_GENERATOR_DEGREES,
    ch_content,
    gravitational_context,
    todd,
    trivial,
    twist_context,
    untwisted_context,
)
from .ring import (
    GeneratorMismatch,
    GeneratorSet,
    GradedPoly,
    Rational,
    RationalLike,
    format_rational,
    homogeneous_monomials,
)
from .theory import (
    MULTIPLETS,
    Chiral,
    Theory,
    multiplet_atoms,
    multiplet_uses,
    require_unknown_r,
    twist_content,
    with_unknown_r,
)

GAUGE_GENERATORS = frozenset(GAUGE_GENERATOR_DEGREES)


def context_for_content(content: FieldContent) -> GeneratorSet:
    """Smallest twist context able to carry the content's Chern character."""
    simple = any(a.rep.t2 or a.rep.t3 for _, a in content.pieces)
    abelian = any(a.rep.q for _, a in content.pieces)
    return twist_context(content.dimension, simple=simple, abelian=abelian)


def context_for_theory(theory: Theory) -> GeneratorSet:
    """Twist context determined by a theory's declared gauge data."""
    return twist_context(
        theory.dimension,
        simple=theory.gauge.su is not None,
        abelian=theory.gauge.abelian,
    )


def anomaly_polynomial(
    content: FieldContent, ctx: Union[GeneratorSet, None] = None
) -> GradedPoly:
    """[Td * ch(content)] in degree 2n+2 for an n-dimensional content.

    Only the top-degree terms of the product are formed.
    """
    n = content.dimension
    if ctx is None:
        ctx = context_for_content(content)
    return todd(n, ctx).product_component(ch_content(content, ctx), 2 * n + 2)


# ---------------------------------------------------------------------------
# classification


def _bucket_of(ctx: GeneratorSet, exponents) -> str:
    gauge = grav = False
    for name, e in zip(ctx.names, exponents):
        if e == 0:
            continue
        if name in GAUGE_GENERATORS:
            gauge = True
        else:
            grav = True
    if gauge and grav:
        return "mixed"
    if gauge:
        return "pure_gauge"
    return "gravitational"


@dataclass(frozen=True)
class AnomalyReport:
    """The degree-(2n+2) anomaly, partitioned monomial by monomial.

    Bucket maps are sparse: only non-zero coefficients are stored, keyed by
    monomial names like "g1*s2".  a_hol/c_hol are carried for n = 2 and
    virasoro_c for n = 1; the inapplicable ones are None.
    """

    n: int
    full: GradedPoly
    gravitational: dict[str, Fraction] = field(default_factory=dict)
    pure_gauge: dict[str, Fraction] = field(default_factory=dict)
    mixed: dict[str, Fraction] = field(default_factory=dict)
    a_hol: Union[Fraction, None] = None
    c_hol: Union[Fraction, None] = None
    virasoro_c: Union[Fraction, None] = None


def classify(poly: GradedPoly, n: int) -> AnomalyReport:
    """Partition a homogeneous degree-(2n+2) polynomial into anomaly buckets."""
    degree = poly.homogeneous_degree()
    if degree is None or (not poly.is_zero() and degree != 2 * n + 2):
        raise ValueError(f"classify expects a homogeneous polynomial of degree {2 * n + 2}")
    buckets: dict[str, dict[str, Fraction]] = {
        "gravitational": {},
        "pure_gauge": {},
        "mixed": {},
    }
    for exponents, coeff in poly.terms():
        buckets[_bucket_of(poly.ctx, exponents)][poly.ctx.monomial_name(exponents)] = coeff
    grav = buckets["gravitational"]
    a_hol = c_hol = virasoro_c = None
    if n == 2:
        a_hol = grav.get("g1*g2", Fraction(0))
        c_hol = grav.get("g1^3", Fraction(0))
    elif n == 1:
        virasoro_c = 24 * grav.get("g1^2", Fraction(0))
    return AnomalyReport(
        n=n,
        full=poly,
        gravitational=grav,
        pure_gauge=buckets["pure_gauge"],
        mixed=buckets["mixed"],
        a_hol=a_hol,
        c_hol=c_hol,
        virasoro_c=virasoro_c,
    )


def monomial_buckets(ctx: GeneratorSet, n: int) -> dict[str, list[str]]:
    """Names of all degree-(2n+2) monomials per bucket, each in canonical order.

    The keys are "gravitational", "pure_gauge" and "mixed", as in
    AnomalyReport.  One enumeration serves all three buckets.
    """
    buckets: dict[str, list[str]] = {"gravitational": [], "pure_gauge": [], "mixed": []}
    for e in homogeneous_monomials(ctx, 2 * n + 2):
        buckets[_bucket_of(ctx, e)].append(ctx.monomial_name(e))
    return buckets


def theory_anomaly(theory: Theory) -> tuple[FieldContent, GradedPoly]:
    """A theory's twisted content and its anomaly in the twist context of its gauge data."""
    content = twist_content(theory)
    return content, anomaly_polynomial(content, context_for_theory(theory))


def theory_report(theory: Theory) -> AnomalyReport:
    """The classified anomaly of a theory."""
    return classify(theory_anomaly(theory)[1], theory.dimension)


def anomaly_in_r(theory: Theory) -> list[GradedPoly]:
    """[A_0, ..., A_{n+1}] with anomaly = sum_b r^b * A_b in the unknown R-charge r.

    A marked chiral enters only through ch(K^lam) = exp(-lam*g1) with
    lam = 1/2 + r/2, which is exp(-g1/2) * sum_b (-r/2)^b g1^b / b!.  So A_0
    is the anomaly at r = 0 and, for b >= 1, A_b is the top degree of
    Td * (-1/2)^b/b! * g1^b * ch(marked chirals at r = 0): one product
    against the cached Todd class each, with g1^b a shift of the g1
    exponent.  Above b = n+1 the shift leaves nothing under the cap.
    """
    require_unknown_r(theory)
    n, ctx = theory.dimension, context_for_theory(theory)
    marked = [replace(m, r=0) for m in theory.multiplets if isinstance(m, Chiral) and m.unknown_r]
    ch = ch_content(FieldContent(n, tuple(p for m in marked for p in multiplet_atoms(m, None))), ctx)
    td, g1 = todd(n, ctx), ctx.index("g1")
    coefficients = [theory_anomaly(with_unknown_r(theory, 0))[1]]
    for b in range(1, n + 2):
        scale = Fraction(-1, 2) ** b / factorial(b)
        shifted = {e[:g1] + (e[g1] + b,) + e[g1 + 1 :]: c * scale for e, c in ch.terms()}
        coefficients.append(td.product_component(GradedPoly(ctx, shifted), 2 * n + 2))
    return coefficients


# ---------------------------------------------------------------------------
# conversions between holomorphic and physical coefficients


def physical_ac(a_hol: RationalLike, c_hol: RationalLike) -> tuple[Fraction, Fraction]:
    """(a, c) from the holomorphic pair: a = -9/4 (a_hol + 6 c_hol),
    c = -3/4 (5 a_hol + 18 c_hol)."""
    a_hol, c_hol = Fraction(a_hol), Fraction(c_hol)
    a = Fraction(-9, 4) * (a_hol + 6 * c_hol)
    c = Fraction(-3, 4) * (5 * a_hol + 18 * c_hol)
    return a, c


def holomorphic_ac(a: RationalLike, c: RationalLike) -> tuple[Fraction, Fraction]:
    """(a_hol, c_hol) from the physical pair: a_hol = 2/3 (a - c),
    c_hol = 1/9 (c - 5/3 a).  Inverse of physical_ac."""
    a, c = Fraction(a), Fraction(c)
    a_hol = Fraction(2, 3) * (a - c)
    c_hol = Fraction(1, 9) * (c - Fraction(5, 3) * a)
    return a_hol, c_hol


# ---------------------------------------------------------------------------
# untwisted R-symmetry pipeline


def r_symmetry_polynomial(tr_r: RationalLike, tr_r3: RationalLike) -> GradedPoly:
    """Mixed R-symmetry/gravity anomaly (1/3!)(TrR^3 tc1^3 - 1/4 TrR tc1 p1)."""
    ctx = untwisted_context()
    tc1 = GradedPoly.generator(ctx, "tc1")
    p1 = GradedPoly.generator(ctx, "p1")
    return Fraction(1, 6) * (
        Fraction(tr_r3) * tc1**3 - Fraction(1, 4) * Fraction(tr_r) * tc1 * p1
    )


def twist_substitute(poly: GradedPoly) -> GradedPoly:
    """Break the frame to the unitary subgroup and twist: tc1 -> -g1/2, p1 -> 2 g2."""
    allowed = {"tc1", "p1"}
    for exponents, _ in poly.terms():
        for name, e in zip(poly.ctx.names, exponents):
            if e and name not in allowed:
                raise GeneratorMismatch(f"twist substitution does not accept {name!r}")
    target = gravitational_context(2)
    images = {
        "tc1": GradedPoly.generator(target, "g1") * Fraction(-1, 2),
        "p1": GradedPoly.generator(target, "g2") * 2,
    }
    return poly.substitute(target, images)


# ---------------------------------------------------------------------------
# obstructions


def gauge_obstruction(report: AnomalyReport) -> tuple[dict[str, Fraction], bool]:
    """Pure-gauge bucket and whether it vanishes (the theory quantizes at all)."""
    return dict(report.pure_gauge), not report.pure_gauge


def t_background_obstruction(report: AnomalyReport) -> tuple[dict[str, Fraction], bool]:
    """Mixed bucket and whether it vanishes (holomorphic vector fields can back-react).

    Only meaningful once the pure-gauge obstruction is clear, which
    gauge_obstruction reports.  The purely gravitational part is
    deliberately not included here: it is the residual central charge,
    not an obstruction.
    """
    return dict(report.mixed), not report.mixed


# ---------------------------------------------------------------------------
# solving for anomaly-free R-charges


@dataclass(frozen=True)
class SolveResult:
    """Outcome of an R-charge solve.

    polynomials maps each targeted monomial to its exact coefficient
    polynomial in r (ascending).  roots is the sorted list of rational
    values killing every non-trivial constraint, or None when every
    constraint is identically zero (the charge is unconstrained).
    """

    target: str
    polynomials: dict[str, univariate.Coeffs]
    roots: Union[list[Fraction], None]
    unconstrained: bool


def solve_r(theory: Theory, target: str = "all-mixed") -> SolveResult:
    """Rational R-charges making the targeted anomaly coefficients vanish.

    target is a single gauge or mixed monomial name (e.g. "g1*s2"), or
    "all-mixed" to require every mixed coefficient to vanish at once.
    Coefficients are exact polynomials in r, read off the classified
    coefficients of anomaly_in_r, so a solve costs one pipeline run whatever
    the number of targets.  The exact rational roots of the constraints' one
    polynomial gcd solve them all; irrational roots are deliberately not
    approximated and do not appear.
    """
    buckets = monomial_buckets(context_for_theory(theory), theory.dimension)
    if target == "all-mixed":
        names = buckets["mixed"]
    else:
        admissible = set(buckets["mixed"]) | set(buckets["pure_gauge"])
        if target not in admissible:
            raise ValueError(
                f"target {target!r} is not a gauge or mixed monomial of this theory; "
                f"choose from {sorted(admissible)} or 'all-mixed'"
            )
        names = [target]

    require_unknown_r(theory)
    # a marked charge with nothing targeted is unconstrained, without a pipeline run
    reports = [classify(a, theory.dimension) for a in anomaly_in_r(theory)] if names else []
    found = [{**report.pure_gauge, **report.mixed} for report in reports]
    polynomials = {
        name: univariate.normalize([values.get(name, Fraction(0)) for values in found])
        for name in names
    }
    constraints = [c for c in polynomials.values() if c]
    if not constraints:
        return SolveResult(target, polynomials, None, True)
    common = reduce(univariate.gcd, constraints)
    return SolveResult(target, polynomials, univariate.rational_roots(common), False)


# ---------------------------------------------------------------------------
# display form of the gravitational anomaly as a local functional

COCYCLE_A = "(1/12) ∫ tr(Jμ) tr(∂Jμ ∂Jμ)"
COCYCLE_C = "(1/6) ∫ tr(Jμ) tr(∂Jμ) tr(∂Jμ)"


def render_local_cocycle(a_hol: RationalLike, c_hol: RationalLike) -> str:
    """Display the dimension-2 gravitational anomaly as a local functional.

    Purely presentational; the -4 pi^2 normalization between the
    characteristic class and the functional lives here and nowhere else.
    """
    a_hol, c_hol = Fraction(a_hol), Fraction(c_hol)
    if a_hol == 0 and c_hol == 0:
        return "-4π²Θ = 0  (the anomaly vanishes)"
    return "\n".join(
        [
            f"-4π²Θ = ({format_rational(a_hol)}) · Θ_a"
            f" + ({format_rational(c_hol)}) · Θ_c",
            f"  Θ_a = {COCYCLE_A}",
            f"  Θ_c = {COCYCLE_C}",
        ]
    )


# ---------------------------------------------------------------------------
# reference table of basic multiplets


# reference-table label of each multiplet keyword that differs from it
_TABLE_LABELS = {"vector": "n1-vector", "chiral": "n1-chiral", "hyper": "n2-hyper"}


def multiplet_table() -> list[tuple[str, Fraction, Fraction, Fraction, Fraction]]:
    """(label, a, c, a_hol, c_hol) per unit multiplet, from its twisted atoms.

    Rows are per unit of gauge-group dimension (vectors) or representation
    dimension (matter): every atom sits on the trivial line, which scales
    the gravitational anomaly by 1/dim.  The chiral sits at r = -1/3.
    """
    unit = {"r": Fraction(-1, 3), "rep": trivial(1)}
    table = []
    for keyword, (cls, _) in MULTIPLETS.items():
        m = cls(**{name: v for name, v in unit.items() if multiplet_uses(keyword, name)})
        content = FieldContent(2, tuple(multiplet_atoms(m, trivial(1))))
        report = classify(anomaly_polynomial(content), 2)
        a, c = physical_ac(report.a_hol, report.c_hol)
        table.append((_TABLE_LABELS.get(keyword, keyword), a, c, report.a_hol, report.c_hol))
    return table

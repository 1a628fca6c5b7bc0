"""Chern characters, Todd classes and curve pushforwards for twisted field content.

Conventions used throughout:

 * gravitational generators g1..gn are the Chern-character components of
   the universal rank-n tangent bundle, with g_k in degree 2k; beyond the
   rank, ch_{n+1} is fixed by the rule c_{n+1} = 0;
 * the canonical bundle K has ch_1(K) = -g1, so ch(K^lam) = exp(-lam*g1);
   the trivial line TRIVIAL is Kpow(0), i.e. K^0;
 * s2 and s3 are ch_2 and ch_3 of the fundamental representation of the
   simple gauge factor (so the fundamental has coefficients 1, 1);
 * f1 is the first Chern class of the abelian background, entering through
   the exponential exp(q*f1) of the charge;
 * a parity-odd summand contributes its Chern character with a minus sign.

Gauge representations are summarized by the four invariants (dim, t2, t3,
q); full weight systems are out of scope.  ch is additive and a K^lam (x)
rep atom has ch = exp(-lam*g1 + q*f1) * (dim + t2*s2 + t3*s3), so ch_content
writes a whole content as one sum over its atoms of terms g1^k f1^j x, x in
(1, s2, s3).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from typing import Union

from .ring import (
    GeneratorMismatch,
    GeneratorSet,
    GradedPoly,
    RationalLike,
    exact_rational,
)

GAUGE_GENERATOR_DEGREES = {"s2": 4, "s3": 6, "f1": 2}
# Largest supported complex dimension; every context above it is refused,
# so each input finishes in bounded time.  At this ceiling one compute takes
# about 0.27 s on a gravitational atom and 0.48 s in the largest context
# (SU(N) plus the abelian background, two charged atoms), growing about 1.4x
# every two dimensions (median of 5 fresh processes, 2-vCPU Xeon VM).
MAX_DIMENSION = 20


# ---------------------------------------------------------------------------
# generator contexts


def gravitational_context(n: int) -> GeneratorSet:
    """Generators g1..gn of degrees 2..2n, capped at degree 2n+2."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    if n > MAX_DIMENSION:
        raise ValueError(f"dimension {n} exceeds the supported maximum {MAX_DIMENSION}")
    names = tuple(f"g{k}" for k in range(1, n + 1))
    degrees = tuple(2 * k for k in range(1, n + 1))
    return GeneratorSet(names, degrees, 2 * n + 2)


def twist_context(n: int, simple: bool = False, abelian: bool = False) -> GeneratorSet:
    """Gravitational generators plus the gauge generators that fit under the cap."""
    base = gravitational_context(n)
    names = list(base.names)
    degrees = list(base.degrees)
    extra = []
    if simple:
        extra += ["s2", "s3"]
    if abelian:
        extra += ["f1"]
    for name in extra:
        if GAUGE_GENERATOR_DEGREES[name] <= base.cap:
            names.append(name)
            degrees.append(GAUGE_GENERATOR_DEGREES[name])
    return GeneratorSet(tuple(names), tuple(degrees), base.cap)


def untwisted_context() -> GeneratorSet:
    """Background R-symmetry class tc1 and the Pontryagin class p1, capped at 6."""
    return GeneratorSet(("tc1", "p1"), (2, 4), 6)


# ---------------------------------------------------------------------------
# gauge data


@dataclass(frozen=True)
class GaugeGroup:
    """An optional SU(N) factor plus an optional background U(1)."""

    su: Union[int, None] = None
    abelian: bool = False

    def __post_init__(self):
        if self.su is not None and self.su < 2:
            raise ValueError("gauge su needs N >= 2")


@dataclass(frozen=True)
class GaugeRep:
    """A representation summarized by dimension, quadratic and cubic
    coefficients relative to the fundamental, and abelian charge."""

    dim: int
    t2: Fraction = Fraction(0)
    t3: Fraction = Fraction(0)
    q: Fraction = Fraction(0)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("representation dimension must be positive")
        object.__setattr__(self, "t2", exact_rational(self.t2))
        object.__setattr__(self, "t3", exact_rational(self.t3))
        object.__setattr__(self, "q", exact_rational(self.q))

    @property
    def is_gauge_trivial(self) -> bool:
        return self.t2 == 0 and self.t3 == 0 and self.q == 0


def fundamental(n: int) -> GaugeRep:
    return GaugeRep(n, Fraction(1), Fraction(1))


def antifundamental(n: int) -> GaugeRep:
    return GaugeRep(n, Fraction(1), Fraction(-1))


def adjoint(n: int) -> GaugeRep:
    # ch_2 doubles the quadratic index 2N of SU(N); the cubic trace vanishes.
    return GaugeRep(n * n - 1, Fraction(2 * n), Fraction(0))


def trivial(dim: int = 1, q: RationalLike = 0) -> GaugeRep:
    return GaugeRep(dim, Fraction(0), Fraction(0), Fraction(q))


# ---------------------------------------------------------------------------
# geometric factors and field content


@dataclass(frozen=True)
class Kpow:
    """A rational power of the canonical bundle."""

    power: Fraction

    def __post_init__(self):
        object.__setattr__(self, "power", exact_rational(self.power))


@dataclass(frozen=True)
class _Tangent:
    pass


@dataclass(frozen=True)
class _Cotangent:
    pass


TANGENT = _Tangent()
COTANGENT = _Cotangent()
TRIVIAL = Kpow(Fraction(0))

Geom = Union[Kpow, _Tangent, _Cotangent]


@dataclass(frozen=True)
class Atom:
    """One (geometric line/tangent factor) x (gauge representation) summand."""

    geom: Geom
    rep: GaugeRep
    parity: str = "even"

    def __post_init__(self):
        if self.parity not in ("even", "odd"):
            raise ValueError(f"parity must be even or odd, got {self.parity!r}")

    @property
    def sign(self) -> int:
        return -1 if self.parity == "odd" else 1

    def flipped(self) -> "Atom":
        return Atom(self.geom, self.rep, "odd" if self.parity == "even" else "even")


def _atom_key(atom: Atom):
    kinds = {Kpow: 0, _Tangent: 1, _Cotangent: 2}
    power = atom.geom.power if isinstance(atom.geom, Kpow) else Fraction(0)
    rep = atom.rep
    return (kinds[type(atom.geom)], power, rep.dim, rep.t2, rep.t3, rep.q, atom.parity)


@dataclass(frozen=True)
class FieldContent:
    """Signed formal sum of atoms over a space of fixed complex dimension.

    Pieces with equal atoms merge and zero multiplicities drop, so two
    contents are equal exactly when they describe the same formal sum.
    """

    dimension: int
    pieces: tuple[tuple[int, Atom], ...] = ()

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be at least 1")
        merged: dict[Atom, int] = {}
        for multiplicity, atom in self.pieces:
            if not isinstance(multiplicity, int):
                raise TypeError("multiplicities must be integers")
            merged[atom] = merged.get(atom, 0) + multiplicity
        normalized = tuple(
            (m, atom)
            for atom, m in sorted(merged.items(), key=lambda item: _atom_key(item[0]))
            if m != 0
        )
        object.__setattr__(self, "pieces", normalized)

    def __add__(self, other: "FieldContent") -> "FieldContent":
        if self.dimension != other.dimension:
            raise ValueError("cannot merge contents of different dimensions")
        return FieldContent(self.dimension, self.pieces + other.pieces)

    def scaled(self, factor: int) -> "FieldContent":
        return FieldContent(self.dimension, tuple((factor * m, a) for m, a in self.pieces))

    def flipped(self) -> "FieldContent":
        return FieldContent(self.dimension, tuple((m, a.flipped()) for m, a in self.pieces))


# ---------------------------------------------------------------------------
# closed forms, each an exp of a linear form (Macdonald, Symmetric Functions, I (2.14'))


def _exp_terms(ctx: GeneratorSet, weights: dict, degrees=None, body=(({}, 1),)) -> tuple:
    """(numerators, denominator) of exp(sum_x w_x * x) * body in the given degrees (all by
    default), body holding ({name: exponent}, c) terms, with distinct monomials free of the
    weighted generators.  The coefficient of b * prod_x x^m_x is c_b * prod_x w_x^m_x / m_x!,
    and for w = p/q, w^m/m! is p^m q^(M-m) M!/m! over q^M M!, M the largest exponent that fits:
    integers over one denominator, and no ring product.  Generators of zero weight are neither
    looked up nor enumerated, and no term above the largest wanted degree is formed."""
    degrees = range(0, ctx.cap + 1, 2) if degrees is None else degrees
    top = max(degrees)
    body = [(ctx.monomial(b), exact_rational(c)) for b, c in body]
    den = lcm(*(c.denominator for _, c in body))
    terms = [(e, ctx.degree(e), c.numerator * (den // c.denominator)) for e, c in body]
    for i, w in ((ctx.index(x), exact_rational(w)) for x, w in weights.items() if w):
        d, (p, q) = ctx.degrees[i], (w.numerator, w.denominator)
        most = top // d
        series = [p**m * q ** (most - m) * (factorial(most) // factorial(m)) for m in range(most + 1)]
        den *= q**most * factorial(most)
        terms = [(e[:i] + (e[i] + m,) + e[i + 1 :], degree + m * d, c * series[m])
                 for e, degree, c in terms for m in range((top - degree) // d + 1)]
    return {e: c for e, degree, c in terms if degree in degrees}, den


def _require_gravitational(ctx: GeneratorSet, n: int):
    """Refuse ctx unless it holds g1..gn and has the cap 2n+2 the closed forms need."""
    for k in range(1, n + 1):
        if f"g{k}" not in ctx.names:
            raise GeneratorMismatch(f"context lacks gravitational generator g{k}")
    if ctx.cap != 2 * n + 2:
        raise GeneratorMismatch(f"rank-{n} classes need cap {2 * n + 2}, not {ctx.cap}")


def _chern_exponent(n: int) -> dict:
    """Weights of sum_k c_k = exp(sum_j (-1)^(j-1) p_j / j) with p_j = j! * g_j."""
    return {f"g{j}": (-1) ** (j - 1) * factorial(j - 1) for j in range(1, n + 1)}


def c_from_ch(n: int, ctx: GeneratorSet) -> list[GradedPoly]:
    """Chern classes c_1..c_n of the rank-n bundle with ch_k = g_k."""
    _require_gravitational(ctx, n)
    weights = _chern_exponent(n)
    return [GradedPoly._build(ctx, [_exp_terms(ctx, weights, (2 * k,))]) for k in range(1, n + 1)]


def tangent_ch(n: int, ctx: GeneratorSet) -> list[GradedPoly]:
    """Chern characters g_1..g_n, ch_{n+1} of the rank-n tangent bundle.

    c_{n+1} = 0 sets the degree-(2n+2) part E of exp(sum_{j<=n} (-1)^(j-1) p_j / j)
    against the missing term (-1)^n p_{n+1} / (n+1), so ch_{n+1} = (-1)^(n+1) E / n!.
    """
    _require_gravitational(ctx, n)
    body = (({}, Fraction((-1) ** (n + 1), factorial(n))),)
    top = GradedPoly._build(ctx, [_exp_terms(ctx, _chern_exponent(n), (2 * n + 2,), body)])
    return [GradedPoly.generator(ctx, f"g{k}") for k in range(1, n + 1)] + [top]


# ---------------------------------------------------------------------------
# Chern characters of atoms and the Todd class


def ch_geom(geom: Geom, n: int, ctx: GeneratorSet) -> GradedPoly:
    """Truncated Chern character of a geometric factor in dimension n."""
    if isinstance(geom, Kpow):
        return GradedPoly._build(ctx, [_exp_terms(ctx, {"g1": -geom.power})])
    # dualizing negates the odd power sums
    sign = -1 if isinstance(geom, _Cotangent) else 1
    return n + sum(sign**k * ch_k for k, ch_k in enumerate(tangent_ch(n, ctx), start=1))


def _line_terms(ctx: GeneratorSet, power: Fraction, rep: GaugeRep, scale: int = 1) -> tuple:
    """(numerators, denominator) of scale * ch(K^power (x) rep) = scale * exp(-power*g1 +
    q*f1) * (dim + t2*s2 + t3*s3).  A gauge generator missing from ctx is an error unless its
    degree exceeds the cap, where its term is zero anyway."""
    body = [({}, scale * rep.dim)] + [({name: 1}, scale * coeff) for name, coeff in (
        ("s2", rep.t2), ("s3", rep.t3)) if coeff and GAUGE_GENERATOR_DEGREES[name] <= ctx.cap]
    return _exp_terms(ctx, {"g1": -power, "f1": rep.q}, body=body)


def ch_rep(rep: GaugeRep, ctx: GeneratorSet) -> GradedPoly:
    """Chern character of a gauge representation: exp(q*f1)*(dim + t2*s2 + t3*s3)."""
    return GradedPoly._build(ctx, [_line_terms(ctx, Fraction(0), rep)])


def ch_atom(atom: Atom, n: int, ctx: GeneratorSet) -> GradedPoly:
    """Signed Chern character of one atom; odd parity contributes negatively."""
    return ch_content(FieldContent(n, ((1, atom),)), ctx)


def ch_content(content: FieldContent, ctx: GeneratorSet) -> GradedPoly:
    """Chern character of a formal sum as one polynomial: a K^lam (x) rep piece of multiplicity m
    adds sign * m * (-lam)^k/k! * q^j/j! * w_x to g1^k f1^j x, x in (1, s2, s3), w = (dim, t2,
    t3), below the cap, and a tangent or cotangent piece the terms of ch_geom * ch_rep.  Each
    piece is integer numerators over one denominator, and the pieces add as a balanced tree."""
    parts = []
    for multiplicity, atom in content.pieces:
        scale, geom = atom.sign * multiplicity, atom.geom
        if isinstance(geom, Kpow):
            parts.append(_line_terms(ctx, geom.power, atom.rep, scale))
        else:
            poly = scale * ch_geom(geom, content.dimension, ctx) * ch_rep(atom.rep, ctx)
            parts.append((poly._num, poly._den))
    return GradedPoly._build(ctx, parts)


@lru_cache(maxsize=None)
def todd_log_coefficients(kmax: int) -> tuple[Fraction, ...]:
    """Coefficients a_1..a_kmax of log(x / (1 - e^{-x})) = sum a_k x^k.

    Taken once as -log((1 - e^{-x})/x) in the one-generator ring truncated
    above x^kmax; the Todd class of a bundle is then exp(sum_k a_k p_k) in
    its power sums.
    """
    ring = GeneratorSet(("x",), (2,), 2 * kmax)
    # (1 - e^{-x})/x = sum (-1)^k x^k / (k+1)!
    terms = {(k,): Fraction((-1) ** k, factorial(k + 1)) for k in range(kmax + 1)}
    log = GradedPoly(ring, terms).log()
    return tuple(-log.coefficient((k,)) for k in range(1, kmax + 1))


@lru_cache(maxsize=4 * MAX_DIMENSION)
def todd(n: int, ctx: GeneratorSet) -> GradedPoly:
    """Todd class exp(sum_k a_k p_k) of the rank-n tangent bundle; exp(p_{n+1}) = 1 + p_{n+1}.

    Memoized per (n, ctx): both arguments are immutable and hashable, and
    the result is immutable, so every caller can share one copy.  The cache
    holds the four twist contexts of every supported dimension.
    """
    a = todd_log_coefficients(n + 1)
    top = tangent_ch(n, ctx)[n] * (a[n] * factorial(n + 1))
    weights = {f"g{k}": a[k - 1] * factorial(k) for k in range(1, n + 1)}
    return GradedPoly._build(ctx, [_exp_terms(ctx, weights)]) + top


# ---------------------------------------------------------------------------
# pushforward along a curve fiber


def pushforward_curve(poly: GradedPoly, n: int, chi_hol: RationalLike) -> GradedPoly:
    """Integrate a class on the (n+1)-dimensional total space over a curve fiber.

    The tangent bundle splits off the fiber line, whose first Chern class t
    squares to zero on the curve and integrates to 2*chi_hol.  Since t^2 = 0
    the line changes only ch_1, g1 -> g1 + t, so the pushforward is
    2*chi_hol * dpoly/dg1 over the base: g_{n+1} becomes ch_{n+1} of the
    rank-n base tangent bundle.  The source ring holds g1..g_{n+1} at cap
    2n+4 and only generators of twist_context(n+1, simple, abelian), or
    GeneratorMismatch is raised; the base ring is twist_context(n, simple,
    abelian), where the gauge generators above degree 2n+2 vanish.
    """
    src = poly.ctx
    _require_gravitational(src, n + 1)
    simple, abelian = not {"s2", "s3"}.isdisjoint(src.names), "f1" in src.names
    total = twist_context(n + 1, simple, abelian)
    if not set(zip(src.names, src.degrees)) <= set(zip(total.names, total.degrees)):
        raise GeneratorMismatch(f"{src.names} is not a rank-{n + 1} twist ring")
    target = twist_context(n, simple, abelian)
    # a generator the base ring drops vanishes there
    images = {name: GradedPoly.zero(target) for name in src.names}
    for name in target.names:
        images[name] = GradedPoly.generator(target, name)
    images[f"g{n + 1}"] = tangent_ch(n, target)[n]

    g1 = src.index("g1")
    lowered = {e[:g1] + (e[g1] - 1,) + e[g1 + 1 :]: c * e[g1] for e, c in poly._num.items() if e[g1]}
    derivative = GradedPoly._build(src, [(lowered, poly._den)])
    return derivative.substitute(target, images) * (2 * exact_rational(chi_hol))

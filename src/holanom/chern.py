"""Chern characters, Todd classes and curve pushforwards for twisted field content.

Conventions used throughout:

 * gravitational generators g1..gn are the Chern-character components of
   the universal rank-n tangent bundle, with g_k in degree 2k; beyond the
   rank, ch_k is determined by Newton's identities with c_j = 0 for j > n;
 * the canonical bundle K has ch_1(K) = -g1, so ch(K^lam) = exp(-lam*g1);
 * s2 and s3 are ch_2 and ch_3 of the fundamental representation of the
   simple gauge factor (so the fundamental has coefficients 1, 1);
 * f1 is the first Chern class of the abelian background, entering through
   the exponential exp(q*f1) of the charge;
 * a parity-odd summand contributes its Chern character with a minus sign.

Gauge representations are summarized by the four invariants (dim, t2, t3,
q) that every computation here factors through; full weight systems are
out of scope.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Union

from .ring import (
    GeneratorMismatch,
    GeneratorSet,
    GradedPoly,
    RationalLike,
)
from .univariate import series_log, series_reciprocal

GAUGE_GENERATOR_DEGREES = {"s2": 4, "s3": 6, "f1": 2}
# Largest supported complex dimension; every context above it is refused,
# so each input finishes in bounded time.  At high dimension the Todd class
# dominates and its cost grows 1.5-1.8x every two dimensions; at this
# ceiling one compute in the largest context (SU(N) plus the abelian
# background) takes about 2 s on a 2-vCPU Xeon virtual machine.
MAX_DIMENSION = 20
_GRAV_NAME = re.compile(r"g(\d+)")


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
            raise ValueError(f"SU(N) needs N >= 2, got N = {self.su}")


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
        object.__setattr__(self, "t2", Fraction(self.t2))
        object.__setattr__(self, "t3", Fraction(self.t3))
        object.__setattr__(self, "q", Fraction(self.q))

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
        object.__setattr__(self, "power", Fraction(self.power))


@dataclass(frozen=True)
class _Tangent:
    pass


@dataclass(frozen=True)
class _Cotangent:
    pass


@dataclass(frozen=True)
class _Trivial:
    pass


TANGENT = _Tangent()
COTANGENT = _Cotangent()
TRIVIAL = _Trivial()

Geom = Union[Kpow, _Tangent, _Cotangent, _Trivial]


@dataclass(frozen=True)
class Atom:
    """One (geometric line/tangent factor) x (gauge representation) summand.

    Kpow(0) is normalized to the trivial geometric factor so that
    structurally distinct spellings of the same summand merge.
    """

    geom: Geom
    rep: GaugeRep
    parity: str = "even"

    def __post_init__(self):
        if self.parity not in ("even", "odd"):
            raise ValueError(f"parity must be 'even' or 'odd', got {self.parity!r}")
        if isinstance(self.geom, Kpow) and self.geom.power == 0:
            object.__setattr__(self, "geom", TRIVIAL)

    @property
    def sign(self) -> int:
        return -1 if self.parity == "odd" else 1

    def flipped(self) -> "Atom":
        return Atom(self.geom, self.rep, "odd" if self.parity == "even" else "even")


def _atom_key(atom: Atom):
    kinds = {_Trivial: 0, Kpow: 1, _Tangent: 2, _Cotangent: 3}
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
# Newton identities between Chern classes and Chern characters


def _newton(n: int, ctx: GeneratorSet, kmax: int) -> tuple[list[GradedPoly], list[GradedPoly]]:
    """Chern classes c_1..c_n and power sums p_1..p_kmax of the rank-n bundle with ch_k = g_k.

    Newton's identity p_k = c1*p_{k-1} - c2*p_{k-2} + ... + (-1)^(k-1)*k*c_k
    (c_j = 0 for j > n) gives c_k for k <= n, where p_k = k! * g_k, and p_k beyond.
    """
    cs: list[GradedPoly] = []
    p: list[GradedPoly] = [GradedPoly.zero(ctx)]
    for k in range(1, max(n, kmax) + 1):
        acc = GradedPoly.zero(ctx)
        for i in range(1, min(k - 1, n) + 1):
            acc = acc + Fraction((-1) ** (i - 1)) * cs[i - 1] * p[k - i]
        if k <= n:
            p.append(factorial(k) * GradedPoly.generator(ctx, f"g{k}"))
            cs.append((p[k] - acc) * Fraction((-1) ** (k - 1), k))
        else:
            p.append(acc)
    return cs, p[1 : kmax + 1]


def c_from_ch(n: int, ctx: GeneratorSet) -> list[GradedPoly]:
    """Chern classes c_1..c_n of the rank-n bundle with ch_k = g_k."""
    return _newton(n, ctx, n)[0]


def tangent_power_sums(n: int, ctx: GeneratorSet, kmax: int) -> list[GradedPoly]:
    """Power sums p_1..p_kmax of the rank-n tangent bundle (p_k = k! ch_k)."""
    return _newton(n, ctx, kmax)[1]


def tangent_ch(n: int, ctx: GeneratorSet, kmax: int) -> list[GradedPoly]:
    """Chern characters ch_1..ch_kmax of the rank-n tangent bundle."""
    return [
        p * Fraction(1, factorial(k))
        for k, p in enumerate(tangent_power_sums(n, ctx, kmax), start=1)
    ]


# ---------------------------------------------------------------------------
# Chern characters of atoms and the Todd class


def _require_gravitational(ctx: GeneratorSet, n: int):
    for k in range(1, n + 1):
        if f"g{k}" not in ctx.names:
            raise GeneratorMismatch(f"context lacks gravitational generator g{k}")


def ch_geom(geom: Geom, n: int, ctx: GeneratorSet) -> GradedPoly:
    """Truncated Chern character of a geometric factor in dimension n."""
    if isinstance(geom, _Trivial):
        return GradedPoly.constant(ctx, 1)
    if isinstance(geom, Kpow):
        _require_gravitational(ctx, 1)
        return (GradedPoly.generator(ctx, "g1") * (-geom.power)).exp()
    _require_gravitational(ctx, n)
    total = GradedPoly.constant(ctx, n)
    characters = tangent_ch(n, ctx, ctx.cap // 2)
    for k, ch_k in enumerate(characters, start=1):
        if isinstance(geom, _Cotangent):
            # dualizing negates the odd power sums
            ch_k = ch_k * Fraction((-1) ** k)
        total = total + ch_k
    return total


def ch_rep(rep: GaugeRep, ctx: GeneratorSet) -> GradedPoly:
    """Chern character of a gauge representation: exp(q*f1)*(dim + t2*s2 + t3*s3).

    A gauge generator missing from the context is an error unless its
    degree already exceeds the cap, in which case its term is zero anyway.
    """
    body = GradedPoly.constant(ctx, rep.dim)
    for name, coeff in (("s2", rep.t2), ("s3", rep.t3)):
        if coeff == 0:
            continue
        if name in ctx.names:
            body = body + coeff * GradedPoly.generator(ctx, name)
        elif GAUGE_GENERATOR_DEGREES[name] > ctx.cap:
            continue
        else:
            raise GeneratorMismatch(f"representation needs generator {name!r} not in context")
    if rep.q != 0:
        if "f1" not in ctx.names:
            raise GeneratorMismatch("charged representation needs generator 'f1' in context")
        body = (GradedPoly.generator(ctx, "f1") * rep.q).exp() * body
    return body


def ch_atom(atom: Atom, n: int, ctx: GeneratorSet) -> GradedPoly:
    """Signed Chern character of one atom; odd parity contributes negatively."""
    return atom.sign * ch_geom(atom.geom, n, ctx) * ch_rep(atom.rep, ctx)


def ch_content(content: FieldContent, ctx: GeneratorSet) -> GradedPoly:
    """Chern character of a formal sum: additive over pieces with multiplicity."""
    total = GradedPoly.zero(ctx)
    for multiplicity, atom in content.pieces:
        total = total + multiplicity * ch_atom(atom, content.dimension, ctx)
    return total


@lru_cache(maxsize=None)
def todd_log_coefficients(kmax: int) -> tuple[Fraction, ...]:
    """Coefficients a_1..a_kmax of log(x / (1 - e^{-x})) = sum a_k x^k.

    Derived once by formal series division and logarithm; the Todd class
    of a bundle is then exp(sum_k a_k p_k) in its power sums.
    """
    # (1 - e^{-x})/x = sum (-1)^k x^k / (k+1)!
    denominator = [Fraction((-1) ** k, factorial(k + 1)) for k in range(kmax + 1)]
    series = series_reciprocal(denominator, kmax)
    return tuple(series_log(series, kmax)[1:])


@lru_cache(maxsize=4 * MAX_DIMENSION)
def todd(n: int, ctx: GeneratorSet) -> GradedPoly:
    """Todd class of the rank-n tangent bundle, truncated at the context cap.

    Memoized per (n, ctx): both arguments are immutable and hashable, and
    the result is immutable, so every caller can share one copy.  The cache
    holds the four twist contexts of every supported dimension.
    """
    _require_gravitational(ctx, n)
    kmax = ctx.cap // 2
    coefficients = todd_log_coefficients(kmax)
    power_sums = tangent_power_sums(n, ctx, kmax)
    exponent = GradedPoly.zero(ctx)
    for a_k, p_k in zip(coefficients, power_sums):
        exponent = exponent + a_k * p_k
    return exponent.exp()


# ---------------------------------------------------------------------------
# pushforward along a curve fiber


def pushforward_curve(poly: GradedPoly, n: int, chi_hol: RationalLike) -> GradedPoly:
    """Integrate a class on the (n+1)-dimensional total space over a curve fiber.

    The tangent bundle splits off the fiber line, whose first Chern class t
    squares to zero on the curve and integrates to 2*chi_hol.  Concretely:
    substitute g1 -> g1 + s with s a square-zero degree-2 symbol, replace
    g_k for k >= 2 by ch_k of the rank-n base tangent bundle, expand, and
    return 2*chi_hol times the s-linear part.  Gauge generators pass
    through unchanged.
    """
    src = poly.ctx
    for name in src.names:
        match = _GRAV_NAME.fullmatch(name)
        if match and int(match.group(1)) > n + 1:
            if any(e[src.index(name)] for e, _ in poly.terms()):
                raise GeneratorMismatch(
                    f"generator {name} exceeds the rank n+1 = {n + 1} total space"
                )
    _require_gravitational(src, n + 1)

    target_names, target_degrees = [], []
    for name, degree in zip(src.names, src.degrees):
        match = _GRAV_NAME.fullmatch(name)
        if match and int(match.group(1)) > n:
            continue
        target_names.append(name)
        target_degrees.append(degree)
    target = GeneratorSet(tuple(target_names), tuple(target_degrees), 2 * n + 2)
    inter = GeneratorSet(
        tuple(target_names) + ("s",), tuple(target_degrees) + (2,), 2 * n + 4
    )

    base_ch = tangent_ch(n, inter, n + 1)
    images: dict[str, GradedPoly] = {}
    for name in src.names:
        match = _GRAV_NAME.fullmatch(name)
        if not match:
            images[name] = GradedPoly.generator(inter, name)
            continue
        k = int(match.group(1))
        if k == 1:
            images[name] = GradedPoly.generator(inter, "g1") + GradedPoly.generator(inter, "s")
        else:
            images[name] = base_ch[k - 1]

    expanded = poly.substitute(inter, images)
    s_index = inter.index("s")
    fiber_integral = 2 * Fraction(chi_hol)
    collected = {}
    for exponents, coeff in expanded.terms():
        if exponents[s_index] != 1:
            continue
        collected[exponents[:-1]] = coeff * fiber_integral
    return GradedPoly(target, collected)

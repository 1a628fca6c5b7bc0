"""Truncated graded-commutative polynomials over exact rationals.

A polynomial lives in a ring with a fixed, ordered list of named generators
of even cohomological degree and a hard degree cap: every monomial whose
total weighted degree exceeds the cap is identically zero.  This is the
cohomology ring H^{<= cap} in which all characteristic-class arithmetic in
this package takes place.

Representation:

  GeneratorSet -- ordered (name, degree) pairs plus the cap.
  GradedPoly   -- map from exponent tuples (one entry per generator, in
                  GeneratorSet order) to non-zero Fraction coefficients;
                  the zero polynomial is the empty map.

Coefficients are ``fractions.Fraction``, so arithmetic is exact, never
overflows, and results are always in lowest terms with positive
denominator.  All generators have even degree, so the ring is honestly
commutative and no Koszul signs arise.  Values are immutable after
construction; every operation returns a new polynomial.  render_sum writes
the text form of str(GradedPoly) and of univariate.format_poly.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import factorial
from operator import add, itemgetter
from typing import Iterable, Mapping, Sequence, Union

Rational = Fraction
RationalLike = Union[Fraction, int]

# ASCII digits only: int() and \d also take non-ASCII digits, and int() underscores
_INTEGER_TOKEN = re.compile(r"[+-]?[0-9]+")
_RATIONAL_TOKEN = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


class GeneratorMismatch(ValueError):
    """An operation mixed polynomials over different generator sets."""


class SeriesDomainError(ValueError):
    """exp or log applied to a polynomial with the wrong constant term."""


def _decimal(digits: str, subject: str = "") -> int:
    """int() of ASCII digits.  It fails only past Python's digit limit, whose own
    message varies by version and names a setting a CLI user cannot reach."""
    try:
        return int(digits)
    except ValueError:
        size, limit = len(digits.lstrip("+-")), sys.get_int_max_str_digits()
        raise ValueError(f"{subject}has {size} digits, over the {limit}-digit limit") from None


def parse_integer(token: str) -> int:
    """Parse an optionally signed decimal integer of ASCII digits; reject anything else.
    The messages are predicates ("must be an integer, got 'x'"); the caller names the subject."""
    if not _INTEGER_TOKEN.fullmatch(token):
        raise ValueError(f"must be an integer, got {token!r}")
    return _decimal(token)


def parse_rational(token: str) -> Fraction:
    """Parse "p/q" or "p" into an exact Fraction; reject anything else.

    Decimal notation is deliberately not accepted: every number in this
    package must round-trip exactly through its text form.
    """
    if not _RATIONAL_TOKEN.fullmatch(token):
        raise ValueError(f"malformed rational {token!r} (expected p/q or integer)")
    numerator, _, denominator = token.partition("/")
    p, q = _decimal(numerator, "numerator "), _decimal(denominator or "1", "denominator ")
    if q == 0:
        raise ValueError(f"malformed rational {token!r} (zero denominator)")
    return Fraction(p, q)


def format_rational(value: RationalLike) -> str:
    """Render a rational as "p/q", or "p" when the denominator is 1."""
    try:
        return str(Fraction(value))
    except ValueError:  # past the digit limit, worded as in _decimal
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"a result has more than {limit} digits, too many to print") from None


def render_sum(terms: Iterable[tuple[RationalLike, str]]) -> str:
    """Render (coefficient, monomial) pairs in order, e.g. "-x - 1/2*y + 3": zero terms
    are skipped, the monomial "1" prints as its bare coefficient, a coefficient of
    absolute value 1 is left out, and the empty sum is "0"."""
    rendered = ""
    for coeff, name in terms:
        if not coeff:
            continue
        size = format_rational(abs(coeff))
        body = size if name == "1" else name if abs(coeff) == 1 else f"{size}*{name}"
        sign = "-" if coeff < 0 else "+"
        rendered = f"{rendered} {sign} {body}" if rendered else body if coeff > 0 else f"-{body}"
    return rendered or "0"


@dataclass(frozen=True)
class GeneratorSet:
    """Ordered named generators of even degree >= 2, with a degree cap."""

    names: tuple[str, ...]
    degrees: tuple[int, ...]
    cap: int

    def __post_init__(self):
        if len(self.names) != len(self.degrees):
            raise ValueError("names and degrees must have equal length")
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"generator names must be unique: {self.names}")
        for degree in self.degrees:
            if degree < 2 or degree % 2:
                raise ValueError(f"generator degrees must be even and >= 2, got {degree}")
        if self.cap < 2 or self.cap % 2:
            raise ValueError(f"cap must be a positive even integer, got {self.cap}")
        if self.degrees and self.cap < max(self.degrees):
            raise ValueError("cap must be at least the largest generator degree")

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise GeneratorMismatch(f"unknown generator {name!r} in {self.names}") from None

    def degree(self, exponents: Sequence[int]) -> int:
        """Total weighted degree of an exponent tuple."""
        return sum(e * d for e, d in zip(exponents, self.degrees))

    def monomial(self, spec: Union[Mapping[str, int], Sequence[int]]) -> tuple[int, ...]:
        """Normalize a monomial given as {name: exponent} or a full tuple."""
        if isinstance(spec, Mapping):
            exponents = [0] * len(self.names)
            for name, e in spec.items():
                exponents[self.index(name)] = int(e)
        else:
            exponents = [int(e) for e in spec]
            if len(exponents) != len(self.names):
                raise GeneratorMismatch(
                    f"exponent tuple of length {len(exponents)} does not fit {len(self.names)} generators"
                )
        if any(e < 0 for e in exponents):
            raise ValueError(f"negative exponent in monomial {spec!r}")
        return tuple(exponents)

    def monomial_name(self, exponents: Sequence[int]) -> str:
        """Render an exponent tuple as e.g. "g1^2*f1"; the constant monomial is "1"."""
        parts = []
        for name, e in zip(self.names, exponents):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"


def _extend(tails, d: int, top: int):
    """Each (exponents, degree) of tails followed by every exponent of one more generator of
    degree d that keeps the total within top, largest first; lazy, one stage of a chain."""
    for e, degree in tails:
        for m in range((top - degree) // d, -1, -1):
            yield e + (m,), degree + m * d


def homogeneous_monomials(ctx: GeneratorSet, degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples of the given total degree, in descending lexicographic order.

    The exponents of every generator after the first are extended lazily, one generator at
    a time, in descending order; the first generator's exponent then fills the rest of the
    degree, and a tail whose remainder that generator's degree does not divide is dropped.
    One stable sort on the first exponent puts the list in order.  When the first generator
    has degree 2, as in every twist ring, every tail yields a tuple, so the cost is
    proportional to the number of tuples returned.
    """
    if degree < 0 or degree % 2 or not ctx.degrees:  # every generator has even degree
        return [] if degree else [()]
    first, *rest = ctx.degrees
    tails = iter([((), 0)])
    for d in rest:
        tails = _extend(tails, d, degree)
    found = [((degree - t) // first,) + e for e, t in tails if not (degree - t) % first]
    found.sort(key=itemgetter(0), reverse=True)
    return found


class GradedPoly:
    """Element of the truncated graded ring over a GeneratorSet.

    Supports +, -, * (by polynomials and by rational scalars), integer
    powers, exp/log of nilpotent series, degree-component extraction and
    exact coefficient lookup.  Monomials above the cap are silently
    discarded by every operation: that is the ring structure, not data
    loss.
    """

    __slots__ = ("ctx", "_terms")

    def __init__(self, ctx: GeneratorSet, terms: Union[Mapping, Iterable] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        collected: dict[tuple[int, ...], Fraction] = {}
        for exponents, coeff in items:
            exponents = ctx.monomial(exponents)
            if ctx.degree(exponents) > ctx.cap:
                continue
            coeff = Fraction(coeff)
            if coeff:
                total = collected.get(exponents, Fraction(0)) + coeff
                if total:
                    collected[exponents] = total
                else:
                    collected.pop(exponents, None)
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "_terms", collected)

    def __setattr__(self, name, value):
        raise AttributeError("GradedPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ctx: GeneratorSet) -> "GradedPoly":
        return cls(ctx)

    @classmethod
    def constant(cls, ctx: GeneratorSet, value: RationalLike) -> "GradedPoly":
        return cls(ctx, {(0,) * len(ctx.names): Fraction(value)})

    @classmethod
    def generator(cls, ctx: GeneratorSet, name: str) -> "GradedPoly":
        return cls(ctx, {ctx.monomial({name: 1}): Fraction(1)})

    # -- inspection --------------------------------------------------------

    def terms(self):
        """Iterate (exponent tuple, coefficient) pairs; order unspecified."""
        return self._terms.items()

    def is_zero(self) -> bool:
        return not self._terms

    @property
    def constant_term(self) -> Fraction:
        return self._terms.get((0,) * len(self.ctx.names), Fraction(0))

    def coefficient(self, monomial) -> Fraction:
        """Exact coefficient of a monomial ({name: exp} mapping or exponent tuple)."""
        return self._terms.get(self.ctx.monomial(monomial), Fraction(0))

    def component(self, degree: int) -> "GradedPoly":
        """The homogeneous part of the given degree (zero if out of range)."""
        return GradedPoly(
            self.ctx,
            {e: c for e, c in self._terms.items() if self.ctx.degree(e) == degree},
        )

    def product_component(self, other: "GradedPoly", degree: int) -> "GradedPoly":
        """The degree-``degree`` component of self * other, without the rest; equal to
        ``(self * other).component(degree)``."""
        return self._pair(self._coerce(other), (degree,))

    def homogeneous_degree(self) -> Union[int, None]:
        """The common degree of all terms, or None if mixed; 0 for the zero polynomial."""
        degrees = {self.ctx.degree(e) for e in self._terms}
        if not degrees:
            return 0
        if len(degrees) == 1:
            return degrees.pop()
        return None

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other) -> "GradedPoly":
        if isinstance(other, GradedPoly):
            if other.ctx != self.ctx:
                raise GeneratorMismatch(
                    f"polynomials over different generator sets: {self.ctx.names} vs {other.ctx.names}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return GradedPoly.constant(self.ctx, other)
        return NotImplemented

    def __add__(self, other) -> "GradedPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        merged = dict(self._terms)
        for e, c in other._terms.items():
            merged[e] = merged.get(e, Fraction(0)) + c
        return GradedPoly(self.ctx, merged)

    __radd__ = __add__

    def __neg__(self) -> "GradedPoly":
        return GradedPoly(self.ctx, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> "GradedPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "GradedPoly":
        return (-self) + other

    def __mul__(self, other) -> "GradedPoly":
        if isinstance(other, (int, Fraction)):
            scalar = Fraction(other)
            return GradedPoly(self.ctx, {e: c * scalar for e, c in self._terms.items()})
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._pair(other, range(0, self.ctx.cap + 1, 2))

    __rmul__ = __mul__

    def _pair(self, other: "GradedPoly", degrees: Iterable[int]) -> "GradedPoly":
        """The part of self * other in the given degrees, the one product loop of the ring.

        The terms of other are bucketed by degree, and each term of self is paired only with
        the buckets that complete one of the wanted degrees: one lookup per wanted degree,
        and no pair whose product lands outside them is formed.
        """
        ctx = self.ctx
        by_degree: dict[int, list] = {}
        for eb, cb in other._terms.items():
            by_degree.setdefault(ctx.degree(eb), []).append((eb, cb))
        out: dict[tuple[int, ...], Fraction] = {}
        for ea, ca in self._terms.items():
            da = ctx.degree(ea)
            for degree in degrees:
                for eb, cb in by_degree.get(degree - da, ()):
                    key = tuple(map(add, ea, eb))
                    out[key] = out.get(key, Fraction(0)) + ca * cb
        return GradedPoly(ctx, out)

    def __truediv__(self, scalar) -> "GradedPoly":
        return self * (Fraction(1) / Fraction(scalar))

    def __pow__(self, exponent: int) -> "GradedPoly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        result = GradedPoly.constant(self.ctx, 1)
        for _ in range(exponent):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = GradedPoly.constant(self.ctx, other)
        if not isinstance(other, GradedPoly):
            return NotImplemented
        return self.ctx == other.ctx and self._terms == other._terms

    __hash__ = None

    # -- series ------------------------------------------------------------

    def _series(self, total: "GradedPoly", coefficient) -> "GradedPoly":
        """total + sum_{k >= 1} coefficient(k) * self^k, up to the first vanishing power;
        one exists when self has zero constant term, since it is then nilpotent."""
        power = GradedPoly.constant(self.ctx, 1)
        for k in count(1):
            power = power * self
            if power.is_zero():
                return total
            total = total + power * coefficient(k)

    def exp(self) -> "GradedPoly":
        """Exponential sum_k p^k / k!; requires zero constant term."""
        if self.constant_term != 0:
            raise SeriesDomainError("exp requires a zero constant term")
        return self._series(GradedPoly.constant(self.ctx, 1), lambda k: Fraction(1, factorial(k)))

    def log(self) -> "GradedPoly":
        """Logarithm sum_k (-1)^(k-1) (p-1)^k / k; requires constant term 1."""
        if self.constant_term != 1:
            raise SeriesDomainError("log requires constant term 1")
        return (self - 1)._series(GradedPoly.zero(self.ctx), lambda k: Fraction((-1) ** (k - 1), k))

    # -- structural maps ---------------------------------------------------

    def substitute(
        self, target: GeneratorSet, images: Mapping[str, "GradedPoly"]
    ) -> "GradedPoly":
        """Evaluate each generator at its image polynomial over the target ring.

        Every generator actually used must have an image; all images must
        share the target generator set.
        """
        for poly in images.values():
            if poly.ctx != target:
                raise GeneratorMismatch("substitution images must live in the target ring")
        out = GradedPoly.zero(target)
        for exponents, coeff in self._terms.items():
            term = GradedPoly.constant(target, coeff)
            for name, e in zip(self.ctx.names, exponents):
                if e == 0:
                    continue
                if name not in images:
                    raise GeneratorMismatch(f"no substitution image for generator {name!r}")
                term = term * images[name] ** e
            out = out + term
        return out

    def evaluate(self, values: Mapping[str, RationalLike]) -> Fraction:
        """Evaluate the stored (truncated) terms at rational generator values."""
        total = Fraction(0)
        for exponents, coeff in self._terms.items():
            product = coeff
            for name, e in zip(self.ctx.names, exponents):
                if e == 0:
                    continue
                if name not in values:
                    raise GeneratorMismatch(f"no value supplied for generator {name!r}")
                product *= Fraction(values[name]) ** e
            total += product
        return total

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        ordered = sorted(self._terms.items(), key=lambda item: (self.ctx.degree(item[0]), item[0]))
        return render_sum((coeff, self.ctx.monomial_name(e)) for e, coeff in ordered)

    __repr__ = __str__

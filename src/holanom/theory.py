"""Declarative four-dimensional supersymmetric theories and their holomorphic twist.

A Theory is a gauge group plus a list of multiplets.  The twist map
compiles it to the FieldContent whose Chern character drives every anomaly
computation: a chiral multiplet of R-charge r becomes an even K^((r+1)/2)
atom, a vector multiplet the parity-odd adjoint, and the extended-
supersymmetry multiplets their standard decompositions into those two.
The table MULTIPLETS holds this map once; validation, theory-file parsing
and rendering, and the reference table of multiplets all read it.

Chirals marked as carrying the unknown R-charge r enter the anomaly only
through exp(-(r+1)/2 * g1), so every anomaly coefficient is a polynomial in
r of degree at most n+1; anomaly.anomaly_in_r writes those polynomials down
from the theory pinned at r = 0 and the marked chirals' Chern character.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Union

from .chern import Atom, FieldContent, GaugeGroup, GaugeRep, Kpow, adjoint
from .ring import RationalLike


class ConfigurationError(ValueError):
    """A theory description that cannot be compiled."""


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; indicates a bug, not bad input."""


@dataclass(frozen=True)
class Chiral:
    """N=1 chiral multiplet of R-charge r in a gauge representation."""

    r: Fraction
    rep: GaugeRep
    copies: int = 1
    unknown_r: bool = False

    def __post_init__(self):
        object.__setattr__(self, "r", Fraction(self.r))
        if self.copies < 1:
            raise ValueError("copies must be positive")


@dataclass(frozen=True)
class Vector:
    """N=1 vector multiplet for the theory's simple gauge group."""


@dataclass(frozen=True)
class N2Vector:
    """N=2 vector multiplet (an N=1 vector plus an adjoint chiral at r = -1/3)."""


@dataclass(frozen=True)
class Hyper:
    """N=2 hypermultiplet valued in a representation."""

    rep: GaugeRep
    copies: int = 1

    def __post_init__(self):
        if self.copies < 1:
            raise ValueError("copies must be positive")


@dataclass(frozen=True)
class N4Vector:
    """N=4 vector multiplet (an N=1 vector plus three adjoint chirals at r = -1/3)."""


@dataclass(frozen=True)
class Raw:
    """Pre-twisted field content passed through unchanged."""

    content: FieldContent


Multiplet = Union[Chiral, Vector, N2Vector, Hyper, N4Vector, Raw]


# Per theory-file keyword, in reference-table order: the multiplet class and
# its atoms (multiplicity, canonical-bundle power, representation, parity).
# The power "r" stands for the chiral's (r+1)/2; the representation "rep" is
# the multiplet's own and "adj" the adjoint of the simple gauge group.
MULTIPLETS = {
    "vector": (Vector, ((1, 0, "adj", "odd"),)),
    "chiral": (Chiral, ((1, "r", "rep", "even"),)),
    "n2-vector": (N2Vector, ((1, 0, "adj", "odd"), (1, Fraction(1, 3), "adj", "even"))),
    "hyper": (Hyper, ((1, Fraction(1, 3), "rep", "even"), (1, Fraction(2, 3), "rep", "odd"))),
    "n4-vector": (N4Vector, ((1, 0, "adj", "odd"), (3, Fraction(1, 3), "adj", "even"))),
}
_KEYWORDS = {cls: keyword for keyword, (cls, _) in MULTIPLETS.items()}


def multiplet_uses(keyword: str, token: str) -> bool:
    """Whether a built-in multiplet's atoms use "r" (it takes an R-charge), "rep"
    (a representation and copies) or "adj" (it needs a simple gauge group)."""
    return any(token in atom for atom in MULTIPLETS[keyword][1])


def multiplet_keyword(m: Multiplet) -> str:
    """Theory-file keyword of a built-in multiplet."""
    if type(m) not in _KEYWORDS:
        raise ConfigurationError(f"unknown multiplet kind {type(m).__name__}")
    return _KEYWORDS[type(m)]


@dataclass(frozen=True)
class Theory:
    """A 4d theory: dimension of the twisted spacetime, gauge data, multiplets.

    The superpotential note is recorded verbatim and never enters any
    computation; it does not define a quantity with a cohomological grading
    and plays no role in the anomaly arithmetic.
    """

    dimension: int = 2
    gauge: GaugeGroup = GaugeGroup()
    multiplets: tuple[Multiplet, ...] = ()
    superpotential_note: Union[str, None] = None

    def __post_init__(self):
        object.__setattr__(self, "multiplets", tuple(self.multiplets))
        for m in self.multiplets:
            if isinstance(m, Raw):
                if m.content.dimension != self.dimension:
                    raise ConfigurationError("raw content dimension does not match the theory")
                continue
            if self.dimension != 2:
                raise ConfigurationError(
                    f"built-in multiplet {type(m).__name__} requires dimension 2"
                )
            if multiplet_uses(multiplet_keyword(m), "adj") and self.gauge.su is None:
                raise ConfigurationError(f"{type(m).__name__} requires a simple gauge group")
            rep = getattr(m, "rep", None)
            if rep is not None:
                if (rep.t2 != 0 or rep.t3 != 0) and self.gauge.su is None:
                    raise ConfigurationError(
                        "non-trivial gauge representation requires a simple gauge group"
                    )
                if rep.q != 0 and not self.gauge.abelian:
                    raise ConfigurationError(
                        "charged representation requires the abelian background"
                    )


def chiral_twist_power(r: RationalLike) -> Fraction:
    """Canonical-bundle power of the twisted chiral: lam = (r+1)/2."""
    return (Fraction(r) + 1) / 2


def multiplet_atoms(m: Multiplet, adj: Union[GaugeRep, None]) -> list[tuple[int, Atom]]:
    """(multiplicity, atom) pieces of a built-in multiplet, copies included; adj fills "adj"."""
    copies = getattr(m, "copies", 1)
    pieces = []
    for multiplicity, power, rep, parity in MULTIPLETS[multiplet_keyword(m)][1]:
        geom = Kpow(chiral_twist_power(m.r) if power == "r" else power)
        pieces.append((copies * multiplicity, Atom(geom, m.rep if rep == "rep" else adj, parity)))
    return pieces


def twist_content(theory: Theory) -> FieldContent:
    """Compile a theory to the twisted field content.

    Only the base of the shifted cotangent space enters: the conjugate
    sector is accounted for by the index-style anomaly formula itself, and
    this convention reproduces all the standard multiplet coefficients.
    """
    adj = None if theory.gauge.su is None else adjoint(theory.gauge.su)
    pieces: list[tuple[int, Atom]] = []
    for m in theory.multiplets:
        pieces.extend(m.content.pieces if isinstance(m, Raw) else multiplet_atoms(m, adj))
    return FieldContent(theory.dimension, tuple(pieces))


# ---------------------------------------------------------------------------
# the undetermined R-charge


def require_unknown_r(theory: Theory) -> None:
    """Refuse a theory in which no chiral multiplet carries the unknown R-charge."""
    if not any(isinstance(m, Chiral) and m.unknown_r for m in theory.multiplets):
        raise ConfigurationError("no multiplet is marked as carrying the unknown R-charge")


def with_unknown_r(theory: Theory, value: RationalLike) -> Theory:
    """The theory with every unknown-marked chiral set to the given R-charge."""
    value = Fraction(value)
    multiplets = tuple(
        replace(m, r=value, unknown_r=False)
        if isinstance(m, Chiral) and m.unknown_r
        else m
        for m in theory.multiplets
    )
    return replace(theory, multiplets=multiplets)


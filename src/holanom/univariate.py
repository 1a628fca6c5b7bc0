"""Dense univariate polynomials over exact rationals.

Coefficients are stored in ascending powers as a tuple of Fractions with no
trailing zeros; the zero polynomial is the empty tuple.  These are the
polynomials in the unknown R-charge r: exact Lagrange interpolation,
complete rational root finding, and rendering in r.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

Coeffs = tuple[Fraction, ...]


def normalize(coeffs: Sequence[Fraction]) -> Coeffs:
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def degree(coeffs: Coeffs) -> int:
    """Degree of the polynomial; -1 for the zero polynomial."""
    return len(coeffs) - 1


def evaluate(coeffs: Coeffs, x: Fraction) -> Fraction:
    total = Fraction(0)
    for c in reversed(coeffs):
        total = total * x + c
    return total


def add(a: Coeffs, b: Coeffs) -> Coeffs:
    n = max(len(a), len(b))
    return normalize(
        [
            (a[i] if i < len(a) else Fraction(0)) + (b[i] if i < len(b) else Fraction(0))
            for i in range(n)
        ]
    )


def scale(a: Coeffs, s: Fraction) -> Coeffs:
    return normalize([c * s for c in a])


def multiply(a: Coeffs, b: Coeffs) -> Coeffs:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return normalize(out)


def lagrange_interpolate(points: Sequence[tuple[Fraction, Fraction]]) -> Coeffs:
    """The unique polynomial of degree < len(points) through the given points.

    Nodes must be pairwise distinct; everything is exact.
    """
    xs = [Fraction(x) for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation nodes must be distinct")
    total: Coeffs = ()
    for i, (xi, yi) in enumerate(points):
        basis: Coeffs = (Fraction(1),)
        denom = Fraction(1)
        for j, xj in enumerate(xs):
            if j == i:
                continue
            basis = multiply(basis, (-Fraction(xj), Fraction(1)))
            denom *= xi - xj
        total = add(total, scale(basis, Fraction(yi) / denom))
    return total


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)


def rational_roots(coeffs: Coeffs) -> list[Fraction]:
    """All rational roots of a non-zero polynomial, exactly, sorted ascending.

    Uses the rational root theorem on the integer form of the polynomial;
    every candidate is verified by exact evaluation, so the returned list
    is complete and contains no spurious roots.
    """
    coeffs = normalize(coeffs)
    if not coeffs:
        raise ValueError("the zero polynomial has every rational as a root")
    roots: set[Fraction] = set()
    while coeffs and coeffs[0] == 0:
        roots.add(Fraction(0))
        coeffs = coeffs[1:]
    if degree(coeffs) >= 1:
        denominator_lcm = lcm(*[c.denominator for c in coeffs])
        ints = [int(c * denominator_lcm) for c in coeffs]
        for p in _divisors(ints[0]):
            for q in _divisors(ints[-1]):
                for candidate in (Fraction(p, q), Fraction(-p, q)):
                    if evaluate(coeffs, candidate) == 0:
                        roots.add(candidate)
    return sorted(roots)


def format_poly(coeffs: Coeffs) -> str:
    """Human-readable rendering in r, highest power first, e.g. "-5*r - 3"."""
    coeffs = normalize(coeffs)
    if not coeffs:
        return "0"
    parts = []
    for power in range(len(coeffs) - 1, -1, -1):
        c = coeffs[power]
        if c == 0:
            continue
        if power == 0:
            body = str(abs(c))
        else:
            var = "r" if power == 1 else f"r^{power}"
            body = var if abs(c) == 1 else f"{abs(c)}*{var}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)

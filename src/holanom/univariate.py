"""Dense univariate polynomials over exact rationals.

Coefficients are stored in ascending powers as a tuple of Fractions with no
trailing zeros; the zero polynomial is the empty tuple.  These are the
polynomials in the unknown R-charge r: sums, division and gcd, complete
rational root finding by Sturm-sequence isolation, and rendering in r.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .ring import RationalLike, render_sum

Coeffs = tuple[Fraction, ...]


def normalize(coeffs: Sequence[Fraction]) -> Coeffs:
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def degree(coeffs: Coeffs) -> int:
    """Degree of the polynomial; -1 for the zero polynomial."""
    return len(coeffs) - 1


def evaluate(coeffs: Sequence[RationalLike], x: RationalLike) -> RationalLike:
    total = 0
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


def _derivative(a: Coeffs) -> Coeffs:
    return normalize([i * c for i, c in enumerate(a)][1:])


def _divmod(a: Coeffs, b: Coeffs) -> tuple[Coeffs, Coeffs]:
    """Quotient and remainder of a by the non-zero polynomial b."""
    quotient = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    remainder = list(a)
    for shift in range(len(quotient) - 1, -1, -1):
        c = quotient[shift] = remainder[shift + len(b) - 1] / b[-1]
        for i, bi in enumerate(b):
            remainder[shift + i] -= c * bi
    return normalize(quotient), normalize(remainder[: len(b) - 1])


def gcd(a: Coeffs, b: Coeffs) -> Coeffs:
    """Monic greatest common divisor; the zero polynomial only for gcd(0, 0)."""
    while b:
        a, b = b, _divmod(a, b)[1]
    return scale(a, 1 / a[-1]) if a else ()


def _integral(a: Sequence[RationalLike]) -> tuple[int, ...]:
    """a times the least common denominator of its coefficients, a positive integer."""
    denominator = math.lcm(*(c.denominator for c in a))
    return tuple(int(c * denominator) for c in a)


def _integer_roots(h: tuple[int, ...]) -> set[int]:
    """Integer roots of a square-free monic integer polynomial h of degree >= 1.

    h has V(lo) - V(hi) distinct real roots in (lo, hi], V(x) being the sign
    changes at x along its Sturm chain h, h', -rem(h, h'), ...  Integer
    bisection inside the Cauchy bound splits the roots apart.  Once an
    interval holds one root with a sign change across it, the sign of h at
    the midpoint alone says which half holds the root.  Positive integer
    multiples of the chain keep every sign and evaluate in plain int.
    """
    chain = [h, _derivative(h)]
    while degree(chain[-1]) > 0:
        chain.append(scale(_divmod(chain[-2], chain[-1])[1], Fraction(-1)))
    chain = [_integral(p) for p in chain]

    def changes(x: int) -> int:
        signs = [v > 0 for v in (evaluate(p, x) for p in chain) if v]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    bound = 1 + max(abs(c) for c in h[:-1])
    roots = set()
    intervals = [(-bound, bound, changes(-bound), changes(bound))]
    while intervals:
        lo, hi, v_lo, v_hi = intervals.pop()
        if v_lo == v_hi:
            continue
        h_lo, h_hi = evaluate(h, lo), evaluate(h, hi)
        if h_hi == 0:
            roots.add(hi)
        if v_lo - v_hi > (h_hi == 0) and hi - lo > 1:
            mid = (lo + hi) // 2
            if v_lo - v_hi == 1 and h_lo * h_hi < 0:  # one root: plain sign bisection
                v_mid = v_lo if evaluate(h, mid) * h_lo > 0 else v_hi
            else:
                v_mid = changes(mid)
            intervals += [(lo, mid, v_lo, v_mid), (mid, hi, v_mid, v_hi)]
    return roots


def rational_roots(coeffs: Coeffs) -> list[Fraction]:
    """All rational roots of a non-zero polynomial, exactly, sorted ascending.

    Stripped of zero roots and made square-free and primitive, the polynomial
    is a_d x^d + ... + a_0 over the integers; y = a_d x maps its rational
    roots onto the integer roots of the monic h(y) = y^d + sum_{i<d} a_i
    a_d^(d-1-i) y^i.  Sturm isolation finds those in time polynomial in the
    coefficients' bit length, and exact evaluation confirms every root.
    """
    coeffs = normalize(coeffs)
    if not coeffs:
        raise ValueError("the zero polynomial has every rational as a root")
    roots = [Fraction(0)] if coeffs[0] == 0 else []
    while coeffs[0] == 0:
        coeffs = coeffs[1:]
    if degree(coeffs) >= 1:
        square_free = _divmod(coeffs, gcd(coeffs, _derivative(coeffs)))[0]
        ints = _integral(square_free)
        content = math.gcd(*ints)
        *low, lead = (a // content for a in ints)
        h = (*(a * lead ** (len(low) - 1 - i) for i, a in enumerate(low)), 1)
        candidates = (Fraction(y, lead) for y in _integer_roots(h))
        roots += [x for x in candidates if evaluate(coeffs, x) == 0]
    return sorted(roots)


def format_poly(coeffs: Coeffs) -> str:
    """Human-readable rendering in r, highest power first, e.g. "-5*r - 3"."""
    names = ["1", "r"] + [f"r^{k}" for k in range(2, len(coeffs))]
    return render_sum(reversed(list(zip(coeffs, names))))

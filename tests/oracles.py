"""Independent brute-force oracles for the test suite.

These re-implement truncated polynomial arithmetic in the most naive way
possible (dense dicts keyed by exponent tuples, no code shared with the
package) so that expected values are pinned by something that cannot share
a bug with the implementation under test.  The few helpers that build
package objects (ch_from_c, wedge_total) do so the long way, by formulas
the package itself no longer uses.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, factorial
from operator import mul
from typing import Sequence

from holanom.chern import Atom, FieldContent, GaugeRep, Kpow
from holanom.ring import GradedPoly

# A naive polynomial is dict[exponent tuple, Fraction]; degrees is the
# per-generator degree tuple and cap the truncation bound.


def naive_degree(exps, degrees):
    return sum(e * d for e, d in zip(exps, degrees))


def naive_add(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, Fraction(0)) + v
    return {k: v for k, v in out.items() if v}


def naive_scale(a, s):
    return {k: v * s for k, v in a.items() if v * s}


def naive_mul(a, b, degrees, cap):
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            if naive_degree(key, degrees) > cap:
                continue
            out[key] = out.get(key, Fraction(0)) + va * vb
    return {k: v for k, v in out.items() if v}


def naive_exp(a, degrees, cap):
    nvars = len(degrees)
    total = {(0,) * nvars: Fraction(1)}
    power = {(0,) * nvars: Fraction(1)}
    k = 0
    while True:
        k += 1
        power = naive_scale(naive_mul(power, a, degrees, cap), Fraction(1, k))
        if not power:
            return total
        total = naive_add(total, power)


def naive_log(a, degrees, cap):
    nvars = len(degrees)
    shifted = naive_add(a, {(0,) * nvars: Fraction(-1)})
    total = {}
    power = {(0,) * nvars: Fraction(1)}
    k = 0
    while True:
        k += 1
        power = naive_mul(power, shifted, degrees, cap)
        if not power:
            return total
        total = naive_add(total, naive_scale(power, Fraction((-1) ** (k - 1), k)))


def naive_homogeneous_monomials(degrees, degree):
    """Exponent tuples of the given weighted degree, descending lexicographically.

    Brute force: every exponent choice for all generators but the last,
    whose exponent the degree then forces, followed by an explicit sort.
    """
    *head, last = degrees
    found = []
    for exps in itertools.product(*(range(degree // d + 1) for d in head)):
        rest = degree - sum(map(mul, exps, head))
        if rest >= 0 and rest % last == 0:
            found.append(exps + (rest // last,))
    return sorted(found, reverse=True)


def from_graded(poly):
    """Dump a package polynomial into the naive representation."""
    return {exps: coeff for exps, coeff in poly.terms()}


def elementary_symmetric(roots, k):
    total = Fraction(0)
    for combo in itertools.combinations(roots, k):
        product = Fraction(1)
        for x in combo:
            product *= x
        total += product
    return total


def power_sum(roots, k):
    return sum(Fraction(x) ** k for x in roots)


def ch_of_roots(roots, k):
    """Chern character component of a bundle with the given Chern roots."""
    return power_sum(roots, k) / factorial(k)


# ---------------------------------------------------------------------------
# univariate power series and Chern roots


def series_mul(a, b, order):
    """Product of two coefficient lists, truncated after t^order."""
    out = [Fraction(0)] * (order + 1)
    for i, x in enumerate(a[: order + 1]):
        for j, y in enumerate(b[: order + 1 - i]):
            out[i + j] += x * y
    return out


def todd_series(order):
    """Coefficients of x / (1 - e^{-x}) up to x^order, by long division."""
    # (1 - e^{-x}) / x = sum_k (-1)^k x^k / (k+1)!
    den = [Fraction((-1) ** k, factorial(k + 1)) for k in range(order + 1)]
    out = []
    for k in range(order + 1):
        acc = Fraction(int(k == 0)) - sum(out[i] * den[k - i] for i in range(k))
        out.append(acc / den[0])
    return out


def canonical_power_top_by_roots(roots, lam, order):
    """t^order coefficient of prod_i td(t x_i) * exp(-lam t x_i).

    This is [Td * ch(K^lam)] in degree 2*order for a bundle with Chern
    roots x_i, since ch(K) = exp(-sum_i x_i).
    """
    td = todd_series(order)
    total = [Fraction(1)] + [Fraction(0)] * order
    for x in roots:
        x = Fraction(x)
        factor = series_mul(
            [c * x**k for k, c in enumerate(td)],
            [(-lam * x) ** k / factorial(k) for k in range(order + 1)],
            order,
        )
        total = series_mul(total, factor, order)
    return total[order]


def evaluate_monomial_name(name, values):
    """Value of a monomial written like "g1^2*g3" at {generator: value}."""
    product = Fraction(1)
    if name == "1":
        return product
    for part in name.split("*"):
        gen, _, exp = part.partition("^")
        product *= Fraction(values[gen]) ** int(exp or 1)
    return product


# ---------------------------------------------------------------------------
# package objects built the long way: Chern characters from Chern classes,
# and alternating exterior algebras of line bundles


def ch_from_c(cs: Sequence[GradedPoly], kmax: int | None = None) -> list[GradedPoly]:
    """Chern characters ch_1..ch_kmax of a bundle with the given Chern classes.

    The rank is len(cs); c_j = 0 for j beyond it.  Inverse of c_from_ch on
    the generators.
    """
    if not cs:
        raise ValueError("need at least one Chern class")
    ctx = cs[0].ctx
    n = len(cs)
    if kmax is None:
        kmax = ctx.cap // 2
    p: list[GradedPoly] = [GradedPoly.zero(ctx)] * (kmax + 1)
    for k in range(1, kmax + 1):
        acc = GradedPoly.zero(ctx)
        for i in range(1, min(k - 1, n) + 1):
            acc = acc + Fraction((-1) ** (i - 1)) * cs[i - 1] * p[k - i]
        if k <= n:
            acc = acc + Fraction((-1) ** (k - 1) * k) * cs[k - 1]
        p[k] = acc
    return [p[k] * Fraction(1, factorial(k)) for k in range(1, kmax + 1)]


def wedge_total(power, m: int, rep: GaugeRep, base_parity: str, n: int = 2) -> FieldContent:
    """Alternating total exterior algebra of m copies of K^power tensored with rep.

    Piece j carries binom(m, j) copies of K^(j*power) with parity flipped
    j times relative to base_parity.
    """
    if m < 1:
        raise ValueError("need at least one line bundle copy")
    power = Fraction(power)
    pieces = []
    for j in range(m + 1):
        parity = base_parity if j % 2 == 0 else ("odd" if base_parity == "even" else "even")
        pieces.append((comb(m, j), Atom(Kpow(j * power), rep, parity)))
    return FieldContent(n, pieces)


# ---------------------------------------------------------------------------
# random generators


def random_rational(rng, max_num=9, max_den=5):
    num = rng.randint(-max_num, max_num)
    den = rng.randint(1, max_den)
    return Fraction(num, den)


def random_graded_poly(rng, ctx, max_terms=4, max_num=6, max_den=4):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = []
        for degree in ctx.degrees:
            exps.append(rng.randint(0, ctx.cap // degree))
        exps = tuple(exps)
        if ctx.degree(exps) > ctx.cap:
            continue
        terms[exps] = random_rational(rng, max_num, max_den)
    return GradedPoly(ctx, terms)

"""Independent brute-force oracles for the test suite.

These re-implement truncated polynomial arithmetic in the most naive way
possible (dense dicts keyed by exponent tuples, no code shared with the
package) so that expected values are pinned by something that cannot share
a bug with the implementation under test.  The few helpers that build
package objects (_newton, ch_from_c, wedge_total,
pushforward_curve_square_zero, interpolate_in_r) do so the long way, by
formulas the package itself no longer uses.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import replace
from fractions import Fraction
from math import comb, factorial, lcm
from operator import mul
from typing import Sequence

from holanom.chern import COTANGENT, Atom, FieldContent, GaugeRep, Kpow
from holanom.ring import GeneratorMismatch, GeneratorSet, GradedPoly
from holanom.theory import Chiral, ConfigurationError, ConsistencyError

_GRAV_NAME = re.compile(r"g(\d+)")

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


def monomial_count(degrees, degree):
    """Number of monomials of the given weighted degree: the coefficient of t^degree in
    prod_d 1/(1 - t^d), the Hilbert series of a polynomial ring with generators of these
    degrees (Stanley, Enumerative Combinatorics I), by the coin-change recursion."""
    if degree < 0:
        return 0
    ways = [1] + [0] * degree
    for d in degrees:
        for rest in range(d, degree + 1):
            ways[rest] += ways[rest - d]
    return ways[degree]


def from_graded(poly):
    """Dump a package polynomial into the naive representation."""
    return {exps: coeff for exps, coeff in poly.terms()}


_NAIVE_GAUGE_DEGREES = {"f1": 2, "s2": 4, "s3": 6}


def naive_ch_content(content, names, degrees, cap):
    """Chern character of a FieldContent as a naive dict over the generators (names, degrees).

    Each piece is sign * multiplicity * geom * rep, with rep = exp(q*f1) * (dim + t2*s2 +
    t3*s3) and geom = exp(-lam*g1) for K^lam or n + sum_k (+-1)^k ch_k for the tangent
    (cotangent) bundle, all by naive_exp and naive_mul.  ch_k is g_k up to the rank n and,
    beyond it, comes from Newton's identity p_k = sum_{i<k} (-1)^(i-1) c_i p_{k-i} +
    (-1)^(k-1) k c_k with p_k = k! ch_k and c_k = 0 above the rank.  Raises
    GeneratorMismatch when a non-zero t2, t3 or q needs a generator that is not in names
    though its degree is within the cap.
    """
    zero = (0,) * len(names)

    def unit(name):
        if name not in names:
            raise GeneratorMismatch(f"oracle: no generator {name}")
        return tuple(int(x == name) for x in names)

    n = content.dimension
    total = {}
    for multiplicity, atom in content.pieces:
        rep = atom.rep
        body = {zero: Fraction(rep.dim)}
        for name, w in (("s2", rep.t2), ("s3", rep.t3)):
            if w and _NAIVE_GAUGE_DEGREES[name] <= cap:
                body = naive_add(body, {unit(name): Fraction(w)})
        if rep.q:
            body = naive_mul(naive_exp({unit("f1"): rep.q}, degrees, cap), body, degrees, cap)
        if isinstance(atom.geom, Kpow):
            lam = atom.geom.power
            geom = naive_exp({unit("g1"): -lam} if lam else {}, degrees, cap)
        else:
            sign = -1 if atom.geom == COTANGENT else 1
            c, p = [], [None]
            for k in range(1, cap // 2 + 1):
                acc = {}
                for i in range(1, min(k - 1, n) + 1):
                    term = naive_mul(c[i - 1], p[k - i], degrees, cap)
                    acc = naive_add(acc, naive_scale(term, Fraction((-1) ** (i - 1))))
                if k <= n:
                    p.append({unit(f"g{k}"): Fraction(factorial(k))})
                    c.append(naive_scale(naive_add(p[k], naive_scale(acc, -1)), Fraction((-1) ** (k - 1), k)))
                else:
                    p.append(acc)
            geom = {zero: Fraction(n)}
            for k in range(1, cap // 2 + 1):
                geom = naive_add(geom, naive_scale(p[k], Fraction(sign**k, factorial(k))))
        piece = naive_mul(geom, body, degrees, cap)
        total = naive_add(total, naive_scale(piece, atom.sign * multiplicity))
    return total


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


def bernoulli_numbers(kmax):
    """B_0..B_kmax with B_1 = -1/2, from sum_{j<=m} C(m+1, j) B_j = 0."""
    b = [Fraction(1)]
    for m in range(1, kmax + 1):
        b.append(-sum(comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return b


def todd_log_closed_form(kmax):
    """a_1..a_kmax of log(x / (1 - e^{-x})) = sum a_k x^k, as a_k = -B_k / (k * k!).

    Differentiating gives 1/x - 1/(e^x - 1) = -sum_k B_k x^(k-1) / k!.
    """
    b = bernoulli_numbers(kmax)
    return tuple(-b[k] / (k * factorial(k)) for k in range(1, kmax + 1))


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
# package objects built the long way: Chern classes and power sums by Newton's
# identities, Chern characters from Chern classes, alternating exterior
# algebras of line bundles, and the square-zero curve pushforward


def _newton(n: int, ctx: GeneratorSet) -> tuple[list[GradedPoly], list[GradedPoly]]:
    """Chern classes c_1..c_n and power sums p_1..p_{cap/2} of the rank-n bundle with ch_k = g_k.

    Newton's identity p_k = c1*p_{k-1} - c2*p_{k-2} + ... + (-1)^(k-1)*k*c_k
    (c_j = 0 for j > n) gives c_k for k <= n, where p_k = k! * g_k, and p_k
    beyond; p_k vanishes above half the cap, so that is where the list ends.
    """
    cs: list[GradedPoly] = []
    p: list[GradedPoly] = [GradedPoly.zero(ctx)]
    for k in range(1, ctx.cap // 2 + 1):
        acc = GradedPoly.zero(ctx)
        for i in range(1, min(k - 1, n) + 1):
            acc = acc + Fraction((-1) ** (i - 1)) * cs[i - 1] * p[k - i]
        if k <= n:
            p.append(factorial(k) * GradedPoly.generator(ctx, f"g{k}"))
            cs.append((p[k] - acc) * Fraction((-1) ** (k - 1), k))
        else:
            p.append(acc)
    return cs, p[1:]


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


def pushforward_curve_square_zero(poly: GradedPoly, n: int, chi_hol) -> GradedPoly:
    """Integrate a class on the (n+1)-dimensional total space over a curve fiber.

    The square-zero construction: substitute g1 -> g1 + s with s a degree-2
    symbol in an intermediate ring, replace g_k for k >= 2 by ch_k of the
    rank-n base tangent bundle, expand, and return 2*chi_hol times the
    s-linear part.  Every non-gravitational generator is kept in the target
    ring, so a generator of degree above 2n+2 (s3 for n = 1) cannot be built.
    """
    src = poly.ctx
    for name in src.names:
        match = _GRAV_NAME.fullmatch(name)
        if match and int(match.group(1)) > n + 1:
            if any(e[src.index(name)] for e, _ in poly.terms()):
                raise GeneratorMismatch(
                    f"generator {name} exceeds the rank n+1 = {n + 1} total space"
                )
    for k in range(1, n + 2):
        if f"g{k}" not in src.names:
            raise GeneratorMismatch(f"context lacks gravitational generator g{k}")

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

    base_ch = [p * Fraction(1, factorial(k)) for k, p in enumerate(_newton(n, inter)[1], start=1)]
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


# ---------------------------------------------------------------------------
# rational roots by the rational root theorem (trial-division divisors)


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


def _horner(coeffs, x):
    total = Fraction(0)
    for c in reversed(coeffs):
        total = total * x + c
    return total


def rational_roots_by_divisors(coeffs) -> list[Fraction]:
    """Every rational root of a non-zero ascending coefficient list, sorted.

    Tries every p/q with p | a_0 and q | a_d on the integer form; the cost
    grows with the square root of those coefficients, so keep them small.
    """
    coeffs = [Fraction(c) for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        raise ValueError("the zero polynomial has every rational as a root")
    roots: set[Fraction] = set()
    while coeffs and coeffs[0] == 0:
        roots.add(Fraction(0))
        coeffs = coeffs[1:]
    if len(coeffs) >= 2:
        denominator_lcm = lcm(*[c.denominator for c in coeffs])
        ints = [int(c * denominator_lcm) for c in coeffs]
        for p in _divisors(ints[0]):
            for q in _divisors(ints[-1]):
                for candidate in (Fraction(p, q), Fraction(-p, q)):
                    if _horner(coeffs, candidate) == 0:
                        roots.add(candidate)
    return sorted(roots)


# ---------------------------------------------------------------------------
# polynomials in the unknown R-charge by sampling


def lagrange_interpolate(points) -> tuple[Fraction, ...]:
    """The unique polynomial of degree < len(points) through the given (x, y) points.

    Ascending coefficients with no trailing zeros; nodes must be pairwise
    distinct.  Each Lagrange basis polynomial is built by multiplying out
    its linear factors one at a time.
    """
    xs = [Fraction(x) for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation nodes must be distinct")
    total = [Fraction(0)] * len(xs)
    for i, (xi, yi) in enumerate(points):
        basis, denominator = [Fraction(1)], Fraction(1)
        for j, xj in enumerate(xs):
            if j != i:
                # basis * (x - xj)
                basis = [lo - xj * hi for lo, hi in zip([Fraction(0)] + basis, basis + [Fraction(0)])]
                denominator *= xi - xj
        total = [t + Fraction(yi) / denominator * c for t, c in zip(total, basis)]
    while total and total[-1] == 0:
        total.pop()
    return tuple(total)


SAMPLE_POINTS = (Fraction(0), Fraction(1), Fraction(-1), Fraction(2))
CHECK_POINT = Fraction(3)


def interpolate_in_r(theory, evaluator) -> dict:
    """Exact cubic polynomial in the unknown R-charge of each value the evaluator names.

    The evaluator maps a theory to {name: value}.  It is sampled with every
    marked chiral pinned at four rational nodes, and every name is
    Lagrange-interpolated from those samples; each result is then confirmed
    at a held-out fifth node, where a mismatch raises ConsistencyError: that
    value is not cubic in r.
    """
    if not any(isinstance(m, Chiral) and m.unknown_r for m in theory.multiplets):
        raise ConfigurationError("no multiplet is marked as carrying the unknown R-charge")

    def pinned(x):
        return replace(theory, multiplets=tuple(
            replace(m, r=x, unknown_r=False) if isinstance(m, Chiral) and m.unknown_r else m
            for m in theory.multiplets
        ))

    samples = [(x, evaluator(pinned(x))) for x in SAMPLE_POINTS]
    polynomials = {}
    for name, value in evaluator(pinned(CHECK_POINT)).items():
        coeffs = lagrange_interpolate([(x, values[name]) for x, values in samples])
        if _horner(coeffs, CHECK_POINT) != value:
            raise ConsistencyError(f"{name} fails the held-out check: it is not cubic in r")
        polynomials[name] = coeffs
    return polynomials


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

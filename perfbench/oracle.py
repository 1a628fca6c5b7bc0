"""Closed-form expected outputs for the benchmark's checker.

Nothing here imports holanom: every expected value is derived from the
additive atom formula, so a checked op can only pass when the program and
these closed forms agree.

A theory is described as a list of atoms ``(sign, mult, dim, t2, t3, q, lam)``
for the summand ``K^lam (x) rep``.  With ``T(lam) = Td * exp(-lam*g1)`` in the
g-basis (``g_k = ch_k`` of the tangent bundle) and
``ch(rep) = exp(q*f1) * (dim + t2*s2 + t3*s3)``, the anomaly is the
degree-(2n+2) part of ``sum sign*mult*T(lam)*ch(rep)``.  In dimension 2 the
needed Todd terms are ``1 + g1/2 + (g1^2/8 - g2/12) + (g1^3/48 - g1*g2/24)``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction as F
from math import factorial, isqrt

HALF = F(1, 2)
THIRD = F(1, 3)


@dataclass(frozen=True)
class AtomSpec:
    sign: int
    mult: int
    dim: int
    t2: F
    t3: F
    q: F
    lam: F


# -- representations and multiplets (README / ROADMAP multiplet table) -----


def rep_data(kind: str, n_colors, trivial_dim: int = 1):
    """(dim, t2, t3) of a theory-file representation."""
    if kind == "fundamental":
        return n_colors, F(1), F(1)
    if kind == "antifundamental":
        return n_colors, F(1), F(-1)
    if kind == "adjoint":
        return n_colors * n_colors - 1, F(2 * n_colors), F(0)
    if kind == "trivial":
        return trivial_dim, F(0), F(0)
    raise ValueError(kind)


def multiplet_atoms(kind: str, rep=None, r=None, lam=None, parity="even", copies=1, q=F(0)):
    """Atoms of one built-in or raw multiplet; rep is (dim, t2, t3)."""

    def atom(sign, mult, rep_, lam_, q_=q):
        dim, t2, t3 = rep_
        return AtomSpec(sign, mult, dim, t2, t3, F(q_), F(lam_))

    if kind == "chiral":
        return [atom(1, copies, rep, (F(r) + 1) / 2)]
    if kind == "hyper":
        return [atom(1, copies, rep, THIRD), atom(-1, copies, rep, 2 * THIRD)]
    if kind == "raw":
        return [atom(1 if parity == "even" else -1, copies, rep, lam)]
    vector = atom(-1, 1, rep, 0, 0)
    if kind == "vector":
        return [vector]
    if kind == "n2-vector":
        return [vector, atom(1, 1, rep, THIRD, 0)]
    if kind == "n4-vector":
        return [vector, atom(1, 3, rep, THIRD, 0)]
    raise ValueError(kind)


# -- dimension 2 -------------------------------------------------------------


# T(lam) = Td * exp(-lam*g1) on a surface, each coefficient in ascending powers of lam.
TODD_TWIST_2 = {
    "1": [F(1)],
    "g1": [HALF, F(-1)],
    "g1^2": [F(1, 8), F(-1, 2), F(1, 2)],
    "g2": [F(-1, 12)],
    "g1^3": [F(1, 48), F(-1, 8), F(1, 4), F(-1, 6)],
    "g1*g2": [F(-1, 24), F(1, 12)],
}


def atom_terms_2(a: AtomSpec, simple: bool, abelian: bool) -> dict[str, tuple[str, F]]:
    """Degree-6 monomial -> (its T(lam) factor, its ch(rep) coefficient) for one atom."""
    terms = {"g1^3": ("g1^3", F(a.dim)), "g1*g2": ("g1*g2", F(a.dim))}
    if simple:
        terms |= {"g1*s2": ("g1", a.t2), "s3": ("1", a.t3)}
    if abelian:
        terms |= {
            "g1^2*f1": ("g1^2", a.dim * a.q),
            "g2*f1": ("g2", a.dim * a.q),
            "g1*f1^2": ("g1", a.dim * a.q**2 / 2),
            "f1^3": ("1", a.dim * a.q**3 / 6),
        }
    if simple and abelian:
        terms["s2*f1"] = ("1", a.t2 * a.q)
    return terms


def anomaly_2(atoms, simple: bool, abelian: bool) -> dict[str, F]:
    """Every degree-6 coefficient of a dimension-2 theory, keyed by monomial name."""
    out: dict[str, F] = {}
    for a in atoms:
        for name, (todd_key, factor) in atom_terms_2(a, simple, abelian).items():
            t = sum((c * a.lam**k for k, c in enumerate(TODD_TWIST_2[todd_key])), F(0))
            out[name] = out.get(name, F(0)) + a.sign * a.mult * factor * t
    return out


def physical_ac(a_hol: F, c_hol: F) -> tuple[F, F]:
    return F(-9, 4) * (a_hol + 6 * c_hol), F(-3, 4) * (5 * a_hol + 18 * c_hol)


# -- generator contexts and monomials ---------------------------------------


def context(n: int, simple: bool, abelian: bool) -> list[tuple[str, int]]:
    """Generators in program order: g1..gn, then s2, s3, f1 when they fit."""
    cap = 2 * n + 2
    gens = [(f"g{k}", 2 * k) for k in range(1, n + 1)]
    extra = ([("s2", 4), ("s3", 6)] if simple else []) + ([("f1", 2)] if abelian else [])
    return gens + [(name, d) for name, d in extra if d <= cap]


def monomials(gens, degree: int) -> list[tuple[int, ...]]:
    """Exponent tuples of the given degree, descending lexicographically."""
    if not gens:
        return [()] if degree == 0 else []
    (_, d), rest = gens[0], gens[1:]
    out = []
    for e in range(degree // d, -1, -1):
        out += [(e,) + tail for tail in monomials(rest, degree - e * d)]
    return out


def monomial_name(gens, exps) -> str:
    parts = [name if e == 1 else f"{name}^{e}" for (name, _), e in zip(gens, exps) if e]
    return "*".join(parts) if parts else "1"


def _is_gauge(name: str) -> bool:
    return not name.startswith("g")


def bucket_names(gens, n: int) -> tuple[list[str], list[str]]:
    """(pure gauge names, mixed names) in degree 2n+2, in program key order."""
    gauge, mixed = [], []
    for exps in monomials(gens, 2 * n + 2):
        used = [name for (name, _), e in zip(gens, exps) if e]
        g = [x for x in used if _is_gauge(x)]
        if g and len(g) == len(used):
            gauge.append(monomial_name(gens, exps))
        elif g:
            mixed.append(monomial_name(gens, exps))
    return gauge, mixed


def bucket_counts(gens, n: int) -> tuple[int, int]:
    """(pure gauge, mixed) monomial counts by a counting recursion, not a listing."""
    degree = 2 * n + 2

    def count(degrees, total):
        ways = [1] + [0] * total
        for d in degrees:
            for s in range(d, total + 1):
                ways[s] += ways[s - d]
        return ways[total]

    all_ = count([d for _, d in gens], degree)
    gauge = count([d for name, d in gens if _is_gauge(name)], degree)
    grav = count([d for name, d in gens if not _is_gauge(name)], degree)
    return gauge, all_ - gauge - grav


def _split(name: str) -> dict[str, int]:
    out = {}
    for part in name.split("*"):
        base, _, e = part.partition("^")
        out[base] = int(e or 1)
    return out


def ch_rep_coefficient(a: AtomSpec, gauge: dict[str, int]) -> F:
    """Coefficient of a gauge monomial in exp(q*f1)*(dim + t2*s2 + t3*s3)."""
    j = gauge.get("f1", 0)
    rest = {k: v for k, v in gauge.items() if k != "f1"}
    if not rest:
        base = F(a.dim)
    elif rest == {"s2": 1}:
        base = a.t2
    elif rest == {"s3": 1}:
        base = a.t3
    else:
        return F(0)
    return base * a.q**j / factorial(j)


def anomaly_known(atoms, n: int, gens) -> tuple[dict[str, F], dict[str, F], bool]:
    """Pure-gauge coefficients (all of them) and the mixed ones with a closed form.

    A mixed monomial g^a*G has coefficient sum T_a(lam)*[ch rep]_G; it is
    known when every atom has [ch rep]_G = 0, or when g^a = g1, where
    T_g1 = 1/2 - lam.  Returns (gauge, known mixed, every mixed known).
    """
    gauge_names, mixed_names = bucket_names(gens, n)
    gauge = {
        name: sum((a.sign * a.mult * ch_rep_coefficient(a, _split(name)) for a in atoms), F(0))
        for name in gauge_names
    }
    mixed: dict[str, F] = {}
    for name in mixed_names:
        parts = _split(name)
        g_part = {k: v for k, v in parts.items() if not _is_gauge(k)}
        gauge_part = {k: v for k, v in parts.items() if _is_gauge(k)}
        weights = [(a, ch_rep_coefficient(a, gauge_part)) for a in atoms]
        if all(w == 0 for _, w in weights):
            mixed[name] = F(0)
        elif g_part == {"g1": 1}:
            mixed[name] = sum((a.sign * a.mult * (HALF - a.lam) * w for a, w in weights), F(0))
    return gauge, mixed, len(mixed) == len(mixed_names)


# -- univariate polynomials in r (ascending coefficient lists) ---------------


def poly_add(a, b):
    n = max(len(a), len(b))
    out = [(a[i] if i < len(a) else F(0)) + (b[i] if i < len(b) else F(0)) for i in range(n)]
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_mul(a, b):
    if not a or not b:
        return []
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return out


def format_poly(coeffs, var: str = "r") -> str:
    """Highest power first, e.g. "-5*r - 3"; the zero polynomial is "0"."""
    parts = []
    for power in range(len(coeffs) - 1, -1, -1):
        c = coeffs[power]
        if c == 0:
            continue
        mag = abs(c)
        if power == 0:
            body = str(mag)
        else:
            v = var if power == 1 else f"{var}^{power}"
            body = v if mag == 1 else f"{mag}*{v}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts) if parts else "0"


def _rational_sqrt(x: F):
    if x < 0:
        return None
    p, q = isqrt(x.numerator), isqrt(x.denominator)
    return F(p, q) if p * p == x.numerator and q * q == x.denominator else None


def rational_roots_upto_2(coeffs) -> set[F]:
    """Rational roots of a non-zero polynomial of degree <= 2, by the quadratic formula."""
    coeffs = list(coeffs)
    roots = set()
    while coeffs and coeffs[0] == 0:
        roots.add(F(0))
        coeffs = coeffs[1:]
    if len(coeffs) == 2:
        roots.add(-coeffs[0] / coeffs[1])
    elif len(coeffs) == 3:
        c, b, a = coeffs
        s = _rational_sqrt(b * b - 4 * a * c)
        if s is not None:
            roots |= {(-b + s) / (2 * a), (-b - s) / (2 * a)}
    elif len(coeffs) > 3:
        raise ValueError("degree above 2")
    return roots


def anomaly_2_in_r(fixed_atoms, unknown_atoms, simple, abelian) -> dict[str, list]:
    """Each dimension-2 coefficient as a polynomial in the unknown R-charge r.

    Unknown chirals have lam = (r+1)/2, so each T(lam) factor becomes a
    polynomial of degree <= 3 in r by substituting lam -> [1/2, 1/2].
    """
    out = {k: [v] if v else [] for k, v in anomaly_2(fixed_atoms, simple, abelian).items()}
    lam = [HALF, HALF]
    powers = [[F(1)], lam, poly_mul(lam, lam), poly_mul(poly_mul(lam, lam), lam)]
    for a in unknown_atoms:
        for name, (todd_key, factor) in atom_terms_2(a, simple, abelian).items():
            w = a.sign * a.mult * factor
            for k, c in enumerate(TODD_TWIST_2[todd_key]):
                out[name] = poly_add(out.get(name, []), [w * c * x for x in powers[k]])
    return out


# -- the checker -------------------------------------------------------------


def parse_report(stdout: str, as_json: bool) -> dict[str, str]:
    """Report lines (or JSON) as a key -> text map; booleans become true/false."""
    if as_json:
        payload = json.loads(stdout)
        return {
            k: ("true" if v else "false") if isinstance(v, bool) else str(v)
            for k, v in payload.items()
        }
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(" = ")
        if not sep:
            raise ValueError(f"not a report line: {line!r}")
        out[key] = value
    return out


def render(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, F)):
        return str(F(value))
    return str(value)


@dataclass
class Expect:
    """What one op must produce.

    values: keys whose text must match exactly (added keys are tolerated).
    counts: prefix -> number of keys that must carry it.
    exit_code: for error ops, the code; stdout must then be empty and
    stderr exactly one line.
    """

    exit_code: int = 0
    values: dict = None
    counts: dict = None


def check(expect: Expect, rc: int, stdout: str, stderr: str, as_json: bool) -> str:
    """Empty string when the op's result matches, else the first mismatch."""
    if rc != expect.exit_code:
        return f"exit code {rc}, expected {expect.exit_code}"
    if expect.exit_code != 0:
        if stdout:
            return "error op wrote to stdout"
        if len(stderr.splitlines()) != 1:
            return f"error op wrote {len(stderr.splitlines())} stderr lines, expected 1"
        return ""
    if stderr:
        return f"unexpected stderr: {stderr.splitlines()[0]!r}"
    try:
        report = parse_report(stdout, as_json)
    except ValueError as exc:
        return f"unparsable report: {exc}"
    for key, value in (expect.values or {}).items():
        if report.get(key) != render(value):
            return f"{key} = {report.get(key)!r}, expected {render(value)!r}"
    for prefix, n in (expect.counts or {}).items():
        found = sum(1 for k in report if k.startswith(prefix))
        if found != n:
            return f"{found} keys start with {prefix!r}, expected {n}"
    return ""

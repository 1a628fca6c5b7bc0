"""Seeded op streams for the benchmark's workloads.

An op stream is a sequence of rounds.  Round ``i`` of workload ``w`` under
seed ``s`` is drawn from ``random.Random(f"{w}:{s}:{i}")`` and a position
``u_i`` in a golden-ratio sequence with a seeded start, so the stream is the
same for a seed however many rounds a run consumes, and each round has a
fixed mix of commands whatever the seed.  Every op carries its
argv, the text of the theory file it reads (if any) and its expected
result from ``oracle``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction as F

import oracle
from oracle import Expect

WORKLOADS = ("sqcd", "highdim", "files")
FILE_TOKEN = "{file}"


@dataclass
class Op:
    argv: list
    expect: Expect
    text: str = None  # theory file contents; FILE_TOKEN in argv names it
    tags: dict = field(default_factory=dict)

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def as_json(self) -> bool:
        return "--json" in self.argv


GOLDEN = (5**0.5 - 1) / 2


def rounds(workload: str, seed: int, first: int = 0):
    """Yield the rounds of a workload's op stream, starting at round ``first``."""
    make = {"sqcd": sqcd_round, "highdim": highdim_round, "files": files_round}[workload]
    start = random.Random(f"{workload}:{seed}").random()
    i = first
    while True:
        yield make(random.Random(f"{workload}:{seed}:{i}"), (start + i * GOLDEN) % 1)
        i += 1


# -- sqcd ---------------------------------------------------------------------


def sqcd_anomalies(nc: int, nf: int) -> dict:
    """a_hol, c_hol, a, c of electric SQCD at r = -Nc/Nf, in closed form."""
    a_hol = F(-(nc * nc + 1), 24)
    c_hol = F(2 * nc**4 - nc * nc * nf * nf + nf * nf, 48 * nf * nf)
    a, c = oracle.physical_ac(a_hol, c_hol)
    return {"a_hol": a_hol, "c_hol": c_hol, "a": a, "c": c}


def seiberg_expect(nc: int, nf: int) -> Expect:
    values = {"colors": nc, "flavors": nf, "r_M": 1 - F(2 * nc, nf), "matched": True}
    return Expect(values=values | sqcd_anomalies(nc, nf))


def sqcd_round(rng: random.Random, u: float) -> list[Op]:
    """One seiberg op for each Nc in 2..12, with Nf - Nc drawn from 2..12."""
    ops = []
    for nc in range(2, 13):
        nf = nc + rng.randint(2, 12)
        argv = ["seiberg", "--colors", str(nc), "--flavors", str(nf)]
        ops.append(Op(argv, seiberg_expect(nc, nf)))
    rng.shuffle(ops)
    return ops


# -- theory-file helpers --------------------------------------------------------


def small_rational(rng: random.Random, nonzero: bool = False) -> F:
    while True:
        value = F(rng.randint(-6, 6), rng.choice((1, 2, 3, 4, 6)))
        if value or not nonzero:
            return value


def rep_choice(rng, colors, charged: bool, kinds):
    """(file text, (dim, t2, t3), charge) for a random representation."""
    kind = rng.choice(kinds)
    dim = rng.randint(1, 4)
    text = f"trivial {dim}" if kind == "trivial" else kind
    q = small_rational(rng, nonzero=True) if charged else F(0)
    if charged:
        text += f" charge {q}"
    return text, oracle.rep_data(kind, colors, dim), q


def header(n: int, colors, abelian: bool) -> list[str]:
    lines = [f"dimension {n}", f"gauge su {colors}" if colors else "gauge none"]
    if abelian:
        lines.append("flavor-u1 on")
    return lines


def copies_suffix(copies: int) -> str:
    return f" copies {copies}" if copies > 1 else ""


# -- highdim --------------------------------------------------------------------

HIGHDIM_CONTEXTS = ("grav", "su", "u1")


def raw_file(rng: random.Random, n: int, ctx: str, atoms: int = 3):
    """A file of raw atoms in dimension n; returns (text, atom specs, simple, abelian)."""
    colors = rng.randint(2, 6) if ctx == "su" else None
    abelian = ctx == "u1"
    kinds = ("fundamental", "antifundamental", "adjoint", "trivial") if colors else ("trivial",)
    lines = header(n, colors, abelian)
    specs = []
    for _ in range(atoms):
        parity = rng.choice(("even", "odd"))
        lam = small_rational(rng)
        copies = rng.randint(1, 5)
        rep_text, rep, q = rep_choice(rng, colors, abelian, kinds)
        lines.append(f"multiplet raw parity {parity} k {lam} rep {rep_text}{copies_suffix(copies)}")
        specs += oracle.multiplet_atoms("raw", rep, lam=lam, parity=parity, copies=copies, q=q)
    return "\n".join(lines) + "\n", specs, colors is not None, abelian


def compute_expect_any(n: int, specs, simple: bool, abelian: bool) -> Expect:
    """compute in any dimension: every gauge key, the mixed keys with a closed form."""
    gens = oracle.context(n, simple, abelian)
    gauge, mixed, all_mixed_known = oracle.anomaly_known(specs, n, gens)
    values = {f"gauge.{k}": v for k, v in gauge.items()}
    values.update({f"mixed.{k}": v for k, v in mixed.items()})
    values["gauge_free"] = not any(gauge.values())
    if any(mixed.values()):
        values["t_free"] = False
    elif all_mixed_known:
        values["t_free"] = True
    n_gauge, n_mixed = oracle.bucket_counts(gens, n)
    return Expect(values=values, counts={"gauge.": n_gauge, "mixed.": n_mixed})


def highdim_round(rng: random.Random, u: float) -> list[Op]:
    """compute on raw-atom files: 26 ops over dimensions 3..8.

    Every (dimension, context) cell appears once.  Four more su ops at
    dimension 8 put p90 inside the slowest mode, and two more su and u1 ops
    at dimension 6 put p50 inside a middle mode, so neither percentile sits
    in a gap between two modes.
    """
    cells = [(n, ctx) for n in range(3, 9) for ctx in HIGHDIM_CONTEXTS]
    cells += [(8, "su")] * 4 + [(6, "su"), (6, "u1")] * 2
    ops = []
    for n, ctx in cells:
        text, specs, simple, abelian = raw_file(rng, n, ctx)
        expect = compute_expect_any(n, specs, simple, abelian)
        ops.append(Op(["compute", FILE_TOKEN], expect, text, {"dim": n}))
    rng.shuffle(ops)
    return ops


# -- files ----------------------------------------------------------------------

FILE_CONTEXTS = ("grav", "su", "u1", "su+u1")


def dim2_file(rng: random.Random, ctx: str):
    """A random dimension-2 theory file of built-in and raw multiplets."""
    colors = rng.randint(2, 6) if "su" in ctx else None
    abelian = "u1" in ctx
    kinds = ("fundamental", "antifundamental", "adjoint", "trivial") if colors else ("trivial",)
    lines = header(2, colors, abelian)
    specs = []
    if colors:
        for kind in rng.sample(("vector", "n2-vector", "n4-vector"), rng.randint(1, 2)):
            lines.append(f"multiplet {kind}")
            specs += oracle.multiplet_atoms(kind, oracle.rep_data("adjoint", colors))
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(("chiral", "chiral", "hyper", "raw"))
        copies = rng.randint(1, 6)
        charged = abelian and rng.random() < 0.7
        rep_text, rep, q = rep_choice(rng, colors, charged, kinds)
        suffix = f"rep {rep_text}{copies_suffix(copies)}"
        if kind == "chiral":
            r = small_rational(rng)
            lines.append(f"multiplet chiral r {r} {suffix}")
            specs += oracle.multiplet_atoms("chiral", rep, r=r, copies=copies, q=q)
        elif kind == "hyper":
            lines.append(f"multiplet hyper {suffix}")
            specs += oracle.multiplet_atoms("hyper", rep, copies=copies, q=q)
        else:
            parity, lam = rng.choice(("even", "odd")), small_rational(rng)
            lines.append(f"multiplet raw parity {parity} k {lam} {suffix}")
            specs += oracle.multiplet_atoms("raw", rep, lam=lam, parity=parity, copies=copies, q=q)
    return "\n".join(lines) + "\n", specs, colors is not None, abelian


def compute_expect_2(specs, simple: bool, abelian: bool) -> Expect:
    """Every key of a dimension-2 compute report, from the closed forms."""
    coeffs = oracle.anomaly_2(specs, simple, abelian)
    a_hol, c_hol = coeffs["g1*g2"], coeffs["g1^3"]
    a, c = oracle.physical_ac(a_hol, c_hol)
    gauge_names, mixed_names = oracle.bucket_names(oracle.context(2, simple, abelian), 2)
    values = {"a_hol": a_hol, "c_hol": c_hol, "a": a, "c": c}
    values.update({f"gauge.{k}": coeffs.get(k, F(0)) for k in gauge_names})
    values.update({f"mixed.{k}": coeffs.get(k, F(0)) for k in mixed_names})
    values["gauge_free"] = not any(coeffs.get(k) for k in gauge_names)
    values["t_free"] = not any(coeffs.get(k) for k in mixed_names)
    return Expect(values=values, counts={"gauge.": len(gauge_names), "mixed.": len(mixed_names)})


def compute_op(rng) -> Op:
    text, specs, simple, abelian = dim2_file(rng, rng.choice(FILE_CONTEXTS))
    argv = ["compute", FILE_TOKEN] + (["--json"] if rng.random() < 0.25 else [])
    return Op(argv, compute_expect_2(specs, simple, abelian), text)


def qcd_op(rng) -> Op:
    nc, nf = rng.randint(2, 12), rng.randint(1, 24)
    values = {"colors": nc, "flavors": nf, "r": F(-nc, nf), "gauge_free": True, "t_free": True}
    argv = ["qcd", "--colors", str(nc), "--flavors", str(nf)]
    return Op(argv, Expect(values=values | sqcd_anomalies(nc, nf)))


def table_values() -> dict:
    unit = oracle.rep_data("trivial", None)  # rows are per unit of representation dimension
    rows = {
        "n1-vector": oracle.multiplet_atoms("vector", unit),
        "n1-chiral": oracle.multiplet_atoms("chiral", unit, r=F(-1, 3)),
        "n2-vector": oracle.multiplet_atoms("n2-vector", unit),
        "n2-hyper": oracle.multiplet_atoms("hyper", unit),
        "n4-vector": oracle.multiplet_atoms("n4-vector", unit),
    }
    values = {}
    for label, specs in rows.items():
        coeffs = oracle.anomaly_2(specs, False, False)
        a_hol, c_hol = coeffs["g1*g2"], coeffs["g1^3"]
        a, c = oracle.physical_ac(a_hol, c_hol)
        values.update({f"{label}.a": a, f"{label}.c": c,
                       f"{label}.a_hol": a_hol, f"{label}.c_hol": c_hol})
    return values


def table_op(rng) -> Op:
    argv = ["table"] + (["--json"] if rng.random() < 0.5 else [])
    return Op(argv, Expect(values=table_values()))


def compactify_op(rng) -> Op:
    text, specs, _, _ = dim2_file(rng, "grav")
    chi = small_rational(rng)
    coeffs = oracle.anomaly_2(specs, False, False)
    values = {"fiber_chi": chi, "virasoro_c": 24 * chi * (coeffs["g1*g2"] + 6 * coeffs["g1^3"]),
              "gauge_free": True, "t_free": True}
    # "=" keeps a negative value from reading as an option
    return Op(["compactify", FILE_TOKEN, f"--fiber-chi={chi}"], Expect(values=values), text)


def sqcd_like_file(rng, abelian: bool, copies: int):
    """SU(N) with a vector and `copies` quark flavors whose R-charge is unknown."""
    colors = rng.randint(2, 6)
    lines = header(2, colors, abelian) + ["multiplet vector"]
    fixed = oracle.multiplet_atoms("vector", oracle.rep_data("adjoint", colors))
    unknown = []
    for kind in ("fundamental", "antifundamental"):
        q = small_rational(rng, nonzero=True) if abelian else F(0)
        charge = f" charge {q}" if abelian else ""
        lines.append(f"multiplet chiral r 0 rep {kind}{charge}{copies_suffix(copies)}")
        unknown += oracle.multiplet_atoms("chiral", oracle.rep_data(kind, colors),
                                          r=0, copies=copies, q=q)
    lines += ["unknown-r 2", "unknown-r 3"]
    return "\n".join(lines) + "\n", fixed, unknown


def solve_op(rng, abelian: bool, single_target: bool, copies: int) -> Op:
    text, fixed, unknown = sqcd_like_file(rng, abelian, copies)
    polys = oracle.anomaly_2_in_r(fixed, unknown, True, abelian)
    gauge_names, mixed_names = oracle.bucket_names(oracle.context(2, True, abelian), 2)
    argv = ["solve-r", FILE_TOKEN]
    names = mixed_names
    target = "all-mixed"
    if single_target:
        target = rng.choice(gauge_names + mixed_names)
        names = [target]
        argv += ["--target", target]
    values = {"target": target}
    values.update({f"poly.{k}": oracle.format_poly(polys.get(k, [])) for k in names})
    constraints = [polys[k] for k in names if polys.get(k)]
    values["unconstrained"] = not constraints
    if constraints:
        roots = set.intersection(*(oracle.rational_roots_upto_2(p) for p in constraints))
        values["roots"] = ", ".join(str(r) for r in sorted(roots)) or "none"
    return Op(argv, Expect(values=values, counts={"poly.": len(names)}), text, {"copies": copies})


def error_op(rng) -> Op:
    """Malformed (exit 2) or inconsistent (exit 1) input: one stderr line expected."""
    good = "dimension 2\ngauge su 3\nmultiplet vector\n"
    cases = [
        (2, ["compute", FILE_TOKEN], good + "multiplet chiral r 1.5 rep fundamental\n"),
        (2, ["compute", FILE_TOKEN], "gauge su 1\n"),
        (2, ["compute", FILE_TOKEN], "gauge none\nmultiplet chiral r 0 rep trivial 1 charge 1\n"),
        (2, ["compute", FILE_TOKEN], "gauge none\nmultiplet vector\n"),
        (2, ["solve-r", FILE_TOKEN], good + "multiplet chiral r 0 rep trivial 1 copies 0\n"),
        (1, ["compactify", FILE_TOKEN, "--fiber-chi", "1"], good),
        (1, ["solve-r", FILE_TOKEN], good + "multiplet chiral r 0 rep fundamental\n"),
        (1, ["solve-r", FILE_TOKEN, "--target", "g1^3"], good + "multiplet chiral r 0 rep adjoint\nunknown-r 2\n"),
        (1, ["seiberg", "--colors", "3", "--flavors", "4"], None),
    ]
    code, argv, text = rng.choice(cases)
    return Op(list(argv), Expect(exit_code=code), text, {"kind": "error"})


# (flavor-u1 on, single --target) of the six solve-r ops in a round: half
# the files carry the flavor U(1); only one op runs the 20-pipeline solve.
SOLVE_KINDS = ((True, False), (True, True), (True, True),
               (False, False), (False, False), (False, True))


def files_round(rng: random.Random, u: float) -> list[Op]:
    """24 ops: 13 compute, 6 solve-r, 2 compactify, qcd, table and one bad input.

    The solve-r ops are a quarter of the round, so p90 falls inside the
    solve-r latencies.  Their quark copies are log-uniform in [1, 1e12],
    stratified: each round takes one from every two decades, at position u
    within them, so the few slow big-copies ops weigh the same in every run.
    """
    ops = [compute_op(rng) for _ in range(13)]
    ops += [qcd_op(rng), table_op(rng), compactify_op(rng), compactify_op(rng), error_op(rng)]
    strata = list(range(len(SOLVE_KINDS)))
    rng.shuffle(strata)
    width = 12 / len(SOLVE_KINDS)
    for (abelian, single), stratum in zip(SOLVE_KINDS, strata):
        copies = int(10 ** (width * (stratum + u)))
        ops.append(solve_op(rng, abelian, single, copies))
    rng.shuffle(ops)
    return ops

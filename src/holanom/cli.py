"""Command-line interface: exact anomaly reports from theory files.

Commands: compute, table, qcd, seiberg, solve-r, compactify.  Reports are
"key = value" lines in a fixed key order (or the same keys as JSON with
--json); every rational is rendered as "p/q" so nothing ever passes
through floating point.  Exit codes: 0 success, 1 domain/configuration
error, 2 parse error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from pathlib import Path

from . import univariate
from .anomaly import (
    GAUGE_GENERATORS,
    AnomalyReport,
    classify,
    gauge_obstruction,
    monomial_buckets,
    multiplet_table,
    physical_ac,
    solve_r,
    t_background_obstruction,
    theory_anomaly,
    theory_report,
)
from .chern import pushforward_curve
from .duality import SQCDSpec, electric_report, quark_charge, seiberg_match
from .ring import _INTEGER_TOKEN, format_rational, parse_integer, parse_rational
from .theory import ConfigurationError, ConsistencyError, Theory
from .theoryfile import TheoryParseError, parse_theory_file

Record = tuple[str, object]

# report key prefix of each AnomalyReport bucket, in report order
_BUCKET_PREFIXES = {"gravitational": "grav", "pure_gauge": "gauge", "mixed": "mixed"}


def _integer_argument(token: str) -> int:
    try:
        return parse_integer(token)
    except ValueError as exc:
        if _INTEGER_TOKEN.fullmatch(token):  # well formed, so past the digit limit: not echoed
            raise argparse.ArgumentTypeError(f"integer {exc}") from None
        # the wording argparse gives for type=int
        raise argparse.ArgumentTypeError(f"invalid int value: {token!r}") from None


def _rational_argument(token: str) -> Fraction:
    try:
        return parse_rational(token)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _render_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (Fraction, int)):
        return format_rational(value)
    return str(value)


def render_records(records: list[Record], as_json: bool) -> str:
    if as_json:
        payload = {
            key: (value if isinstance(value, bool) else _render_value(value))
            for key, value in records
        }
        return json.dumps(payload, indent=2)
    return "\n".join(f"{key} = {_render_value(value)}" for key, value in records)


def _central_charges(a_hol, c_hol) -> list[Record]:
    a, c = physical_ac(a_hol, c_hol)
    return [("a_hol", a_hol), ("c_hol", c_hol), ("a", a), ("c", c)]


def _obstruction_flags(report: AnomalyReport) -> list[Record]:
    return [
        ("gauge_free", gauge_obstruction(report)[1]),
        ("t_free", t_background_obstruction(report)[1]),
    ]


def _report_records(report: AnomalyReport) -> list[Record]:
    """Central charges, then every monomial of the listed buckets (zeros
    included), then the two obstruction flags.

    The gravitational bucket is listed from dimension 3 on, where no
    central charge summarizes it; the gauge buckets only when the report's
    ring has gauge generators, since otherwise they are empty.
    """
    ctx = report.full.ctx
    records: list[Record] = []
    if report.n == 2:
        records += _central_charges(report.a_hol, report.c_hol)
    elif report.n == 1:
        records.append(("virasoro_c", report.virasoro_c))
    listed = ["gravitational"] if report.n >= 3 else []
    if GAUGE_GENERATORS.intersection(ctx.names):
        listed += ["pure_gauge", "mixed"]
    if listed:
        names = monomial_buckets(ctx, report.n)
        for bucket in listed:
            values = getattr(report, bucket)
            records += [
                (f"{_BUCKET_PREFIXES[bucket]}.{name}", values.get(name, Fraction(0)))
                for name in names[bucket]
            ]
    return records + _obstruction_flags(report)


def _load_theory(path: str) -> Theory:
    return parse_theory_file(Path(path).read_text())


def _cmd_compute(args) -> list[Record]:
    return _report_records(theory_report(_load_theory(args.file)))


def _cmd_table(args) -> list[Record]:
    records: list[Record] = []
    for label, a, c, a_hol, c_hol in multiplet_table():
        records += [
            (f"{label}.a", a),
            (f"{label}.c", c),
            (f"{label}.a_hol", a_hol),
            (f"{label}.c_hol", c_hol),
        ]
    return records


def _cmd_qcd(args) -> list[Record]:
    spec = SQCDSpec(args.colors, args.flavors)
    report = electric_report(spec)
    return [
        ("colors", args.colors),
        ("flavors", args.flavors),
        ("r", quark_charge(spec)),
        *_central_charges(report.a_hol, report.c_hol),
        *_obstruction_flags(report),
    ]


def _cmd_seiberg(args) -> list[Record]:
    spec = SQCDSpec(args.colors, args.flavors)
    result = seiberg_match(spec)
    return [
        ("colors", args.colors),
        ("flavors", args.flavors),
        ("r_M", result.r_meson),
        ("matched", result.matched),
        *_central_charges(result.a_hol, result.c_hol),
    ]


def _cmd_solve_r(args) -> list[Record]:
    theory = _load_theory(args.file)
    result = solve_r(theory, args.target)
    records: list[Record] = [("target", result.target)]
    for name, coeffs in result.polynomials.items():
        records.append((f"poly.{name}", univariate.format_poly(coeffs)))
    records.append(("unconstrained", result.unconstrained))
    if not result.unconstrained:
        records.append(("roots", ", ".join(format_rational(r) for r in result.roots) or "none"))
    return records


def _cmd_compactify(args) -> list[Record]:
    theory = _load_theory(args.file)
    if theory.dimension != 2:
        raise ConfigurationError("compactify expects a dimension-2 theory file")
    content, anomaly = theory_anomaly(theory)
    if any(not atom.rep.is_gauge_trivial for _, atom in content.pieces):
        raise ConfigurationError("compactify expects gravitational-only content")
    pushed = pushforward_curve(anomaly, 1, args.fiber_chi)
    return [("fiber_chi", args.fiber_chi)] + _report_records(classify(pushed, 1))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holanom",
        description="Exact anomaly polynomials of holomorphically twisted 4d theories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="anomaly report for a theory file")
    compute.add_argument("file")
    compute.set_defaults(handler=_cmd_compute)

    table = sub.add_parser("table", help="a, c, a_hol, c_hol of the basic multiplets")
    table.set_defaults(handler=_cmd_table)

    qcd = sub.add_parser("qcd", help="electric SQCD at the anomaly-free R-charge")
    qcd.add_argument("--colors", type=_integer_argument, required=True)
    qcd.add_argument("--flavors", type=_integer_argument, required=True)
    qcd.set_defaults(handler=_cmd_qcd)

    seiberg = sub.add_parser("seiberg", help="match electric and magnetic anomalies")
    seiberg.add_argument("--colors", type=_integer_argument, required=True)
    seiberg.add_argument("--flavors", type=_integer_argument, required=True)
    seiberg.set_defaults(handler=_cmd_seiberg)

    solve = sub.add_parser("solve-r", help="solve for anomaly-free R-charges")
    solve.add_argument("file")
    solve.add_argument("--target", default="all-mixed")
    solve.set_defaults(handler=_cmd_solve_r)

    compactify = sub.add_parser(
        "compactify", help="push the anomaly forward along a curve fiber"
    )
    # argparse's own matcher plus p/q: read -3/2 as a value, not as an option
    compactify._negative_number_matcher = re.compile(r"^-[0-9]+(/[0-9]+)?$|^-[0-9]*\.[0-9]+$")
    compactify.add_argument("file")
    compactify.add_argument("--fiber-chi", type=_rational_argument, required=True)
    compactify.set_defaults(handler=_cmd_compactify)

    for command in sub.choices.values():
        command.add_argument("--json", action="store_true")
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        # render here too: a number past the digit limit refuses to print (ring.format_rational)
        text = render_records(args.handler(args), args.json)
    except TheoryParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ConfigurationError, ConsistencyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(text)
    return 0


def main():
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early; send the unwritten rest to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()

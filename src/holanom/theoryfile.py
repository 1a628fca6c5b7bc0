"""Line-oriented theory files: parsing and canonical rendering.

Grammar (one declaration per line, '#' starts a comment, tokens are
whitespace-separated, rationals are "p/q" or integers):

    dimension <n>
    gauge su <N> | gauge none
    flavor-u1 on | off
    multiplet chiral r <p/q> rep <REP> [charge <p/q>] [copies <k>]
    multiplet vector
    multiplet n2-vector
    multiplet n4-vector
    multiplet hyper rep <REP> [charge <p/q>] [copies <k>]
    multiplet raw parity <even|odd> k <p/q> rep <REP> [charge <p/q>] [copies <k>]
    unknown-r <multiplet-index>

    REP := fundamental | antifundamental | adjoint | trivial <dim>

`dimension` defaults to 2.  Header declarations may appear in any order
relative to multiplets but at most once each.  `unknown-r` indices are
1-based in order of multiplet declaration and must point at chiral
multiplets.  Parsing and rendering are mutually inverse on canonical form.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from typing import Union

from .chern import (
    Atom,
    FieldContent,
    GaugeGroup,
    GaugeRep,
    Kpow,
    adjoint,
    antifundamental,
    fundamental,
    trivial,
)
from .theory import MULTIPLETS, Chiral, Multiplet, Raw, Theory, multiplet_keyword, multiplet_uses
from .ring import parse_rational, format_rational


class TheoryParseError(ValueError):
    """A malformed theory file; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class _Tokens:
    """Token cursor for one declaration line."""

    def __init__(self, line_no: int, tokens: list[str]):
        self.line_no = line_no
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Union[str, None]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, what: str) -> str:
        token = self.peek()
        if token is None:
            raise TheoryParseError(self.line_no, f"missing {what}")
        self.pos += 1
        return token

    def expect(self, literal: str):
        token = self.take(f"keyword {literal!r}")
        if token != literal:
            raise TheoryParseError(self.line_no, f"expected {literal!r}, got {token!r}")

    def rational(self, what: str) -> Fraction:
        token = self.take(what)
        try:
            return parse_rational(token)
        except ValueError as exc:
            raise TheoryParseError(self.line_no, f"{what}: {exc}") from None

    def integer(self, what: str) -> int:
        token = self.take(what)
        try:
            return int(token)
        except ValueError:
            raise TheoryParseError(self.line_no, f"{what} must be an integer, got {token!r}") from None

    def done(self):
        if self.peek() is not None:
            raise TheoryParseError(self.line_no, f"trailing tokens: {' '.join(self.tokens[self.pos:])}")


def _declaration_lines(text: str):
    for line_no, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            yield line_no, body.split()


# representations of the simple gauge group spelled by name, in rendering preference
_NAMED_REPS = {"fundamental": fundamental, "antifundamental": antifundamental, "adjoint": adjoint}


def _parse_rep(cursor: _Tokens, gauge: GaugeGroup) -> GaugeRep:
    cursor.expect("rep")
    kind = cursor.take("representation name")
    if kind in _NAMED_REPS:
        if gauge.su is None:
            raise TheoryParseError(
                cursor.line_no, f"{kind} representation requires 'gauge su <N>'"
            )
        rep = _NAMED_REPS[kind](gauge.su)
    elif kind == "trivial":
        dim = cursor.integer("trivial representation dimension")
        if dim < 1:
            raise TheoryParseError(cursor.line_no, "representation dimension must be positive")
        rep = trivial(dim)
    else:
        raise TheoryParseError(cursor.line_no, f"unknown representation {kind!r}")
    if cursor.peek() == "charge":
        cursor.take("charge")
        q = cursor.rational("charge value")
        if q != 0 and not gauge.abelian:
            raise TheoryParseError(
                cursor.line_no, "charge requires 'flavor-u1 on'"
            )
        rep = GaugeRep(rep.dim, rep.t2, rep.t3, q)
    return rep


def _parse_copies(cursor: _Tokens) -> int:
    if cursor.peek() == "copies":
        cursor.take("copies")
        copies = cursor.integer("copies count")
        if copies < 1:
            raise TheoryParseError(cursor.line_no, "copies must be at least 1")
        return copies
    return 1


def _parse_multiplet(cursor: _Tokens, gauge: GaugeGroup, dimension: int) -> Multiplet:
    kind = cursor.take("multiplet kind")
    if kind in MULTIPLETS:
        if multiplet_uses(kind, "adj") and gauge.su is None:
            raise TheoryParseError(cursor.line_no, f"{kind} multiplet requires 'gauge su <N>'")
        fields = {}
        if multiplet_uses(kind, "r"):
            cursor.expect("r")
            fields["r"] = cursor.rational("R-charge")
        if multiplet_uses(kind, "rep"):
            fields["rep"] = _parse_rep(cursor, gauge)
            fields["copies"] = _parse_copies(cursor)
        cursor.done()
        if dimension != 2:
            raise TheoryParseError(cursor.line_no, "built-in multiplets require dimension 2")
        return MULTIPLETS[kind][0](**fields)
    if kind == "raw":
        cursor.expect("parity")
        parity = cursor.take("parity")
        if parity not in ("even", "odd"):
            raise TheoryParseError(cursor.line_no, f"parity must be even or odd, got {parity!r}")
        cursor.expect("k")
        power = cursor.rational("canonical-bundle power")
        rep = _parse_rep(cursor, gauge)
        copies = _parse_copies(cursor)
        cursor.done()
        atom = Atom(Kpow(power), rep, parity)
        return Raw(FieldContent(dimension, ((copies, atom),)))
    raise TheoryParseError(cursor.line_no, f"unknown multiplet kind {kind!r}")


def parse_theory_file(text: str) -> Theory:
    """Parse a theory file into a validated Theory; errors carry line numbers."""
    dimension: Union[int, None] = None
    gauge_su: Union[int, None] = None
    abelian = False
    declared: set[str] = set()
    multiplet_lines: list[tuple[int, list[str]]] = []
    unknown_marks: list[tuple[int, int]] = []

    for line_no, tokens in _declaration_lines(text):
        cursor = _Tokens(line_no, tokens)
        keyword = cursor.take("keyword")
        if keyword in ("dimension", "gauge", "flavor-u1"):
            if keyword in declared:
                raise TheoryParseError(line_no, f"duplicate {keyword} declaration")
            declared.add(keyword)
        if keyword == "dimension":
            dimension = cursor.integer("dimension")
            if dimension < 1:
                raise TheoryParseError(line_no, "dimension must be at least 1")
            cursor.done()
        elif keyword == "gauge":
            kind = cursor.take("gauge kind")
            if kind == "su":
                gauge_su = cursor.integer("SU rank")
                if gauge_su < 2:
                    raise TheoryParseError(line_no, "gauge su needs N >= 2")
            elif kind != "none":
                raise TheoryParseError(line_no, f"unknown gauge kind {kind!r}")
            cursor.done()
        elif keyword == "flavor-u1":
            state = cursor.take("flavor-u1 state")
            if state not in ("on", "off"):
                raise TheoryParseError(line_no, f"flavor-u1 must be on or off, got {state!r}")
            abelian = state == "on"
            cursor.done()
        elif keyword == "multiplet":
            multiplet_lines.append((line_no, tokens[1:]))
        elif keyword == "unknown-r":
            index = cursor.integer("multiplet index")
            cursor.done()
            unknown_marks.append((line_no, index))
        else:
            raise TheoryParseError(line_no, f"unknown keyword {keyword!r}")

    dimension = 2 if dimension is None else dimension
    gauge = GaugeGroup(su=gauge_su, abelian=abelian)

    multiplets = [_parse_multiplet(_Tokens(n, t), gauge, dimension) for n, t in multiplet_lines]

    for line_no, index in unknown_marks:
        if not 1 <= index <= len(multiplets):
            raise TheoryParseError(
                line_no, f"unknown-r index {index} out of range 1..{len(multiplets)}"
            )
        target = multiplets[index - 1]
        if not isinstance(target, Chiral):
            raise TheoryParseError(line_no, "unknown-r must point at a chiral multiplet")
        multiplets[index - 1] = replace(target, unknown_r=True)

    return Theory(dimension=dimension, gauge=gauge, multiplets=tuple(multiplets))


# ---------------------------------------------------------------------------
# canonical rendering


def _render_rep(rep: GaugeRep, gauge: GaugeGroup) -> str:
    base = None
    if gauge.su is not None:
        for name, builder in _NAMED_REPS.items():
            reference = builder(gauge.su)
            if (rep.dim, rep.t2, rep.t3) == (reference.dim, reference.t2, reference.t3):
                base = name
                break
    if base is None:
        if rep.t2 == 0 and rep.t3 == 0:
            base = f"trivial {rep.dim}"
        else:
            raise ValueError(f"representation {rep} has no theory-file spelling")
    if rep.q != 0:
        base += f" charge {format_rational(rep.q)}"
    return base


def render_theory(theory: Theory) -> str:
    """Canonical text form; parse_theory_file inverts it exactly."""
    lines = [f"dimension {theory.dimension}"]
    lines.append(f"gauge su {theory.gauge.su}" if theory.gauge.su is not None else "gauge none")
    if theory.gauge.abelian:
        lines.append("flavor-u1 on")
    unknown: list[int] = []
    rendered = 0  # unknown-r indices count rendered multiplet lines
    for m in theory.multiplets:
        if isinstance(m, Raw):
            for copies, atom in m.content.pieces:
                if copies < 0:
                    atom, copies = atom.flipped(), -copies
                if not isinstance(atom.geom, Kpow):
                    raise ValueError("tangent-type raw content has no theory-file spelling")
                line = (
                    f"multiplet raw parity {atom.parity} k {format_rational(atom.geom.power)}"
                    f" rep {_render_rep(atom.rep, theory.gauge)}"
                )
                if copies > 1:
                    line += f" copies {copies}"
                lines.append(line)
                rendered += 1
            continue
        keyword = multiplet_keyword(m)
        line = f"multiplet {keyword}"
        if multiplet_uses(keyword, "r"):
            line += f" r {format_rational(m.r)}"
        if multiplet_uses(keyword, "rep"):
            line += f" rep {_render_rep(m.rep, theory.gauge)}"
            if m.copies > 1:
                line += f" copies {m.copies}"
        lines.append(line)
        rendered += 1
        if getattr(m, "unknown_r", False):
            unknown.append(rendered)
    for position in unknown:
        lines.append(f"unknown-r {position}")
    return "\n".join(lines) + "\n"

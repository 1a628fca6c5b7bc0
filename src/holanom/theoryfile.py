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

The parser only reads tokens, numbers and headers, names representations
(which needs N) and resolves `unknown-r` marks.  Theory decides what is
legal; its refusal is reported on the declaring line, in the API's words.
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
from .theory import _check_copies
from .ring import format_rational, parse_integer, parse_rational


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
            return parse_integer(token)
        except ValueError as exc:
            raise TheoryParseError(self.line_no, f"{what} {exc}") from None

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


def _on_line(line_no: int, build, *args):
    """build(*args), with a ValueError raised while it builds a declaration's value
    reported as a TheoryParseError on the declaring line."""
    try:
        return build(*args)
    except TheoryParseError:
        raise
    except ValueError as exc:
        raise TheoryParseError(line_no, str(exc)) from None


def _parse_rep(cursor: _Tokens, gauge: GaugeGroup) -> tuple[GaugeRep, int]:
    """`rep <REP> [charge <p/q>] [copies <k>]`: the representation and its copies."""
    cursor.expect("rep")
    kind = cursor.take("representation name")
    if kind in _NAMED_REPS:
        if gauge.su is None:
            raise TheoryParseError(
                cursor.line_no, f"{kind} representation requires 'gauge su <N>'"
            )
        rep = _NAMED_REPS[kind](gauge.su)
    elif kind == "trivial":
        rep = trivial(cursor.integer("trivial representation dimension"))
    else:
        raise TheoryParseError(cursor.line_no, f"unknown representation {kind!r}")
    if cursor.peek() == "charge":
        cursor.take("charge")
        rep = GaugeRep(rep.dim, rep.t2, rep.t3, cursor.rational("charge value"))
    if cursor.peek() == "copies":
        cursor.take("copies")
        return rep, cursor.integer("copies count")
    return rep, 1


def _parse_multiplet(cursor: _Tokens, gauge: GaugeGroup, dimension: int) -> Multiplet:
    kind = cursor.take("multiplet kind")
    if kind in MULTIPLETS:
        fields = {}
        if multiplet_uses(kind, "r"):
            cursor.expect("r")
            fields["r"] = cursor.rational("R-charge")
        if multiplet_uses(kind, "rep"):
            fields["rep"], fields["copies"] = _parse_rep(cursor, gauge)
        cursor.done()
        m = MULTIPLETS[kind][0](**fields)
    elif kind == "raw":
        cursor.expect("parity")
        parity = cursor.take("parity")
        cursor.expect("k")
        power = cursor.rational("canonical-bundle power")
        rep, copies = _parse_rep(cursor, gauge)
        cursor.done()
        atom = Atom(Kpow(power), rep, parity)
        _check_copies(copies)
        m = Raw(FieldContent(dimension, ((copies, atom),)))
    else:
        raise TheoryParseError(cursor.line_no, f"unknown multiplet kind {kind!r}")
    Theory(dimension, gauge, (m,))  # the theory's rules for this multiplet, on its line
    return m


def parse_theory_file(text: str) -> Theory:
    """Parse a theory file into a validated Theory; errors carry line numbers."""
    dimension = 2
    gauge = GaugeGroup()
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
            _on_line(line_no, Theory, dimension)
        elif keyword == "gauge":
            kind = cursor.take("gauge kind")
            if kind == "su":
                gauge = _on_line(line_no, GaugeGroup, cursor.integer("SU rank"), gauge.abelian)
            elif kind != "none":
                raise TheoryParseError(line_no, f"unknown gauge kind {kind!r}")
        elif keyword == "flavor-u1":
            state = cursor.take("flavor-u1 state")
            if state not in ("on", "off"):
                raise TheoryParseError(line_no, f"flavor-u1 must be on or off, got {state!r}")
            gauge = GaugeGroup(gauge.su, state == "on")
        elif keyword == "multiplet":
            multiplet_lines.append((line_no, tokens[1:]))
            continue
        elif keyword == "unknown-r":
            index = cursor.integer("multiplet index")
            unknown_marks.append((line_no, index))
        else:
            raise TheoryParseError(line_no, f"unknown keyword {keyword!r}")
        cursor.done()

    multiplets = [
        _on_line(n, _parse_multiplet, _Tokens(n, t), gauge, dimension) for n, t in multiplet_lines
    ]

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


def _render_rep(rep: GaugeRep, copies: int, gauge: GaugeGroup) -> str:
    """` rep <REP> [charge <p/q>] [copies <k>]`, as _parse_rep reads it."""
    base = f"trivial {rep.dim}"
    if rep.t2 != 0 or rep.t3 != 0:  # an SU(N) representation, so the theory has gauge su N
        names = [n for n, build in _NAMED_REPS.items() if replace(build(gauge.su), q=rep.q) == rep]
        if not names:
            raise ValueError(f"representation {rep} has no theory-file spelling")
        base = names[0]
    if rep.q != 0:
        base += f" charge {format_rational(rep.q)}"
    return f" rep {base}" + (f" copies {copies}" if copies > 1 else "")


def render_theory(theory: Theory) -> str:
    """Canonical text form; parse_theory_file inverts it exactly."""
    lines = [f"dimension {theory.dimension}"]
    lines.append(f"gauge su {theory.gauge.su}" if theory.gauge.su is not None else "gauge none")
    if theory.gauge.abelian:
        lines.append("flavor-u1 on")
    headers = len(lines)
    unknown: list[int] = []
    for m in theory.multiplets:
        if isinstance(m, Raw):
            for copies, atom in m.content.pieces:
                if copies < 0:
                    atom, copies = atom.flipped(), -copies
                if not isinstance(atom.geom, Kpow):
                    raise ValueError("tangent-type raw content has no theory-file spelling")
                lines.append(
                    f"multiplet raw parity {atom.parity} k {format_rational(atom.geom.power)}"
                    + _render_rep(atom.rep, copies, theory.gauge)
                )
            continue
        keyword = multiplet_keyword(m)
        line = f"multiplet {keyword}"
        if multiplet_uses(keyword, "r"):
            line += f" r {format_rational(m.r)}"
        if multiplet_uses(keyword, "rep"):
            line += _render_rep(m.rep, m.copies, theory.gauge)
        lines.append(line)
        if getattr(m, "unknown_r", False):
            unknown.append(len(lines) - headers)  # unknown-r indices count multiplet lines
    lines += [f"unknown-r {position}" for position in unknown]
    return "\n".join(lines) + "\n"

"""Theory-file grammar: parsing, validation errors, canonical rendering."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from holanom.chern import (
    TRIVIAL,
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
from holanom.theory import (
    MULTIPLETS,
    Chiral,
    ConfigurationError,
    Hyper,
    N2Vector,
    N4Vector,
    Raw,
    Theory,
    Vector,
)
from holanom.theoryfile import TheoryParseError, parse_theory_file, render_theory

SQCD_TEXT = """\
# electric SQCD with 3 colors and 5 flavors
dimension 2
gauge su 3
multiplet vector
multiplet chiral r -3/5 rep fundamental copies 5
multiplet chiral r -3/5 rep antifundamental copies 5
"""


def test_parse_sqcd():
    theory = parse_theory_file(SQCD_TEXT)
    assert theory.dimension == 2
    assert theory.gauge == GaugeGroup(su=3)
    vector, quarks, antiquarks = theory.multiplets
    assert isinstance(vector, Vector)
    assert quarks == Chiral(F(-3, 5), fundamental(3), copies=5)
    assert antiquarks.rep.t3 == -1 and antiquarks.copies == 5


def test_parse_bare_dimension():
    theory = parse_theory_file("dimension 2\n")
    assert theory == Theory()


def test_parse_defaults_to_dimension_two():
    theory = parse_theory_file("gauge none\n")
    assert theory.dimension == 2


def test_parse_full_grammar():
    text = """
    dimension 2
    gauge su 2
    flavor-u1 on
    multiplet chiral r 1/3 rep trivial 2 charge -1/2 copies 4
    multiplet n2-vector
    multiplet n4-vector
    multiplet hyper rep fundamental copies 2
    multiplet raw parity odd k 2/3 rep adjoint
    unknown-r 1
    """
    theory = parse_theory_file(text)
    chiral, n2, n4, hyper, raw = theory.multiplets
    assert chiral.rep.q == F(-1, 2) and chiral.copies == 4 and chiral.unknown_r
    assert isinstance(n2, N2Vector) and isinstance(n4, N4Vector)
    assert isinstance(hyper, Hyper) and hyper.copies == 2
    assert isinstance(raw, Raw)
    ((mult, atom),) = raw.content.pieces
    assert mult == 1 and atom.parity == "odd" and atom.geom == Kpow(F(2, 3))


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("multiplet chiral r 1/0 rep trivial 1\n", "zero denominator"),
        ("multiplet chiral r 0.5 rep trivial 1\n", "malformed rational"),
        ("frobnicate 3\n", "unknown keyword"),
        ("dimension 2\ndimension 2\n", "duplicate dimension"),
        ("gauge none\ngauge su 3\n", "duplicate gauge"),
        ("flavor-u1 on\nflavor-u1 off\n", "duplicate flavor-u1"),
        ("gauge su 1\n", "N >= 2"),
        ("multiplet vector\n", "requires 'gauge su"),
        ("multiplet chiral r 0 rep fundamental\n", "requires 'gauge su"),
        ("multiplet chiral r 0 rep trivial 1 charge 1\n", "flavor-u1"),
        ("multiplet chiral r 0 rep spinor\n", "unknown representation"),
        ("multiplet chiral r 0 rep trivial 1 copies 0\n", "copies"),
        ("gauge su 2\nmultiplet chiral r 0\n", "missing"),
        ("multiplet chiral r 0 rep trivial 1 extra\n", "trailing"),
        ("unknown-r 1\n", "out of range"),
        ("gauge su 2\nmultiplet vector\nunknown-r 1\n", "chiral"),
        ("dimension 1\nmultiplet chiral r 0 rep trivial 1\n", "dimension 2"),
        ("multiplet raw parity sideways k 0 rep trivial 1\n", "parity"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(TheoryParseError) as info:
        parse_theory_file(text)
    assert fragment in str(info.value)


def test_parse_error_reports_line_number():
    text = "dimension 2\ngauge su 3\nmultiplet chiral r 1/0 rep fundamental\n"
    with pytest.raises(TheoryParseError) as info:
        parse_theory_file(text)
    assert info.value.line_no == 3
    assert str(info.value).startswith("line 3:")


def test_render_parse_round_trip_is_identity_on_canonical_text():
    theory = parse_theory_file(SQCD_TEXT)
    canonical = render_theory(theory)
    assert render_theory(parse_theory_file(canonical)) == canonical
    assert parse_theory_file(canonical) == theory


def test_round_trip_assorted_theories():
    theories = [
        Theory(),
        Theory(gauge=GaugeGroup(su=4), multiplets=(Vector(), N2Vector(), N4Vector())),
        Theory(
            gauge=GaugeGroup(su=2, abelian=True),
            multiplets=(
                Chiral(F(7, 3), trivial(3, F(-1, 2)), copies=2, unknown_r=True),
                Hyper(fundamental(2), copies=5),
            ),
        ),
        Theory(
            dimension=1,
            gauge=GaugeGroup(abelian=True),
            multiplets=(
                Raw(FieldContent(1, ((1, Atom(Kpow(F(0)), trivial(1), "even")),))),
                Raw(FieldContent(1, ((1, Atom(Kpow(F(0)), trivial(1, 1), "odd")),))),
            ),
        ),
    ]
    for theory in theories:
        assert parse_theory_file(render_theory(theory)) == theory


def test_render_splits_negative_raw_multiplicity():
    raw = Raw(FieldContent(2, ((-2, Atom(Kpow(F(1, 2)), trivial(1), "even")),)))
    rendered = render_theory(Theory(multiplets=(raw,)))
    assert "parity odd" in rendered and "copies 2" in rendered
    reparsed = parse_theory_file(rendered)
    ((mult, atom),) = reparsed.multiplets[0].content.pieces
    assert mult == 2 and atom.parity == "odd"


def test_unknown_r_index_counts_rendered_lines():
    theory = Theory(
        gauge=GaugeGroup(su=2),
        multiplets=(
            Raw(
                FieldContent(
                    2,
                    (
                        (1, Atom(Kpow(F(1, 3)), trivial(1), "even")),
                        (1, Atom(Kpow(F(2, 3)), trivial(1), "odd")),
                    ),
                )
            ),
            Chiral(F(0), trivial(1), unknown_r=True),
        ),
    )
    rendered = render_theory(theory)
    assert "unknown-r 3" in rendered
    reparsed = parse_theory_file(rendered)
    assert any(getattr(m, "unknown_r", False) for m in reparsed.multiplets)


def _raw(rep, parity="even", copies=1, dimension=2, power=F(0)):
    return Raw(FieldContent(dimension, ((copies, Atom(Kpow(power), rep, parity)),)))


def _random_theory(rng: random.Random) -> Theory:
    """A random theory whose parts are drawn independently of the gauge data,
    so that some of them break a rule; raw atoms have one positive piece,
    the form a raw line renders to."""
    dimension = rng.choice((1, 2, 2, 3))
    su = rng.choice((None, 2, 3, 4))
    gauge = GaugeGroup(su=su, abelian=rng.random() < 0.5)
    named_n = su or rng.choice((2, 3))

    def rep():
        q = F(rng.randint(-5, 5), rng.randint(1, 4)) if rng.random() < 0.4 else F(0)
        if rng.random() < 0.4:
            base = rng.choice((fundamental, antifundamental, adjoint))(named_n)
            return GaugeRep(base.dim, base.t2, base.t3, q)
        return trivial(rng.randint(1, 4), q)

    def copies():
        return rng.choice((1, 1, 2, rng.randint(3, 10**6)))

    kinds = ["raw"] * 3 + (list(MULTIPLETS) if dimension == 2 or rng.random() < 0.1 else [])
    multiplets = []
    for _ in range(rng.randint(0, 4)):
        kind = rng.choice(kinds)
        if kind == "raw":
            power = F(rng.randint(-6, 6), rng.randint(1, 4))
            parity = rng.choice(("even", "odd"))
            multiplets.append(_raw(rep(), parity, copies(), dimension, power))
        elif kind == "chiral":
            r = F(rng.randint(-6, 6), rng.randint(1, 5))
            multiplets.append(Chiral(r, rep(), copies(), unknown_r=rng.random() < 0.4))
        elif kind == "hyper":
            multiplets.append(Hyper(rep(), copies()))
        else:
            multiplets.append(MULTIPLETS[kind][0]())
    return Theory(dimension, gauge, tuple(multiplets))


def test_render_parse_round_trip_property():
    """Every theory that constructs renders to text that parses back to it."""
    rng = random.Random(1307)
    seen: set = set()
    kept = refused = 0
    while kept < 320:
        try:
            theory = _random_theory(rng)
        except ConfigurationError:
            refused += 1
            continue
        kept += 1
        assert parse_theory_file(render_theory(theory)) == theory, render_theory(theory)
        seen.add(("dimension", theory.dimension))
        seen.add(("context", theory.gauge.su is not None, theory.gauge.abelian))
        for m in theory.multiplets:
            if isinstance(m, Raw):
                ((copies, atom),) = m.content.pieces
                seen.add(("raw charged", atom.rep.q != 0))
                seen.add(("raw su-valued", atom.rep.t2 != 0))
                seen.add(("raw copies", copies > 1))
            else:
                seen.add(("builtin", type(m).__name__))
                seen.add(("copies", getattr(m, "copies", 1) > 1))
                seen.add(("unknown-r", getattr(m, "unknown_r", False)))
    assert refused > 100
    assert {("dimension", d) for d in (1, 2, 3)} <= seen
    assert {("context", s, a) for s in (False, True) for a in (False, True)} <= seen
    assert {("raw charged", True), ("raw su-valued", True), ("raw copies", True)} <= seen
    assert {("builtin", MULTIPLETS[k][0].__name__) for k in MULTIPLETS} <= seen
    assert {("copies", True), ("unknown-r", True)} <= seen


# One row per validity rule: the API refusal, and a theory file that breaks
# the same rule on the given line.
RULES = {
    "copies of a chiral": (
        lambda: Chiral(F(0), trivial(1), copies=0),
        "multiplet chiral r 0 rep trivial 1 copies 0\n",
        1,
    ),
    "copies of a hyper": (
        lambda: Hyper(trivial(1), copies=-2),
        "gauge none\nmultiplet hyper rep trivial 1 copies -2\n",
        2,
    ),
    "copies of a raw line": (
        lambda: Chiral(F(0), trivial(1), copies=0),
        "dimension 3\nmultiplet raw parity odd k 1/2 rep trivial 2 copies 0\n",
        2,
    ),
    "vector needs gauge su": (
        lambda: Theory(multiplets=(Vector(),)),
        "multiplet vector\n",
        1,
    ),
    "n4-vector needs gauge su": (
        lambda: Theory(gauge=GaugeGroup(abelian=True), multiplets=(N4Vector(),)),
        "flavor-u1 on\nmultiplet n4-vector\n",
        2,
    ),
    "built-in multiplets need dimension 2": (
        lambda: Theory(dimension=3, multiplets=(Chiral(F(0), trivial(1)),)),
        "dimension 3\nmultiplet chiral r 0 rep trivial 1\n",
        2,
    ),
    "a chiral's charge needs the U(1)": (
        lambda: Theory(multiplets=(Chiral(F(0), trivial(1, 1)),)),
        "multiplet chiral r 0 rep trivial 1 charge 1\n",
        1,
    ),
    "a raw atom's charge needs the U(1)": (
        lambda: Theory(gauge=GaugeGroup(su=2), multiplets=(_raw(trivial(1, F(1, 2))),)),
        "gauge su 2\nmultiplet raw parity even k 0 rep adjoint charge 1/2\n",
        2,
    ),
    "SU(N) needs N >= 2": (
        lambda: GaugeGroup(su=1),
        "dimension 2\ngauge su 1\n",
        2,
    ),
    "parity is even or odd": (
        lambda: Atom(TRIVIAL, trivial(1), "sideways"),
        "multiplet raw parity sideways k 0 rep trivial 1\n",
        1,
    ),
    "a representation has dimension >= 1": (
        lambda: trivial(0),
        "multiplet chiral r 0 rep trivial 0\n",
        1,
    ),
    "a theory has dimension >= 1": (
        lambda: Theory(dimension=0),
        "gauge none\ndimension 0\n",
        2,
    ),
}


@pytest.mark.parametrize("rule", list(RULES))
def test_each_rule_refuses_in_the_same_words_from_the_api_and_a_file(rule):
    build, text, line_no = RULES[rule]
    with pytest.raises(ValueError) as api:
        build()
    with pytest.raises(TheoryParseError) as parsed:
        parse_theory_file(text)
    assert parsed.value.line_no == line_no
    assert str(parsed.value) == f"line {line_no}: {api.value}"


def test_su_valued_rep_without_gauge_su_is_refused_from_the_api_and_a_file():
    # a file names SU(N) representations, which needs the N of 'gauge su'
    with pytest.raises(ConfigurationError, match="representation requires 'gauge su <N>'"):
        Theory(multiplets=(_raw(antifundamental(3)),))
    with pytest.raises(TheoryParseError) as parsed:
        parse_theory_file("dimension 2\nmultiplet raw parity even k 0 rep antifundamental\n")
    assert str(parsed.value) == "line 2: antifundamental representation requires 'gauge su <N>'"

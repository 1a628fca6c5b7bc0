"""Theory descriptions, the twist map, and the interpolation oracle in R-charge."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from holanom.chern import (
    Atom,
    FieldContent,
    GaugeGroup,
    GaugeRep,
    Kpow,
    TRIVIAL,
    adjoint,
    antifundamental,
    fundamental,
    trivial,
)
from holanom.theory import (
    MULTIPLETS,
    Chiral,
    ConfigurationError,
    ConsistencyError,
    Hyper,
    N2Vector,
    N4Vector,
    Raw,
    Theory,
    Vector,
    chiral_twist_power,
    twist_content,
    with_unknown_r,
)
from holanom.theoryfile import parse_theory_file, render_theory

from oracles import interpolate_in_r, random_rational


def test_twist_pure_vector():
    theory = Theory(gauge=GaugeGroup(su=3), multiplets=(Vector(),))
    assert twist_content(theory) == FieldContent(
        2, ((1, Atom(TRIVIAL, adjoint(3), "odd")),)
    )


def test_twist_sqcd_content():
    nc, nf = 3, 5
    r = F(-nc, nf)
    lam = chiral_twist_power(r)
    theory = Theory(
        gauge=GaugeGroup(su=nc),
        multiplets=(
            Vector(),
            Chiral(r, fundamental(nc), copies=nf),
            Chiral(r, antifundamental(nc), copies=nf),
        ),
    )
    expected = FieldContent(
        2,
        (
            (1, Atom(TRIVIAL, adjoint(nc), "odd")),
            (nf, Atom(Kpow(lam), fundamental(nc), "even")),
            (nf, Atom(Kpow(lam), antifundamental(nc), "even")),
        ),
    )
    assert twist_content(theory) == expected


def test_twist_free_chiral_is_twisted_line():
    theory = Theory(multiplets=(Chiral(F(-1, 3), trivial(1)),))
    assert twist_content(theory) == FieldContent(
        2, ((1, Atom(Kpow(F(1, 3)), trivial(1), "even")),)
    )


def test_twist_hyper():
    theory = Theory(multiplets=(Hyper(trivial(2), copies=3),))
    assert twist_content(theory) == FieldContent(
        2,
        (
            (3, Atom(Kpow(F(1, 3)), trivial(2), "even")),
            (3, Atom(Kpow(F(2, 3)), trivial(2), "odd")),
        ),
    )


def test_twist_n2_vector_equals_vector_plus_adjoint_chiral():
    su = GaugeGroup(su=3)
    combined = Theory(
        gauge=su,
        multiplets=(Vector(), Chiral(F(-1, 3), adjoint(3))),
    )
    n2 = Theory(gauge=su, multiplets=(N2Vector(),))
    assert twist_content(n2) == twist_content(combined)


def test_twist_n4_vector_equals_vector_plus_three_adjoint_chirals():
    su = GaugeGroup(su=2)
    combined = Theory(
        gauge=su,
        multiplets=(Vector(), Chiral(F(-1, 3), adjoint(2), copies=3)),
    )
    n4 = Theory(gauge=su, multiplets=(N4Vector(),))
    assert twist_content(n4) == twist_content(combined)


def test_twist_raw_passthrough():
    content = FieldContent(3, ((2, Atom(Kpow(F(1, 2)), trivial(1), "odd")),))
    theory = Theory(dimension=3, multiplets=(Raw(content),))
    assert twist_content(theory) == content


def test_twist_is_additive_over_multiplet_lists():
    rng = random.Random(53)
    su = GaugeGroup(su=2, abelian=True)
    pool = [
        Vector(),
        N2Vector(),
        N4Vector(),
        Hyper(fundamental(2)),
        Chiral(F(1, 5), adjoint(2), copies=2),
        Chiral(F(-2, 7), trivial(1, F(1, 2))),
    ]
    for _ in range(100):
        first = tuple(rng.choice(pool) for _ in range(rng.randint(0, 3)))
        second = tuple(rng.choice(pool) for _ in range(rng.randint(0, 3)))
        merged = twist_content(Theory(gauge=su, multiplets=first + second))
        split = twist_content(Theory(gauge=su, multiplets=first)) + twist_content(
            Theory(gauge=su, multiplets=second)
        )
        assert merged == split


# Per multiplet keyword: its class, one theory-file line, and the twisted
# atoms of that line written out from the paper's decompositions (an N=2
# vector is a vector plus an adjoint chiral at r = -1/3, an N=4 vector a
# vector plus three, a hypermultiplet K^(1/3) (+) Pi K^(2/3)).
HEADER = "dimension 2\ngauge su 3\nflavor-u1 on\n"
ADJ_VECTOR = (1, Atom(TRIVIAL, adjoint(3), "odd"))
KEYWORD_CASES = {
    "vector": (Vector, "multiplet vector", [ADJ_VECTOR]),
    "chiral": (
        Chiral,
        "multiplet chiral r 1/5 rep fundamental charge 1/2 copies 2",
        [(2, Atom(Kpow(F(3, 5)), GaugeRep(3, F(1), F(1), F(1, 2)), "even"))],
    ),
    "n2-vector": (
        N2Vector,
        "multiplet n2-vector",
        [ADJ_VECTOR, (1, Atom(Kpow(F(1, 3)), adjoint(3), "even"))],
    ),
    "hyper": (
        Hyper,
        "multiplet hyper rep trivial 2 charge -1 copies 3",
        [
            (3, Atom(Kpow(F(1, 3)), trivial(2, -1), "even")),
            (3, Atom(Kpow(F(2, 3)), trivial(2, -1), "odd")),
        ],
    ),
    "n4-vector": (
        N4Vector,
        "multiplet n4-vector",
        [ADJ_VECTOR, (3, Atom(Kpow(F(1, 3)), adjoint(3), "even"))],
    ),
}


@pytest.mark.parametrize("keyword", list(MULTIPLETS))
def test_multiplet_table_keyword_parses_renders_and_twists(keyword):
    cls, line, atoms = KEYWORD_CASES[keyword]
    text = f"{HEADER}{line}\n"
    theory = parse_theory_file(text)
    assert [type(m) for m in theory.multiplets] == [cls]
    assert render_theory(theory) == text
    assert twist_content(theory) == FieldContent(2, tuple(atoms))


def test_chiral_twist_power_convention():
    rng = random.Random(59)
    for _ in range(100):
        r = random_rational(rng, 12, 7)
        theory = Theory(multiplets=(Chiral(r, trivial(1)),))
        ((_, atom),) = twist_content(theory).pieces
        if r == -1:
            assert atom.geom == TRIVIAL
        else:
            assert atom.geom == Kpow((r + 1) / 2)


def test_vector_requires_gauge_group():
    with pytest.raises(ConfigurationError):
        Theory(multiplets=(Vector(),))
    with pytest.raises(ConfigurationError):
        Theory(multiplets=(N4Vector(),))


def test_builtins_require_dimension_two():
    with pytest.raises(ConfigurationError):
        Theory(dimension=1, multiplets=(Chiral(F(0), trivial(1)),))


def test_charged_rep_requires_abelian():
    with pytest.raises(ConfigurationError):
        Theory(multiplets=(Chiral(F(0), trivial(1, 1)),))


def test_nontrivial_rep_requires_simple_gauge():
    with pytest.raises(ConfigurationError):
        Theory(multiplets=(Chiral(F(0), fundamental(2)),))


def test_raw_dimension_mismatch():
    content = FieldContent(1, ((1, Atom(TRIVIAL, trivial(1), "even")),))
    with pytest.raises(ConfigurationError):
        Theory(dimension=2, multiplets=(Raw(content),))


# ---------------------------------------------------------------------------
# interpolation in the unknown R-charge


def _sqcd_template(nc, nf):
    r0 = F(0)
    return Theory(
        gauge=GaugeGroup(su=nc),
        multiplets=(
            Vector(),
            Chiral(r0, fundamental(nc), copies=nf, unknown_r=True),
            Chiral(r0, antifundamental(nc), copies=nf, unknown_r=True),
        ),
    )


def test_interpolate_constant_evaluator():
    theory = Theory(multiplets=(Chiral(F(0), trivial(1), unknown_r=True),))
    assert interpolate_in_r(theory, lambda t: {"five": F(5)}) == {"five": (F(5),)}


def test_interpolate_chiral_gravitational_coefficient():
    from holanom.anomaly import anomaly_polynomial, classify

    theory = Theory(multiplets=(Chiral(F(0), trivial(1), unknown_r=True),))

    def a_hol(instance):
        return {"a_hol": classify(anomaly_polynomial(twist_content(instance)), 2).a_hol}

    assert interpolate_in_r(theory, a_hol) == {"a_hol": (F(0), F(1, 24))}


def test_interpolate_sqcd_mixed_coefficient():
    from holanom.anomaly import anomaly_polynomial, context_for_theory

    nc, nf = 3, 5
    theory = _sqcd_template(nc, nf)
    ctx = context_for_theory(theory)

    def mixed(instance):
        poly = anomaly_polynomial(twist_content(instance), ctx)
        return {"g1*s2": poly.coefficient({"g1": 1, "s2": 1})}

    # -(N_c + N_f r), linear with root -N_c/N_f
    assert interpolate_in_r(theory, mixed) == {"g1*s2": (F(-nc), F(-nf))}


def test_interpolate_requires_marked_multiplet():
    theory = Theory(multiplets=(Chiral(F(0), trivial(1)),))
    with pytest.raises(ConfigurationError):
        interpolate_in_r(theory, lambda t: {"zero": F(0)})


def test_interpolate_detects_non_cubic_evaluator():
    theory = Theory(multiplets=(Chiral(F(0), trivial(1), unknown_r=True),))

    def quartic(instance):
        r = instance.multiplets[0].r
        return {"quartic": r**4}

    with pytest.raises(ConsistencyError):
        interpolate_in_r(theory, quartic)


def test_interpolate_checks_every_name_at_the_held_out_node():
    theory = Theory(multiplets=(Chiral(F(0), trivial(1), unknown_r=True),))

    def values(instance, with_quartic=True):
        r = instance.multiplets[0].r
        out = {"cubic": r**3 - r, "quartic": r**4, "linear": 2 * r}
        if not with_quartic:
            del out["quartic"]
        return out

    assert interpolate_in_r(theory, lambda t: values(t, with_quartic=False)) == {
        "cubic": (F(0), F(-1), F(0), F(1)),
        "linear": (F(0), F(2)),
    }
    with pytest.raises(ConsistencyError, match="quartic"):
        interpolate_in_r(theory, values)


def test_with_unknown_r_substitutes_all_marks():
    theory = _sqcd_template(2, 4)
    pinned = with_unknown_r(theory, F(-1, 2))
    charges = [m.r for m in pinned.multiplets if isinstance(m, Chiral)]
    assert charges == [F(-1, 2), F(-1, 2)]
    assert not any(getattr(m, "unknown_r", False) for m in pinned.multiplets)

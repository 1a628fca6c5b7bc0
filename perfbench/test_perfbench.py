"""Tests of the benchmark itself: checker, input generator and tracer.

Run from the repository root with ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction as F

import pytest

import oracle
import run
import workloads
from tracer import CLASS_SPANS, MODULES, Tracer

holanom = run.load_program()


def first_ops(workload, seed, rounds=1):
    return [op for ops in itertools.islice(workloads.rounds(workload, seed), rounds) for op in ops]


def run_checked(op, tmp_path):
    path = None
    if op.text is not None:
        path = tmp_path / "op.th"
        path.write_text(op.text)
    return run.check(op, run.run_op(holanom.cli, op, path))


# -- the checker -----------------------------------------------------------------


def test_closed_forms_match_published_values():
    # README: SU(3) SQCD with 5 flavors, and the free chiral at r = -1/3.
    expect = workloads.seiberg_expect(3, 5).values
    assert (expect["a_hol"], expect["c_hol"]) == (F(-5, 12), F(-19, 600))
    assert (expect["a"], expect["c"], expect["r_M"]) == (F(273, 200), F(199, 100), F(-1, 5))
    table = workloads.table_values()
    assert (table["n1-chiral.a_hol"], table["n1-chiral.c_hol"]) == (F(-1, 72), F(1, 1296))
    assert (table["n1-chiral.a"], table["n1-chiral.c"]) == (F(1, 48), F(1, 24))


def test_checker_accepts_the_program_on_every_workload(tmp_path):
    ops = first_ops("sqcd", 3) + first_ops("files", 3)
    ops += [op for op in first_ops("highdim", 3) if op.tags["dim"] <= 5]
    for op in ops:
        result = run_checked(op, tmp_path)
        assert result.problem == "", (op.argv, op.text, result.problem)


def test_checker_rejects_a_corrupted_value(tmp_path):
    op = first_ops("sqcd", 5)[0]
    result = run_checked(op, tmp_path)
    assert result.problem == ""
    lines = result.stdout.splitlines()
    key, value = lines[-1].split(" = ")
    lines[-1] = f"{key} = {F(value) + F(1, 7)}"
    corrupted = "\n".join(lines) + "\n"
    assert oracle.check(op.expect, 0, corrupted, "", False)
    dropped = "\n".join(lines[:-1]) + "\n"
    assert oracle.check(op.expect, 0, dropped, "", False)


def test_checker_rejects_a_wrong_exit_code(tmp_path):
    op = first_ops("sqcd", 5)[0]
    result = run_checked(op, tmp_path)
    assert oracle.check(op.expect, 1, result.stdout, result.stderr, False)
    error_op = workloads.error_op(workloads.random.Random(0))
    assert oracle.check(error_op.expect, 0, "", "error: x\n", False)
    assert oracle.check(error_op.expect, error_op.expect.exit_code, "", "a\nb\n", False)


def test_checker_rejects_a_wrong_key_count():
    expect = oracle.Expect(values={"gauge.s3": F(0)}, counts={"gauge.": 1, "mixed.": 1})
    assert oracle.check(expect, 0, "gauge.s3 = 0\nmixed.g1*s2 = 0\n", "", False) == ""
    assert oracle.check(expect, 0, "gauge.s3 = 0\n", "", False)


def test_quadratic_roots_are_exact():
    assert oracle.rational_roots_upto_2([F(-2), F(1), F(1)]) == {F(1), F(-2)}
    assert oracle.rational_roots_upto_2([F(-2), F(0), F(1)]) == set()
    assert oracle.rational_roots_upto_2([F(0), F(3)]) == {F(0)}


# -- the input generator -----------------------------------------------------------


def fingerprint(workload, seed):
    return [(op.argv, op.text) for op in first_ops(workload, seed, rounds=2)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert fingerprint(workload, 7) == fingerprint(workload, 7)
    assert fingerprint(workload, 7) != fingerprint(workload, 8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_round_mix_does_not_depend_on_seed(workload):
    def mix(seed):
        ops = first_ops(workload, seed)
        return sorted((op.tags.get("kind", op.command), op.tags.get("dim", 0)) for op in ops)

    assert mix(1) == mix(2)


# -- the tracer ------------------------------------------------------------------------


def bindings():
    """Every attribute of the package, its traced modules and traced classes."""
    owners = [holanom] + [getattr(holanom, m) for m in MODULES]
    owners += [holanom.ring.GradedPoly, holanom.ring.GeneratorSet]
    return {(id(o), k): v for o in owners for k, v in vars(o).items()}


def test_tracer_patches_every_binding_and_restores_it(tmp_path):
    before = bindings()
    original_todd = holanom.chern.todd
    tracer = Tracer(holanom)
    with tracer:
        assert holanom.anomaly.todd is holanom.chern.todd is not original_todd
        assert holanom.theory.interpolate_in_r is holanom.duality.interpolate_in_r
        assert holanom.duality.interpolate_in_r is not before[(id(holanom.theory), "interpolate_in_r")]
        for attr in CLASS_SPANS["GradedPoly"]:
            assert vars(holanom.ring.GradedPoly)[attr] is not before[(id(holanom.ring.GradedPoly), attr)]
        tracer.op = 0
        op = first_ops("sqcd", 1)[0]
        assert run_checked(op, tmp_path).problem == ""
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    names = {s[0] for s in tracer.spans}
    assert {"cli.run", "duality.seiberg_match", "theory.interpolate_in_r",
            "anomaly.anomaly_polynomial", "chern.todd", "ring.GradedPoly.init"} <= names
    runs = sum(1 for s in tracer.spans if s[0] == "anomaly.anomaly_polynomial")
    assert runs == 7
    assert all(t >= -1e-6 for t in tracer.self_times())


def test_tracer_counts_into_the_innermost_span(tmp_path):
    tracer = Tracer(holanom)
    with tracer:
        holanom.ring.homogeneous_monomials(holanom.chern.twist_context(3, simple=True), 8)
    (span,) = [s for s in tracer.spans if s[0] == "ring.homogeneous_monomials"]
    assert span[7]["degree"] > span[5] > 0

"""End-to-end CLI behaviour: reports, exit codes, determinism, JSON."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from math import factorial
from pathlib import Path

import pytest

from holanom import chern
from holanom.chern import MAX_DIMENSION, gravitational_context
from holanom.cli import run
from holanom.ring import parse_rational

from oracles import (
    canonical_power_top_by_roots,
    evaluate_monomial_name,
    naive_homogeneous_monomials,
    random_rational,
)

SQCD_TEXT = """\
dimension 2
gauge su 3
multiplet vector
multiplet chiral r -3/5 rep fundamental copies 5
multiplet chiral r -3/5 rep antifundamental copies 5
unknown-r 2
unknown-r 3
"""

LINE_TEXT = """\
dimension 2
gauge none
multiplet raw parity even k 0 rep trivial 1
"""


@pytest.fixture
def sqcd_file(tmp_path):
    path = tmp_path / "sqcd.th"
    path.write_text(SQCD_TEXT)
    return str(path)


@pytest.fixture
def line_file(tmp_path):
    path = tmp_path / "line.th"
    path.write_text(LINE_TEXT)
    return str(path)


def _lines(capsys):
    out = capsys.readouterr().out
    return dict(
        line.split(" = ", 1) for line in out.strip().splitlines() if " = " in line
    )


def test_compute_sqcd(sqcd_file, capsys):
    assert run(["compute", sqcd_file]) == 0
    records = _lines(capsys)
    assert records["a_hol"] == "-5/12"
    assert records["c_hol"] == "-19/600"
    assert records["a"] == "273/200"
    assert records["c"] == "199/100"
    assert records["gauge.s3"] == "0"
    assert records["mixed.g1*s2"] == "0"
    assert records["gauge_free"] == "true"
    assert records["t_free"] == "true"


def test_compute_key_order(sqcd_file, capsys):
    run(["compute", sqcd_file])
    keys = [
        line.split(" = ")[0] for line in capsys.readouterr().out.strip().splitlines()
    ]
    assert keys == [
        "a_hol",
        "c_hol",
        "a",
        "c",
        "gauge.s3",
        "mixed.g1*s2",
        "gauge_free",
        "t_free",
    ]


def test_compute_is_deterministic(sqcd_file, capsys):
    run(["compute", sqcd_file])
    first = capsys.readouterr().out
    run(["compute", sqcd_file])
    second = capsys.readouterr().out
    assert first == second


def test_compute_json_round_trips(sqcd_file, capsys):
    assert run(["compute", sqcd_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert parse_rational(payload["a_hol"]) == F(-5, 12)
    assert parse_rational(payload["c_hol"]) == F(-19, 600)
    assert payload["gauge_free"] is True


def test_table_values(capsys):
    assert run(["table"]) == 0
    records = _lines(capsys)
    expected = {
        "n1-vector": ("3/16", "1/8", "1/24", "-1/48"),
        "n1-chiral": ("1/48", "1/24", "-1/72", "1/1296"),
        "n2-vector": ("5/24", "1/6", "1/36", "-13/648"),
        "n2-hyper": ("1/24", "1/12", "-1/36", "1/648"),
        "n4-vector": ("1/4", "1/4", "0", "-1/54"),
    }
    assert len(records) == 20
    for label, (a, c, a_hol, c_hol) in expected.items():
        assert records[f"{label}.a"] == a
        assert records[f"{label}.c"] == c
        assert records[f"{label}.a_hol"] == a_hol
        assert records[f"{label}.c_hol"] == c_hol


def test_qcd_command(capsys):
    assert run(["qcd", "--colors", "3", "--flavors", "5"]) == 0
    records = _lines(capsys)
    assert records["r"] == "-3/5"
    assert records["a_hol"] == "-5/12"
    assert records["gauge_free"] == "true"
    assert records["t_free"] == "true"


def test_seiberg_command(capsys):
    assert run(["seiberg", "--colors", "3", "--flavors", "5"]) == 0
    records = _lines(capsys)
    assert records["r_M"] == "-1/5"
    assert records["matched"] == "true"


def test_solve_r_command(sqcd_file, capsys):
    assert run(["solve-r", sqcd_file]) == 0
    records = _lines(capsys)
    assert records["target"] == "all-mixed"
    assert records["roots"] == "-3/5"
    assert records["unconstrained"] == "false"
    assert records["poly.g1*s2"] == "-5*r - 3"


def test_solve_r_specific_target(sqcd_file, capsys):
    assert run(["solve-r", sqcd_file, "--target", "g1*s2"]) == 0
    assert _lines(capsys)["roots"] == "-3/5"


def test_solve_r_unconstrained(tmp_path, capsys):
    path = tmp_path / "free.th"
    path.write_text(
        "gauge su 2\nmultiplet chiral r 0 rep trivial 1\nunknown-r 1\n"
    )
    assert run(["solve-r", str(path)]) == 0
    assert _lines(capsys)["unconstrained"] == "true"


@pytest.mark.parametrize("chi,expected", [("1", "2"), ("0", "0"), ("-3", "-6")])
def test_compactify_command(line_file, capsys, chi, expected):
    assert run(["compactify", line_file, "--fiber-chi", chi]) == 0
    records = _lines(capsys)
    assert records["virasoro_c"] == expected


def test_compactify_rejects_gauge_content(tmp_path, capsys):
    path = tmp_path / "gauged.th"
    path.write_text("gauge su 2\nmultiplet vector\n")
    assert run(["compactify", str(path), "--fiber-chi", "1"]) == 1


def test_exit_code_missing_file(capsys):
    assert run(["compute", "/nonexistent/path.th"]) == 1


def test_exit_code_parse_error(tmp_path, capsys):
    path = tmp_path / "broken.th"
    path.write_text("multiplet chiral r 1/0 rep trivial 1\n")
    assert run(["compute", str(path)]) == 2
    assert "line 1" in capsys.readouterr().err


def test_exit_code_configuration_error(capsys):
    # SU(1) dual gauge group is rejected rather than special-cased
    assert run(["seiberg", "--colors", "3", "--flavors", "4"]) == 1


def test_exit_code_usage_error(capsys):
    assert run(["qcd", "--colors", "3"]) == 2
    assert run(["no-such-command"]) == 2


@pytest.mark.parametrize("value", ["\uff13", "\u0663", "1_0", " 3"])
def test_integer_options_take_ascii_digits_only(capsys, value):
    for argv in (["--colors", value, "--flavors", "5"], ["--colors", "2", "--flavors", value]):
        assert run(["seiberg", *argv]) == 2
        assert f"invalid int value: {value!r}" in capsys.readouterr().err


@pytest.mark.parametrize("option", ["--colors", "--flavors"])
def test_integer_options_past_the_digit_limit_name_the_size(capsys, option):
    # a well-formed integer too long for int() is named by its digit count, never echoed
    argv = ["qcd", "--colors", "3", "--flavors", "3"]
    argv[argv.index(option) + 1] = "1" * 5000
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert len(err.encode()) < 300
    assert f"argument {option}: integer has 5000 digits" in err
    assert "1111" not in err


@pytest.mark.parametrize("flag", [[], ["--json"]])
def test_compute_with_a_coefficient_above_the_str_digit_limit_exits_cleanly(capsys, flag):
    # 3000-digit r and copies give coefficients far above the 4300 digits
    # that str() of an int allows by default, where the interpreter has a limit
    path = Path(__file__).resolve().parent / "golden" / "huge_coefficient.th"
    code = run(["compute", str(path), *flag])
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
    else:
        assert code == 1
        assert err.endswith("\n") and err.count("\n") == 1
        assert "Traceback" not in err


def test_compute_dimension_one_report(tmp_path, capsys):
    path = tmp_path / "ghostless.th"
    path.write_text(
        "dimension 1\nflavor-u1 on\n"
        "multiplet raw parity even k 0 rep trivial 1\n"
        "multiplet raw parity odd k 0 rep trivial 1 charge 1\n"
    )
    assert run(["compute", str(path)]) == 0
    records = _lines(capsys)
    assert records["virasoro_c"] == "0"
    assert records["mixed.g1*f1"] == "-1/2"
    assert records["gauge.f1^2"] == "-1/2"
    assert records["gauge_free"] == "false"
    assert records["t_free"] == "false"


def test_compute_gauge_anomalous_file_keeps_stderr_empty(tmp_path):
    # a separate interpreter, so any Python warning would print to its stderr
    path = tmp_path / "anomalous.th"
    path.write_text("gauge su 3\nmultiplet chiral r 0 rep fundamental\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-m", "holanom.cli", "compute", str(path)],
        capture_output=True,
        text=True,
        env=os.environ | {"PYTHONPATH": src},
        timeout=60,
    )
    assert done.returncode == 0
    assert "gauge_free = false" in done.stdout
    assert done.stderr == ""


@pytest.mark.parametrize(
    "argv,roots",
    [
        (["solve-r", "big_copies.th"], "-6/100000000000000003"),
        (["solve-r", "big_charge.th", "--target", "g1^2*f1"], "none"),
    ],
)
def test_solve_r_with_17_digit_coefficients_finishes(argv, roots):
    # a fresh interpreter under a timeout, so a root finder whose cost grows
    # with the size of the coefficients fails here instead of hanging
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-m", "holanom.cli", *argv],
        capture_output=True,
        text=True,
        cwd=root / "tests" / "golden",
        env=os.environ | {"PYTHONPATH": str(root / "src")},
        timeout=10,
    )
    assert done.returncode == 0
    assert done.stdout.endswith(f"roots = {roots}\n")
    assert done.stderr == ""


def test_compute_at_max_dimension_finishes():
    # the largest context at the dimension ceiling, in a fresh interpreter under a timeout
    root = Path(__file__).resolve().parents[1]
    golden = root / "tests" / "golden"
    assert f"dimension {MAX_DIMENSION}\n" in (golden / "max_dimension.th").read_text()
    done = subprocess.run(
        [sys.executable, "-m", "holanom.cli", "compute", "max_dimension.th"],
        capture_output=True,
        text=True,
        cwd=golden,
        env=os.environ | {"PYTHONPATH": str(root / "src")},
        timeout=10,
    )
    assert done.returncode == 0
    assert done.stdout.endswith("gauge_free = false\nt_free = false\n")
    assert done.stderr == ""


def test_reader_closing_the_pipe_early_prints_no_traceback():
    # wide.th prints about 225 KB, more than a pipe buffer holds, so the
    # writer is still blocked on stdout when the reader closes it
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.Popen(
        [sys.executable, "-m", "holanom.cli", "compute", "wide.th"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=root / "tests" / "golden",
        env=os.environ | {"PYTHONPATH": str(root / "src")},
    )
    try:
        assert proc.stdout.readline().startswith(b"grav.")
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
        assert proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.stderr.close()


@pytest.mark.parametrize("n,parity,copies", [(3, "even", 1), (4, "odd", 2), (5, "even", 3)])
def test_compute_grav_keys_match_chern_root_oracle(tmp_path, capsys, n, parity, copies):
    rng = random.Random(n)
    lam = random_rational(rng, 7, 6)
    path = tmp_path / "raw.th"
    path.write_text(
        f"dimension {n}\nmultiplet raw parity {parity} k {lam} rep trivial 1 copies {copies}\n"
    )
    assert run(["compute", str(path)]) == 0
    pairs = [line.split(" = ") for line in capsys.readouterr().out.splitlines()]
    ctx = gravitational_context(n)
    canonical = [ctx.monomial_name(e) for e in naive_homogeneous_monomials(ctx.degrees, 2 * n + 2)]
    assert [key for key, _ in pairs] == [f"grav.{name}" for name in canonical] + [
        "gauge_free",
        "t_free",
    ]
    grav = {key[len("grav."):]: parse_rational(value) for key, value in pairs[:-2]}
    weight = copies * (-1 if parity == "odd" else 1)
    for _ in range(8):
        roots = [random_rational(rng, 5, 3) for _ in range(n)]
        values = {f"g{k}": sum(x**k for x in roots) / factorial(k) for k in range(1, n + 1)}
        reported = sum(c * evaluate_monomial_name(name, values) for name, c in grav.items())
        assert reported == weight * canonical_power_top_by_roots(roots, lam, n + 1)


def test_compute_grav_keys_lead_text_and_json(tmp_path, capsys):
    path = tmp_path / "gauged.th"
    path.write_text("dimension 3\ngauge su 2\nmultiplet raw parity even k 1/2 rep fundamental\n")
    assert run(["compute", str(path)]) == 0
    keys = [line.split(" = ")[0] for line in capsys.readouterr().out.splitlines()]
    assert keys[:3] == ["grav.g1^4", "grav.g1^2*g2", "grav.g1*g3"]
    prefixes = [key.split(".")[0] for key in keys[:-2]]
    assert prefixes == sorted(prefixes, key=["grav", "gauge", "mixed"].index)
    assert set(prefixes) == {"grav", "gauge", "mixed"}
    assert run(["compute", str(path), "--json"]) == 0
    assert list(json.loads(capsys.readouterr().out)) == keys


@pytest.mark.parametrize("dimension", [MAX_DIMENSION + 1, 10**19])
def test_compute_rejects_dimension_above_ceiling(tmp_path, capsys, monkeypatch, dimension):
    def no_context(*args):
        raise AssertionError("a generator set was built")

    monkeypatch.setattr(chern, "GeneratorSet", no_context)
    path = tmp_path / "huge.th"
    path.write_text(f"dimension {dimension}\nmultiplet raw parity even k 1/3 rep trivial 1\n")
    assert run(["compute", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert f"dimension {dimension} exceeds the supported maximum {MAX_DIMENSION}" in captured.err

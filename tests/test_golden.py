"""Golden CLI transcripts: every subcommand, text and --json, byte for byte.

Each case runs `holanom.cli.run` in-process from `tests/golden/` and
compares its exit code, stdout and stderr with `tests/golden/transcripts.json`.
A successful command must write nothing to stderr.  To re-record the
transcripts after an intended output change, run

    PYTHONPATH=src python tests/test_golden.py

and review the diff of transcripts.json.
"""

from __future__ import annotations

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from holanom.cli import run

GOLDEN = Path(__file__).parent / "golden"
TRANSCRIPTS = GOLDEN / "transcripts.json"

CASES = [
    *(
        f"compute {name}.th{flag}"
        for name in ("sqcd", "n2", "n4", "every", "anomalous", "dim1", "dim3", "line")
        for flag in ("", " --json")
    ),
    "table",
    "table --json",
    "qcd --colors 3 --flavors 5",
    "qcd --colors 3 --flavors 5 --json",
    "qcd --colors 2 --flavors 1",
    "qcd --colors 1 --flavors 3",
    "seiberg --colors 3 --flavors 5",
    "seiberg --colors 3 --flavors 5 --json",
    "seiberg --colors 5 --flavors 9",
    "seiberg --colors 3 --flavors 4",
    "solve-r sqcd.th",
    "solve-r sqcd.th --json",
    "solve-r sqcd.th --target g1*s2",
    "solve-r sqcd.th --target g1*s2 --json",
    "solve-r sqcd.th --target s3",
    "solve-r sqcd.th --target g1^3",
    "solve-r every.th",
    "solve-r every.th --json",
    "solve-r n2.th",
    "solve-r line.th",
    "compactify line.th --fiber-chi 1",
    "compactify line.th --fiber-chi=-3/2 --json",
    "compactify line.th --fiber-chi -3/2",
    "compactify n4.th --fiber-chi 1",
    "compactify dim3.th --fiber-chi 1",
    *(
        f"compute {name}.th"
        for name in (
            "bad_rational",
            "vector_without_gauge",
            "hyper_with_r",
            "trailing_tokens",
            "unknown_r_on_hyper",
            "builtin_in_dimension_3",
            "unknown_kind",
            "missing",
        )
    ),
    "solve-r big_copies.th",
    "solve-r big_charge.th --target g1^2*f1",
    "compute copies_zero.th",
    "compute dimension_zero.th",
    "compute charge_zero_denominator.th",
    "solve-r unknown_r_zero.th",
    "compute huge_gauge.th",
    "solve-r long_charge.th",
    "compute duplicate_dimension.th",
    "compute duplicate_gauge.th",
    "compute duplicate_flavor.th",
    "qcd --colors x --flavors 3",
    "compactify line.th",
    "compactify line.th --fiber-chi 1/0",
    "compute sqcd.th --bogus",
    "compute copies_underscore.th",
    "compute dimension_fullwidth.th",
    "compute r_non_ascii_digits.th",
    "compute huge_coefficient.th",
    "compute copies_over_digit_limit.th",
    "compute r_over_digit_limit.th",
    "compute bom.th",
    "compute not_utf8.th",
]


def transcript(case: str) -> dict:
    """Exit code, stdout and stderr of one CLI call made from the golden directory."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = run(case.split())
    finally:
        os.chdir(cwd)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def recorded():
    return json.loads(TRANSCRIPTS.read_text(encoding="utf-8"))


def test_transcripts_cover_exactly_the_cases(recorded):
    assert list(recorded) == CASES


def test_byte_order_mark_is_ignored(recorded):
    # bom.th is line.th behind a UTF-8 byte-order mark, and reads the same
    assert (GOLDEN / "bom.th").read_bytes() == b"\xef\xbb\xbf" + (GOLDEN / "line.th").read_bytes()
    assert recorded["compute bom.th"] == recorded["compute line.th"]


@pytest.mark.parametrize("case", CASES)
def test_cli_matches_transcript(case, recorded):
    assert transcript(case) == recorded[case]


if __name__ == "__main__":
    transcripts = {case: transcript(case) for case in CASES}
    TRANSCRIPTS.write_text(json.dumps(transcripts, indent=1) + "\n", encoding="utf-8")

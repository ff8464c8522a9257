"""Acceptance gate: every numbered criterion must hold.

Each criterion prints its PASS/FAIL line; the test then asserts the flag.
Criteria 4 and 6 compare the optimizer against reference targets whose
published levels assume full-wave element coupling; with the analytic
surrogates in this repository they are known not to reach those targets
(see README). They are kept failing here on purpose rather than loosened.
"""

from __future__ import annotations

import re

import pytest

from cfobench import acceptance
from cfobench.acceptance import CRITERIA, CriterionResult


@pytest.mark.parametrize(
    "number,name,check",
    CRITERIA,
    ids=[f"c{number:02d}-{name.replace(' ', '-')}" for number, name, _ in CRITERIA],
)
def test_criterion(number, name, check):
    result = CriterionResult(number, name, *check())
    print(result.line())
    assert result.passed, result.line()


def test_verify_lines_carry_the_wall_time(monkeypatch, capsys):
    stub = (1, "stub", lambda: (True, "measured 0.5"))
    monkeypatch.setattr(acceptance, "CRITERIA", (stub,))
    acceptance.run_all()
    first = capsys.readouterr().out.splitlines()[0]
    assert re.fullmatch(r"PASS criterion  1 \(stub\): measured 0\.5 \(\d+\.\d\d s\)", first)


def test_verify_reports_a_crashed_criterion_as_failed(monkeypatch, capsys):
    def stub():
        raise ValueError("boom")

    monkeypatch.setattr(acceptance, "CRITERIA", ((1, "stub", stub),))
    results = acceptance.run_all()
    lines = capsys.readouterr().out.splitlines()
    assert re.fullmatch(
        r"FAIL criterion  1 \(stub\): raised ValueError: boom \(\d+\.\d\d s\)", lines[0]
    )
    assert lines[-1] == "acceptance: 0/1 criteria passed"
    assert [r.passed for r in results] == [False]

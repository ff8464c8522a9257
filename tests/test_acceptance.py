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
    result = check()
    print(result.line())
    assert result.passed, result.line()


def test_verify_lines_carry_the_wall_time(monkeypatch, capsys):
    stub = (1, "stub", lambda: CriterionResult(1, "stub", True, "measured 0.5"))
    monkeypatch.setattr(acceptance, "CRITERIA", (stub,))
    acceptance.run_all()
    first = capsys.readouterr().out.splitlines()[0]
    assert re.fullmatch(r"PASS criterion  1 \(stub\): measured 0\.5 \(\d+\.\d\d s\)", first)

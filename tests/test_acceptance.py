"""Acceptance gate: every criterion runs here, one report line each."""

import pytest

from critdens import acceptance
from critdens.errors import ValidationError


@pytest.mark.parametrize(
    "index", range(1, len(acceptance.CRITERIA) + 1),
    ids=[name for name, _ in acceptance.CRITERIA])
def test_criterion(index, capsys):
    result = acceptance.run_criterion(index)
    status = "PASS" if result.passed else "FAIL"
    with capsys.disabled():
        print(f"\ncriterion {result.index:2d} [{status}] "
              f"({result.seconds:6.2f}s) {result.name}: {result.detail}")
    assert result.passed, f"criterion {index} failed: {result.detail}"


@pytest.mark.parametrize("index", [0, len(acceptance.CRITERIA) + 1])
def test_run_criterion_rejects_indices_outside_the_suite(index):
    with pytest.raises(ValidationError, match=f"no criterion {index}: "):
        acceptance.run_criterion(index)

"""Acceptance gate: every criterion runs here, one report line each."""

from fractions import Fraction as F

import pytest

from critdens import acceptance
from critdens.blowup import gacs_tree_construction
from critdens.errors import ValidationError
from critdens.polynomials import AlgebraicNumber
from critdens.tree_decision import CriticalDensity


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


@pytest.mark.parametrize("shift", [F(-1, 10**15), F(1, 10**15)])
def test_gacs_criterion_refuses_a_density_off_by_less_than_1e9(monkeypatch, shift):
    # d_crit moved to 1 - 1/s' with s' = 1/(1 - t) + shift, for the
    # construction's own density t: t lands above d_crit, or more than
    # 10^-20 below it, a gap the old 1e-9 slack let through.
    def moved(T):
        (t,) = set(gacs_tree_construction(T).densities().values())
        return CriticalDensity(AlgebraicNumber.from_rational(1 / (1 - t) + shift))

    monkeypatch.setattr(acceptance, "dcrit_tree", moved)
    passed, detail = acceptance.check_gacs_constructions()
    assert not passed
    assert "not within 1e-20 below d_crit" in detail

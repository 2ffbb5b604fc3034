"""The Verdict type: equal to its string, shown as it, with its exit code."""

import json

import pytest

from critdens.verdict import Verdict


@pytest.mark.parametrize("verdict", list(Verdict))
def test_verdict_shows_as_its_bare_string(verdict):
    text = verdict.value
    assert verdict == text and hash(verdict) == hash(text)
    assert str(verdict) == f"{verdict}" == "%s" % verdict == text
    assert f"{verdict:>20}" == f"{text:>20}"
    assert json.dumps({"verdict": verdict}) == json.dumps({"verdict": text})
    assert Verdict(text) is verdict


def test_exit_codes():
    affirmative = {v.value for v in Verdict if v.exit_code == 0}
    negative = {v.value for v in Verdict if v.exit_code == 1}
    assert affirmative == {"Ensured", "Sufficient", "PassesThisLabeling",
                           "TransversalFound", "Found", "Verified"}
    assert negative == {"NotEnsured", "Unknown", "FailsThisLabeling",
                        "NoTransversal", "NoneFound", "NotProducible", "Failed"}

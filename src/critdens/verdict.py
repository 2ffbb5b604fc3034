"""The yes/no answers the toolkit gives, each with its exit code."""

from __future__ import annotations

from enum import Enum


class Verdict(str, Enum):
    """A verdict.  Each member equals its string (``Verdict.ENSURED ==
    "Ensured"``), shows as the bare string in str(), f-strings and JSON,
    and carries the command-line exit code: 0 affirmative, 1 negative."""

    exit_code: int

    ENSURED = "Ensured", 0
    NOT_ENSURED = "NotEnsured", 1
    SUFFICIENT = "Sufficient", 0
    UNKNOWN = "Unknown", 1
    PASSES = "PassesThisLabeling", 0
    FAILS = "FailsThisLabeling", 1
    TRANSVERSAL_FOUND = "TransversalFound", 0
    NO_TRANSVERSAL = "NoTransversal", 1
    FOUND = "Found", 0
    NONE_FOUND = "NoneFound", 1
    NOT_PRODUCIBLE = "NotProducible", 1
    VERIFIED = "Verified", 0
    FAILED = "Failed", 1

    def __new__(cls, text: str, exit_code: int) -> Verdict:
        member = str.__new__(cls, text)
        member._value_ = text
        member.exit_code = exit_code
        return member

    # Enum's own __str__ shows "Verdict.NAME"; format() and f-strings
    # follow __str__ on every supported Python.
    __str__ = str.__str__

"""Exception types shared across the toolkit.

Every error raised by the public API is one of these classes, so callers
(and the CLI exit-code mapping) can branch on type alone.  Input problems
are CritdensError subclasses; resource caps get their own branch so they
are never mistaken for a mathematical verdict.
"""


class CritdensError(Exception):
    """Base class for all toolkit errors."""


class ParseError(CritdensError):
    """Malformed textual input (graph files, density lists, polynomials)."""


class ValidationError(CritdensError):
    """Well-formed input violating a structural constraint."""


class DisconnectedGraph(CritdensError):
    """Operation requires a connected pattern graph."""


class NotATree(CritdensError):
    """Operation requires the pattern graph to be a tree."""


class VertexNotInGraph(CritdensError):
    """Vertex label outside the graph's range."""


class NotAnHEdge(CritdensError):
    """Cluster pair is not an edge of the pattern graph."""


class SizeLimit(CritdensError):
    """Instance exceeds a hard size cap (edge count, node count, product of
    cluster sizes).  Distinct from BudgetExhausted: a SizeLimit is checked
    up front, a budget runs out mid-search."""


class BudgetExhausted(CritdensError):
    """Search stopped by its node-expansion budget before finishing.
    Carries no verdict; never conflated with an exhaustive None."""


class ZeroPolynomial(CritdensError):
    """Root-counting and positivity queries are undefined for the zero
    polynomial."""


class NoRealRoot(CritdensError):
    """largest_real_root called on a polynomial with no real root."""


class AlreadyEnsured(CritdensError):
    """critical_scaling called with ratios whose densities already ensure
    the factor at full scale (no root in (0, 1])."""


class ImproperLabeling(CritdensError):
    """Vertex labeling is not proper: not a bijection, or some vertex has
    no earlier neighbor."""


class BadSplit(CritdensError):
    """Glue split weights violate 0 < m1, m2 < 1, m1 + m2 <= 1."""


class DegenerateGraph(CritdensError):
    """Bounds requested for a graph with maximum degree < 2, where the
    bound formulas are vacuous or divide by zero."""

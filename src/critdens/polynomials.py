"""Exact polynomial arithmetic, real-root isolation, and matching polynomials.

A polynomial enters and leaves the package as a RatPoly, a tuple of
Fraction coefficients in increasing powers of t, and is converted once.
Below that boundary every kernel and every AlgebraicNumber holds a list
of Python integers, lowest power first, standing for any nonzero
multiple of the polynomial: kernels read signs relative to the leading
coefficient or to a value at a point, so no monic or primitive step is
needed.  All division runs on integers, through one primitive remainder
sequence (gcds, square_free_part, Sturm chains) and one exact division
(the square-free part, deflating a rational root); so do matching sums,
Descartes counts and refinement.  Real roots of a general polynomial are
located with Sturm chains on the square-free part, so root counts are
counts of distinct real roots.
Matching polynomials have only real roots, so for them Descartes' rule
counts the roots above a point exactly from one integer Taylor shift;
matching_root_squared lets float estimates (for a tree, counts by
leaf_up_inertia, the one leaf-up elimination) choose the isolating
cell and certifies it with such counts, returning exactly what the Sturm
bisection would, and runs that bisection only when a certificate fails.
No answer ever depends on floating point.

An AlgebraicNumber is a real root pinned down by a square-free integer
defining polynomial and an open isolating interval with rational
endpoints; when the root happens to be rational the exact value is carried
instead.  This is the common currency for spectral radii and critical
densities: the root in the interval is simple, so a comparison against a
rational costs two sign evaluations, never a float, and two such numbers
are equal exactly when the gcd of their polynomials changes sign across
their intervals' overlap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from .errors import (
    NoRealRoot,
    ParseError,
    SizeLimit,
    ValidationError,
    ZeroPolynomial,
)
from .graphs import (
    Edge,
    PatternGraph,
    dag_nodes,
    edge_assignment,
    parse_rational,
    rational,
    rational_text,
    rooted_nodes,
    tolerance,
)

MAX_MATCHING_EDGES = 24

_ZERO = Fraction(0)
_ONE = Fraction(1)


class RatPoly:
    """Dense univariate polynomial over Fraction, lowest power first: the
    type in which polynomials enter and leave the package."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Fraction | int]) -> None:
        try:
            cs = [Fraction(c) for c in coeffs]
        except (TypeError, ValueError, ArithmeticError):
            raise ValidationError(
                "polynomial coefficients must be finite rationals") from None
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    # -- basic algebra ----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RatPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"RatPoly({list(self.coeffs)!r})"


def _primitive(c: list[int]) -> list[int]:
    """The nonzero integer polynomial c divided by the gcd of its entries."""
    g = math.gcd(*c)
    return [a // g for a in c]


def _remainder(a: list[int], b: list[int]) -> list[int]:
    """Primitive part of a pseudo-remainder of a by b, [] when b divides a;
    every step scales by a positive factor, as Sturm chains need."""
    r, db, lead = list(a), len(b) - 1, b[-1]
    while r and (len(r) > db or not r[-1]):  # tops left below b's degree are 0
        top = r.pop()
        if top:
            g = math.gcd(top, lead)
            scale, top, shift = lead // g, top // g, len(r) - db
            if scale < 0:
                scale, top = -scale, -top
            if scale != 1:
                r = [scale * x for x in r]
            for j in range(db):
                r[shift + j] -= top * b[j]
    return _primitive(r) if r else r


def _integer_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd of integer polynomials, not both zero, by primitive remainders."""
    while b:
        a, b = b, _remainder(a, b)
    return _primitive(a)


def _exact_quotient(a: list[int], b: list[int]) -> list[int]:
    """a / b for integer polynomials where b divides a and b is primitive:
    by Gauss's lemma the quotient is integral."""
    a, db = list(a), len(b) - 1
    quot = [0] * (len(a) - db)
    for k in range(len(quot) - 1, -1, -1):
        x = quot[k] = a[k + db] // b[-1]
        for j in range(db):
            a[k + j] -= x * b[j]
    return quot


def square_free_part(c: list[int]) -> list[int]:
    """c / gcd(c, c'), by exact integer division: a nonzero multiple of
    the square-free part of the integer polynomial c."""
    if not c:
        raise ZeroPolynomial("square-free part of the zero polynomial")
    return _exact_quotient(c, _integer_gcd(c, [k * a for k, a in enumerate(c)][1:]))


def sturm_chain(c: list[int]) -> list[list[int]]:
    """Sturm chain of the square-free integer polynomial c: c itself, its
    derivative, then each negated remainder.  Every entry is a positive
    multiple of the classical one, so the sign variations are the same."""
    chain = [c, [k * a for k, a in enumerate(c)][1:]]
    while chain[-1] and len(chain[-1]) > 1:
        rem = _remainder(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-x for x in rem])
    if not chain[-1]:
        chain.pop()
    return chain


def _variations(values: Iterable[int]) -> int:
    """Sign variations of a sequence, zeros skipped."""
    signs = [c > 0 for c in values if c]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_count_open(chain: Sequence[list[int]], lo: Fraction, hi: Fraction) -> int:
    """Distinct roots of chain[0] in the open interval (lo, hi).

    Requires chain[0] nonzero at both endpoints.
    """
    p = chain[0]
    if not p or _scaled_value(p, lo) == 0 or _scaled_value(p, hi) == 0:
        raise ValidationError("Sturm count endpoints must not be roots")
    return (_variations(_scaled_value(q, lo) for q in chain)
            - _variations(_scaled_value(q, hi) for q in chain))


def cauchy_root_bound(c: list[int]) -> Fraction:
    """All real roots of the integer polynomial c lie in (-B, B)."""
    if len(c) < 2:
        return _ONE
    return _ONE + Fraction(max(abs(a) for a in c[:-1]), abs(c[-1]))


def _integer_coeffs(p: RatPoly) -> list[int]:
    """p times a positive integer, with integer coefficients."""
    scale = math.lcm(*(c.denominator for c in p.coeffs))
    return [c.numerator * (scale // c.denominator) for c in p.coeffs]


def positive_on_unit_interval(p: RatPoly) -> bool:
    """True iff p(t) > 0 for every t in [0, 1].

    With p(0) > 0 and p(1) > 0, zero Descartes variations on (0, 1)
    settle it; only otherwise is the Sturm count needed.  The reversed
    polynomial shifted to 1 + x is (1+x)^d p(1/(1+x)), whose roots x > 0
    are the roots t = 1/(1+x) of p in (0, 1)."""
    if p.is_zero():
        raise ZeroPolynomial("positivity undefined for the zero polynomial")
    c = _integer_coeffs(p)
    if c[0] <= 0 or sum(c) <= 0:
        return False
    return (_roots_above(c[::-1], _ONE) == 0
            or sturm_count_open(sturm_chain(square_free_part(c)), _ZERO, _ONE) == 0)


def simplest_fraction_between(lo: Fraction, hi: Fraction) -> Fraction:
    """A smallest-denominator rational in the open interval (lo, hi),
    via the Stern-Brocot / continued-fraction descent.  Used to detect
    rational roots exactly: once an isolating interval is tight enough
    around a rational root, that root is the simplest number inside."""
    if not lo < hi:
        raise ValidationError("empty interval")
    # The interval is (a/b, c/d), b, d > 0, and the answer is
    # [fl_0; fl_1, ..., u/v]: h/k and h0/k0 are the last two convergents
    # of the partial quotients fl taken so far.
    a, b, c, d = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    h, k, h0, k0 = 1, 0, 0, 1
    while True:
        fl = a // b
        if (fl + 1) * d < c:
            # floor(lo)+1 > lo always holds, so this integer lies inside.
            u, v = fl + 1, 1
            break
        if a == fl * b:
            # Interval hugs the integer fl from above: simplest is fl + 1/m.
            m = d // (c - fl * d) + 1
            u, v = fl * m + 1, m
            break
        # Both endpoints strictly inside (fl, fl+1): go on with
        # (1/(hi - fl), 1/(lo - fl)).
        a, b, c, d = d, c - fl * d, b, a - fl * b
        h, k, h0, k0 = fl * h + h0, fl * k + k0, h, k
    return Fraction(u * h + v * h0, u * k + v * k0)


@dataclass
class AlgebraicNumber:
    """A real algebraic number: a square-free defining polynomial, as
    integer coefficients lowest power first (any nonzero multiple), plus
    an open isolating interval (lo, hi) containing exactly one root, with
    poly nonzero at both endpoints.  exact is set when the value is
    rational (and then the interval is ignored)."""

    poly: list[int]
    lo: Fraction
    hi: Fraction
    exact: Fraction | None = None

    @staticmethod
    def from_rational(x: Fraction | int) -> "AlgebraicNumber":
        x = rational(x)
        return AlgebraicNumber([-x.numerator, x.denominator], x - 1, x + 1, exact=x)

    def interval(self) -> tuple[Fraction, Fraction]:
        if self.exact is not None:
            return (self.exact, self.exact)
        return (self.lo, self.hi)

    def width(self) -> Fraction:
        if self.exact is not None:
            return _ZERO
        return self.hi - self.lo

    def refine(self, tol: Fraction | float) -> None:
        """Shrink the isolating interval to width <= tol by sign bisection,
        detecting rational roots exactly along the way."""
        tol = tolerance(tol)
        if self.exact is not None or self.hi - self.lo <= tol:
            return
        sign_lo = _scaled_value(self.poly, self.lo) > 0
        while self.hi - self.lo > tol:
            # A rational root eventually becomes the simplest rational in
            # the interval, so this probe makes rational roots exact.
            probe = simplest_fraction_between(self.lo, self.hi)
            if _is_root(self.poly, probe):
                self.exact = probe
                return
            mid = (self.lo + self.hi) / 2
            v = _scaled_value(self.poly, mid)
            if v == 0:
                self.exact = mid
                return
            if (v > 0) == sign_lo:
                self.lo = mid
            else:
                self.hi = mid

    def compare_fraction(self, x: Fraction | int) -> int:
        """Sign of (self - x): -1, 0, or +1."""
        x = rational(x)
        if self.exact is not None:
            return (self.exact > x) - (self.exact < x)
        if x <= self.lo:
            return 1
        if x >= self.hi:
            return -1
        v = _scaled_value(self.poly, x)
        if v == 0:
            return 0
        # poly changes sign only at its one root in (lo, hi), a simple
        # root: x lies below it iff poly(x) has the sign of poly(lo).
        return 1 if (v > 0) == (_scaled_value(self.poly, self.lo) > 0) else -1

    def compare(self, other: "AlgebraicNumber") -> int:
        if other.exact is not None:
            return self.compare_fraction(other.exact)
        if self.exact is not None:
            return -other.compare_fraction(self.exact)
        if self.hi <= other.lo:
            return -1
        if other.hi <= self.lo:
            return 1
        # Equality test: if the two values are equal, their common value is
        # a root of g = gcd(p1, p2) lying strictly inside the intervals'
        # overlap; conversely, a root of g in the overlap is a root of both
        # polynomials there, and each interval holds exactly one root of
        # its own polynomial, so all three coincide.  g is square-free with
        # at most one root in the overlap and none at its ends (ends of
        # isolating intervals), so it has one iff it changes sign there.
        g = _integer_gcd(self.poly, other.poly)
        if len(g) > 1:
            olo, ohi = max(self.lo, other.lo), min(self.hi, other.hi)
            if (_scaled_value(g, olo) > 0) != (_scaled_value(g, ohi) > 0):
                return 0
        # Distinct values: refine until the intervals separate.
        while not (self.hi <= other.lo or other.hi <= self.lo):
            width = max(self.width(), other.width())
            self.refine(width / 4)
            other.refine(width / 4)
            if self.exact is not None or other.exact is not None:
                return self.compare(other)
        return -1 if self.hi <= other.lo else 1


def largest_real_root(p: RatPoly, tol: Fraction | float = Fraction(1, 10**9)) -> AlgebraicNumber:
    """Largest real root of p as an AlgebraicNumber refined to tol."""
    tol = tolerance(tol)
    if p.is_zero():
        raise ZeroPolynomial("roots undefined for the zero polynomial")
    if p.degree == 0:
        raise NoRealRoot("nonzero constant polynomial has no root")
    return _sturm_largest_root(square_free_part(_integer_coeffs(p)), tol)


def _sturm_largest_root(sf: list[int], tol: Fraction) -> AlgebraicNumber:
    """Largest real root of the square-free integer polynomial sf: Sturm
    bisection of (-B, B) down to the first dyadic cell holding only that
    root, then refine to tol."""
    bound = cauchy_root_bound(sf)
    lo, hi = -bound, bound
    # The Cauchy bound is strict, so the endpoints are never roots.
    chain = sturm_chain(sf)
    if sturm_count_open(chain, lo, hi) == 0:
        raise NoRealRoot("polynomial has no real root")
    # Bisect until exactly the largest root remains in (lo, hi).  An exact
    # midpoint hit is deflated so interval endpoints stay off the roots.
    while sturm_count_open(chain, lo, hi) > 1:
        mid = (lo + hi) / 2
        if _scaled_value(chain[0], mid) == 0:
            chain = sturm_chain(_exact_quotient(chain[0], [-mid.numerator, mid.denominator]))
            if sturm_count_open(chain, mid, hi) == 0:
                return AlgebraicNumber.from_rational(mid)
            lo = mid
            continue
        if sturm_count_open(chain, mid, hi) >= 1:
            lo = mid
        else:
            hi = mid
    root = AlgebraicNumber(chain[0], lo, hi)
    root.refine(tol)
    return root


# -- real-rooted polynomials ----------------------------------------------
#
# Matching polynomials and their even parts have only real roots
# (Heilmann-Lieb 1972).  For such a polynomial Descartes' rule of signs is
# exact: the sign variations of p(a + y) count the roots above a
# (Collins-Akritas 1976).  So the cell that _sturm_largest_root reaches is
# located with floats and certified with a few integer Taylor shifts.

# Float estimates locate a root only to within 2^-40 of its size; finer
# cells are reached by exact sign bisection.
_FLOAT_REACH = 40
# Halvings of [0, max degree] that place a tree eigenvalue to float
# precision, and a cap on Newton steps, which start far above the root.
_BISECTION_STEPS = 52
_NEWTON_STEPS = 500


def _scaled_value(c: Sequence[int], x: Fraction) -> int:
    """D^d p(N/D) for x = N/D: p(x) times a positive integer."""
    num, den = x.numerator, x.denominator
    acc, power = c[-1], 1
    for a in reversed(c[:-1]):
        power *= den
        acc = acc * num + a * power
    return acc


def _roots_above(c: Sequence[int], x: Fraction) -> int:
    """Sign variations of D^d p((N + y)/D) for the polynomial p with
    integer coefficients c and x = N/D.

    Its positive roots are the roots of p above x.  By Descartes' rule
    the variations bound their number, with multiplicity, and equal it
    when p is real-rooted (a root at x only adds low zero
    coefficients)."""
    num, den = x.numerator, x.denominator
    deg = len(c) - 1
    b = [0] * (deg + 1)
    power = 1
    for i in range(deg, -1, -1):
        b[i] = c[i] * power
        power *= den
    for i in range(deg):  # Taylor shift y -> y + N
        acc = b[deg]
        for j in range(deg - 1, i - 1, -1):
            acc = b[j] + num * acc
            b[j] = acc
    return _variations(b)


def _is_root(c: Sequence[int], x: Fraction) -> bool:
    """x is a root of the integer polynomial c.  By the rational root
    theorem a root N/D has D dividing the leading coefficient and N
    dividing the lowest nonzero one, which rules out most x unevaluated."""
    low = next(a for a in c if a)
    if x == 0:
        return c[0] == 0
    if c[-1] % x.denominator or low % x.numerator:
        return False
    return _scaled_value(c, x) == 0


def _one_root_above(c: Sequence[int], up: bool, x: Fraction, s2: float | None) -> bool:
    """Certifies that the real-rooted c, of sign `up` above its largest
    root r, has one root above x: if r is the one root above a short
    rational x' in (s2, x] and c(x) has the sign c takes just below r,
    then x' <= x < r."""
    return (s2 is not None and Fraction(s2) < x
            and (v := _scaled_value(c, x)) != 0 and (v > 0) != up
            and _roots_above(c, simplest_fraction_between((Fraction(s2) + x) / 2, x)) == 1)


def _two_roots_above(c: Sequence[int], x: Fraction, s2: float | None) -> bool:
    """Certifies two or more roots of the real-rooted c above x: as many above x'' in (x, s2)."""
    return (s2 is not None and x < Fraction(s2)
            and _roots_above(c, simplest_fraction_between(x, (x + Fraction(s2)) / 2)) >= 2)


def _float_guided_root(
    c: list[int], tol: Fraction, s1: float, s2: float | None
) -> AlgebraicNumber | None:
    """What _sturm_largest_root(c, tol) returns, for a real-rooted
    square-free integer polynomial c given float estimates s1 > s2 of its
    two largest roots (s2 None when c has one root); None when a
    certificate fails.

    That function bisects (-B, B) to level K, the first whose cell around
    the largest root r holds no other root, deflating any midpoint that is
    a root, then refines to level L, the first at least K whose cells are
    no wider than tol, stopping early when a simplest-fraction probe is r.
    Here the floats give K and the level-L cell, and exact arithmetic
    certifies them: one root above the level-K cell's left end, at least
    two above its parent's, a sign change across the level-L cell, and
    one probe on the last cell the refinement would probe.  Counts are
    taken at short rationals near the grid points where a certificate holds."""
    if not (math.isfinite(s1) and (s2 is None or math.isfinite(s2))):
        return None
    up = c[-1] > 0  # the sign of c above r
    bound = cauchy_root_bound(c)
    width = 2 * bound

    def grid(level: int, index: int) -> Fraction:
        """Left end of cell `index` at `level`: -B + index * 2B / 2^level."""
        return Fraction(bound.numerator * (2 * index - (1 << level)),
                        bound.denominator << level)

    ratio = width / tol
    last = (-(-ratio.numerator // ratio.denominator) - 1).bit_length()
    reach = width * (1 << _FLOAT_REACH) / max(_ONE, abs(Fraction(s1)))
    fine = max(0, (reach.numerator // reach.denominator).bit_length() - 1)

    def index(x: float) -> int:
        u = (Fraction(x) + bound) * (1 << fine) / width
        return min(max(u.numerator // u.denominator, 0), (1 << fine) - 1)

    top = index(s1)
    iso = 0
    if s2 is not None:
        diff = top ^ index(s2)
        if not diff:
            return None
        iso = fine - diff.bit_length() + 1
    # Isolation: exactly one root above the level-K cell's left end, at
    # least two above its parent's.  A root on a cell end can mislead the
    # floats by a level.
    for _ in range(3):
        cell = top >> (fine - iso)
        klo = grid(iso, cell)
        above = 1 if _one_root_above(c, up, klo, s2) else _roots_above(c, klo)
        if above != 1:
            if iso == (0 if above == 0 else fine):
                return None
            iso += 1 if above else -1
            continue
        if iso:
            x = grid(iso - 1, cell >> 1)
            v = _scaled_value(c, x)
            # c(x) has the sign of c above r iff an even number of
            # roots lies above x, and r is one of them.
            if ((v == 0 or (v > 0) != up) and not _two_roots_above(c, x, s2)
                    and _roots_above(c, x) < 2):
                iso -= 1
                continue
        break
    else:
        return None
    final = max(iso, last)
    khi = grid(iso, cell + 1)

    # Midpoints that became left ends on the way down to level K: each
    # root among them is deflated, as the bisection does.  Above klo,
    # cp has the roots and the sign of c, and no root at klo.
    cp = c
    left = -bound
    for level in range(1, iso + 1):
        x = grid(level, top >> (fine - level))
        if x != left and _is_root(c, x):
            cp = _exact_quotient(cp, [-x.numerator, x.denominator])
        left = x

    def exact_root(r: Fraction) -> AlgebraicNumber | None:
        """Refinement from the level-K cell, given that its root is r."""
        if not klo < r < khi:
            return None
        root = AlgebraicNumber(cp, klo, khi)
        root.refine(tol)
        return root

    # Jump to the level-L cell, or to the finest cell the floats can
    # place; above the level-K cell's left end, cp has the sign `up`
    # exactly above r, and vanishes only at r.
    level = min(final, fine)
    first = cell << (level - iso)
    i = top >> (fine - level)
    for _ in range(3):
        if not first <= i < first + (1 << (level - iso)):
            return None
        lo, hi = grid(level, i), grid(level, i + 1)
        vlo, vhi = _scaled_value(cp, lo), _scaled_value(cp, hi)
        if vlo == 0:
            return exact_root(lo)
        if vhi == 0:
            return exact_root(hi)
        if (vlo > 0) == up:
            i -= 1
        elif (vhi > 0) != up:
            i += 1
        else:
            break
    else:
        return None
    for _ in range(level, final):
        mid = (lo + hi) / 2
        v = _scaled_value(cp, mid)
        if v == 0:
            return exact_root(mid)
        if (v > 0) == up:
            hi, i = mid, 2 * i
        else:
            lo, i = mid, 2 * i + 1

    # A probe that hits r stays the simplest fraction of every smaller
    # cell around r, so the last probe refine would make tells whether any
    # probe hits.
    if final > iso:
        parent = i >> 1
        probe = simplest_fraction_between(grid(final - 1, parent),
                                          grid(final - 1, parent + 1))
        if _is_root(cp, probe):
            return exact_root(probe)
    return AlgebraicNumber(cp, lo, hi)


def _newton_from_right(f: Sequence[float], x: float) -> float:
    """Newton's method from x above every root of the real-rooted f:
    the iterates fall monotonically to the largest root."""
    for _ in range(_NEWTON_STEPS):
        v = dv = 0.0
        for a in reversed(f):
            dv = dv * x + v
            v = v * x + a
        if dv == 0:
            break
        nxt = x - v / dv
        if not nxt < x:
            break
        x = nxt
    return x


def _newton_top_roots(c: list[int]) -> tuple[float, float | None]:
    """Float estimates of the two largest roots of the real-rooted integer
    polynomial c: Newton from the Cauchy bound, then from the first root
    on c divided by (t - first root)."""
    f = [a / c[-1] for a in c]
    s1 = _newton_from_right(f, float(cauchy_root_bound(c)))
    if len(f) <= 2:
        return s1, None
    g = [0.0] * (len(f) - 1)
    acc = 0.0
    for k in range(len(f) - 1, 0, -1):
        acc = acc * s1 + f[k]
        g[k - 1] = acc
    return s1, _newton_from_right(g, s1)


def leaf_up_inertia(nodes: Sequence[Sequence[tuple[int, Fraction | float]]],
                    r: Fraction | float) -> list[tuple[Fraction | float | None, int]]:
    """The leaf-up elimination of a rooted forest, children first: node
    i, a tuple of (child, weight) pairs, has the pivot P(i) = 1 - r * the
    sum of w F(c) and F(i) = 1/P(i).  Returns per node F(i), None when
    P(i) = 0, and the number of negative pivots in i's subtree.  A child's
    pivot 0 pairs off with its node into one negative and one positive
    pivot and cuts the node from its parent (Jacobs-Trevisan 2011): the
    node adds 1 to its count and passes F = 0 up.  At unit weights and
    r = 1/s these are the pivots of I - sqrt(r) A(T), so the root's count
    is T's number of eigenvalues above sqrt(s) (Sylvester); all pivots are
    positive, the leaf reduction ensuring T, iff the root's count is 0 and
    its F is not None.  Exact on Fractions (an int r of 1 would make 1/P
    a float), approximate on floats."""
    out: list[tuple[Fraction | float | None, int]] = []
    for node in nodes:
        total, count, zero_child = 0, 0, False
        for c, w in node:
            Fc, k = out[c]
            count += k
            if Fc is None:
                zero_child = True
            else:
                total += w * Fc
        if zero_child:
            out.append((0, count + 1))
        else:
            P = 1 - r * total
            out.append((None if P == 0 else 1 / P, count + (P < 0)))
    return out


def _tree_top_roots_squared(nodes: Sequence[Sequence[tuple[int, int]]]) -> tuple[float, float]:
    """Float estimates of lambda_1^2 > lambda_2^2, the top two roots of the
    matching even part of the tree given as leaf_up_inertia's node list,
    root last: the elimination at ratio 1/x^2 counts the eigenvalues above
    x at the root, and bisection from the largest degree finds the top
    two.  Unlike Newton on the coefficients, this stays accurate on large
    trees, where the power basis cancels."""
    degree = max([len(nodes[-1]), *(len(node) + 1 for node in nodes[:-1])])

    def sup(k: int, lo: float, hi: float) -> float:
        """The k-th largest eigenvalue, in [lo, hi]."""
        for _ in range(_BISECTION_STEPS):
            mid = (lo + hi) / 2
            if leaf_up_inertia(nodes, 1 / (mid * mid))[-1][1] >= k:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2

    lam1 = sup(1, 0.0, float(degree))
    lam2 = sup(2, 0.0, lam1)
    return lam1 * lam1, lam2 * lam2


# -- polynomial (de)serialization -----------------------------------------

def poly_to_strings(p: RatPoly) -> list[str]:
    """Coefficients lowest power first, as exact 'p/q' strings."""
    return [rational_text(c) for c in p.coeffs]


def poly_from_strings(items: Sequence[str]) -> RatPoly:
    coeffs = []
    for s in items:
        try:
            coeffs.append(parse_rational(s))
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad coefficient {s!r}: {exc}") from None
    return RatPoly(coeffs)


# -- matching polynomials --------------------------------------------------

def _matching_weight_sums(
    H: PatternGraph, weight: Callable[[Edge], int | Fraction]
) -> list:
    """c_k = sum over k-matchings M of prod_{e in M} weight(e), k = 0..n/2,
    in the weights' number type.

    Memoized recursion on the set of available vertices: the lowest
    available vertex is either unmatched or matched to a neighbor.
    """
    n = H.n
    adj = H.adjacency
    memo: dict[int, list] = {0: [1]}

    def solve(mask: int) -> list:
        got = memo.get(mask)
        if got is not None:
            return got
        v = (mask & -mask).bit_length()  # lowest available vertex label
        rest = mask & ~(1 << (v - 1))
        out = list(solve(rest))
        for u in adj[v]:
            bit = 1 << (u - 1)
            if mask & bit:
                w = weight((v, u))   # v < u: v is the lowest in the mask
                if w == 0:
                    continue
                sub = solve(rest & ~bit)
                if len(out) < len(sub) + 1:
                    out.extend([0] * (len(sub) + 1 - len(out)))
                for k, c in enumerate(sub):
                    out[k + 1] += w * c
        memo[mask] = out
        return out

    return solve((1 << n) - 1)


def _tree_matching_sums(nodes: Sequence[Sequence[tuple[int, int | Fraction]]]) -> list:
    """_matching_weight_sums of the tree given as leaf_up_inertia's node
    list (a child with its edge's weight, the root last), linear in the
    nodes: free[i] holds the weight sums by matching size in i's subtree
    with i unmatched, anym[i] the same with i free to be matched in it."""
    free: list[list] = []
    anym: list[list] = []

    def mul(a: list, b: list) -> list:
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    for node in nodes:
        # Fold the children in one at a time: f is the product of their
        # anym so far, and a also counts the node matched to one of them.
        f, a = [1], [1]
        for c, w in node:
            a = mul(a, anym[c])
            if w != 0:
                paired = mul(f, free[c])
                if len(a) < len(paired) + 1:
                    a.extend([0] * (len(paired) + 1 - len(a)))
                for k, x in enumerate(paired):
                    a[k + 1] += w * x
            f = mul(f, anym[c])
        free.append(f)
        anym.append(a)
    return anym[-1]


def _integer_weight_sums(H: PatternGraph, weight: Callable[[Edge], int]) -> list[int]:
    """The integer matching sums of H: trees take the linear-time DP on
    one node per vertex, rooted at 1, with no size cap; other patterns
    the subset recursion, up to MAX_MATCHING_EDGES edges."""
    if H.is_tree():
        return _tree_matching_sums(dag_nodes(H, H.bfs_tree()[0], weight))
    if len(H.edges) > MAX_MATCHING_EDGES:
        raise SizeLimit(
            f"matching polynomial capped at {MAX_MATCHING_EDGES} edges, "
            f"got {len(H.edges)}")
    return _matching_weight_sums(H, weight)


def matching_weight_sums(
    H: PatternGraph, weight: Callable[[Edge], Fraction] | None = None
) -> list[Fraction]:
    """c_k = sum over k-matchings of the product of their edge weights
    (1 by default): the DP runs on the weights' integer numerators over
    their least common denominator D, and c_k is its sum over D^k."""
    w = {e: Fraction(weight(e) if weight else 1) for e in H.edges}
    den = math.lcm(*(x.denominator for x in w.values()))
    scaled = {e: x.numerator * (den // x.denominator) for e, x in w.items()}
    return [Fraction(c, den ** k)
            for k, c in enumerate(_integer_weight_sums(H, scaled.__getitem__))]


def matching_polynomial(H: PatternGraph) -> RatPoly:
    """Signed matching polynomial sum_k (-1)^k m_k t^(n-2k)."""
    counts = matching_weight_sums(H)
    coeffs = [_ZERO] * (H.n + 1)
    for k, m_k in enumerate(counts):
        coeffs[H.n - 2 * k] = (-1) ** k * m_k
    return RatPoly(coeffs)


def multivariate_matching_eval(
    H: PatternGraph, r: Mapping[Edge, Fraction] | Sequence[Fraction]
) -> RatPoly:
    """F(r, t) = sum over matchings M of (prod_{e in M} r_e) (-t)^|M|,
    returned as a polynomial in t.  Constant term 1, degree <= n/2."""
    assignment = edge_assignment(H, r, what="ratio")
    counts = matching_weight_sums(H, lambda e: assignment[e])
    return RatPoly([(-1) ** k * c for k, c in enumerate(counts)])


def _even_coeffs(sums: Sequence[int], n: int) -> list[int]:
    """The integer coefficients of the matching even part of a graph on n
    vertices with matching counts sums, lowest power first."""
    signed = [(-1) ** k * m_k for k, m_k in enumerate(sums)]
    return [0] * (n // 2 + 1 - len(signed)) + signed[::-1]


def matching_even_part(H: PatternGraph) -> RatPoly:
    """q(s) with M(t) = t^(n mod 2) q(t^2): q = sum_k (-1)^k m_k s^(K-k),
    K = floor(n/2).  Well defined because M only has exponents of one
    parity (matchings remove vertices in pairs)."""
    return RatPoly(_even_coeffs(_integer_weight_sums(H, lambda e: 1), H.n))


def tree_even_part(nodes: Sequence[Sequence[tuple[int, int]]]) -> tuple[int, ...]:
    """The matching even part of the tree given as leaf_up_inertia's node
    list at unit weights, root last (graphs.rooted_nodes), as integer
    coefficients lowest power first: isomorphic trees share it."""
    sums = _tree_matching_sums(nodes)
    return tuple(_even_coeffs(sums, (sums + [0])[1] + 1))   # m_1 = n - 1 edges


def matching_root_squared(even: Sequence[int], tol: Fraction | float = Fraction(1, 10**9),
                          nodes: Sequence[Sequence[tuple[int, int]]] | None = None
                          ) -> AlgebraicNumber:
    """largest_real_root of a matching even part, integer coefficients
    lowest power first (0 for a constant).  Float estimates of its top two
    roots, by counts on the tree's nodes (tree_even_part's) when given,
    else by Newton, choose the cell; Sturm runs if a certificate fails."""
    tol = tolerance(tol)
    if len(even) < 2:
        return AlgebraicNumber.from_rational(0)
    sf = square_free_part(list(even))
    s1, s2 = _newton_top_roots(sf) if nodes is None else _tree_top_roots_squared(nodes)
    root = _float_guided_root(sf, tol, s1, s2 if len(sf) > 2 else None)
    return root if root is not None else _sturm_largest_root(sf, tol)


def largest_matching_root_squared(
    H: PatternGraph, tol: Fraction | float = Fraction(1, 10**9)
) -> AlgebraicNumber:
    """t(H)^2: the square of the largest root of the matching polynomial,
    as the largest root of its even part; a tree's from its rooted shapes
    from vertex 1.  Exact 0 for edgeless graphs."""
    tol = tolerance(tol)
    if not H.edges:
        return AlgebraicNumber.from_rational(0)
    if H.is_tree():
        nodes = rooted_nodes(H, H.bfs_tree()[0])
        return matching_root_squared(tree_even_part(nodes), tol, nodes)
    return matching_root_squared(_even_coeffs(_integer_weight_sums(H, lambda e: 1), H.n), tol)

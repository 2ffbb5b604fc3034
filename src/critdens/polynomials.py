"""Exact polynomial arithmetic, real-root isolation, and matching polynomials.

Polynomials are Fraction coefficient tuples in increasing powers of t.
Matching sums, poly_gcd, square_free_part and Descartes counts run on
integers; Sturm chains and AlgebraicNumber refinement and compare run on
Fractions.  Real roots of a general polynomial are located with Sturm
chains on the square-free part, so root counts are counts of distinct
real roots.  Matching polynomials have only real roots, so for them
Descartes' rule counts the roots above a point exactly from one integer
Taylor shift; largest_matching_root_squared lets float estimates choose
the isolating cell and certifies it with such counts, returning exactly
what the Sturm bisection would, and runs that bisection only when a
certificate fails.  No answer ever depends on floating point.

An AlgebraicNumber is a real root pinned down by a square-free defining
polynomial and an open isolating interval with rational endpoints; when the
root happens to be rational the exact value is carried instead.  This is
the common currency for spectral radii and critical densities: the root in
the interval is simple, so a comparison against a rational costs two sign
evaluations, never a float.
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
    canonical_edge,
    edge_assignment,
    parse_rational,
    rational_text,
    tolerance,
)

MAX_MATCHING_EDGES = 24

_ZERO = Fraction(0)
_ONE = Fraction(1)


class RatPoly:
    """Dense univariate polynomial over Fraction, lowest power first."""

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

    def leading(self) -> Fraction:
        if self.is_zero():
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RatPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "RatPoly") -> "RatPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return RatPoly(out)

    def __neg__(self) -> "RatPoly":
        return RatPoly([-c for c in self.coeffs])

    def __sub__(self, other: "RatPoly") -> "RatPoly":
        return self + (-other)

    def __mul__(self, other: "RatPoly") -> "RatPoly":
        if self.is_zero() or other.is_zero():
            return RatPoly([])
        out = [_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RatPoly(out)

    def scale(self, c: Fraction | int) -> "RatPoly":
        c = Fraction(c)
        return RatPoly([a * c for a in self.coeffs])

    def divmod(self, other: "RatPoly") -> tuple["RatPoly", "RatPoly"]:
        if other.is_zero():
            raise ZeroPolynomial("division by the zero polynomial")
        rem = list(self.coeffs)
        div = other.coeffs
        dd = len(div) - 1
        lead = div[-1]
        quot = [_ZERO] * max(0, len(rem) - dd)
        for k in range(len(rem) - 1, dd - 1, -1):
            c = rem[k]
            if c == 0:
                continue
            q = c / lead
            quot[k - dd] = q
            for j in range(dd + 1):
                rem[k - dd + j] -= q * div[j]
        return RatPoly(quot), RatPoly(rem)

    def __mod__(self, other: "RatPoly") -> "RatPoly":
        return self.divmod(other)[1]

    def derivative(self) -> "RatPoly":
        return RatPoly([k * c for k, c in enumerate(self.coeffs)][1:])

    def monic(self) -> "RatPoly":
        if self.is_zero():
            return self
        lead = self.coeffs[-1]
        return RatPoly([c / lead for c in self.coeffs])

    def __call__(self, x: Fraction | int) -> Fraction:
        acc = _ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def deflate_root(self, r: Fraction) -> "RatPoly":
        """Divide by (t - r); the remainder must vanish."""
        quot, rem = self.divmod(RatPoly([-r, _ONE]))
        if not rem.is_zero():
            raise ValidationError(f"{r} is not a root, cannot deflate")
        return quot

    def __repr__(self) -> str:
        return f"RatPoly({list(self.coeffs)!r})"


def _primitive(c: list[int]) -> list[int]:
    """The nonzero integer polynomial c divided by the gcd of its entries."""
    g = math.gcd(*c)
    return [a // g for a in c]


def _remainder(a: list[int], b: list[int]) -> list[int]:
    """Primitive part of a pseudo-remainder of a by b, [] when b divides a."""
    r, db, lead = list(a), len(b) - 1, b[-1]
    while r and (len(r) > db or not r[-1]):  # tops left below b's degree are 0
        top = r.pop()
        if top:
            g = math.gcd(top, lead)
            scale, top, shift = lead // g, top // g, len(r) - db
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


def poly_gcd(a: RatPoly, b: RatPoly) -> RatPoly:
    """Monic gcd, zero only for two zero polynomials."""
    if a.is_zero() and b.is_zero():
        return a
    return RatPoly(_integer_gcd(_integer_coeffs(a), _integer_coeffs(b))).monic()


def square_free_part(p: RatPoly) -> RatPoly:
    """Monic p / gcd(p, p'), by exact integer division: the gcd is
    primitive, so by Gauss's lemma the quotient is integral."""
    if p.is_zero():
        raise ZeroPolynomial("square-free part of the zero polynomial")
    c = _integer_coeffs(p)
    g = _integer_gcd(c, [k * a for k, a in enumerate(c)][1:])
    dg = len(g) - 1
    quot = [0] * (len(c) - dg)
    for k in range(len(quot) - 1, -1, -1):
        x = quot[k] = c[k + dg] // g[-1]
        for j in range(dg):
            c[k + j] -= x * g[j]
    return RatPoly(quot).monic()


def sturm_chain(p: RatPoly) -> list[RatPoly]:
    """Sturm chain of a square-free polynomial.

    Entries are rescaled by positive constants only; a monic step would
    flip signs on negative leading coefficients and break the variation
    count."""
    chain = [p, p.derivative()]
    while not chain[-1].is_zero() and chain[-1].degree > 0:
        rem = chain[-2] % chain[-1]
        if rem.is_zero():
            break
        neg = -rem
        chain.append(neg.scale(_ONE / abs(neg.leading())))
    if chain[-1].is_zero():
        chain.pop()
    return chain


def _variations(values: Iterable[Fraction | int]) -> int:
    """Sign variations of a sequence, zeros skipped."""
    signs = [c > 0 for c in values if c]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_count_open(chain: Sequence[RatPoly], lo: Fraction, hi: Fraction) -> int:
    """Distinct roots of chain[0] in the open interval (lo, hi).

    Requires chain[0] nonzero at both endpoints.
    """
    p = chain[0]
    if p(lo) == 0 or p(hi) == 0:
        raise ValidationError("Sturm count endpoints must not be roots")
    return (_variations(q(lo) for q in chain)
            - _variations(q(hi) for q in chain))


def cauchy_root_bound(p: RatPoly) -> Fraction:
    """All real roots of p lie in (-B, B)."""
    if p.is_zero() or p.degree == 0:
        return _ONE
    lead = abs(p.coeffs[-1])
    return _ONE + max(abs(c) for c in p.coeffs[:-1]) / lead


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
    if p(_ZERO) <= 0 or p(_ONE) <= 0:
        return False
    return (_roots_above(_integer_coeffs(p)[::-1], _ONE) == 0
            or sturm_count_open(sturm_chain(square_free_part(p)), _ZERO, _ONE) == 0)


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
    """A real algebraic number: square-free defining polynomial plus an
    open isolating interval (lo, hi) containing exactly one root, with
    poly nonzero at both endpoints.  exact is set when the value is
    rational (and then the interval is ignored)."""

    poly: RatPoly
    lo: Fraction
    hi: Fraction
    exact: Fraction | None = None

    @staticmethod
    def from_rational(x: Fraction | int) -> "AlgebraicNumber":
        x = Fraction(x)
        return AlgebraicNumber(RatPoly([-x, _ONE]), x - 1, x + 1, exact=x)

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
        if self.exact is not None:
            return
        tol = tolerance(tol)
        sign_lo = self.poly(self.lo) > 0
        while self.hi - self.lo > tol:
            # A rational root eventually becomes the simplest rational in
            # the interval, so this probe makes rational roots exact.
            probe = simplest_fraction_between(self.lo, self.hi)
            if self.poly(probe) == 0:
                self.exact = probe
                return
            mid = (self.lo + self.hi) / 2
            v = self.poly(mid)
            if v == 0:
                self.exact = mid
                return
            if (v > 0) == sign_lo:
                self.lo = mid
            else:
                self.hi = mid

    def compare_fraction(self, x: Fraction | int) -> int:
        """Sign of (self - x): -1, 0, or +1."""
        x = Fraction(x)
        if self.exact is not None:
            return (self.exact > x) - (self.exact < x)
        if x <= self.lo:
            return 1
        if x >= self.hi:
            return -1
        v = self.poly(x)
        if v == 0:
            return 0
        # poly changes sign only at its one root in (lo, hi), a simple
        # root: x lies below it iff poly(x) has the sign of poly(lo).
        return 1 if (v > 0) == (self.poly(self.lo) > 0) else -1

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
        # a root of gcd(p1, p2) lying strictly inside the intervals'
        # overlap; conversely, a gcd root in the overlap is a root of both
        # polynomials there, and each interval holds exactly one root of
        # its own polynomial, so all three coincide.
        g = poly_gcd(self.poly, other.poly)
        if g.degree >= 1:
            olo, ohi = max(self.lo, other.lo), min(self.hi, other.hi)
            # Interval ends are never roots of their polynomial, so of g.
            if olo < ohi and sturm_count_open(sturm_chain(g), olo, ohi) >= 1:
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
    if p.is_zero():
        raise ZeroPolynomial("roots undefined for the zero polynomial")
    if p.degree == 0:
        raise NoRealRoot("nonzero constant polynomial has no root")
    return _sturm_largest_root(square_free_part(p), tol)


def _sturm_largest_root(sf: RatPoly, tol: Fraction | float) -> AlgebraicNumber:
    """Largest real root of the square-free sf: Sturm bisection of
    (-B, B) down to the first dyadic cell holding only that root, then
    refine to tol."""
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
        if sf(mid) == 0:
            sf = sf.deflate_root(mid)
            chain = sturm_chain(sf)
            if sturm_count_open(chain, mid, hi) == 0:
                return AlgebraicNumber.from_rational(mid)
            lo = mid
            continue
        if sturm_count_open(chain, mid, hi) >= 1:
            lo = mid
        else:
            hi = mid
    root = AlgebraicNumber(sf, lo, hi)
    return _refined(root, tol)


def _refined(x: AlgebraicNumber, tol: Fraction | float) -> AlgebraicNumber:
    x.refine(tol)
    return x


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


def roots_above(p: RatPoly, x: Fraction) -> int:
    """Roots strictly above x, with multiplicity, of the real-rooted p
    (a matching polynomial or its even part, say)."""
    return _roots_above(_integer_coeffs(p), x)


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
    sf: RatPoly, tol: Fraction, s1: float, s2: float | None
) -> AlgebraicNumber | None:
    """What _sturm_largest_root(sf, tol) returns, for a real-rooted
    square-free sf given float estimates s1 > s2 of its two largest roots
    (s2 None when sf has one root); None when a certificate fails.

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
    c = _integer_coeffs(sf)
    up = c[-1] > 0  # the sign of sf above r
    bound = cauchy_root_bound(sf)
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
            # sf(x) has the sign of sf above r iff an even number of
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
    # poly has the roots and the sign of sf, and no root at klo.
    poly = sf
    left = -bound
    for level in range(1, iso + 1):
        x = grid(level, top >> (fine - level))
        if x != left and _is_root(c, x):
            poly = poly.deflate_root(x)
        left = x
    cp = c if poly is sf else _integer_coeffs(poly)

    def exact_root(r: Fraction) -> AlgebraicNumber | None:
        """Refinement from the level-K cell, given that its root is r."""
        return _refined(AlgebraicNumber(poly, klo, khi), tol) if klo < r < khi else None

    # Jump to the level-L cell, or to the finest cell the floats can
    # place; above the level-K cell's left end, poly has the sign `up`
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
    return AlgebraicNumber(poly, lo, hi)


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


def _newton_top_roots(sf: RatPoly) -> tuple[float, float | None]:
    """Float estimates of the two largest roots of the real-rooted sf:
    Newton from the Cauchy bound, then from the first root on sf divided
    by (t - first root)."""
    f = [float(c) for c in sf.coeffs]
    s1 = _newton_from_right(f, float(cauchy_root_bound(sf)))
    if len(f) <= 2:
        return s1, None
    g = [0.0] * (len(f) - 1)
    acc = 0.0
    for k in range(len(f) - 1, 0, -1):
        acc = acc * s1 + f[k]
        g[k - 1] = acc
    return s1, _newton_from_right(g, s1)


def _tree_top_roots_squared(T: PatternGraph) -> tuple[float, float]:
    """Float estimates of lambda_1^2 and lambda_2^2 for the two largest
    adjacency eigenvalues of the tree T: the two largest roots of its
    matching even part.

    Eigenvalues above x are counted in O(n) by diagonalising A - xI from
    the leaves up (Jacobs-Trevisan 2011), and bisection finds the top two.
    Unlike Newton on the coefficients, this stays accurate on large trees,
    where the power basis cancels."""
    order, parent = T.bfs_tree()
    leaves_up = [(v, parent[v]) for v in reversed(order)]

    def above(x: float) -> int:
        diag = [-x] * (T.n + 1)
        zero_child = [False] * (T.n + 1)
        count = 0
        for v, p in leaves_up:
            if zero_child[v]:
                # A child at 0 becomes 2 and v becomes -1/2, cut off
                # from its parent.
                count += 1
                continue
            a = diag[v]
            if a > 0:
                count += 1
            if p:
                if a == 0:
                    zero_child[p] = True
                else:
                    diag[p] -= 1 / a
        return count

    def sup(k: int, lo: float, hi: float) -> float:
        """The k-th largest eigenvalue, in [lo, hi]."""
        for _ in range(_BISECTION_STEPS):
            mid = (lo + hi) / 2
            if above(mid) >= k:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2

    lam1 = sup(1, 0.0, float(T.max_degree()))
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
        except (ValueError, ZeroDivisionError) as exc:
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


def _tree_matching_weight_sums(
    H: PatternGraph, weight: Callable[[Edge], int | Fraction]
) -> list:
    """Same as _matching_weight_sums for trees, by a rooted two-state DP
    (vertex matched into its subtree or not), linear in n."""
    order, parent = H.bfs_tree()
    # free[v]: weight sums by matching size in v's subtree with v unmatched;
    # any[v]: same with v free to be matched inside the subtree.
    free: dict[int, list] = {}
    anym: dict[int, list] = {}

    def mul(a: list, b: list) -> list:
        if a == [1]:   # each fold below starts from 1
            return list(b)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x == 0:
                continue
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    for v in reversed(order):
        children = [u for u in H.adjacency[v] if parent[u] == v]
        # Fold the children in one at a time: f is the product of their
        # any[c] so far, and a also counts v matched to one of them.
        f = [1]
        a = [1]
        for c in children:
            w = weight(canonical_edge(v, c))
            a = mul(a, anym[c])
            if w != 0:
                paired = mul(f, free[c])
                if len(a) < len(paired) + 1:
                    a.extend([0] * (len(paired) + 1 - len(a)))
                for k, x in enumerate(paired):
                    a[k + 1] += w * x
            f = mul(f, anym[c])
        free[v] = f
        anym[v] = a
    return anym[order[0]]


def matching_weight_sums(
    H: PatternGraph, weight: Callable[[Edge], Fraction] | None = None
) -> list[Fraction]:
    """c_k = sum over k-matchings of the product of their edge weights
    (1 by default): the DP runs on the weights' integer numerators over
    their least common denominator D, and c_k is its sum over D^k.
    Trees take the linear-time rooted recursion, with no size cap."""
    dp = _tree_matching_weight_sums if H.is_tree() else _matching_weight_sums
    if dp is _matching_weight_sums and len(H.edges) > MAX_MATCHING_EDGES:
        raise SizeLimit(
            f"matching polynomial capped at {MAX_MATCHING_EDGES} edges, "
            f"got {len(H.edges)}")
    w = {e: Fraction(weight(e) if weight else 1) for e in H.edges}
    den = math.lcm(*(x.denominator for x in w.values()))
    scaled = {e: x.numerator * (den // x.denominator) for e, x in w.items()}
    return [Fraction(c, den ** k) for k, c in enumerate(dp(H, scaled.__getitem__))]


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


def matching_even_part(H: PatternGraph) -> RatPoly:
    """q(s) with M(t) = t^(n mod 2) q(t^2): q = sum_k (-1)^k m_k s^(K-k),
    K = floor(n/2).  Well defined because M only has exponents of one
    parity (matchings remove vertices in pairs)."""
    counts = matching_weight_sums(H)
    K = H.n // 2
    coeffs = [_ZERO] * (K + 1)
    for k, m_k in enumerate(counts):
        coeffs[K - k] = (-1) ** k * m_k
    return RatPoly(coeffs)


def largest_matching_root_squared(
    H: PatternGraph, tol: Fraction | float = Fraction(1, 10**9)
) -> AlgebraicNumber:
    """t(H)^2: the square of the largest root of the matching polynomial,
    as the largest root of its even part.  Exact 0 for edgeless graphs."""
    tol = tolerance(tol)
    if not H.edges:
        return AlgebraicNumber.from_rational(0)
    # Equal to largest_real_root(matching_even_part(H), tol); the Sturm
    # bisection runs only when a certificate fails.
    sf = square_free_part(matching_even_part(H))
    s1, s2 = _tree_top_roots_squared(H) if H.is_tree() else _newton_top_roots(sf)
    root = _float_guided_root(sf, tol, s1, s2 if sf.degree > 1 else None)
    if root is not None:
        return root
    return _sturm_largest_root(sf, tol)

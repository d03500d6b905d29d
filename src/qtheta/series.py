"""Exact truncated Puiseux series over the rationals.

A :class:`PuiseuxSeries` is a finite map from exponents to nonzero rational
coefficients, where every exponent lies on the grid (1/D)*Z for a fixed
positive integer D (the ``base_denom``), together with a certified
truncation bound ``trunc``: the series is exactly correct for every
exponent strictly below ``trunc`` and claims nothing at or above it.

There is no floating point anywhere, and the store holds only integers.
Exponents are stored on the grid: the term c*q^(n/D) has key n, and
n/D < trunc is n < ceil(trunc*D).  Coefficients are integer numerators over
one shared positive denominator ``den``: c = a/den is stored as a.  The
store is canonical, gcd(den, *numerators) == 1 and den == 1 for a series
with no terms, so equal series have equal stores and numbers do not grow
past their reduced size; each ring operation divides its result by that
gcd once.  Operands on different grids meet on the lcm of their D.
``terms``, ``coefficient`` and ``leading_term`` build their Fractions on
demand.  The public constructor takes and validates Fractions; the ring
operations and the package's own producers use the trusted constructor
``_make``, which checks nothing.

There is one store, ``_IntStore``, under this class and the two-variable
``theta.ThetaTwoVar``: the trusted constructor, the window, equality,
negation and the sum are written once.  The key shape is the only
difference, n here and (n, r) there; the two types never add or compare equal.

The window is stored as exact ints too: ``trunc`` = tn/td in lowest terms
with td >= 1, and +infinity as (1, 0).  ``trunc`` builds the Fraction (or
``math.inf``) when read.  Windows are compared and shifted by integer
cross-multiplication, so they need not lie on the series' grid: a product
window such as 115/84 on the 1/12 grid stays exact.

Truncation bounds are recomputed pessimistically through every operation,
so any identity observed on a result is certified on the stated window.
``dot`` forms a sum of products in one pass, with the terms and window of
the left-to-right fold of ``*`` and ``+``.  A series divides only by a
nonzero scalar; there is no series-by-series division.  Values are
immutable after construction and all operations are pure, so series may
be shared freely across threads or processes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Union

INFINITY = math.inf

Exponent = Fraction
Truncation = Union[Fraction, float]

_ZERO = Fraction(0)


def _as_trunc(value) -> Truncation:
    if isinstance(value, float):
        if value == INFINITY:
            return INFINITY
        raise TypeError("truncation must be a rational or +infinity, not a float")
    return Fraction(value)


def _window(trunc: Truncation) -> tuple[int, int]:
    """A truncation from ``_as_trunc`` as its int pair (tn, td): lowest terms
    with td >= 1, and (1, 0) for +infinity."""
    return (1, 0) if isinstance(trunc, float) else (trunc.numerator, trunc.denominator)


def _key_bound(tn: int, td: int, denom: int) -> int | None:
    """The integer keys n on the 1/denom grid with n/denom < tn/td are those
    below this; None when the window is +infinity."""
    return -(-tn * denom // td) if td else None


def _order(x, low: int | None, denom: int) -> tuple[int, int]:
    """The least exponent a term of x can have, as an int pair: its lowest
    known key ``low`` over ``denom``.  With no known term, 0, or its window
    when that is negative: the unknown terms lie at or above the window."""
    if low is not None:
        return low, denom
    return (x._tn, x._td) if x._tn < 0 else (0, 1)


def _product_window(x, y, ox: int | None, oy: int | None, denom: int) -> tuple[int, int]:
    """The certified window of the product of x and y, as an unreduced int pair.

    The unknown tail of one factor enters the product shifted by the other
    factor's least exponent: min(trunc x + ord y, trunc y + ord x), where
    ox, oy are the lowest keys on the 1/denom grid, None for a factor with
    no known term (see ``_order``).  +infinity comes out as a pair (p > 0, 0).
    """
    (an, ad), (bn, bd) = _order(x, ox, denom), _order(y, oy, denom)
    p1, q1 = x._tn * bd + bn * x._td, x._td * bd
    p2, q2 = y._tn * ad + an * y._td, y._td * ad
    return (p1, q1) if p1 * q2 <= p2 * q1 else (p2, q2)


def _lowest_terms(p: int, q: int) -> tuple[int, int]:
    g = math.gcd(p, q)
    return p // g, q // g


def _reduced(terms: dict, den: int) -> tuple[dict, int]:
    """Nonzero numerators ``terms`` over ``den`` > 0, divided by gcd(den, *numerators).

    The canonical store of a series: den is 1 when there are no terms.
    """
    if den == 1 or not terms:
        return terms, 1
    g = math.gcd(den, *terms.values())
    if g == 1:
        return terms, den
    return {k: c // g for k, c in terms.items()}, den // g


def _over_lcm(values: Mapping) -> tuple[dict, int]:
    """Nonzero Fractions ``values`` as numerators over their least common denominator.

    That denominator shares no factor with all the numerators, so the
    result is already canonical.
    """
    den = math.lcm(1, *(c.denominator for c in values.values()))
    return {k: c.numerator * (den // c.denominator) for k, c in values.items()}, den


class _IntStore:
    """The one integer store, under ``PuiseuxSeries`` and ``theta.ThetaTwoVar``.

    A subclass gives the two steps that read a key, each once per operation
    on a whole dict: ``_refine(terms, f, g)`` moves a store onto a grid f
    times finer with its numerators times g, and ``_below(terms, bound)``
    keeps the nonzero terms whose grid key is below an int key bound.
    """

    __slots__ = ("base_denom", "_tn", "_td", "_terms", "_den")

    @classmethod
    def _make(cls, terms: dict, tn: int, td: int, base_denom: int, den: int):
        """Trusted constructor: the window is tn/td as ``_window`` gives it,
        and ``terms`` (kept, not copied) maps keys below
        ``_key_bound(tn, td, base_denom)`` to nonzero int numerators over
        ``den``, in the canonical form ``_reduced`` gives; nothing is checked."""
        out = object.__new__(cls)
        out.base_denom = base_denom
        out._tn = tn
        out._td = td
        out._terms = terms
        out._den = den
        return out

    def _over(self, denom: int, den: int) -> dict:
        """The stored terms on the 1/denom grid, as numerators over ``den``;
        both must be multiples of this series' own.  May be the store itself."""
        f, g = denom // self.base_denom, den // self._den
        return self._terms if f == g == 1 else self._refine(self._terms, f, g)

    @property
    def trunc(self) -> Truncation:
        """The certified window, a Fraction or +infinity, built on each access."""
        return Fraction(self._tn, self._td) if self._td else INFINITY

    def is_zero(self) -> bool:
        """True when no nonzero coefficient is known below the truncation."""
        return not self._terms

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        # both stores are canonical, so equal coefficients need equal den
        d = math.lcm(self.base_denom, other.base_denom)
        return (self._tn == other._tn and self._td == other._td and self._den == other._den
                and self._over(d, self._den) == other._over(d, other._den))

    __hash__ = None

    def __add__(self, other):
        """The sum of two series of one type, on the lower window: both stores
        go onto the lcm grid over the lcm denominator, merge, and are cut at
        the window's key bound and reduced once."""
        if type(other) is not type(self):
            return NotImplemented
        tn, td = self._tn, self._td
        if other._tn * td < tn * other._td:
            tn, td = other._tn, other._td
        denom = math.lcm(self.base_denom, other.base_denom)
        den = math.lcm(self._den, other._den)
        bound = _key_bound(tn, td, denom)
        merged = dict(self._over(denom, den))
        for k, c in other._over(denom, den).items():
            merged[k] = merged.get(k, 0) + c
        terms = ({k: c for k, c in merged.items() if c} if bound is None
                 else self._below(merged, bound))
        terms, den = _reduced(terms, den)
        return self._make(terms, tn, td, denom, den)

    def __neg__(self):
        return self._make({k: -c for k, c in self._terms.items()},
                          self._tn, self._td, self.base_denom, self._den)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)


class PuiseuxSeries(_IntStore):
    """Truncated formal series in q with rational exponents of bounded denominator."""

    __slots__ = ()

    def __init__(self, terms: Mapping | Iterable, trunc: Truncation, base_denom: int | None = None):
        trunc = _as_trunc(trunc)
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[Fraction, Fraction] = {}
        for e, c in items:
            e = Fraction(e)
            c = Fraction(c)
            if c and e < trunc:
                clean[e] = clean.get(e, _ZERO) + c
        clean = {e: c for e, c in clean.items() if c}
        if base_denom is None:
            base_denom = math.lcm(1, *(e.denominator for e in clean))
        else:
            base_denom = int(base_denom)
            if base_denom < 1:
                raise ValueError("base_denom must be a positive integer")
            for e in clean:
                if (e * base_denom).denominator != 1:
                    raise ValueError(f"exponent {e} is not a multiple of 1/{base_denom}")
        self.base_denom = base_denom
        self._tn, self._td = _window(trunc)
        self._terms, self._den = _over_lcm(
            {(e * base_denom).numerator: c for e, c in clean.items()})

    @staticmethod
    def _refine(terms: dict[int, int], f: int, g: int) -> dict[int, int]:
        return {n * f: c * g for n, c in terms.items()}

    @staticmethod
    def _below(terms: dict[int, int], bound: int) -> dict[int, int]:
        return {n: c for n, c in terms.items() if c and n < bound}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, trunc: Truncation = INFINITY, base_denom: int = 1) -> PuiseuxSeries:
        return cls({}, trunc, base_denom)

    @classmethod
    def constant(cls, value, trunc: Truncation = INFINITY) -> PuiseuxSeries:
        return cls({Fraction(0): Fraction(value)}, trunc, 1)

    @classmethod
    def one(cls, trunc: Truncation = INFINITY) -> PuiseuxSeries:
        return cls.constant(1, trunc)

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> Mapping[Fraction, Fraction]:
        """Read-only map from Fraction exponents to coefficients, built on each access."""
        d, den = self.base_denom, self._den
        return MappingProxyType({Fraction(n, d): Fraction(c, den) for n, c in self._terms.items()})

    def coefficient(self, exponent) -> Fraction:
        n = Fraction(exponent) * self.base_denom
        c = self._terms.get(n.numerator) if n.denominator == 1 else None
        return _ZERO if c is None else Fraction(c, self._den)

    def ord_infty(self) -> Truncation:
        """Exponent of the first nonzero term, or +infinity for an empty series."""
        return Fraction(min(self._terms), self.base_denom) if self._terms else INFINITY

    def leading_term(self) -> tuple[Fraction, Fraction] | None:
        if not self._terms:
            return None
        n = min(self._terms)
        return Fraction(n, self.base_denom), Fraction(self._terms[n], self._den)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __repr__(self) -> str:
        head = " + ".join(f"({c})*q^({e})" for e, c in sorted(self.terms.items())[:4])
        if len(self._terms) > 4:
            head += " + ..."
        t = str(self.trunc) if self._td else "inf"
        return f"<PuiseuxSeries {head or '0'} | D={self.base_denom} trunc={t}>"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> PuiseuxSeries:
        if isinstance(other, (int, Fraction)):
            other = PuiseuxSeries.constant(other)
        return super().__add__(other)

    __radd__ = __add__

    def __sub__(self, other) -> PuiseuxSeries:
        if not isinstance(other, (int, Fraction, PuiseuxSeries)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> PuiseuxSeries:
        return -self + other

    def __mul__(self, other) -> PuiseuxSeries:
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            terms, den = _reduced({n: c.numerator * v for n, v in self._terms.items()}
                                  if c else {}, self._den * c.denominator)
            return PuiseuxSeries._make(terms, self._tn, self._td, self.base_denom, den)
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        return dot((self,), (other,))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> PuiseuxSeries:
        if not isinstance(n, int) or n < 0:
            raise ValueError("series powers must have nonnegative integer exponents")
        result = PuiseuxSeries.one()
        square = self
        while n:
            if n & 1:
                result = result * square
            n >>= 1
            if n:
                square = square * square
        return result

    def __truediv__(self, other) -> PuiseuxSeries:
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                raise ZeroDivisionError("division of a series by the scalar zero")
            return self * (1 / c)
        return NotImplemented

    # -- derivation --------------------------------------------------------

    def q_derivative(self) -> PuiseuxSeries:
        """Apply q*d/dq: each term c*q^e becomes (c*e)*q^e.

        This is the only derivative used in the package; every tau-derivative
        is expressed through it so that all coefficients stay rational.
        """
        d = self.base_denom
        terms, den = _reduced({n: c * n for n, c in self._terms.items() if n}, self._den * d)
        return PuiseuxSeries._make(terms, self._tn, self._td, d, den)


def dot(xs, ys) -> PuiseuxSeries:
    """sum_i xs[i] * ys[i] in one pass, equal store for store to the fold
    ``xs[0] * ys[0] + xs[1] * ys[1] + ...``; a product of two series is
    the one-term sum.

    Every factor goes onto one grid (the lcm of all the D) and every
    product over one denominator (the lcm of the products' own); the
    convolutions add into one int dict below the least product window,
    and the sum is reduced once.
    """
    pairs = list(zip(xs, ys, strict=True))
    if not pairs:
        raise ValueError("dot needs at least one product")
    denom = math.lcm(*(s.base_denom for pair in pairs for s in pair))
    den = math.lcm(*(x._den * y._den for x, y in pairs))
    factors = []
    p, q = 1, 0
    for x, y in pairs:
        a = sorted(x._over(denom, den // y._den).items())
        b = sorted(y._over(denom, y._den).items())
        pi, qi = _product_window(x, y, a[0][0] if a else None, b[0][0] if b else None, denom)
        if pi * q < p * qi:
            p, q = pi, qi
        factors.append((a, b))
    tn, td = _lowest_terms(p, q)
    bound = _key_bound(tn, td, denom)
    out: dict[int, int] = {}
    for a, b in factors:
        if not a or not b:
            continue
        # an exact product has no key past the sum of the largest keys
        top = a[-1][0] + b[-1][0] + 1 if bound is None else bound
        nb_low = b[0][0]
        for na, ca in a:
            if na + nb_low >= top:
                break
            for nb, cb in b:
                n = na + nb
                if n >= top:
                    break
                out[n] = out.get(n, 0) + ca * cb
    terms, den = _reduced({n: c for n, c in out.items() if c}, den)
    return PuiseuxSeries._make(terms, tn, td, denom, den)


# -- text format -------------------------------------------------------------
#
# One series per blob: a header line `D=<int> trunc=<num>/<den>` followed by
# one line per term, `<coeff_num>/<coeff_den> <exp_num>/<exp_den>`, sorted by
# exponent.  Used by the CLI's --dump-series output and by golden-file tests.


def parse_rational(text: str) -> Fraction:
    """Parse 'a/b' or 'a' into an exact Fraction."""
    return Fraction(*_rational_pair(text))


def _rational_pair(text: str) -> tuple[int, int]:
    """``parse_rational(text)`` as its int pair (num, den), in lowest terms with den >= 1."""
    text = text.strip()
    if "/" not in text:
        return int(text), 1
    num, den = (int(part) for part in text.split("/", 1))
    if den == 0:
        raise ValueError(f"zero denominator in {text!r}")
    g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
    return num // g, den // g


def _rat_str(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def dump_series_text(series: PuiseuxSeries) -> str:
    if not series._td:
        raise ValueError("only series with a finite truncation can be serialized")
    d = series.base_denom
    lines = [f"D={d} trunc={series._tn}/{series._td}"]
    den = series._den
    for n, c in sorted(series._terms.items()):
        lines.append(f"{_rat_str(Fraction(c, den))} {_rat_str(Fraction(n, d))}")
    return "\n".join(lines) + "\n"


def parse_series_text(text: str) -> PuiseuxSeries:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty series text")
    header = lines[0].split()
    fields = dict(part.split("=", 1) for part in header)
    base_denom = int(fields["D"])
    trunc = parse_rational(fields["trunc"])
    terms = {}
    for ln in lines[1:]:
        coeff_text, exp_text = ln.split()
        terms[parse_rational(exp_text)] = parse_rational(coeff_text)
    return PuiseuxSeries(terms, trunc, base_denom)

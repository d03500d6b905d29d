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

Truncation bounds are recomputed pessimistically through every operation,
so any identity observed on a result is certified on the stated window.
Values are immutable after construction and all operations are pure, so
series may be shared freely across threads or processes.
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


class DivisorIndistinguishableFromZero(ArithmeticError):
    """Raised when dividing by a series with no nonzero term below its truncation."""


def _as_trunc(value) -> Truncation:
    if isinstance(value, float):
        if value == INFINITY:
            return INFINITY
        raise TypeError("truncation must be a rational or +infinity, not a float")
    return Fraction(value)


def _trunc_add(t: Truncation, x) -> Truncation:
    # the only float a truncation or an order can be is +infinity
    if isinstance(t, float) or isinstance(x, float):
        return INFINITY
    return t + x


def _key_bound(trunc: Truncation, denom: int):
    """The integer keys n on the 1/denom grid with n/denom < trunc are those below this."""
    if isinstance(trunc, float):
        return INFINITY
    return -(-trunc.numerator * denom // trunc.denominator)


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


class PuiseuxSeries:
    """Truncated formal series in q with rational exponents of bounded denominator."""

    __slots__ = ("base_denom", "trunc", "_terms", "_den")

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
        self.trunc = trunc
        self._terms, self._den = _over_lcm(
            {(e * base_denom).numerator: c for e, c in clean.items()})

    @classmethod
    def _make(cls, terms: dict[int, int], trunc: Truncation, base_denom: int,
              den: int) -> PuiseuxSeries:
        """Trusted constructor: ``terms`` (kept, not copied) maps int keys below
        ``_key_bound(trunc, base_denom)`` to nonzero int numerators over ``den``,
        in the canonical form ``_reduced`` gives; nothing is checked."""
        out = object.__new__(cls)
        out.base_denom = base_denom
        out.trunc = trunc
        out._terms = terms
        out._den = den
        return out

    def _over(self, denom: int, den: int) -> dict[int, int]:
        """The stored terms on the 1/denom grid, as numerators over ``den``;
        both must be multiples of this series' own.  May be the store itself."""
        f, g = denom // self.base_denom, den // self._den
        if g == 1:
            return self._terms if f == 1 else {n * f: c for n, c in self._terms.items()}
        return {n * f: c * g for n, c in self._terms.items()}

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

    def is_zero(self) -> bool:
        """True when no nonzero coefficient is known below the truncation."""
        return not self._terms

    def ord_infty(self) -> Truncation:
        """Exponent of the first nonzero term, or +infinity for an empty series."""
        return Fraction(min(self._terms), self.base_denom) if self._terms else INFINITY

    def leading_term(self) -> tuple[Fraction, Fraction] | None:
        if not self._terms:
            return None
        n = min(self._terms)
        return Fraction(n, self.base_denom), Fraction(self._terms[n], self._den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        # both stores are canonical, so equal coefficients need equal den
        d = math.lcm(self.base_denom, other.base_denom)
        return (self.trunc == other.trunc and self._den == other._den
                and self._over(d, self._den) == other._over(d, other._den))

    __hash__ = None

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __repr__(self) -> str:
        head = " + ".join(f"({c})*q^({e})" for e, c in sorted(self.terms.items())[:4])
        if len(self._terms) > 4:
            head += " + ..."
        t = "inf" if self.trunc == INFINITY else str(self.trunc)
        return f"<PuiseuxSeries {head or '0'} | D={self.base_denom} trunc={t}>"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> PuiseuxSeries:
        if isinstance(other, (int, Fraction)):
            other = PuiseuxSeries.constant(other)
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        trunc = min(self.trunc, other.trunc)
        denom = math.lcm(self.base_denom, other.base_denom)
        den = math.lcm(self._den, other._den)
        bound = _key_bound(trunc, denom)
        merged = dict(self._over(denom, den))
        for n, c in other._over(denom, den).items():
            merged[n] = merged.get(n, 0) + c
        terms, den = _reduced({n: c for n, c in merged.items() if c and n < bound}, den)
        return PuiseuxSeries._make(terms, trunc, denom, den)

    __radd__ = __add__

    def __neg__(self) -> PuiseuxSeries:
        return PuiseuxSeries._make({n: -c for n, c in self._terms.items()},
                                   self.trunc, self.base_denom, self._den)

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
            return PuiseuxSeries._make(terms, self.trunc, self.base_denom, den)
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        # Certified bound: the unknown tail of one factor enters the product
        # shifted by the other factor's lowest exponent (0 if that factor has
        # no known term).
        ord_a = Fraction(min(self._terms), self.base_denom) if self._terms else _ZERO
        ord_b = Fraction(min(other._terms), other.base_denom) if other._terms else _ZERO
        trunc = min(_trunc_add(self.trunc, ord_b), _trunc_add(other.trunc, ord_a))
        denom = math.lcm(self.base_denom, other.base_denom)
        bound = _key_bound(trunc, denom)
        a = sorted(self._over(denom, self._den).items())
        b = sorted(other._over(denom, other._den).items())
        out: dict[int, int] = {}
        for na, ca in a:
            if not b or na + b[0][0] >= bound:
                break
            for nb, cb in b:
                n = na + nb
                if n >= bound:
                    break
                out[n] = out.get(n, 0) + ca * cb
        terms, den = _reduced({n: c for n, c in out.items() if c}, self._den * other._den)
        return PuiseuxSeries._make(terms, trunc, denom, den)

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
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        if not other._terms:
            raise DivisorIndistinguishableFromZero(
                "divisor has no nonzero term below its truncation")
        # (A/den_a) / (B/den_b) = (A/B) * den_b/den_a: long division on the
        # numerators in Fractions, scaled and put over one denominator at the end
        denom = math.lcm(self.base_denom, other.base_denom)
        divisor = other._over(denom, other._den)
        rem = dict(self._over(denom, self._den))
        nb_low = min(divisor)
        lead_b = Fraction(divisor[nb_low])
        ord_b = Fraction(nb_low, denom)
        ord_a = Fraction(min(rem), denom) if rem else INFINITY
        # r(e) needs the dividend at e + ord_b and the divisor up to
        # e + ord_b - ord(r), with ord(r) = ord_a - ord_b.
        trunc = min(_trunc_add(self.trunc, -ord_b),
                    _trunc_add(other.trunc, _trunc_add(-2 * ord_b, ord_a)))
        bound = _key_bound(trunc, denom)
        higher = sorted((n, c) for n, c in divisor.items() if n != nb_low)
        quot: dict[int, Fraction] = {}
        while rem:
            n = min(rem)
            nq = n - nb_low
            if nq >= bound:
                break
            c = rem.pop(n) / lead_b
            quot[nq] = c
            for nb, cb in higher:
                target = nq + nb
                if target - nb_low >= bound:
                    break
                nv = rem.get(target, 0) - c * cb
                if nv:
                    rem[target] = nv
                else:
                    rem.pop(target, None)
        scale = Fraction(other._den, self._den)
        terms, den = _over_lcm({n: c * scale for n, c in quot.items()})
        return PuiseuxSeries._make(terms, trunc, denom, den)

    # -- derivations and reshaping ------------------------------------------

    def q_derivative(self) -> PuiseuxSeries:
        """Apply q*d/dq: each term c*q^e becomes (c*e)*q^e.

        This is the only derivative used in the package; every tau-derivative
        is expressed through it so that all coefficients stay rational.
        """
        d = self.base_denom
        terms, den = _reduced({n: c * n for n, c in self._terms.items() if n}, self._den * d)
        return PuiseuxSeries._make(terms, self.trunc, d, den)

    def q_derivative_iterate(self, n: int) -> PuiseuxSeries:
        out = self
        for _ in range(n):
            out = out.q_derivative()
        return out

    def truncate(self, new_trunc: Truncation) -> PuiseuxSeries:
        new_trunc = _as_trunc(new_trunc)
        if new_trunc > self.trunc:
            raise ValueError("cannot extend a certified truncation")
        bound = _key_bound(new_trunc, self.base_denom)
        terms, den = _reduced({n: c for n, c in self._terms.items() if n < bound}, self._den)
        return PuiseuxSeries._make(terms, new_trunc, self.base_denom, den)


# -- text format -------------------------------------------------------------
#
# One series per blob: a header line `D=<int> trunc=<num>/<den>` followed by
# one line per term, `<coeff_num>/<coeff_den> <exp_num>/<exp_den>`, sorted by
# exponent.  Used by the CLI's --dump-series output and by golden-file tests.


def parse_rational(text: str) -> Fraction:
    """Parse 'a/b' or 'a' into an exact Fraction."""
    text = text.strip()
    if "/" in text:
        num, den = (int(part) for part in text.split("/", 1))
        if den == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(num, den)
    return Fraction(int(text))


def _rat_str(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def dump_series_text(series: PuiseuxSeries) -> str:
    if series.trunc == INFINITY:
        raise ValueError("only series with a finite truncation can be serialized")
    d = series.base_denom
    lines = [f"D={d} trunc={_rat_str(series.trunc)}"]
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

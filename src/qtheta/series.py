"""Exact truncated Puiseux series over the rationals.

A :class:`PuiseuxSeries` is a finite map from exponents to nonzero rational
coefficients, where every exponent lies on the grid (1/D)*Z for a fixed
positive integer D (the ``base_denom``), together with a certified
truncation bound ``trunc``: the series is exactly correct for every
exponent strictly below ``trunc`` and claims nothing at or above it.

Coefficients and exponents are ``fractions.Fraction``; there is no floating
point anywhere.  Truncation bounds are recomputed pessimistically through
every operation, so any identity observed on a result is certified on the
stated window.  Values are immutable after construction and all operations
are pure, so series may be shared freely across threads or processes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Union

INFINITY = math.inf

Exponent = Fraction
Truncation = Union[Fraction, float]


class DivisorIndistinguishableFromZero(ArithmeticError):
    """Raised when dividing by a series with no nonzero term below its truncation."""


def _as_trunc(value) -> Truncation:
    if isinstance(value, float):
        if value == INFINITY:
            return INFINITY
        raise TypeError("truncation must be a rational or +infinity, not a float")
    return Fraction(value)


def _trunc_add(t: Truncation, x) -> Truncation:
    if t == INFINITY or x == INFINITY:
        return INFINITY
    return t + x


class PuiseuxSeries:
    """Truncated formal series in q with rational exponents of bounded denominator."""

    __slots__ = ("base_denom", "trunc", "_terms")

    def __init__(self, terms: Mapping | Iterable, trunc: Truncation, base_denom: int | None = None):
        trunc = _as_trunc(trunc)
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[Fraction, Fraction] = {}
        for e, c in items:
            e = Fraction(e)
            c = Fraction(c)
            if c and e < trunc:
                clean[e] = clean.get(e, Fraction(0)) + c
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
        self._terms = clean

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

    @classmethod
    def monomial(cls, coeff, exponent, trunc: Truncation = INFINITY,
                 base_denom: int | None = None) -> PuiseuxSeries:
        return cls({Fraction(exponent): Fraction(coeff)}, trunc, base_denom)

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> Mapping[Fraction, Fraction]:
        return MappingProxyType(self._terms)

    def coefficient(self, exponent) -> Fraction:
        return self._terms.get(Fraction(exponent), Fraction(0))

    def is_zero(self) -> bool:
        """True when no nonzero coefficient is known below the truncation."""
        return not self._terms

    def ord_infty(self) -> Truncation:
        """Exponent of the first nonzero term, or +infinity for an empty series."""
        return min(self._terms) if self._terms else INFINITY

    def leading_term(self) -> tuple[Fraction, Fraction] | None:
        if not self._terms:
            return None
        e = min(self._terms)
        return e, self._terms[e]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        return self.trunc == other.trunc and self._terms == other._terms

    __hash__ = None

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __repr__(self) -> str:
        head = " + ".join(f"({c})*q^({e})" for e, c in sorted(self._terms.items())[:4])
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
        merged = dict(self._terms)
        for e, c in other._terms.items():
            merged[e] = merged.get(e, Fraction(0)) + c
        return PuiseuxSeries(merged, trunc, math.lcm(self.base_denom, other.base_denom))

    __radd__ = __add__

    def __neg__(self) -> PuiseuxSeries:
        return PuiseuxSeries({e: -c for e, c in self._terms.items()}, self.trunc, self.base_denom)

    def __sub__(self, other) -> PuiseuxSeries:
        return self + (-other if isinstance(other, PuiseuxSeries) else -Fraction(other))

    def __mul__(self, other) -> PuiseuxSeries:
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return PuiseuxSeries.zero(self.trunc, self.base_denom)
            return PuiseuxSeries({e: c * v for e, v in self._terms.items()},
                                 self.trunc, self.base_denom)
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        # Certified bound: the unknown tail of one factor enters the product
        # shifted by the other factor's lowest exponent (0 if that factor has
        # no known term).
        ord_a = min(self._terms) if self._terms else Fraction(0)
        ord_b = min(other._terms) if other._terms else Fraction(0)
        trunc = min(_trunc_add(self.trunc, ord_b), _trunc_add(other.trunc, ord_a))
        denom = math.lcm(self.base_denom, other.base_denom)
        a = sorted(self._terms.items())
        b = sorted(other._terms.items())
        out: dict[Fraction, Fraction] = {}
        for ea, ca in a:
            if b and ea + b[0][0] >= trunc:
                break
            for eb, cb in b:
                e = ea + eb
                if e >= trunc:
                    break
                out[e] = out.get(e, Fraction(0)) + ca * cb
        return PuiseuxSeries(out, trunc, denom)

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
        ord_b = min(other._terms)
        lead_b = other._terms[ord_b]
        ord_a = min(self._terms) if self._terms else INFINITY
        # r(e) needs the dividend at e + ord_b and the divisor up to
        # e + ord_b - ord(r), with ord(r) = ord_a - ord_b.
        trunc = min(_trunc_add(self.trunc, -ord_b),
                    _trunc_add(other.trunc, _trunc_add(-2 * ord_b, ord_a)))
        denom = math.lcm(self.base_denom, other.base_denom)
        higher = sorted((e, c) for e, c in other._terms.items() if e != ord_b)
        rem = dict(self._terms)
        quot: dict[Fraction, Fraction] = {}
        while rem:
            e = min(rem)
            eq = e - ord_b
            if eq >= trunc:
                break
            c = rem.pop(e) / lead_b
            quot[eq] = c
            for eb, cb in higher:
                target = eq + eb
                if target - ord_b >= trunc:
                    break
                nv = rem.get(target, Fraction(0)) - c * cb
                if nv:
                    rem[target] = nv
                else:
                    rem.pop(target, None)
        return PuiseuxSeries(quot, trunc, denom)

    # -- derivations and reshaping ------------------------------------------

    def q_derivative(self) -> PuiseuxSeries:
        """Apply q*d/dq: each term c*q^e becomes (c*e)*q^e.

        This is the only derivative used in the package; every tau-derivative
        is expressed through it so that all coefficients stay rational.
        """
        return PuiseuxSeries({e: c * e for e, c in self._terms.items() if e},
                             self.trunc, self.base_denom)

    def q_derivative_iterate(self, n: int) -> PuiseuxSeries:
        out = self
        for _ in range(n):
            out = out.q_derivative()
        return out

    def truncate(self, new_trunc: Truncation) -> PuiseuxSeries:
        new_trunc = _as_trunc(new_trunc)
        if new_trunc > self.trunc:
            raise ValueError("cannot extend a certified truncation")
        return PuiseuxSeries(self._terms, new_trunc, self.base_denom)


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
    lines = [f"D={series.base_denom} trunc={_rat_str(series.trunc)}"]
    for e in sorted(series.terms):
        lines.append(f"{_rat_str(series.terms[e])} {_rat_str(e)}")
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

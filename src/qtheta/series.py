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
``_make``, which checks nothing.  One store, ``_IntStore``, lies under this
class and the two-variable ``theta.ThetaTwoVar``; the two never add or
compare equal.

The window is stored as exact ints too: ``trunc`` = tn/td in lowest terms
with td >= 1, and +infinity as (1, 0).  Windows are compared and shifted
by integer cross-multiplication, so they need not lie on the series' grid:
a product window such as 115/84 on the 1/12 grid stays exact.  They are
recomputed pessimistically through every operation, so any identity
observed on a result is certified on the stated window.  A series divides
only by a nonzero scalar.  Values are immutable and all operations are
pure, so series may be shared freely across threads or processes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Union

from .exact import _key_bound, parse_rational

INFINITY = math.inf
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


def _order(x, low: int | None, denom: int) -> tuple[int, int]:
    """The least exponent a term of x can have, as an int pair: its lowest
    known key ``low`` over ``denom``.  With no known term, 0, or its window
    when that is negative: the unknown terms lie at or above the window."""
    if low is not None:
        return low, denom
    return (x._tn, x._td) if x._tn < 0 else (0, 1)


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

    A subclass gives the steps that read a key, each once per whole dict or
    factor: ``_refine(terms, f, g)`` moves a store onto a grid f times finer
    with its numerators times g, ``_below(terms, bound)`` keeps the nonzero
    terms whose grid key is below an int key bound; for ``_sum_products``,
    ``_keys(terms)`` yields the grid key of each term, and
    ``_convolve(out, terms, b, top)`` adds the products of a left factor's
    terms with the sorted (n, c) list b into the int dict ``out`` below the
    grid key ``top``.
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

    @classmethod
    def _sum_products(cls, pairs, window: tuple[int, int] = (1, 0), denom: int = 1):
        """sum_i x_i * y_i over the (x_i, y_i) of ``pairs``, x_i of this class and
        y_i a ``PuiseuxSeries``, in one pass: equal store for store to the fold
        of the products and ``+`` from the empty series on ``window`` (an int
        pair as ``_window`` gives it) and the 1/denom grid.

        Every factor goes onto the lcm grid and every product over the lcm
        denominator.  The unknown tail of one factor enters its product
        shifted by the other's least exponent (``_order``), so the products
        add into one int dict below the least of their windows
        min(trunc x + ord y, trunc y + ord x), and the sum is reduced once.
        """
        denom = math.lcm(denom, *(s.base_denom for pair in pairs for s in pair))
        den = math.lcm(1, *(x._den * y._den for x, y in pairs))
        p, q = window
        factors = []
        for x, y in pairs:
            a = x._over(denom, den // y._den)
            b = sorted(y._over(denom, y._den).items())
            an, ad = _order(x, min(cls._keys(a)) if a else None, denom)
            bn, bd = _order(y, b[0][0] if b else None, denom)
            # +infinity is a pair (p > 0, 0), above every finite window
            pi, qi = x._tn * bd + bn * x._td, x._td * bd
            if pi * q < p * qi:
                p, q = pi, qi
            pi, qi = y._tn * ad + an * y._td, y._td * ad
            if pi * q < p * qi:
                p, q = pi, qi
            factors.append((a, b))
        tn, td = _lowest_terms(p, q)
        bound = _key_bound(tn, td, denom)
        out: dict = {}
        for a, b in factors:
            if a and b:
                # an exact product has no key past the sum of the largest keys
                top = max(cls._keys(a)) + b[-1][0] + 1 if bound is None else bound
                cls._convolve(out, a, b, top)
        terms, den = _reduced({k: c for k, c in out.items() if c}, den)
        return cls._make(terms, tn, td, denom, den)


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

    @staticmethod
    def _keys(terms: dict[int, int]):
        return terms

    @staticmethod
    def _convolve(out: dict[int, int], terms: dict[int, int], b, top: int) -> None:
        nb_low = b[0][0]
        for na, ca in sorted(terms.items()):
            if na + nb_low >= top:
                break
            for nb, cb in b:
                n = na + nb
                if n >= top:
                    break
                out[n] = out.get(n, 0) + ca * cb

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
        return PuiseuxSeries._sum_products(((self, other),))

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
    ``xs[0] * ys[0] + xs[1] * ys[1] + ...``: the one-variable call of the
    store's kernel ``_IntStore._sum_products``, of which a product of two
    series is the one-term sum.
    """
    pairs = list(zip(xs, ys, strict=True))
    if not pairs:
        raise ValueError("dot needs at least one product")
    return PuiseuxSeries._sum_products(pairs)


# -- text format -------------------------------------------------------------
#
# One series per blob: a header line `D=<int> trunc=<num>/<den>` followed by
# one line per term, `<coeff_num>/<coeff_den> <exp_num>/<exp_den>`, sorted by
# exponent.  Used by the CLI's --dump-series output and by golden-file tests.


def dump_series_text(series: PuiseuxSeries) -> str:
    if not series._td:
        raise ValueError("only series with a finite truncation can be serialized")
    d = series.base_denom
    lines = [f"D={d} trunc={series._tn}/{series._td}"]
    den = series._den
    for n, c in sorted(series._terms.items()):
        # each rational in lowest terms over its positive denominator, as _rat_str writes it
        g, h = math.gcd(c, den), math.gcd(n, d)
        lines.append(f"{c // g}/{den // g} {n // h}/{d // h}")
    return "\n".join(lines) + "\n"


def _line_error(number: int, line: str, error: Exception) -> ValueError:
    """``error`` named by its line: its ``number``, blank lines counted, and its text."""
    return ValueError(f"line {number} {line.strip()!r}: {error}")


def parse_series_text(text: str) -> PuiseuxSeries:
    """The series of ``dump_series_text``'s format; a bad line raises as in
    ``_line_error``: a header whose D is not a positive integer, and a term
    off the 1/D grid, at or past the header's window, on an exponent an
    earlier line gave, or with a zero coefficient, included, as no dump
    writes any of them."""
    numbered = [(i, ln) for i, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not numbered:
        raise ValueError("empty series text")
    number, ln = numbered[0]
    try:
        fields = dict(part.split("=", 1) for part in ln.split())
        if not fields.keys() >= {"D", "trunc"}:
            raise ValueError("the header needs a D= and a trunc= field")
        base_denom = int(fields["D"])
        if base_denom < 1:
            raise ValueError(f"D={base_denom} is not a positive integer")
        trunc = parse_rational(fields["trunc"])
        terms = {}
        for number, ln in numbered[1:]:
            coeff_text, exp_text = ln.split()
            e = parse_rational(exp_text)
            key = e * base_denom
            if key.denominator != 1:
                raise ValueError(f"exponent {e} is not a multiple of 1/{base_denom}")
            if key.numerator in terms:
                raise ValueError(f"exponent {e} is repeated")
            if e >= trunc:
                raise ValueError(f"exponent {e} is not below trunc={trunc}")
            c = parse_rational(coeff_text)
            if not c:
                raise ValueError(f"exponent {e} has a zero coefficient")
            terms[key.numerator] = c
    except ValueError as error:
        raise _line_error(number, ln, error) from None
    terms, den = _over_lcm(terms)
    return PuiseuxSeries._make(terms, trunc.numerator, trunc.denominator, base_denom, den)

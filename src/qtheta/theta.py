"""Congruent theta series in one and two variables.

For an index m >= 1 and a residue mu mod 2m, the two-variable theta series
collects q^(r^2/4m) * zeta^r over all integers r congruent to mu mod 2m.
Its odd companion, sum of r * q^(r^2/4m) over the same r, is the
weight-3/2 series whose derivatives fill the Wronskian matrix.  All
q-exponents live on the grid (1/4m)*Z.

``ThetaTwoVar`` has the one store of ``PuiseuxSeries`` (the series module's
``_IntStore``), and the key shape is the only difference: c*q^(n/D)*zeta^r
sits under (n, r) where a one-variable term sits under n.  The series here
are built on those keys through the trusted ``_make``, with integer
coefficients over den 1: the term r sits at r^2 on the 1/4m grid, and
r^2/4m < q_trunc is r^2 < ceil(4m*q_trunc).  That ceiling is the integer key
bound, and ``_residues`` takes it: the residues of a class below it are one
``range``.

``odd_theta_series`` builds the odd series of one class on its own window.
``translation_eigenvalue`` reads the translation eigenvalue of a series off
its exponents, and ``odd_theta_exponents`` reads those of an index's m - 1
odd series from the keys r^2 alone, in one pass over r with no series
built; ``translation_eigenvalue`` of each ``odd_theta_series`` is its tests'
reference.
``_mul_sum`` adds products of two-variable series by one-variable series in
one pass; ``ThetaTwoVar.mul_series`` is its case of one product.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .characters import UnityExponent
from .series import (_ZERO, PuiseuxSeries, Truncation, _as_trunc, _IntStore, _key_bound,
                     _lowest_terms, _over_lcm, _product_window, _reduced, _window)


class NotAnEigenvector(ValueError):
    """Raised when a series is not an eigenvector of tau -> tau + 1."""


class ThetaIndex(NamedTuple("ThetaIndex", [("index_m", int), ("residue_mu", int)])):
    """Index m and residue class mu mod 2m; mu is stored reduced into [0, 2m)."""

    __slots__ = ()

    def __new__(cls, index_m: int, residue_mu: int):
        if index_m < 1:
            raise ValueError("index_m must be a positive integer")
        return super().__new__(cls, index_m, residue_mu % (2 * index_m))

    def negate(self) -> ThetaIndex:
        return ThetaIndex(self.index_m, -self.residue_mu)


class ThetaTwoVar(_IntStore):
    """Truncated two-variable expansion: rational q-exponents, integer zeta-exponents.

    ``terms`` maps (q_exponent, zeta_exponent) -> coefficient.  The
    q-exponents are certified below ``q_trunc`` and lie on
    (1/base_denom)*Z; for each certified q-window the zeta-support is
    automatically finite.
    """

    __slots__ = ()

    def __init__(self, terms: Mapping, q_trunc: Truncation, base_denom: int):
        q_trunc = _as_trunc(q_trunc)
        base_denom = int(base_denom)
        if base_denom < 1:
            raise ValueError("base_denom must be a positive integer")
        clean: dict[tuple[int, int], Fraction] = {}
        for (e, r), c in (terms.items() if isinstance(terms, Mapping) else terms):
            e = Fraction(e)
            c = Fraction(c)
            n = e * base_denom
            if n.denominator != 1:
                raise ValueError(f"q-exponent {e} is not a multiple of 1/{base_denom}")
            if c and e < q_trunc:
                key = (n.numerator, int(r))
                clean[key] = clean.get(key, _ZERO) + c
        self.base_denom = base_denom
        self._tn, self._td = _window(q_trunc)
        self._terms, self._den = _over_lcm({k: v for k, v in clean.items() if v})

    @staticmethod
    def _refine(terms: dict[tuple[int, int], int], f: int, g: int) -> dict[tuple[int, int], int]:
        return {(n * f, r): c * g for (n, r), c in terms.items()}

    @staticmethod
    def _below(terms: dict[tuple[int, int], int], bound: int) -> dict[tuple[int, int], int]:
        return {k: c for k, c in terms.items() if c and k[0] < bound}

    q_trunc = _IntStore.trunc

    @property
    def terms(self) -> Mapping[tuple[Fraction, int], Fraction]:
        d, den = self.base_denom, self._den
        return MappingProxyType({(Fraction(n, d), r): Fraction(c, den)
                                 for (n, r), c in self._terms.items()})

    def mul_series(self, s: PuiseuxSeries) -> ThetaTwoVar:
        """Multiply by a one-variable series (acting on the q-side only)."""
        return _mul_sum(((self, s),))

    def zeta_moment(self, n: int) -> PuiseuxSeries:
        """Collapse the zeta variable: sum of coeff * r^n per q-exponent."""
        return self.zeta_moments((n,))[0]

    def zeta_moments(self, orders) -> list[PuiseuxSeries]:
        """``zeta_moment(n)`` for each n of ``orders``, in one pass over the
        terms: each q-exponent gathers one row of sums, and each
        zeta-exponent r has its powers r^n computed once."""
        orders = tuple(orders)
        if any(n < 0 for n in orders):
            raise ValueError("zeta moment orders must be nonnegative")
        powers: dict[int, list[int]] = {}
        rows: dict[int, list[int]] = {}
        for (e, r), c in self._terms.items():
            ps = powers.get(r)
            if ps is None:
                ps = powers[r] = [r ** n for n in orders]
            row = rows.get(e)
            if row is None:
                rows[e] = [c * p for p in ps]
            else:
                for i, p in enumerate(ps):
                    row[i] += c * p
        moments = []
        for i in range(len(orders)):
            terms, den = _reduced({e: row[i] for e, row in rows.items() if row[i]}, self._den)
            moments.append(PuiseuxSeries._make(terms, self._tn, self._td, self.base_denom, den))
        return moments

    def is_zeta_odd(self) -> bool:
        """True when negating the zeta-exponent negates every coefficient."""
        return all(self._terms.get((e, -r)) == -c for (e, r), c in self._terms.items())


def _mul_sum(pairs, window: tuple[int, int] = (1, 0), denom: int = 1) -> ThetaTwoVar:
    """sum_i tv_i.mul_series(s_i) over the (tv_i, s_i) of ``pairs``, in one pass.

    Equal store for store to the fold of ``mul_series`` and ``+`` from the
    empty series on ``window`` (an int pair as ``series._window`` gives it,
    (1, 0) for +infinity) and the 1/denom grid, as ``series.dot`` is to its
    fold: every product goes
    onto the lcm grid over the lcm denominator, the products add into one
    int dict below the least window, and the sum is reduced once.
    """
    denom = math.lcm(denom, *(x.base_denom for pair in pairs for x in pair))
    den = math.lcm(1, *(tv._den * s._den for tv, s in pairs))
    p, q = window
    products = []
    for tv, s in pairs:
        own = tv._over(denom, den // s._den)
        b = sorted(s._over(denom, s._den).items())
        pi, qi = _product_window(tv, s, min(n for n, _ in own) if own else None,
                                 b[0][0] if b else None, denom)
        if pi * q < p * qi:
            p, q = pi, qi
        products.append((own, b))
    tn, td = _lowest_terms(p, q)
    bound = _key_bound(tn, td, denom)
    out: dict[tuple[int, int], int] = {}
    for own, b in products:
        if not own or not b:
            continue
        # an exact product has no key past the sum of the largest keys
        top = max(n for n, _ in own) + b[-1][0] + 1 if bound is None else bound
        for (n, r), c in own.items():
            for nb, cb in b:
                key = (n + nb, r)
                if key[0] >= top:
                    break
                out[key] = out.get(key, 0) + c * cb
    terms, den = _reduced({k: c for k, c in out.items() if c}, den)
    return ThetaTwoVar._make(terms, tn, td, denom, den)


def _residues(m: int, mu: int, bound: int) -> range:
    """All r = mu mod 2m with r^2 below the integer key bound, in increasing order."""
    if bound <= 0:
        return range(0)
    cap = math.isqrt(bound - 1)  # r^2 < bound iff |r| <= cap
    step = 2 * m
    return range((mu + cap) % step - cap, cap + 1, step)


def theta_series(idx: ThetaIndex, q_trunc) -> ThetaTwoVar:
    """The two-variable congruent theta series for the given residue class."""
    m, mu = idx.index_m, idx.residue_mu
    tn, td = (q_trunc if type(q_trunc) is Fraction else Fraction(q_trunc)).as_integer_ratio()
    terms = {(r * r, r): 1 for r in _residues(m, mu, _key_bound(tn, td, 4 * m))}
    return ThetaTwoVar._make(terms, tn, td, 4 * m, 1)


def odd_theta_series(idx: ThetaIndex, q_trunc) -> PuiseuxSeries:
    """sum over r = mu mod 2m of r * q^(r^2/4m), truncated below q_trunc.

    The odd weight-3/2 companion of the theta series: residues mu and -mu
    give opposite series, and the classes mu = 0 and mu = m collapse to
    zero because r and -r share the same exponent.  In every other class
    no two residues share r^2, so each r is one term.
    """
    m, mu = idx.index_m, idx.residue_mu
    tn, td = (q_trunc if type(q_trunc) is Fraction else Fraction(q_trunc)).as_integer_ratio()
    terms = {r * r: r for r in _residues(m, mu, _key_bound(tn, td, 4 * m))} if mu % m else {}
    return PuiseuxSeries._make(terms, tn, td, 4 * m, 1)


def odd_theta_exponents(m: int, q_trunc):
    """The translation eigenvalue of ``odd_theta_series(ThetaIndex(m, mu),
    q_trunc)`` for each mu = 1..m-1, read in one pass over r with no series
    built: a generator of reduced pairs (num, den), raising what
    ``translation_eigenvalue`` raises on that series.

    r = 1, 2, ... below the key bound goes to its class c = r mod 2m, folded
    to 2m - c when c > m (r and -r share the key r^2 on the 1/4m grid).  The
    first key of a column fixes its residue mod 4m, and every later key must
    match it; the first one that does not is the column's least key off the
    class, as keys grow with r.  The zero classes 0 and m are read too and
    dropped.  Column mu's pair, or its error, is yielded in mu order once the
    pass is done.
    """
    if m < 1:
        raise ValueError("index_m must be a positive integer")
    tn, td = (q_trunc if type(q_trunc) is Fraction else Fraction(q_trunc)).as_integer_ratio()
    step = 2 * m
    den = 2 * step
    bound = _key_bound(tn, td, den)
    first = [0] * (m + 1)  # each column's first key; 0 while it has none
    residue = [-1] * (m + 1)  # its residue mod 4m; -1 matches no key
    off: dict[int, int] = {}  # column -> its least key off the class
    for r in range(1, math.isqrt(bound - 1) + 1 if bound > 0 else 1):
        c = r % step
        if c > m:
            c = step - c
        n = r * r
        if n % den != residue[c]:
            if not first[c]:
                first[c], residue[c] = n, n % den
            elif c not in off:
                off[c] = n
    for mu in range(1, m):
        n = first[mu]
        if not n:
            raise ValueError("the zero series scales under every eigenvalue")
        if mu in off:
            raise NotAnEigenvector(f"exponents {Fraction(n, den)} and {Fraction(off[mu], den)} "
                                   f"differ by a non-integer")
        num = residue[mu]
        g = math.gcd(num, den)
        yield num // g, den // g


def translation_eigenvalue(s: PuiseuxSeries) -> UnityExponent:
    """The exponent x with s(tau + 1) = exp(2*pi*i*x) * s(tau).

    Well defined exactly when all exponents of s agree mod 1: every key n on
    the grid 1/D must leave one residue n mod D, and that residue over D is
    the point of Q/Z returned.  Otherwise the error names the least exponent
    and the least one off its class; the zero series raises ``ValueError``.
    """
    terms = s._terms
    if not terms:
        raise ValueError("the zero series scales under every eigenvalue")
    d = s.base_denom
    residues = set(map(d.__rmod__, terms))  # n % d for every key n
    if len(residues) > 1:
        first = min(terms)
        n = min(k for k in terms if (k - first) % d)  # the least one off the class
        raise NotAnEigenvector(f"exponents {Fraction(first, d)} and {Fraction(n, d)} "
                               f"differ by a non-integer")
    return UnityExponent(residues.pop(), d)

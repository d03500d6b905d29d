"""Congruent theta series in one and two variables.

For an index m >= 1 and a residue mu mod 2m, the two-variable theta series
collects q^(r^2/4m) * zeta^r over all integers r congruent to mu mod 2m.
Its odd companion, sum of r * q^(r^2/4m) over the same r, is the
weight-3/2 series whose derivatives fill the Wronskian matrix.  All
q-exponents live on the grid (1/4m)*Z.

``ThetaTwoVar`` has the one store of ``PuiseuxSeries`` (the series module's
``_IntStore``): c*q^(n/D)*zeta^r sits under (n, r) where a one-variable
term sits under n, so it gives only the steps that read a key.  The series
here are built through the trusted ``_make``, with integer coefficients
over den 1: the term r sits at r^2 on the 1/4m grid, and r^2/4m < q_trunc
is r^2 < ceil(4m*q_trunc), the integer key bound ``exact._residues`` takes,
the residue walk the lattice sum of ``wronskian`` shares.
``translation_eigenvalue`` of each ``odd_theta_series`` is the tests'
reference for ``characters.odd_theta_exponents``, which builds no series.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .characters import NotAnEigenvector, UnityExponent
from .exact import _key_bound, _residues
from .series import (_ZERO, PuiseuxSeries, Truncation, _as_trunc, _IntStore, _over_lcm,
                     _reduced, _window)


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

    @staticmethod
    def _keys(terms: dict[tuple[int, int], int]):
        return (n for n, _ in terms)

    @staticmethod
    def _convolve(out: dict[tuple[int, int], int], terms, b, top: int) -> None:
        for (n, r), c in terms.items():
            for nb, cb in b:
                key = (n + nb, r)
                if key[0] >= top:
                    break
                out[key] = out.get(key, 0) + c * cb

    q_trunc = _IntStore.trunc

    @property
    def terms(self) -> Mapping[tuple[Fraction, int], Fraction]:
        d, den = self.base_denom, self._den
        return MappingProxyType({(Fraction(n, d), r): Fraction(c, den)
                                 for (n, r), c in self._terms.items()})

    def mul_series(self, s: PuiseuxSeries) -> ThetaTwoVar:
        """Multiply by a one-variable series (acting on the q-side only)."""
        return ThetaTwoVar._sum_products(((self, s),))

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

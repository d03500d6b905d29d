"""Dedekind eta, the weight-2 Eisenstein series, and the modular derivative.

Everything is built on :class:`~qtheta.series.PuiseuxSeries`.  The modular
derivative of weight kappa sends f to q*df/dq - (kappa/12)*E2*f and raises
the weight by 2; iterating it steps the weight accordingly.  Weights are
half-integers and are stored as twice their value to keep all bookkeeping
in plain integers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .series import INFINITY, PuiseuxSeries


class HalfIntWeight(NamedTuple("HalfIntWeight", [("twice_weight", int)])):
    """A weight in (1/2)*Z, stored as twice its value."""

    __slots__ = ()

    def __new__(cls, twice_weight: int):
        if not isinstance(twice_weight, int):
            raise TypeError("twice_weight must be an integer")
        return super().__new__(cls, twice_weight)

    @property
    def weight(self) -> Fraction:
        return Fraction(self.twice_weight, 2)

    @classmethod
    def coerce(cls, value) -> HalfIntWeight:
        if isinstance(value, HalfIntWeight):
            return value
        as_fraction = Fraction(value)
        twice = as_fraction * 2
        if twice.denominator != 1:
            raise ValueError(f"{value} is not a half-integer weight")
        return cls(int(twice))


def eta(trunc) -> PuiseuxSeries:
    """q^(1/24) * prod_{n>=1} (1 - q^n), expanded below ``trunc``.

    The product is expanded directly; factors with n >= trunc cannot
    contribute below the truncation and are skipped.  Exponents live on
    the grid (1/24)*Z.  Cached per truncation.
    """
    trunc = Fraction(trunc)
    if trunc <= 0:
        raise ValueError("trunc must be positive")
    return _eta_cached(trunc)


@lru_cache(maxsize=None)
def _eta_cached(trunc: Fraction) -> PuiseuxSeries:
    product = {0: Fraction(1)}
    n = 1
    while n < trunc:
        updated = dict(product)
        for e, c in product.items():
            shifted = e + n
            if shifted < trunc:
                value = updated.get(shifted, Fraction(0)) - c
                if value:
                    updated[shifted] = value
                else:
                    del updated[shifted]
        product = updated
        n += 1
    shift = Fraction(1, 24)
    return PuiseuxSeries({e + shift: c for e, c in product.items()}, trunc, base_denom=24)


def eta_power(trunc, lam: int) -> PuiseuxSeries:
    """eta(trunc) ** lam, from integer coefficients of prod_{n>=1} (1 - q^n)^lam.

    The coefficients f_n follow Miller's recurrence for a power of a
    series, n f_n = sum_{k=1}^n ((lam+1)k - n) p_k f_(n-k), where p is
    Euler's pentagonal series sum_k (-1)^k q^(k(3k-1)/2), so only
    O(sqrt n) of the p_k are nonzero.  The window is the one the series
    product rules give eta(trunc) ** lam: each factor past the first
    lifts it by 1/24, unless eta(trunc) has no term at all.
    """
    trunc = Fraction(trunc)
    if trunc <= 0:
        raise ValueError("trunc must be positive")
    if not isinstance(lam, int) or lam < 1:
        raise ValueError("the eta exponent must be a positive integer")
    shift = Fraction(1, 24)
    if trunc > shift:
        trunc += (lam - 1) * shift
    size = max(0, math.ceil(trunc - lam * shift))  # f_n is needed for n < size
    pentagonal = []
    k = 1
    while k * (3 * k - 1) // 2 < size:
        sign = -1 if k % 2 else 1
        pentagonal.append((k * (3 * k - 1) // 2, sign))
        pentagonal.append((k * (3 * k + 1) // 2, sign))
        k += 1
    coeffs = [1] if size else []
    for n in range(1, size):
        total = 0
        for g, sign in pentagonal:
            if g > n:
                break
            total += sign * ((lam + 1) * g - n) * coeffs[n - g]
        value, remainder = divmod(total, n)
        assert remainder == 0, "Miller's recurrence must divide exactly"
        coeffs.append(value)
    return PuiseuxSeries._make({lam + 24 * n: c for n, c in enumerate(coeffs) if c},
                               trunc.numerator, trunc.denominator, 24, 1)


def eisenstein_e2(trunc) -> PuiseuxSeries:
    """1 - 24 * sum_{n>=1} sigma_1(n) q^n below ``trunc``; integer exponents.

    sigma_1 is computed by a divisor sieve.  Cached per truncation since the
    series is multiplied into every modular-derivative application.
    """
    trunc = Fraction(trunc)
    if trunc <= 0:
        raise ValueError("trunc must be positive")
    return _e2_cached(trunc)


@lru_cache(maxsize=None)
def _e2_cached(trunc: Fraction) -> PuiseuxSeries:
    n_max = math.ceil(trunc) - 1
    sigma = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        for multiple in range(d, n_max + 1, d):
            sigma[multiple] += d
    terms = {Fraction(0): Fraction(1)}
    for n in range(1, n_max + 1):
        terms[Fraction(n)] = Fraction(-24 * sigma[n])
    return PuiseuxSeries(terms, trunc, base_denom=1)


def modular_derivative(f: PuiseuxSeries, kappa) -> PuiseuxSeries:
    """q*df/dq - (kappa/12) * E2 * f, the weight-raising derivative at weight kappa."""
    kw = HalfIntWeight.coerce(kappa)
    derivative = f.q_derivative()
    if kw.twice_weight == 0:
        return derivative
    if f.trunc == INFINITY:
        raise ValueError("modular derivative needs a finite certified truncation")
    low = f.ord_infty()
    needed = f.trunc - min(low, Fraction(0)) if low != INFINITY else f.trunc
    e2 = eisenstein_e2(needed)
    return derivative - (kw.weight / 12) * (e2 * f)

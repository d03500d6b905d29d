"""Root-of-unity exponent arithmetic in Q/Z for the translation action.

Roots of unity are never materialized as complex numbers: a value x in
[0, 1) stands for exp(2*pi*i*x), and multiplying roots adds exponents
mod 1.  This covers everything the translation tau -> tau + 1 does to the
series in this package.

A ``UnityExponent`` stores x as a reduced pair of integers num/den with
0 <= num < den, built directly from an integer pair such as (mu^2, 4m)
with one gcd; a ``Fraction`` is built only when ``value`` is read.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

_set = object.__setattr__


class UnityExponent:
    """A rational x reduced into [0, 1), representing exp(2*pi*i*x).

    ``UnityExponent(num, den)`` is x = num/den; ``UnityExponent(x)`` takes
    an int or a Fraction.  Floats are rejected: their binary expansion is
    not the exponent that was meant.  Immutable; equal only to another
    ``UnityExponent`` with the same reduced pair, never to a tuple.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        if type(num) is not int or type(den) is not int or den <= 0:
            if isinstance(num, float) or isinstance(den, float):
                raise TypeError("a unity exponent must be an int or a Fraction, not a float")
            x = Fraction(num, den)
            num, den = x.numerator, x.denominator
        num %= den
        g = math.gcd(num, den)
        _set(self, "num", num // g)
        _set(self, "den", den // g)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"UnityExponent(num={self.num!r}, den={self.den!r})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: UnityExponent is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: UnityExponent is immutable")

    def __reduce__(self):
        return self.__class__, (self.num, self.den)

    @property
    def value(self) -> Fraction:
        return Fraction(self.num, self.den)


class GammaCharacter(NamedTuple("GammaCharacter", [("delta_power", int)])):
    """A character of SL(2, Z), recorded as a power of the canonical generator.

    The character group is cyclic of order 12; the generator sends the
    translation matrix to exp(2*pi*i/12), so a character is determined by
    its exponent mod 12.
    """

    __slots__ = ()

    def __new__(cls, delta_power: int):
        return super().__new__(cls, delta_power % 12)

    @property
    def translation_value(self) -> UnityExponent:
        return UnityExponent(self.delta_power, 12)


def translation_eigenvalues(m: int) -> list[UnityExponent]:
    """Exponents by which tau -> tau + 1 scales each odd theta series.

    The series for residue mu has all exponents congruent to mu^2/(4m)
    mod 1, so translation multiplies it by exp(2*pi*i*mu^2/(4m)).
    Returns the diagonal for mu = 1..m-1.
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    den = 4 * m
    return [UnityExponent(mu * mu, den) for mu in range(1, m)]


def squared_determinant_translation(m: int, diag: list[UnityExponent] | None = None
                                    ) -> UnityExponent:
    """Translation exponent of the squared determinant of the theta tuple.

    Computed as twice the sum of the diagonal exponents, taken from ``diag``
    when the caller already holds ``translation_eigenvalues(m)``: each
    exponent's denominator divides 4m, so the sum runs on integer numerators
    over 4m and is reduced once.  Agrees with the closed form
    (m-1)(2m-1)/12 mod 1.
    """
    if diag is None:
        diag = translation_eigenvalues(m)
    den = 4 * m
    total = UnityExponent(2 * sum(ev.num * (den // ev.den) for ev in diag), den)
    assert total == UnityExponent((m - 1) * (2 * m - 1), 12)
    return total


def squared_determinant_delta_power(m: int) -> GammaCharacter:
    """The squared-determinant character as a power of the canonical generator."""
    return GammaCharacter((m - 1) * (2 * m - 1))

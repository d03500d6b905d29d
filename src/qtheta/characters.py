"""Root-of-unity exponent arithmetic in Q/Z for the translation action.

Roots of unity are never materialized as complex numbers: a value x in
[0, 1) stands for exp(2*pi*i*x), and multiplying roots adds exponents
mod 1.  This covers everything the translation tau -> tau + 1 does to the
series in this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class UnityExponent:
    """A rational x reduced into [0, 1), representing exp(2*pi*i*x)."""

    value: Fraction

    def __post_init__(self):
        v = self.value if isinstance(self.value, Fraction) else Fraction(self.value)
        if not 0 <= v.numerator < v.denominator:
            v = Fraction(v.numerator % v.denominator, v.denominator)
        object.__setattr__(self, "value", v)

    def __add__(self, other: UnityExponent) -> UnityExponent:
        a, b = self.value, other.value
        den = a.denominator * b.denominator
        return UnityExponent(Fraction(
            (a.numerator * b.denominator + b.numerator * a.denominator) % den, den))

    def __mul__(self, n: int) -> UnityExponent:
        den = self.value.denominator
        return UnityExponent(Fraction(self.value.numerator * n % den, den))

    __rmul__ = __mul__


@dataclass(frozen=True)
class GammaCharacter:
    """A character of SL(2, Z), recorded as a power of the canonical generator.

    The character group is cyclic of order 12; the generator sends the
    translation matrix to exp(2*pi*i/12), so a character is determined by
    its exponent mod 12.
    """

    delta_power: int

    def __post_init__(self):
        object.__setattr__(self, "delta_power", self.delta_power % 12)

    @property
    def translation_value(self) -> UnityExponent:
        return UnityExponent(Fraction(self.delta_power, 12))


def translation_eigenvalues(m: int) -> list[UnityExponent]:
    """Exponents by which tau -> tau + 1 scales each odd theta series.

    The series for residue mu has all exponents congruent to mu^2/(4m)
    mod 1, so translation multiplies it by exp(2*pi*i*mu^2/(4m)).
    Returns the diagonal for mu = 1..m-1.
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    return [UnityExponent(Fraction(mu * mu, 4 * m)) for mu in range(1, m)]


def squared_determinant_translation(m: int) -> UnityExponent:
    """Translation exponent of the squared determinant of the theta tuple.

    Computed as twice the sum of the diagonal exponents; agrees with the
    closed form (m-1)(2m-1)/12 mod 1.
    """
    total = sum((2 * ev for ev in translation_eigenvalues(m)), UnityExponent(Fraction(0)))
    assert total == UnityExponent(Fraction((m - 1) * (2 * m - 1), 12))
    return total


def squared_determinant_delta_power(m: int) -> GammaCharacter:
    """The squared-determinant character as a power of the canonical generator."""
    return GammaCharacter((m - 1) * (2 * m - 1))

"""Root-of-unity exponent arithmetic in Q/Z for the translation action.

Roots of unity are never materialized as complex numbers: a value x in
[0, 1) stands for exp(2*pi*i*x), and multiplying roots adds exponents
mod 1.  This covers everything the translation tau -> tau + 1 does to the
series in this package.  A ``UnityExponent`` stores x as a reduced pair of integers num/den with
0 <= num < den, built directly from an integer pair such as (mu^2, 4m)
with one gcd; a ``Fraction`` is built only when ``value`` is read.
``odd_theta_exponents`` builds no series, so ``verify-characters`` loads
no series code.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .exact import _key_bound

_set = object.__setattr__


class NotAnEigenvector(ValueError):
    """Raised when a series is not an eigenvector of tau -> tau + 1."""


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


def odd_theta_exponents(m: int, q_trunc):
    """The translation eigenvalue of ``theta.odd_theta_series(ThetaIndex(m,
    mu), q_trunc)`` for each mu = 1..m-1, read in one pass over r with no
    series built: a generator of reduced pairs (num, den), raising what
    ``theta.translation_eigenvalue`` raises on that series.

    Each r below the key bound goes to its class c = r mod 2m, folded to
    2m - c when c > m (r and -r share the key r^2).  A column's first key
    fixes its residue mod 4m; as keys grow with r, the first that does not
    match is its least key off the class.  The pairs, or an error, are
    yielded in mu order once the pass is done.
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


def squared_determinant_translation(m: int) -> UnityExponent:
    """Translation exponent of the squared determinant of the theta tuple.

    Twice the sum of the diagonal exponents mu^2/4m, mu = 1..m-1, taken as
    the integer sum 2 * sum mu^2 over 4m and reduced once.  It agrees with
    the closed form (m-1)(2m-1)/12 mod 1, the translation value of
    ``squared_determinant_delta_power(m)``; ``verify-characters`` checks that.
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    return UnityExponent(2 * sum(mu * mu for mu in range(1, m)), 4 * m)


def squared_determinant_delta_power(m: int) -> GammaCharacter:
    """The squared-determinant character as a power of the canonical generator."""
    return GammaCharacter((m - 1) * (2 * m - 1))

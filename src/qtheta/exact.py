"""What the layers share and none computes: the exception of a failed check,
exact rationals as text and back, a window's grid key bound, the residues of
a theta class below it, and report cells.  It imports nothing from the
package, so any module loads it alone: the lattice sum of ``wronskian``
reads its residues here and loads no ``theta`` code."""

import math
from fractions import Fraction


class VerificationFailed(Exception):
    """An exact identity check failed; the message carries the first witness."""


def _key_bound(tn: int, td: int, denom: int) -> int | None:
    """The integer keys n on the 1/denom grid with n/denom < tn/td are those
    below this; None when the window is +infinity."""
    return -(-tn * denom // td) if td else None


def _residues(m: int, mu: int, bound: int) -> range:
    """All r = mu mod 2m with r^2 below the integer key bound, in increasing order."""
    if bound <= 0:
        return range(0)
    cap = math.isqrt(bound - 1)  # r^2 < bound iff |r| <= cap
    step = 2 * m
    return range((mu + cap) % step - cap, cap + 1, step)


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


ABSENT = ...  # the cell of a key a row lacks: a singleton of no JSON type, kept by pickle


def to_jsonable(value):
    """A report record's fields as a row under its ``_fields``; a field is a
    Fraction, int, bool, str or None."""
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, Fraction):
        return _rat_str(value)
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        return tuple([to_jsonable(field) for field in value])
    raise TypeError(f"cannot serialize {type(value).__name__}")

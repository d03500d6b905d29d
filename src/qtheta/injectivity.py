"""Exact bookkeeping for the injectivity theorem's hypotheses and side arithmetic.

Classifies a case (k, m, N) against the three applicability conditions of
the removal theorem for the top development operator.  The classifier also
evaluates the order-comparison window exactly on integers (every term
scaled by 2m) and builds the congruence text of a part-(ii)/(iii) case,
once per index m.  One side claim (that (m-2)(m-1)(2m-3)/m is never an
integer for m > 3) fails at m = 6, where ``classify`` accepts no case;
``nonintegrality_check`` surfaces it as a documented discrepancy and never
as a verification failure.  The arithmetic is done in one place,
``classify_levels``, which classifies one (k, m) on a list of levels.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import NamedTuple


class InvalidInput(ValueError):
    """Case parameters outside the theorem's hypotheses."""


def is_squarefree(n: int) -> bool:
    if n < 1:
        raise ValueError("n must be positive")
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        if n % d == 0:
            n //= d
        d += 1
    return True


class CaseInput(NamedTuple("CaseInput", [("k", int), ("m", int), ("N", int)])):
    """A candidate case: odd weight k >= 3, index m >= 3, level N >= 1."""

    __slots__ = ()

    def __new__(cls, k: int, m: int, N: int):
        if k % 2 == 0 or k < 3:
            raise InvalidInput("k must be an odd integer >= 3")
        if m < 3:
            raise InvalidInput("m must be at least 3")
        if N < 1:
            raise InvalidInput("N must be a positive integer")
        return super().__new__(cls, k, m, N)


class CaseVerdict(NamedTuple):
    """Applicability verdict and the proof-side arithmetic for one case."""

    k: int
    m: int
    N: int
    part_i: bool
    part_ii: bool
    part_iii: bool
    s: int
    r: int
    beta: int
    eta_exponent: int
    window_ok: bool
    congruence_details: str

    @property
    def any_part(self) -> bool:
        return self.part_i or self.part_ii or self.part_iii


class NonintegralityReport(NamedTuple):
    """Integrality status of (m-2)(m-1)(2m-3)/m, claimed non-integral for m > 3."""

    m: int
    value: Fraction
    is_integer: bool

    @property
    def discrepancy(self) -> bool:
        return self.is_integer


def nonintegrality_check(m: int) -> NonintegralityReport:
    """Report whether (m-2)(m-1)(2m-3)/m is an integer.

    The product is congruent to -6 mod m, so integrality holds exactly
    when m divides 6; for m > 3 that means m = 6, contradicting the
    blanket non-integrality claim.  The m = 6 case is flagged as a
    discrepancy but is informational only.
    """
    if m <= 3:
        raise ValueError("the check applies for m > 3")
    product = (m - 2) * (m - 1) * (2 * m - 3)
    return NonintegralityReport(m=m, value=Fraction(product, m), is_integer=product % m == 0)


@functools.lru_cache(maxsize=None)
def _congruence_details(m: int) -> str:
    """The congruence text of an accepted part-(ii)/(iii) case of index m.

    With s = m - k - 2 the sum k + 2m + s is 3m - 2, so the text reads the
    case only through m: part (ii) needs 3m - 2 = 1 (mod 6), part (iii)
    needs 3m - 2 != 3 (mod 12).  Both hold for every odd m.
    """
    total = 3 * m - 2
    residue6, residue12 = total % 6, total % 12
    return (f"3m-2={total} = {residue6} (mod 6) [{'ok' if residue6 == 1 else 'FAIL'}]; "
            f"3m-2={total} = {residue12} (mod 12), needs != 3 "
            f"[{'ok' if residue12 != 3 else 'FAIL'}]")


def classify(case: CaseInput) -> CaseVerdict:
    """Apply the three applicability conditions and fill the proof arithmetic.

    part (i): m - k >= 4, any level; (s, r) = (0, 2(m-k-2)), giving an
    even r > 2.  parts (ii)/(iii): m odd and m - k >= 2, with level
    square-free resp. 1; (s, r) = (m-k-2, 0).  When several parts apply
    the part-(i) choice of (s, r) is recorded.  beta = 2(k + 2m + s - 4);
    the eta exponent is (m-1)(2m-1).  ``classify_levels`` on the one level
    N, which does the arithmetic; N's square-freeness is tested here.
    """
    k, m, N = case
    return classify_levels(k, m, (N,), ((N == 1, is_squarefree(N)),))[0]


def level_classes(levels) -> list[tuple[bool, bool]]:
    """Each level's class: (N = 1, N square-free), one ``is_squarefree`` per level.

    A level below 1 raises ``InvalidInput``, as ``CaseInput`` does.
    """
    classes = []
    for n in levels:
        if n < 1:
            raise InvalidInput("N must be a positive integer")
        classes.append((n == 1, is_squarefree(n)))
    return classes


def _class_fields(k: int, m: int, keys) -> dict[tuple[bool, bool], tuple]:
    """The verdict fields after (k, m, N) of each level class (N = 1, N
    square-free) of ``keys``: the arithmetic of ``classify``, once per (k, m)
    and once per class.

    m - k, the eta exponent, part (i), whether parts (ii)/(iii) can hold
    (m odd and m - k >= 2), and the one (s, r) an accepted class takes, with
    its beta and window, depend on (k, m) alone.  A class's part-(ii)/(iii)
    flags pick an accepted case's fields, or a rejected one's: (s, r) =
    (0, 0) and no window.
    """
    mk = m - k
    lam = (m - 1) * (2 * m - 1)
    odd = m % 2 == 1 and mk >= 2
    part_i = mk >= 4
    s, r = (0, 2 * (mk - 2)) if part_i else (mk - 2, 0)
    beta = 2 * (k + 2 * m + s - 4)
    # every accepted case has m - k >= 2 and k >= 3, so m > 3.  The window
    # s + r/2 + 8 - 12/m > m - k > 2 + s + r/2 - 3/m and the choice
    # m - k = 2 + s + r/2, every term times 2m > 0, compared on integers;
    # a class that accepts no part drops it
    scaled = 2 * m * s + m * r
    middle = 2 * m * mk
    window_ok = middle == scaled + 4 * m and scaled + 16 * m - 24 > middle > scaled + 4 * m - 6
    fields = {}
    for key in keys:
        part_ii = odd and key[1]
        part_iii = odd and key[0]
        if part_ii or part_iii:
            fields[key] = (part_i, part_ii, part_iii, s, r, beta, lam, window_ok,
                           _congruence_details(m))
        elif part_i:
            fields[key] = (True, False, False, s, r, beta, lam, window_ok, "")
        else:
            fields[key] = (False, False, False, 0, 0, 2 * (k + 2 * m - 4), lam, False, "")
    return fields


def classify_levels(k: int, m: int, levels, classes=None) -> list[CaseVerdict]:
    """``[classify(CaseInput(k, m, N)) for N in levels]``, one field tuple per level class.

    A verdict reads N only through whether N is square-free (part ii) and
    whether N = 1 (part iii), so the levels fall into at most three classes,
    and each level's verdict is (k, m, N) plus its class's fields.  Without
    ``classes`` the case is checked as ``CaseInput`` checks it; a caller that
    classifies many (k, m) on levels already checked passes
    ``level_classes(levels)``, worked out once.
    """
    if classes is None:
        classes = level_classes(levels)
        if levels:
            CaseInput(k, m, levels[0])
    fields = _class_fields(k, m, dict.fromkeys(classes))
    new = tuple.__new__
    verdicts = []
    # the fields in order, through tuple.__new__: a sweep builds one verdict
    # per case, and the namedtuple's own __new__ is one more Python call
    for n, key in zip(levels, classes):
        verdicts.append(new(CaseVerdict, (k, m, n) + fields[key]))
    return verdicts

"""Exact bookkeeping for the injectivity theorem's hypotheses and side arithmetic.

Classifies a case (k, m, N) against the three applicability conditions of
the removal theorem for the top development operator, evaluates the
order-comparison window exactly on integers (every term scaled by 2m), and
checks the congruence and integrality side conditions.  One of those side
claims (that a certain ratio is never an integer for m > 3) fails at m = 6,
where ``classify`` accepts no case; ``nonintegrality_check`` surfaces it
as a documented discrepancy and never as a verification failure.

Each side condition is one small integer helper: ``_window_flags`` (the
three window comparisons on the 2m-scaled bounds), ``_congruence_total``
with ``_congruence_residue`` (3m - 2 after the parity check on s, and its
residue mod 6 or 12; ``_congruence_details`` builds their text once per m)
and ``_integrality_product`` ((m-2)(m-1)(2m-3), to be reduced mod m).
``window_check``, ``congruence_check`` and ``nonintegrality_check`` wrap
them in their report records; ``classify`` calls them directly, so a case
builds only its ``CaseVerdict``.

A verdict reads the level N only through whether N is square-free and
whether N = 1.  ``classify_levels`` classifies one (k, m) on a list of
levels with one ``classify`` call per such class, at most three, and gives
every other level of a class that verdict with its own N; ``classify``
stays the one place the arithmetic is done.  ``level_classes`` works out
the classes of a list of levels, so a sweep over many (k, m) tests each
level's square-freeness once.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import NamedTuple


class InvalidInput(ValueError):
    """Case parameters outside the theorem's hypotheses."""


class ParityError(ValueError):
    """Auxiliary weight s = m - k - 2 must be even; requires m odd when k is odd."""


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

    @property
    def squarefree_n(self) -> bool:
        return is_squarefree(self.N)


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


def _scaled_bounds(m: int, s: int, r: int) -> tuple[int, int]:
    """The window's upper and lower bounds multiplied by 2m, as integers."""
    base = 2 * m * s + m * r
    return base + 16 * m - 24, base + 4 * m - 6


class WindowReport(NamedTuple):
    """Exact evaluation of the order-comparison inequalities."""

    k: int
    m: int
    s: int
    r: int
    choice_ok: bool
    middle: int
    upper_ok: bool
    lower_ok: bool

    @property
    def upper_bound(self) -> Fraction:
        """s + r/2 + 8 - 12/m."""
        return Fraction(_scaled_bounds(self.m, self.s, self.r)[0], 2 * self.m)

    @property
    def lower_bound(self) -> Fraction:
        """2 + s + r/2 - 3/m."""
        return Fraction(_scaled_bounds(self.m, self.s, self.r)[1], 2 * self.m)

    @property
    def ok(self) -> bool:
        return self.choice_ok and self.upper_ok and self.lower_ok


def _window_flags(k: int, m: int, s: int, r: int) -> tuple[bool, bool, bool]:
    """(choice_ok, upper_ok, lower_ok) of the window, compared on integers scaled by 2m."""
    upper, lower = _scaled_bounds(m, s, r)
    scaled_middle = 2 * m * (m - k)
    return (scaled_middle == 4 * m + 2 * m * s + m * r,
            upper > scaled_middle, scaled_middle > lower)


def window_check(k: int, m: int, s: int, r: int) -> WindowReport:
    """Evaluate s + r/2 + 8 - 12/m > m - k > 2 + s + r/2 - 3/m exactly.

    Also confirms the equality m - k = 2 + s + r/2 that fixes the choice
    of (s, r).  Requires m > 3, where the window argument applies.  Every
    term is multiplied by 2m > 0, which clears the denominators 2 and m
    and keeps each inequality and the equality exactly as they were, so
    the comparisons run on integers; ``upper_bound`` and ``lower_bound``
    are rebuilt as Fractions only when read.
    """
    if m <= 3:
        raise ValueError("the window argument requires m > 3")
    choice_ok, upper_ok, lower_ok = _window_flags(k, m, s, r)
    return WindowReport(k=k, m=m, s=s, r=r, choice_ok=choice_ok, middle=m - k,
                        upper_ok=upper_ok, lower_ok=lower_ok)


class NonintegralityReport(NamedTuple):
    """Integrality status of (m-2)(m-1)(2m-3)/m, claimed non-integral for m > 3."""

    m: int
    value: Fraction
    is_integer: bool

    @property
    def discrepancy(self) -> bool:
        return self.is_integer


def _integrality_product(m: int) -> int:
    """(m-2)(m-1)(2m-3): the ratio over m is an integer exactly when m divides it."""
    return (m - 2) * (m - 1) * (2 * m - 3)


def nonintegrality_check(m: int) -> NonintegralityReport:
    """Report whether (m-2)(m-1)(2m-3)/m is an integer.

    The product is congruent to -6 mod m, so integrality holds exactly
    when m divides 6; for m > 3 that means m = 6, contradicting the
    blanket non-integrality claim.  The m = 6 case is flagged as a
    discrepancy but is informational only.
    """
    if m <= 3:
        raise ValueError("the check applies for m > 3")
    product = _integrality_product(m)
    return NonintegralityReport(m=m, value=Fraction(product, m), is_integer=product % m == 0)


class CongruenceReport(NamedTuple):
    """Residue witness for the part-(ii) or part-(iii) congruence condition."""

    part: str
    k: int
    m: int
    s: int
    residue: int
    modulus: int
    ok: bool


def _congruence_total(k: int, m: int) -> int:
    """3m - 2 = k + 2m + s with s = m - k - 2, once s is checked to be even and nonnegative."""
    if k % 2 == 0:
        raise InvalidInput("k must be odd")
    s = m - k - 2
    if s < 0:
        raise ValueError("requires m - k >= 2")
    if s % 2 != 0:
        raise ParityError(f"s = {s} is odd; m must be odd when k is odd")
    total = 3 * m - 2
    assert total == k + 2 * m + s
    return total


def _congruence_residue(part: str, total: int) -> tuple[int, int, bool]:
    """(residue, modulus, ok) of 3m - 2 for part (ii) (= 1 mod 6) or (iii) (!= 3 mod 12)."""
    if part == "ii":
        residue = total % 6
        return residue, 6, residue == 1
    residue = total % 12
    return residue, 12, residue != 3


@functools.lru_cache(maxsize=None)
def _congruence_details(total: int) -> str:
    """The congruence text of an accepted part-(ii)/(iii) case: it reads the
    case only through total = 3m - 2, so it is built once per index m."""
    residue6, _, ok6 = _congruence_residue("ii", total)
    residue12, _, ok12 = _congruence_residue("iii", total)
    return (f"3m-2={total} = {residue6} (mod 6) [{'ok' if ok6 else 'FAIL'}]; "
            f"3m-2={total} = {residue12} (mod 12), needs != 3 [{'ok' if ok12 else 'FAIL'}]")


def congruence_check(part: str, k: int, m: int) -> CongruenceReport:
    """Check the congruence that 3m - 2 = k + 2m + s must satisfy.

    With s = m - k - 2 the sum k + 2m + s collapses to 3m - 2.  Part (ii)
    requires 3m - 2 = 1 (mod 6); part (iii) requires 3m - 2 != 3 (mod 12).
    Both hold for every odd m, which the sweep command verifies
    exhaustively.  Raises ParityError when s is odd (the auxiliary form of
    weight s needs s even, forcing m odd for odd k).
    """
    if part not in ("ii", "iii"):
        raise ValueError("part must be 'ii' or 'iii'")
    total = _congruence_total(k, m)
    return CongruenceReport(part, k, m, m - k - 2, *_congruence_residue(part, total))


def classify(case: CaseInput, squarefree: bool | None = None) -> CaseVerdict:
    """Apply the three applicability conditions and fill the proof arithmetic.

    part (i): m - k >= 4, any level; (s, r) = (0, 2(m-k-2)), giving an
    even r > 2.  parts (ii)/(iii): m odd and m - k >= 2, with level
    square-free resp. 1; (s, r) = (m-k-2, 0).  When several parts apply
    the part-(i) choice of (s, r) is recorded.  beta = 2(k + 2m + s - 4);
    the eta exponent is (m-1)(2m-1).  ``squarefree`` is whether N is
    square-free, from a caller that has tested it already; None tests it.
    """
    k, m, N = case
    if squarefree is None:
        squarefree = case.squarefree_n
    mk = m - k
    part_i = mk >= 4
    part_ii = m % 2 == 1 and mk >= 2 and squarefree
    part_iii = N == 1 and m % 2 == 1 and mk >= 2
    if part_i:
        s, r = 0, 2 * (mk - 2)
    elif part_ii or part_iii:
        s, r = mk - 2, 0
    else:
        s, r = 0, 0
    beta = 2 * (k + 2 * m + s - 4)
    lam = (m - 1) * (2 * m - 1)
    window_ok = False
    details = ""
    if part_i or part_ii or part_iii:
        # every accepted case has m - k >= 2 and k >= 3, so m > 3
        window_ok = all(_window_flags(k, m, s, r))
        if part_ii or part_iii:
            details = _congruence_details(_congruence_total(k, m))
    # the fields in order, through tuple.__new__: a sweep builds one verdict
    # per case, and the namedtuple's own __new__ is one more Python call
    return tuple.__new__(CaseVerdict, (k, m, N, part_i, part_ii, part_iii, s, r, beta, lam,
                                       window_ok, details))


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


def classify_levels(k: int, m: int, levels, classes=None) -> list[CaseVerdict]:
    """``[classify(CaseInput(k, m, N)) for N in levels]``, one verdict per level class.

    A verdict reads N only through two facts, whether N is square-free
    (part ii) and whether N = 1 (part iii), so the levels fall into at
    most three classes: 1, the other square-free levels, the rest.  The
    first level of each class is classified; every later level of the
    class takes that verdict with its own N.

    Without ``classes`` each first level goes through
    ``classify(CaseInput(k, m, N))``.  A caller that classifies many
    (k, m) on the same levels, each already checked as ``CaseInput``
    checks it, passes ``level_classes(levels)``, worked out once: a first
    level's case is then built unvalidated and classified on its known
    square-freeness, which is not tested a second time.
    """
    trusted = classes is not None
    if not trusted:
        classes = level_classes(levels)
    verdicts = []
    by_class: dict[tuple[bool, bool], CaseVerdict] = {}
    for n, key in zip(levels, classes):
        verdict = by_class.get(key)
        if verdict is None:
            verdict = by_class[key] = (
                classify(tuple.__new__(CaseInput, (k, m, n)), key[1]) if trusted
                else classify(CaseInput(k, m, n)))
        else:
            verdict = tuple.__new__(CaseVerdict, (k, m, n) + verdict[3:])
        verdicts.append(verdict)
    return verdicts

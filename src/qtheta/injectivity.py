"""Exact bookkeeping for the injectivity theorem's hypotheses and side arithmetic.

Classifies a case (k, m, N) against the three applicability conditions of
the removal theorem for the top development operator, evaluates the
order-comparison window exactly on integers (every term scaled by 2m), and
checks the congruence and integrality side conditions.  One of those side
claims (that a certain ratio is never an integer for m > 3) fails at m = 6;
this is surfaced as a documented discrepancy flag and never as a
verification failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction


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


@dataclass(frozen=True)
class CaseInput:
    """A candidate case: odd weight k >= 3, index m >= 3, level N >= 1."""

    k: int
    m: int
    N: int

    def __post_init__(self):
        if self.k % 2 == 0 or self.k < 3:
            raise InvalidInput("k must be an odd integer >= 3")
        if self.m < 3:
            raise InvalidInput("m must be at least 3")
        if self.N < 1:
            raise InvalidInput("N must be a positive integer")

    @property
    def squarefree_n(self) -> bool:
        return is_squarefree(self.N)


@dataclass(frozen=True)
class CaseVerdict:
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
    discrepancy_flags: tuple[str, ...] = field(default_factory=tuple)

    @property
    def any_part(self) -> bool:
        return self.part_i or self.part_ii or self.part_iii


def _scaled_bounds(m: int, s: int, r: int) -> tuple[int, int]:
    """The window's upper and lower bounds multiplied by 2m, as integers."""
    base = 2 * m * s + m * r
    return base + 16 * m - 24, base + 4 * m - 6


@dataclass(frozen=True)
class WindowReport:
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
    upper, lower = _scaled_bounds(m, s, r)
    middle = m - k
    scaled_middle = 2 * m * middle
    return WindowReport(
        k=k, m=m, s=s, r=r,
        choice_ok=(scaled_middle == 4 * m + 2 * m * s + m * r),
        middle=middle,
        upper_ok=(upper > scaled_middle),
        lower_ok=(scaled_middle > lower),
    )


@dataclass(frozen=True)
class NonintegralityReport:
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


@dataclass(frozen=True)
class CongruenceReport:
    """Residue witness for the part-(ii) or part-(iii) congruence condition."""

    part: str
    k: int
    m: int
    s: int
    residue: int
    modulus: int
    ok: bool


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
    if k % 2 == 0:
        raise InvalidInput("k must be odd")
    s = m - k - 2
    if s < 0:
        raise ValueError("requires m - k >= 2")
    if s % 2 != 0:
        raise ParityError(f"s = {s} is odd; m must be odd when k is odd")
    total = 3 * m - 2
    assert total == k + 2 * m + s
    if part == "ii":
        residue = total % 6
        return CongruenceReport(part, k, m, s, residue, 6, residue == 1)
    residue = total % 12
    return CongruenceReport(part, k, m, s, residue, 12, residue != 3)


def classify(case: CaseInput) -> CaseVerdict:
    """Apply the three applicability conditions and fill the proof arithmetic.

    part (i): m - k >= 4, any level; (s, r) = (0, 2(m-k-2)), giving an
    even r > 2.  parts (ii)/(iii): m odd and m - k >= 2, with level
    square-free resp. 1; (s, r) = (m-k-2, 0).  When several parts apply
    the part-(i) choice of (s, r) is recorded.  beta = 2(k + 2m + s - 4);
    the eta exponent is (m-1)(2m-1).
    """
    k, m, N = case.k, case.m, case.N
    mk = m - k
    part_i = mk >= 4
    part_ii = case.squarefree_n and m % 2 == 1 and mk >= 2
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
    if part_i or part_ii or part_iii:
        window_ok = window_check(k, m, s, r).ok
    details = []
    if part_ii or part_iii:
        con2 = congruence_check("ii", k, m)
        details.append(f"3m-2={3 * m - 2} = {con2.residue} (mod 6)"
                       f" [{'ok' if con2.ok else 'FAIL'}]")
        con3 = congruence_check("iii", k, m)
        details.append(f"3m-2={3 * m - 2} = {con3.residue} (mod 12), needs != 3"
                       f" [{'ok' if con3.ok else 'FAIL'}]")
    flags = []
    if m > 3 and (part_i or part_ii or part_iii):
        report = nonintegrality_check(m)
        if report.discrepancy:
            flags.append(
                f"m={m}: (m-2)(m-1)(2m-3)/m = {report.value} is an integer; "
                "the non-integrality claim fails here")
    return CaseVerdict(
        k=k, m=m, N=N,
        part_i=part_i, part_ii=part_ii, part_iii=part_iii,
        s=s, r=r, beta=beta, eta_exponent=lam,
        window_ok=window_ok,
        congruence_details="; ".join(details),
        discrepancy_flags=tuple(flags),
    )

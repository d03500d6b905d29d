"""Shared generators and brute-force oracles for the test suite."""

from __future__ import annotations

import importlib.util
import math
import sys
from fractions import Fraction
from pathlib import Path

from qtheta import (CaseVerdict, InvariantViolation, PuiseuxSeries, ThetaIndex, ThetaTwoVar, dot,
                    is_squarefree, odd_theta_series, theta_series)


def random_series(rng, trunc, base_denom=4, max_terms=5, lowest=0):
    """Sparse random series on the grid (1/base_denom)*Z below ``trunc``."""
    trunc = Fraction(trunc)
    lo = int(lowest * base_denom)
    hi = int(trunc * base_denom)
    terms = {}
    if hi > lo:
        count = rng.randint(0, max_terms)
        for numerator in rng.sample(range(lo, hi), min(count, hi - lo)):
            coeff = Fraction(rng.choice([c for c in range(-9, 10) if c]),
                             rng.randint(1, 5))
            terms[Fraction(numerator, base_denom)] = coeff
    return PuiseuxSeries(terms, trunc, base_denom)


def convolve(a: PuiseuxSeries, b: PuiseuxSeries, window) -> dict:
    """Brute-force dict product of the known terms, cut below ``window``.

    Independent of PuiseuxSeries arithmetic: operates on plain dicts.
    """
    window = Fraction(window)
    out: dict[Fraction, Fraction] = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            e = ea + eb
            if e < window:
                out[e] = out.get(e, Fraction(0)) + ca * cb
    return {e: c for e, c in out.items() if c}


def long_division(a: PuiseuxSeries, b: PuiseuxSeries) -> PuiseuxSeries:
    """a / b by sparse long division in Fractions: the tests' one quotient oracle.

    Independent of the package, which divides a series by scalars only.  The
    quotient's term at e needs a at e + ord b and b up to e + ord b - ord(a/b),
    so its window is min(trunc a - ord b, trunc b - 2 ord b + ord a), and
    +infinity for an empty dividend of infinite window.  On an infinite
    window the quotient must be a finite series, or the loop never ends.
    """
    divisor = sorted(b.terms.items())
    if not divisor:
        raise ZeroDivisionError("divisor has no nonzero term below its truncation")
    (ord_b, lead), higher = divisor[0], divisor[1:]
    rem = dict(a.terms)
    trunc = a.trunc - ord_b
    if rem:
        trunc = min(trunc, b.trunc - 2 * ord_b + min(rem))
    out = {}
    while rem:
        e = min(rem)
        if e - ord_b >= trunc:
            break
        c = rem.pop(e) / lead
        out[e - ord_b] = c
        for eb, cb in higher:
            target = e - ord_b + eb
            if target - ord_b >= trunc:
                break
            value = rem.get(target, 0) - c * cb
            if value:
                rem[target] = value
            else:
                rem.pop(target, None)
    return PuiseuxSeries(out, trunc, math.lcm(a.base_denom, b.base_denom))


def assert_agree(a: PuiseuxSeries, b: PuiseuxSeries):
    """Exact coefficient equality below the common certified window."""
    diff = a - b
    assert diff.is_zero(), f"first mismatch at {diff.ord_infty()}: {diff.leading_term()}"


def assert_same_store(a, b):
    """Store for store equality: type, integer terms, shared denominator, grid and window."""
    assert type(a) is type(b)
    assert (a._terms, a._den, a.base_denom, a._tn, a._td) == \
        (b._terms, b._den, b.base_denom, b._tn, b._td)


def q_derivative_iterate(s: PuiseuxSeries, n: int) -> PuiseuxSeries:
    """(q d/dq)^n s, one ``q_derivative`` at a time."""
    for _ in range(n):
        s = s.q_derivative()
    return s


def oracle_component_taylor(h, nu) -> PuiseuxSeries:
    """sum_mu h_mu * (q d/dq)^(nu-1) theta_mu, every odd theta series built
    afresh on its window trunc h_mu + mu^2/4m and derived nu - 1 times: the
    rebuild per tuple and per nu that ``jacobi.component_taylor`` caches."""
    m = h.index_m
    thetas = [q_derivative_iterate(odd_theta_series(ThetaIndex(m, mu),
                                                    series.trunc + Fraction(mu * mu, 4 * m)),
                                   nu - 1)
              for mu, series in enumerate(h.components, start=1)]
    return dot(h.components, thetas)


def oracle_from_theta_components(h, q_trunc) -> ThetaTwoVar:
    """The fold total + pair.mul_series(h_mu) from the empty series on
    q_trunc, each pair theta_{m,mu} - theta_{m,-mu} built afresh; a zero
    component whose window reaches q_trunc is skipped."""
    m = h.index_m
    q_trunc = Fraction(q_trunc)
    total = ThetaTwoVar({}, q_trunc, 4 * m)
    for mu, series in enumerate(h.components, start=1):
        if series.is_zero() and series.trunc >= q_trunc:
            continue
        idx = ThetaIndex(m, mu)
        pair = theta_series(idx, q_trunc) - theta_series(idx.negate(), q_trunc)
        total = total + pair.mul_series(series)
    return total


def oracle_taylor(tv: ThetaTwoVar, nu: int) -> PuiseuxSeries:
    """sum of c * r^(2nu-1) / (2nu-1)! per q-exponent, in Fractions over
    ``tv.terms``; independent of the package's integer moment pass."""
    order = 2 * nu - 1
    out: dict[Fraction, Fraction] = {}
    for (e, r), c in tv.terms.items():
        out[e] = out.get(e, Fraction(0)) + c * r ** order / math.factorial(order)
    return PuiseuxSeries(out, tv.q_trunc, tv.base_denom)


def oracle_jacobi_table(text: str):
    """(header, coeffs, orbit values) of a coefficient table, on the Fraction
    route ``jacobi.parse_jacobi_table`` took before tables were read on int
    pairs: every value a Fraction, the header (k, m, N, trunc), and the same
    checks, in the same order and with the same messages; a line that does
    not parse, or repeats an earlier line's (n, r), is named by its number,
    blank lines counted, and its text."""
    def rational(text):
        if "/" in text:
            num, den = (int(part) for part in text.split("/", 1))
            if den == 0:
                raise ValueError(f"zero denominator in {text!r}")
            return Fraction(num, den)
        return Fraction(int(text))

    numbered = [(i, ln) for i, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not numbered:
        raise ValueError("empty coefficient table")
    table = {}
    number, ln = numbered[0]
    try:
        fields = dict(part.split("=", 1) for part in ln.split())
        missing = [key for key in ("k", "m", "N", "trunc") if key not in fields]
        if missing:
            raise ValueError(f"header has no {missing[0]}= field")
        k, m, level, n_trunc = int(fields["k"]), int(fields["m"]), int(fields["N"]), \
            rational(fields["trunc"])
        for number, ln in numbered[1:]:
            n_text, r_text, c_text = ln.split()
            n, r = int(n_text), int(r_text)
            if (n, r) in table:
                raise ValueError(f"c({n},{r}) is repeated")
            table[(n, r)] = rational(c_text)
    except ValueError as error:
        raise ValueError(f"line {number} {ln.strip()!r}: {error}") from None
    if k < 1 or k % 2 == 0:
        raise InvariantViolation("weight_k must be a positive odd integer")
    if m < 1 or level < 1:
        raise InvariantViolation("index_m and level_N must be positive")
    if n_trunc <= 0:
        raise InvariantViolation("n_trunc must be positive")
    n_cap = math.ceil(n_trunc)
    stored, orbit = {}, {}
    for (n, r), c in table.items():
        if not c:
            continue
        if n < 0:
            raise InvariantViolation(f"negative Fourier index n={n}")
        if n >= n_cap:
            continue
        disc = 4 * m * n - r * r
        if disc < 0:
            raise InvariantViolation(f"coefficient at (n={n}, r={r}) violates 4mn >= r^2")
        key = (r % (2 * m), disc)
        if key in orbit and orbit[key] != c:
            raise InvariantViolation(
                f"c({n},{r}) = {c} conflicts with class {key} value {orbit[key]}")
        orbit[key] = c
        stored[(n, r)] = c
    for (mu, disc), value in orbit.items():
        if orbit.get(((-mu) % (2 * m), disc), Fraction(0)) != -value:
            raise InvariantViolation(f"odd symmetry fails for class (mu={mu}, disc={disc})")
    for n in range(n_cap):
        r_cap = math.isqrt(4 * m * n)
        for r in range(-r_cap, r_cap + 1):
            expected = orbit.get((r % (2 * m), 4 * m * n - r * r), Fraction(0))
            if stored.get((n, r), Fraction(0)) != expected:
                raise InvariantViolation(f"c({n},{r}) must depend only on "
                                         f"(r mod 2m, 4mn - r^2); expected {expected}")
    return (k, m, level, n_trunc), stored, orbit


def oracle_theta_components(m: int, n_trunc, orbit) -> list[PuiseuxSeries]:
    """h_1..h_(m-1) of a table's Fraction class values, through the
    validating constructor on Fraction exponents."""
    return [PuiseuxSeries({Fraction(disc, 4 * m): value
                           for (cls_mu, disc), value in orbit.items() if cls_mu == mu},
                          n_trunc - Fraction(mu * mu, 4 * m), base_denom=4 * m)
            for mu in range(1, m)]


def perfbench_workloads():
    """The benchmark's ``workloads`` module, loaded from its file: its
    ``jacobi_table`` writes dense tables with plain integer arithmetic."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location(name, path)
        sys.modules[name] = importlib.util.module_from_spec(spec)  # its dataclasses look it up
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def laplace_det(rows):
    """Determinant by Laplace expansion along the first row.

    Independent of SeriesMatrix: recursion on plain lists of series.
    """
    if len(rows) == 1:
        return rows[0][0]
    acc = None
    for j, entry in enumerate(rows[0]):
        term = entry * laplace_det([row[:j] + row[j + 1:] for row in rows[1:]])
        term = term if j % 2 == 0 else -term
        acc = term if acc is None else acc + term
    return acc


def matmul(a, b):
    """The product of two matrices given as lists of rows of series."""
    out = []
    for row in a:
        out_row = []
        for j in range(len(b[0])):
            acc = None
            for t, entry in enumerate(row):
                term = entry * b[t][j]
                acc = term if acc is None else acc + term
            out_row.append(acc)
        out.append(out_row)
    return out


def window_bounds(m: int, s: int, r: int) -> tuple[Fraction, Fraction, Fraction]:
    """The window's bounds s + r/2 + 8 - 12/m and 2 + s + r/2 - 3/m, and
    the choice point 2 + s + r/2, in Fractions as the theorem writes them."""
    half = s + Fraction(r, 2)
    return half + 8 - Fraction(12, m), 2 + half - Fraction(3, m), 2 + half


def congruence_text(m: int) -> str:
    """The congruence text of a part-(ii)/(iii) case: 3m - 2 mod 6 and mod 12."""
    total = 3 * m - 2
    mod6, mod12 = total % 6, total % 12
    return (f"3m-2={total} = {mod6} (mod 6) [{'ok' if mod6 == 1 else 'FAIL'}]; "
            f"3m-2={total} = {mod12} (mod 12), needs != 3 [{'ok' if mod12 != 3 else 'FAIL'}]")


def oracle_verdict(k: int, m: int, N: int) -> CaseVerdict:
    """The verdict of (k, m, N) from the theorem's conditions, in Fractions.

    Independent of ``qtheta.injectivity``: square-freeness by trial
    division, the window as s + r/2 + 8 - 12/m > m - k > 2 + s + r/2 - 3/m
    with m - k = 2 + s + r/2, and the congruence text from 3m - 2.
    """
    squarefree = all(N % (d * d) for d in range(2, math.isqrt(N) + 1))
    part_i = m - k >= 4
    part_ii = squarefree and m % 2 == 1 and m - k >= 2
    part_iii = N == 1 and m % 2 == 1 and m - k >= 2
    if part_i:
        s, r = 0, 2 * (m - k - 2)
    elif part_ii or part_iii:
        s, r = m - k - 2, 0
    else:
        s, r = 0, 0
    window_ok = False
    if part_i or part_ii or part_iii:
        upper, lower, choice = window_bounds(m, s, r)
        window_ok = upper > m - k > lower and m - k == choice
    return CaseVerdict(k=k, m=m, N=N, part_i=part_i, part_ii=part_ii, part_iii=part_iii,
                       s=s, r=r, beta=2 * (k + 2 * m + s - 4),
                       eta_exponent=(m - 1) * (2 * m - 1), window_ok=window_ok,
                       congruence_details=congruence_text(m) if part_ii or part_iii else "")


def oracle_classify(k: int, m: int, N: int, squarefree: bool | None = None) -> CaseVerdict:
    """The verdict of (k, m, N) by the classifier's integer arithmetic, one case at a time.

    The per-case body ``injectivity.classify`` had before (k, m) and the level
    classes were worked out once each: every field from scratch, the window on
    2m-scaled integers, the congruence text from ``congruence_text``.
    """
    if squarefree is None:
        squarefree = is_squarefree(N)
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
    window_ok = False
    details = ""
    if part_i or part_ii or part_iii:
        scaled = 2 * m * s + m * r
        middle = 2 * m * mk
        window_ok = (middle == scaled + 4 * m
                     and scaled + 16 * m - 24 > middle > scaled + 4 * m - 6)
        if part_ii or part_iii:
            details = congruence_text(m)
    return CaseVerdict(k, m, N, part_i, part_ii, part_iii, s, r, 2 * (k + 2 * m + s - 4),
                       (m - 1) * (2 * m - 1), window_ok, details)

"""Theta-derivative matrices, modular Wronskians, and their verification.

The central object for index m is the (m-1) x (m-1) matrix whose (j, mu)
entry is (q d/dq)^(j-1) applied to the odd theta series of residue mu.
Its determinant is the Wronskian W that every check and every
``--dump-series`` file uses.  ``theta_wronskian`` computes it as a lattice
sum: the determinant is multilinear in the columns, and column mu is a
sum over r = mu mod 2m, so W is the sum over tuples (r_1, ..., r_{m-1})
of prod r_mu times the Vandermonde product of the r_mu^2/4m, at exponent
sum r_mu^2/4m.  The sum is exact at every exponent; the series reports
the window the series-matrix determinant certifies for the same input,
q_trunc + (m-1)(2m-1)/24 - (m-1)^2/4m once q_trunc passes (m-1)^2/4m
(for m > 2), and q_trunc otherwise, so reports and dumps do not depend
on the route.  That W is a multiple of eta^((m-1)(2m-1)), the eta power
of dimension dim C_(m-1), is the type-C Macdonald identity (Macdonald,
"Affine root systems and Dedekind's eta-function", Invent. Math. 15,
1972).

W also agrees exactly with the modular Wronskian det(F, DF, D^2 F, ...,
D^(m-2) F) built from the weight-stepping modular derivative (row
reduction removes the Eisenstein corrections without changing the
determinant when derivatives are normalized as q d/dq).  That route
(``modular_wronskian``) and ``SeriesMatrix.det`` are kept as independent
oracles for the tests.

The verification entry points certify, on an explicit exponent window,
that W is a constant multiple of the Dedekind eta function raised to
(m-1)(2m-1), and that the vanishing orders and leading coefficients of
the determinant and its last-row cofactors match the closed Vandermonde
formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .jacobi import ThetaComponents
from .modforms import HalfIntWeight, eta_power, modular_derivative
from .series import INFINITY, PuiseuxSeries
from .theta import ThetaIndex, _residues, odd_theta_series, total_theta_order


class VerificationFailed(Exception):
    """An exact identity check failed; the message carries the first witness."""


def eta_power_exponent(m: int) -> int:
    """The eta exponent (m-1)(2m-1) attached to index m."""
    return (m - 1) * (2 * m - 1)


def vandermonde(nodes: list[Fraction]) -> Fraction:
    """prod_{i<j} (a_j - a_i)."""
    out = Fraction(1)
    for j in range(len(nodes)):
        for i in range(j):
            out *= nodes[j] - nodes[i]
    return out


def _dot(xs, ys) -> PuiseuxSeries:
    """sum_i xs[i] * ys[i], accumulated left to right."""
    acc = None
    for x, y in zip(xs, ys):
        term = x * y
        acc = term if acc is None else acc + term
    return acc


class SeriesMatrix:
    """Rectangular matrix of PuiseuxSeries with exact determinant machinery."""

    def __init__(self, entries):
        rows = [list(row) for row in entries]
        if not rows or not rows[0]:
            raise ValueError("matrix must be nonempty")
        cols = len(rows[0])
        if any(len(row) != cols for row in rows):
            raise ValueError("matrix rows must have equal length")
        self.rows = len(rows)
        self.cols = cols
        self.entries = rows

    def entry(self, i: int, j: int) -> PuiseuxSeries:
        return self.entries[i][j]

    def __matmul__(self, other: SeriesMatrix) -> SeriesMatrix:
        if self.cols != other.rows:
            raise ValueError("inner dimensions differ")
        return SeriesMatrix([[_dot(row, [other.entries[t][j] for t in range(other.rows)])
                              for j in range(other.cols)] for row in self.entries])

    def _prefix_minors(self, size: int) -> dict[int, PuiseuxSeries]:
        """Determinants of all submatrices on rows 0..s-1 and column sets of size s.

        Keyed by column bitmask; computed bottom-up by expansion along the
        last row of each submatrix.  Every minor in this module comes from
        here: cofactors (and through them det), adjugate, partial kernels.
        """
        minors: dict[int, PuiseuxSeries] = {}
        for j in range(self.cols):
            minors[1 << j] = self.entries[0][j]
        current = list(minors)
        for s in range(2, size + 1):
            nxt: dict[int, PuiseuxSeries] = {}
            seen = set()
            for mask in current:
                for j in range(self.cols):
                    bit = 1 << j
                    if mask & bit:
                        continue
                    full = mask | bit
                    if full in seen:
                        continue
                    seen.add(full)
                    acc = None
                    position = 0
                    for c in range(self.cols):
                        cbit = 1 << c
                        if not full & cbit:
                            continue
                        sign = 1 if (s - 1 + position) % 2 == 0 else -1
                        term = sign * (self.entries[s - 1][c] * minors[full ^ cbit])
                        acc = term if acc is None else acc + term
                        position += 1
                    nxt[full] = acc
            minors = nxt
            current = list(minors)
        return minors

    def det(self) -> PuiseuxSeries:
        """Expansion of the last row against ``last_row_cofactors()``."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        return _dot(self.entries[-1], self.last_row_cofactors())

    def last_row_cofactors(self) -> list[PuiseuxSeries]:
        """Signed cofactors along the last row, scaled so that
        det(M) * (last column of M^-1) equals this vector."""
        if self.rows != self.cols:
            raise ValueError("cofactors of a non-square matrix")
        n = self.rows
        if n == 1:
            return [PuiseuxSeries.one()]
        minors = self._prefix_minors(n - 1)
        full = (1 << n) - 1
        out = []
        for j in range(n):
            sign = 1 if (n - 1 + j) % 2 == 0 else -1
            out.append(sign * minors[full ^ (1 << j)])
        return out

    def adjugate(self) -> SeriesMatrix:
        """adj(M) with M @ adj(M) = det(M) * identity."""
        if self.rows != self.cols:
            raise ValueError("adjugate of a non-square matrix")
        n = self.rows
        if n == 1:
            return SeriesMatrix([[PuiseuxSeries.one()]])
        adj = [[None] * n for _ in range(n)]
        for deleted in range(n):
            sub = SeriesMatrix([self.entries[i] for i in range(n) if i != deleted])
            minors = sub._prefix_minors(n - 1)
            full = (1 << n) - 1
            for j in range(n):
                sign = 1 if (deleted + j) % 2 == 0 else -1
                adj[j][deleted] = sign * minors[full ^ (1 << j)]
        return SeriesMatrix(adj)


def theta_derivative_matrix(m: int, q_trunc) -> SeriesMatrix:
    """Entry (j, mu) = (q d/dq)^(j-1) odd theta series of residue mu, both 1..m-1."""
    if m < 2:
        raise ValueError("m must be at least 2")
    base = [odd_theta_series(ThetaIndex(m, mu), q_trunc) for mu in range(1, m)]
    rows = [base]
    for _ in range(m - 2):
        rows.append([entry.q_derivative() for entry in rows[-1]])
    return SeriesMatrix(rows)


def theta_wronskian(m: int, q_trunc) -> PuiseuxSeries:
    """det(theta_derivative_matrix(m, q_trunc)) as the lattice sum above.

    Each tuple (r_1, ..., r_{m-1}) with r_mu = mu mod 2m adds
    prod r_mu * V(r_1^2, ..., r_{m-1}^2) at exponent sum r_mu^2/4m, in
    integers; the sum is divided once by (4m)^C(m-1, 2).  The tuples are
    enumerated depth first, cut where the partial sum of r^2 plus the
    least sum the remaining classes can add reaches the window.  The
    window is the determinant's: past (m-1)^2/4m, the first exponent of
    the last column, the product rules lift q_trunc by the orders of the
    other columns.
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    trunc = Fraction(q_trunc)
    low = Fraction((m - 1) ** 2, 4 * m)
    if m > 2 and trunc > low:
        trunc += Fraction(eta_power_exponent(m), 24) - low
    grid = 4 * m
    bound = math.ceil(grid * trunc)  # an integer sum of r^2 is < grid*trunc iff < bound
    n = m - 1
    # rest[k]: the least sum of r^2 over the classes after class k + 1
    rest = [sum(nu * nu for nu in range(k + 2, m)) for k in range(n)]
    candidates = [sorted(_residues(m, mu, Fraction(bound - rest[mu - 1], grid)),
                         key=abs) for mu in range(1, m)]
    sums: dict[int, int] = {}

    def descend(k: int, total: int, weight: int, squares: list[int]) -> None:
        room = bound - rest[k] - total
        last = k == n - 1
        for r in candidates[k]:
            s = r * r
            if s >= room:
                break
            w = weight * r
            for t in squares:
                w *= s - t
            if last:
                sums[total + s] = sums.get(total + s, 0) + w
            else:
                descend(k + 1, total + s, w, squares + [s])

    descend(0, 0, 1, [])
    scale = grid ** math.comb(n, 2)
    return PuiseuxSeries({Fraction(e, grid): Fraction(c, scale)
                          for e, c in sorted(sums.items()) if c}, trunc, grid)


def modular_wronskian(m: int, q_trunc) -> PuiseuxSeries:
    """det(F, DF, ..., D^(m-2)F) for the odd theta tuple F, weights from 3/2.

    Equal to det(theta_derivative_matrix(m, q_trunc)) because each modular
    derivative column differs from the plain q d/dq column by multiples of
    earlier columns.
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    base = [odd_theta_series(ThetaIndex(m, mu), q_trunc) for mu in range(1, m)]
    columns = [base]
    for step in range(1, m - 1):
        weight = HalfIntWeight(3 + 4 * (step - 1))
        columns.append([modular_derivative(entry, weight) for entry in columns[-1]])
    return SeriesMatrix(columns).det()


@dataclass(frozen=True)
class WronskianReport:
    """Certified comparison of the index-m Wronskian with its eta power."""

    index_m: int
    eta_exponent: int
    ord_w: Fraction
    ord_w_expected: Fraction
    leading_coeff: Fraction
    leading_expected: Fraction
    constant: Fraction
    residual_max_exponent_checked: Fraction
    residual_all_zero: bool

    @property
    def passed(self) -> bool:
        return (self.residual_all_zero and self.constant != 0
                and self.ord_w == self.ord_w_expected
                and self.leading_coeff == self.leading_expected)


def verify_eta_power(m: int, q_trunc) -> WronskianReport:
    """Certify W = constant * eta^((m-1)(2m-1)) below the requested window.

    The Wronskian and the eta power are generated with enough headroom
    (the eta power shifts the window by its vanishing order, plus slack 2)
    so the quotient is certified strictly beyond ``q_trunc``.  Raises
    VerificationFailed with the first offending exponent if any residual
    coefficient is nonzero, if the constant cannot be observed, or if the
    order or leading coefficient disagrees with the Vandermonde formula.
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    q_trunc = Fraction(q_trunc)
    if q_trunc <= 0:
        raise ValueError("q_trunc must be positive")
    lam = eta_power_exponent(m)
    internal = q_trunc + Fraction(lam, 24) + 2
    wronskian = theta_wronskian(m, internal)
    quotient = wronskian / eta_power(internal, lam)

    ord_w = wronskian.ord_infty()
    ord_expected = total_theta_order(m)
    nodes = [Fraction(mu * mu, 4 * m) for mu in range(1, m)]
    leading_expected = Fraction(math.factorial(m - 1)) * vandermonde(nodes)
    lead = wronskian.leading_term()
    if lead is None:
        raise VerificationFailed(
            f"m={m}: Wronskian has no nonzero term below {internal}")
    constant = quotient.coefficient(0)
    if constant == 0:
        raise VerificationFailed(
            f"m={m}: quotient by the eta power has no constant term")
    residual = sorted(e for e in quotient.terms if e != 0)
    if residual:
        e = residual[0]
        raise VerificationFailed(
            f"m={m}: residual coefficient {quotient.coefficient(e)} at exponent {e}")
    if ord_w != ord_expected:
        raise VerificationFailed(
            f"m={m}: ord(W) = {ord_w}, expected {ord_expected}")
    if lead[1] != leading_expected:
        raise VerificationFailed(
            f"m={m}: leading coefficient {lead[1]}, expected {leading_expected}")
    return WronskianReport(
        index_m=m,
        eta_exponent=lam,
        ord_w=ord_w,
        ord_w_expected=ord_expected,
        leading_coeff=lead[1],
        leading_expected=leading_expected,
        constant=constant,
        residual_max_exponent_checked=Fraction(quotient.trunc),
        residual_all_zero=True,
    )


@dataclass(frozen=True)
class CofactorOrderReport:
    """Order and leading-coefficient check for one last-row cofactor."""

    index_m: int
    nu: int
    ord_cofactor: Fraction
    ord_expected: Fraction
    leading_coeff: Fraction
    leading_expected_abs: Fraction
    sign: int

    @property
    def passed(self) -> bool:
        return (self.ord_cofactor == self.ord_expected
                and abs(self.leading_coeff) == self.leading_expected_abs)


def verify_cofactor_orders(m: int, q_trunc) -> list[CofactorOrderReport]:
    """Check each last-row cofactor against the closed order and leading formulas.

    For nu = 1..m-1 the cofactor vanishes to order
    sum_{mu=1}^{m-1} mu^2/(4m) - nu^2/(4m), with leading coefficient
    +/- (m-1)!/nu times the Vandermonde of the remaining nodes.
    """
    if m < 3:
        raise ValueError("m must be at least 3 for nontrivial minors")
    _check_cofactor_window(m, q_trunc)  # before the minor table, which grows as 2^(m-1)
    return _cofactor_order_reports(
        m, q_trunc, theta_derivative_matrix(m, q_trunc).last_row_cofactors())


def _check_cofactor_window(m: int, q_trunc) -> None:
    max_order = total_theta_order(m) - Fraction(1, 4 * m)
    if Fraction(q_trunc) <= max_order:
        raise VerificationFailed(
            f"m={m}: window {Fraction(q_trunc)} cannot reach cofactor order {max_order}")


def _cofactor_order_reports(m: int, q_trunc, cofactors) -> list[CofactorOrderReport]:
    """The checks of ``verify_cofactor_orders`` on cofactors already computed."""
    _check_cofactor_window(m, q_trunc)
    order_sum = total_theta_order(m)
    nodes = [Fraction(mu * mu, 4 * m) for mu in range(1, m)]
    reports = []
    for nu in range(1, m):
        cof = cofactors[nu - 1]
        expected_ord = order_sum - Fraction(nu * nu, 4 * m)
        lead = cof.leading_term()
        if lead is None:
            raise VerificationFailed(
                f"m={m} nu={nu}: cofactor has no term below {cof.trunc}")
        reduced = nodes[:nu - 1] + nodes[nu:]
        expected_abs = abs(Fraction(math.factorial(m - 1), nu) * vandermonde(reduced))
        if lead[0] != expected_ord:
            raise VerificationFailed(
                f"m={m} nu={nu}: cofactor order {lead[0]}, expected {expected_ord}")
        if abs(lead[1]) != expected_abs:
            raise VerificationFailed(
                f"m={m} nu={nu}: leading coefficient {lead[1]}, expected +/-{expected_abs}")
        reports.append(CofactorOrderReport(
            index_m=m, nu=nu,
            ord_cofactor=lead[0], ord_expected=expected_ord,
            leading_coeff=lead[1], leading_expected_abs=expected_abs,
            sign=1 if lead[1] > 0 else -1,
        ))
    return reports


def kernel_components(m: int, q_trunc) -> ThetaComponents:
    """The last-row cofactor tuple as a component vector.

    Substituting it into the theta-derivative system kills every row but
    the last (a determinant with a repeated row), so all Taylor
    coefficients below the top order vanish and the top one equals the
    determinant itself.
    """
    matrix = theta_derivative_matrix(m, q_trunc)
    return ThetaComponents(m, tuple(matrix.last_row_cofactors()))


def partial_kernel_components(m: int, q_trunc, vanishing_rows: int,
                              columns: list[int] | None = None) -> ThetaComponents:
    """A component tuple annihilated by the first ``vanishing_rows`` system rows.

    Supported on ``columns`` (1-based residues, default the first
    vanishing_rows + 1), with entries the alternating maximal minors of the
    corresponding submatrix; rows beyond the prescribed ones are generically
    nonzero.  Useful for constructing forms whose low Taylor coefficients
    vanish to a prescribed depth.
    """
    if not 1 <= vanishing_rows <= m - 2:
        raise ValueError("vanishing_rows must lie in 1..m-2")
    if columns is None:
        columns = list(range(1, vanishing_rows + 2))
    if len(columns) != vanishing_rows + 1 or len(set(columns)) != len(columns):
        raise ValueError("need vanishing_rows + 1 distinct columns")
    if any(not 1 <= c <= m - 1 for c in columns):
        raise ValueError("columns must be residues in 1..m-1")
    matrix = theta_derivative_matrix(m, q_trunc)
    columns = sorted(columns)
    sub = SeriesMatrix([[matrix.entry(row, c - 1) for c in columns]
                        for row in range(vanishing_rows)])
    minors = sub._prefix_minors(vanishing_rows)
    full = (1 << len(columns)) - 1
    components: list[PuiseuxSeries] = [
        PuiseuxSeries.zero(Fraction(q_trunc), 4 * m) for _ in range(m - 1)]
    for t, col in enumerate(columns):
        minor = minors[full ^ (1 << t)]
        components[col - 1] = minor if t % 2 == 0 else -minor
    return ThetaComponents(m, tuple(components))


@dataclass(frozen=True)
class CramerReport:
    """Outcome of the adjugate identity and the top-coefficient proportionality."""

    index_m: int
    cramer_ok: bool
    kernel_case: bool
    proportionality_ok: bool | None
    constant: Fraction | None
    window: Fraction | float


def cramer_reconstruction(m: int, h: ThetaComponents, q_trunc) -> CramerReport:
    """Check det(M) * h = adj(M) * (M h) exactly, plus the kernel-case identity.

    For any component tuple h the adjugate identity must hold termwise on
    the certified window.  When the first m-2 rows of the system vanish on
    h, additionally checks h_mu * eta^((m-1)(2m-1)) = constant * cofactor_mu
    * (top row value) with a single constant across mu.  Raises
    VerificationFailed on the first exact mismatch.
    """
    if m < 3:
        raise ValueError("m must be at least 3")
    if h.index_m != m:
        raise ValueError("component tuple has the wrong index")
    q_trunc = Fraction(q_trunc)
    matrix = theta_derivative_matrix(m, q_trunc)
    n = m - 1
    system = [_dot(row, h.components) for row in matrix.entries]
    adj = matrix.adjugate()
    # the last column of adj(M) is exactly matrix.last_row_cofactors()
    cofactors = [adj.entry(mu, n - 1) for mu in range(n)]
    det = _dot(matrix.entries[n - 1], cofactors)
    window = None
    for mu in range(n):
        diff = det * h.components[mu] - _dot(adj.entries[mu], system)
        window = diff.trunc if window is None else min(window, diff.trunc)
        if not diff.is_zero():
            e = diff.ord_infty()
            raise VerificationFailed(
                f"m={m} mu={mu + 1}: adjugate identity fails at exponent {e}")
    kernel_case = all(system[row].is_zero() for row in range(n - 1))
    proportionality_ok = None
    constant = None
    if kernel_case:
        eta_lam = eta_power(q_trunc, eta_power_exponent(m))
        top = system[n - 1]
        lhs_list = [h.components[mu] * eta_lam for mu in range(n)]
        rhs_list = [cofactors[mu] * top for mu in range(n)]
        for lhs, rhs in zip(lhs_list, rhs_list):
            if not rhs.is_zero():
                constant = (lhs.leading_term()[1] / rhs.leading_term()[1]
                            if not lhs.is_zero() else Fraction(0))
                break
        if constant is None:
            # no observable right-hand side: holds only when h itself vanishes
            proportionality_ok = all(series.is_zero() for series in lhs_list)
        else:
            for mu, (lhs, rhs) in enumerate(zip(lhs_list, rhs_list), start=1):
                diff = lhs - constant * rhs
                if not diff.is_zero():
                    raise VerificationFailed(
                        f"m={m} mu={mu}: component proportionality fails at "
                        f"exponent {diff.ord_infty()}")
            proportionality_ok = True
    return CramerReport(
        index_m=m,
        cramer_ok=True,
        kernel_case=kernel_case,
        proportionality_ok=proportionality_ok,
        constant=constant,
        window=Fraction(window) if window != INFINITY else window,
    )

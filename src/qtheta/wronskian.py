"""Theta-derivative matrices, their minors, modular Wronskians, and their verification.

The central object for index m is the (m-1) x (m-1) matrix M whose entry
in row j = 0..m-2 and column mu = 1..m-1 is (q d/dq)^j applied to the odd
theta series of residue mu.  Every minor of M that a check or a
``--dump-series`` file uses comes from one exact integer lattice sum,
``theta_minors``, on the window ``theta_minor_window`` gives, the one the
series-matrix minor certifies, so reports and dumps do not depend on the
route.  That W = det M is a multiple of eta^((m-1)(2m-1)), the eta power
of dimension dim C_(m-1), is the type-C Macdonald identity (Macdonald,
"Affine root systems and Dedekind's eta-function", Invent. Math. 15, 1972).

Two routes are kept only as independent oracles for the tests; no check
takes a minor from them: the bitmask minor table of a plain
``SeriesMatrix``, and ``modular_wronskian``, built from the weight-stepping
modular derivative, equal to W because row reduction removes the
Eisenstein corrections without changing the determinant.

The checks certify, on an explicit window, that W is a constant multiple
of eta^((m-1)(2m-1)) (``verify_eta_power``, which divides no series), that
the orders and leading coefficients of W and its last-row cofactors match
the closed Vandermonde formulas (``_check_theta_minor``), and that the
adjugate rebuilds a component tuple from the rows M h that
``jacobi.component_taylor`` built (``cramer_reconstruction``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

from .exact import VerificationFailed
from .modforms import HalfIntWeight, eta_power, modular_derivative
from .series import PuiseuxSeries, _reduced, dot
from .theta import ThetaIndex, _residues, odd_theta_series

if TYPE_CHECKING:
    from .jacobi import ThetaComponents


def eta_power_exponent(m: int) -> int:
    """The eta exponent (m-1)(2m-1) attached to index m."""
    return (m - 1) * (2 * m - 1)


class SeriesMatrix:
    """Rectangular matrix of PuiseuxSeries with exact determinant machinery.

    The generic route, kept as the tests' oracle for ``theta_minors``;
    ``ThetaDerivativeMatrix`` replaces its minor table by the lattice sum.
    """

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

    def _prefix_minors(self, size: int) -> dict[int, PuiseuxSeries]:
        """Determinants of all submatrices on rows 0..s-1 and column sets of size s.

        Keyed by column bitmask; computed bottom-up by expansion along the
        last row of each submatrix, 2^cols masks in all.
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
        return dot(self.entries[-1], self.last_row_cofactors())

    def _complement_minors(self, deleted_rows) -> list[list[PuiseuxSeries]]:
        """Entry [j][t]: the minor without column j and row ``deleted_rows[t]``.

        One bitmask minor table ``_prefix_minors`` per deleted row.
        """
        n = self.rows
        full = (1 << n) - 1
        table = [[] for _ in range(n)]
        for deleted in deleted_rows:
            sub = SeriesMatrix([self.entries[i] for i in range(n) if i != deleted])
            minors = sub._prefix_minors(n - 1)
            for j in range(n):
                table[j].append(minors[full ^ (1 << j)])
        return table

    def last_row_cofactors(self) -> list[PuiseuxSeries]:
        """Signed cofactors along the last row, scaled so that
        det(M) * (last column of M^-1) equals this vector."""
        if self.rows != self.cols:
            raise ValueError("cofactors of a non-square matrix")
        n = self.rows
        if n == 1:
            return [PuiseuxSeries.one()]
        minors = self._complement_minors([n - 1])
        return [minors[j][0] if (n - 1 + j) % 2 == 0 else -minors[j][0] for j in range(n)]

    def adjugate(self) -> SeriesMatrix:
        """adj(M) with M adj(M) = det(M) * identity."""
        if self.rows != self.cols:
            raise ValueError("adjugate of a non-square matrix")
        n = self.rows
        if n == 1:
            return SeriesMatrix([[PuiseuxSeries.one()]])
        # entry (j, i) is (-1)^(i+j) times the minor without row i and column j
        minors = self._complement_minors(range(n))
        return SeriesMatrix([[minor if (i + j) % 2 == 0 else -minor
                              for i, minor in enumerate(row)] for j, row in enumerate(minors)])


class ThetaDerivativeMatrix(SeriesMatrix):
    """``theta_derivative_matrix(m, q_trunc)``: its minors come from ``theta_minors``.

    The entries are built on first use; the cofactors and the adjugate
    need none of them.  ``det`` stays the expansion of the last row
    against the cofactors; ``theta_wronskian`` is the lattice sum for it.
    """

    def __init__(self, m: int, q_trunc):
        self.m = m
        self.q_trunc = q_trunc
        self.rows = self.cols = m - 1
        self._entries = None

    @property
    def entries(self) -> list[list[PuiseuxSeries]]:
        if self._entries is None:
            rows = [[odd_theta_series(ThetaIndex(self.m, mu), self.q_trunc)
                     for mu in range(1, self.m)]]
            for _ in range(self.m - 2):
                rows.append([entry.q_derivative() for entry in rows[-1]])
            self._entries = rows
        return self._entries

    def _complement_minors(self, deleted_rows) -> list[list[PuiseuxSeries]]:
        """One lattice sum per deleted column gives its minors for every deleted row."""
        columns = range(1, self.m)
        return [theta_minors(self.m, self.q_trunc, [mu for mu in columns if mu != nu],
                             deleted_rows) for nu in columns]


def theta_derivative_matrix(m: int, q_trunc) -> ThetaDerivativeMatrix:
    """Entry (j, mu) = (q d/dq)^(j-1) odd theta series of residue mu, both 1..m-1."""
    if m < 2:
        raise ValueError("m must be at least 2")
    return ThetaDerivativeMatrix(m, q_trunc)


def theta_wronskian(m: int, q_trunc) -> PuiseuxSeries:
    """det(theta_derivative_matrix(m, q_trunc)): the minor on every column."""
    return theta_minors(m, q_trunc, range(1, m))[0]


def theta_minor_window(m: int, q_trunc, columns) -> Fraction:
    """The window of the minors of ``theta_derivative_matrix(m, q_trunc)`` on ``columns``.

    The series-matrix minor's: past the largest first exponent max mu^2/4m,
    the product rules lift q_trunc by the first exponents of the other
    columns, so the order sum mu^2/4m is inside exactly when q_trunc passes it.
    Below 0 every entry is empty, and an empty factor may have terms as low
    as its window, so each of the |columns| factors of a product adds it.
    """
    trunc = Fraction(q_trunc)
    squares = [mu * mu for mu in columns]
    if trunc < 0:
        return len(squares) * trunc
    if trunc > Fraction(max(squares), 4 * m):
        trunc += Fraction(sum(squares) - max(squares), 4 * m)
    return trunc


def theta_minors(m: int, q_trunc, columns, deleted_rows=None) -> list[PuiseuxSeries]:
    """Minors of ``theta_derivative_matrix(m, q_trunc)`` on one column set.

    ``columns`` are residues in 1..m-1; with s of them, the minor for d in
    ``deleted_rows`` (default only d = s) takes rows {0, ..., s} minus d.
    Each tuple (r_mu) with r_mu = mu mod 2m, mu in ``columns``, adds
    prod r_mu * V(r_mu^2) * e_(s-d)(r_mu^2) at exponent sum r_mu^2/4m, in
    integers; each sum is divided once by (4m)^(C(s, 2) + s - d).  The
    tuples are enumerated depth first, cut where the partial sum of r^2
    plus the least sum the remaining classes can add reaches the window,
    ``theta_minor_window``'s.  An empty column set gives the
    constant 1, the cofactor ``SeriesMatrix`` gives for a 1 x 1 matrix.
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    columns = sorted(columns)
    if any(not 1 <= mu <= m - 1 for mu in columns):
        raise ValueError("columns must be residues in 1..m-1")
    s = len(columns)
    if deleted_rows is None:
        deleted_rows = [s]
    if not deleted_rows or any(not 0 <= d <= s for d in deleted_rows):
        raise ValueError("deleted_rows must be a nonempty selection of 0..len(columns)")
    if s == 0:
        return [PuiseuxSeries.one() for _ in deleted_rows]
    grid = 4 * m
    trunc = theta_minor_window(m, q_trunc, columns)
    squares = [mu * mu for mu in columns]
    bound = math.ceil(grid * trunc)  # an integer sum of r^2 is < grid*trunc iff < bound
    # rest[k]: the least sum of r^2 over the classes after position k
    rest = [sum(squares[k + 1:]) for k in range(s)]
    candidates = [sorted(_residues(m, mu, bound - rest[k]), key=abs)
                  for k, mu in enumerate(columns)]
    top = max(s - d for d in deleted_rows)  # the highest e_j asked for
    sums: list[dict[int, int]] = [{} for _ in range(top + 1)]

    def descend(k: int, total: int, weight: int, prior: list[int]) -> None:
        room = bound - rest[k] - total
        last = k == s - 1
        if last and top:
            # e_j of the prior squares, once per parent: a leaf's e_j is e_j + sq * e_(j-1)
            elem = [1] + [0] * top
            for t in prior:
                for j in range(top, 0, -1):
                    elem[j] += t * elem[j - 1]
        for r in candidates[k]:
            sq = r * r
            if sq >= room:
                break
            w = weight * r
            for t in prior:
                w *= sq - t
            if not last:
                descend(k + 1, total + sq, w, prior + [sq])
            elif top:
                e = total + sq
                sums[0][e] = sums[0].get(e, 0) + w
                for j in range(1, top + 1):
                    sums[j][e] = sums[j].get(e, 0) + w * (elem[j] + sq * elem[j - 1])
            else:
                sums[0][total + sq] = sums[0].get(total + sq, 0) + w

    descend(0, 0, 1, [])
    # the closure holds itself through its cell: empty the cell, so the walk's
    # sums and candidates go now rather than at the next cyclic collection
    del descend
    base = math.comb(s, 2)
    out = []
    for d in deleted_rows:
        scale = grid ** (base + s - d)
        terms, den = _reduced({e: c for e, c in sorted(sums[s - d].items()) if c}, scale)
        out.append(PuiseuxSeries._make(terms, trunc.numerator, trunc.denominator, grid, den))
    return out


def modular_wronskian(m: int, q_trunc) -> PuiseuxSeries:
    """det(F, DF, ..., D^(m-2)F) for the odd theta tuple F, weights from 3/2.

    Equal to det(theta_derivative_matrix(m, q_trunc)) because each modular
    derivative column differs from the plain q d/dq column by multiples of
    earlier columns.
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    columns = [[odd_theta_series(ThetaIndex(m, mu), q_trunc) for mu in range(1, m)]]
    for step in range(1, m - 1):
        weight = HalfIntWeight(3 + 4 * (step - 1))
        columns.append([modular_derivative(entry, weight) for entry in columns[-1]])
    return SeriesMatrix(columns).det()


def _minor_leading_coefficient(m: int, columns) -> tuple[int, int]:
    """prod_S mu * V(mu^2/4m) on increasing ``columns`` S, V the Vandermonde
    product, as one unreduced int pair (N, D): N = prod_S mu * prod_(i<j)
    (mu_j^2 - mu_i^2) > 0 and D = (4m)^C(|S|, 2)."""
    squares = [mu * mu for mu in columns]
    num = math.prod(columns)
    for j, b in enumerate(squares):
        num *= math.prod([b - a for a in squares[:j]])
    s = len(squares)
    return num, (4 * m) ** (s * (s - 1) // 2)


def _short_minor(m: int, columns, window, where: str,
                 name: str) -> tuple[Fraction, str | None]:
    """The order o = sum_S mu^2/4m of the minors on ``columns`` S, and
    ``<where>: window <window> cannot reach <name> order <o>`` when o is not
    below ``window``, the minor's certified window (None when it is)."""
    order = Fraction(sum(mu * mu for mu in columns), 4 * m)
    return order, (f"{where}: window {window} cannot reach {name} order {order}"
                   if order >= window else None)


def _check_theta_minor(m: int, columns, minor: PuiseuxSeries, where: str,
                       name: str) -> tuple[Fraction, Fraction, Fraction]:
    """Check the minor on increasing ``columns`` S and rows 0..|S|-1.

    Raises VerificationFailed, prefixed by ``where``, unless its own window
    passes the order sum_S mu^2/4m (``_short_minor``), the minor has that
    order, and its leading coefficient is +/- N/D, the closed form of
    ``_minor_leading_coefficient``, compared as |num(lead)| * D = N *
    den(lead), so no gcd runs on D.  Returns (order, leading coefficient,
    its absolute value).
    """
    order, short = _short_minor(m, columns, minor.trunc, where, name)
    if short:
        raise VerificationFailed(short)
    observed = minor.ord_infty()
    if observed != order:
        raise VerificationFailed(f"{where}: {name} order {observed}, expected {order}")
    lead = minor.coefficient(order)
    num, den = _minor_leading_coefficient(m, columns)
    if abs(lead.numerator) * den != num * lead.denominator:
        raise VerificationFailed(
            f"{where}: leading coefficient {lead}, expected +/-{Fraction(num, den)}")
    return order, lead, abs(lead)


class WronskianReport(NamedTuple):
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


def verify_eta_power(m: int, q_trunc) -> WronskianReport:
    """Certify W = constant * eta^((m-1)(2m-1)) below the requested window.

    The check is a difference, not a quotient: with c the ratio of the
    leading coefficients of W and eta^lam (lam = (m-1)(2m-1)), it forms
    D = W - c * eta^lam.  eta^lam leads with 1 at q^(lam/24), so
    W / eta^lam = c + O(q^w) exactly when D = O(q^(w + lam/24)); the
    reported window is D's minus lam/24, and a first term r * q^e of D is
    the residual r at exponent e - lam/24.  Both are generated on q_trunc +
    lam/24 + 2, so the check is certified strictly beyond ``q_trunc``.
    Raises VerificationFailed on the first nonzero residual, or if the order
    or leading coefficient disagrees with the Vandermonde formula.
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    q_trunc = Fraction(q_trunc)
    if q_trunc <= 0:
        raise ValueError("q_trunc must be positive")
    lam = eta_power_exponent(m)
    internal = q_trunc + Fraction(lam, 24) + 2
    wronskian = theta_wronskian(m, internal)
    ord_w, lead, leading_expected = _check_theta_minor(
        m, range(1, m), wronskian, f"m={m}", "Wronskian")
    if lead != leading_expected:
        raise VerificationFailed(
            f"m={m}: leading coefficient {lead}, expected {leading_expected}")
    power = eta_power(internal, lam)
    ord_eta, lead_eta = power.leading_term()
    constant = lead / lead_eta
    residual = wronskian - constant * power
    if residual:
        e, r = residual.leading_term()
        raise VerificationFailed(
            f"m={m}: residual coefficient {r} at exponent {e - ord_eta}")
    return WronskianReport(
        index_m=m,
        eta_exponent=lam,
        ord_w=ord_w,
        ord_w_expected=ord_w,
        leading_coeff=lead,
        leading_expected=leading_expected,
        constant=constant,
        residual_max_exponent_checked=residual.trunc - ord_eta,
        residual_all_zero=True,
    )


class CofactorOrderReport(NamedTuple):
    """Order and leading-coefficient check for one last-row cofactor."""

    index_m: int
    nu: int
    ord_cofactor: Fraction
    ord_expected: Fraction
    leading_coeff: Fraction
    leading_expected_abs: Fraction
    sign: int


def verify_cofactor_orders(m: int, q_trunc) -> list[CofactorOrderReport]:
    """Check the order and leading coefficient of each last-row cofactor."""
    if m < 3:
        raise ValueError("m must be at least 3 for nontrivial minors")
    cofactors = theta_derivative_matrix(m, q_trunc).last_row_cofactors()
    return _cofactor_order_reports(m, cofactors)


def _cofactor_order_reports(m: int, cofactors) -> list[CofactorOrderReport]:
    """The checks of ``verify_cofactor_orders`` on cofactors already computed."""
    reports = []
    for nu in range(1, m):
        order, lead, expected_abs = _check_theta_minor(
            m, [mu for mu in range(1, m) if mu != nu], cofactors[nu - 1],
            f"m={m} nu={nu}", "cofactor")
        reports.append(CofactorOrderReport(
            index_m=m, nu=nu,
            ord_cofactor=order, ord_expected=order,
            leading_coeff=lead, leading_expected_abs=expected_abs,
            sign=1 if lead > 0 else -1,
        ))
    return reports


def kernel_components(m: int, q_trunc) -> ThetaComponents:
    """The last-row cofactor tuple as a component vector.

    Substituting it into the theta-derivative system kills every row but
    the last (a determinant with a repeated row), so all Taylor
    coefficients below the top order vanish and the top one equals the
    determinant itself.
    """
    from .jacobi import ThetaComponents  # here, so verify-wronskian never loads jacobi

    return ThetaComponents(m, tuple(theta_derivative_matrix(m, q_trunc).last_row_cofactors()))


@lru_cache(maxsize=None)
def _cramer_operators(m: int, q_trunc: Fraction):
    """(adj(M), det(M)) for one (m, window), shared by every tuple checked on it;
    rows are tuples of immutable series, so no caller can change them."""
    adj = tuple(tuple(row) for row in theta_derivative_matrix(m, q_trunc).adjugate().entries)
    return adj, theta_wronskian(m, q_trunc)


class CramerReport(NamedTuple):
    """Outcome of the adjugate identity and the top-coefficient proportionality;
    a failed check raises instead."""

    index_m: int
    kernel_case: bool
    constant: Fraction | None


def cramer_reconstruction(m: int, h: ThetaComponents, q_trunc, system) -> CramerReport:
    """Check det(M) * h = adj(M) * (M h) exactly, plus the kernel-case identity.

    ``system`` is M h, the rows ``component_taylor(h, nu)`` for nu = 1..m-1,
    as the caller built them; adj(M) and det(M) are on the window q_trunc.
    For any component tuple h the adjugate identity must hold termwise on
    the certified window.  When the first m-2 rows of the system vanish on
    h, additionally checks h_mu * eta^((m-1)(2m-1)) = constant * cofactor_mu
    * (top row value) with a single constant across mu; when every cofactor_mu
    * (top row value) vanishes, every h_mu * eta^lam must vanish too.  Raises
    VerificationFailed on the first exact mismatch, naming m, mu and its
    exponent.
    """
    if m < 3:
        raise ValueError("m must be at least 3")
    if h.index_m != m:
        raise ValueError("component tuple has the wrong index")
    q_trunc = Fraction(q_trunc)
    adj, det = _cramer_operators(m, q_trunc)
    n = m - 1
    # the last column of adj(M) is the last-row cofactor vector
    cofactors = [adj[mu][n - 1] for mu in range(n)]
    negated = [-row for row in system]
    for mu in range(n):
        # det * h_mu - adj[mu] . (M h), as one sum of products
        diff = dot((det, *adj[mu]), (h.components[mu], *negated))
        if not diff.is_zero():
            e = diff.ord_infty()
            raise VerificationFailed(
                f"m={m} mu={mu + 1}: adjugate identity fails at exponent {e}")
    kernel_case = all(system[row].is_zero() for row in range(n - 1))
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
        for mu, (lhs, rhs) in enumerate(zip(lhs_list, rhs_list), start=1):
            # with no observable right-hand side, h_mu * eta^lam itself must vanish
            diff = lhs if constant is None else lhs - constant * rhs
            if not diff.is_zero():
                raise VerificationFailed(
                    f"m={m} mu={mu}: component proportionality fails at "
                    f"exponent {diff.ord_infty()}")
    return CramerReport(index_m=m, kernel_case=kernel_case, constant=constant)

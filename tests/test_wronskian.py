"""Theta-derivative matrices, Wronskians, cofactors, and their verification."""

import gc
import itertools
import math
import random
from fractions import Fraction

import pytest

from conftest import (assert_agree, assert_same_store, laplace_det, long_division, matmul,
                      random_series)
from oracles import from_orbit_values, partial_kernel_components, truncate, vandermonde
from qtheta import (INFINITY, PuiseuxSeries, SeriesMatrix, ThetaIndex, VerificationFailed,
                    cases, cmd_orders, component_taylor, cramer_reconstruction, eta, eta_power,
                    eta_power_exponent, kernel_components, modular_wronskian, odd_theta_series,
                    random_components, theta_components, theta_derivative_matrix, theta_minors,
                    theta_wronskian, verify_cofactor_orders, verify_eta_power, wronskian)
from qtheta.jacobi import ThetaComponents
from qtheta.wronskian import _minor_leading_coefficient

F = Fraction


def eta_cube_by_square_identity(trunc) -> PuiseuxSeries:
    """Independent expansion: sum over n >= 0 of (-1)^n (2n+1) q^((2n+1)^2/8)."""
    trunc = F(trunc)
    terms = {}
    n = 0
    while True:
        e = F((2 * n + 1) ** 2, 8)
        if e >= trunc:
            break
        terms[e] = F((-1) ** n * (2 * n + 1))
        n += 1
    return PuiseuxSeries(terms, trunc, 8)


class TestHelpers:
    def test_eta_power_exponent(self):
        assert eta_power_exponent(2) == 3
        assert eta_power_exponent(3) == 10
        assert eta_power_exponent(8) == 105

    def test_vandermonde(self):
        assert vandermonde([F(1)]) == 1
        assert vandermonde([F(1, 12), F(4, 12)]) == F(1, 4)
        assert vandermonde([F(0), F(1), F(3)]) == (1 - 0) * (3 - 0) * (3 - 1)

    def test_minor_leading_coefficient_on_every_column_set(self):
        # the integer closed form against prod mu * V(mu^2/4m) in Fractions
        for m in range(2, 11):
            for s in range(m):
                for columns in itertools.combinations(range(1, m), s):
                    nodes = [F(mu * mu, 4 * m) for mu in columns]
                    num, den = _minor_leading_coefficient(m, columns)
                    assert num > 0 and den == (4 * m) ** math.comb(s, 2)
                    assert F(num, den) == math.prod(columns) * vandermonde(nodes), (m, columns)

    def test_minor_leading_coefficient_on_every_cofactor_set(self):
        # up to m = 64, each cofactor's value from the full set's Vandermonde:
        # dropping the node of nu divides out nu and its m - 2 differences
        for m in range(3, 65):
            nodes = [F(mu * mu, 4 * m) for mu in range(1, m)]
            full = math.factorial(m - 1) * vandermonde(nodes)
            for nu, a in enumerate(nodes, start=1):
                gaps = math.prod(abs(b - a) for b in nodes if b != a)
                columns = [mu for mu in range(1, m) if mu != nu]
                assert F(*_minor_leading_coefficient(m, columns)) == full / (nu * gaps), (m, nu)


class TestThetaDerivativeMatrix:
    def test_m2_single_entry(self):
        matrix = theta_derivative_matrix(2, 6)
        assert matrix.rows == matrix.cols == 1
        assert matrix.entries[0][0] == odd_theta_series(ThetaIndex(2, 1), 6)

    def test_m3_second_row_is_derivative(self):
        matrix = theta_derivative_matrix(3, 6)
        for col in range(2):
            base = matrix.entries[0][col]
            expected = {e: c * e for e, c in base.terms.items() if c * e}
            assert dict(matrix.entries[1][col].terms) == expected

    def test_m4_leading_entry(self):
        matrix = theta_derivative_matrix(4, 2)
        lead = matrix.entries[1][2].leading_term()
        assert lead == (F(9, 16), 3 * F(9, 16))


class TestDeterminant:
    def test_identity_pattern(self):
        eye = SeriesMatrix([[PuiseuxSeries.one(5) if i == j else PuiseuxSeries.zero(5)
                             for j in range(3)] for i in range(3)])
        det = eye.det()
        assert dict(det.terms) == {F(0): F(1)}

    def test_1x1(self):
        s = odd_theta_series(ThetaIndex(2, 1), 5)
        assert SeriesMatrix([[s]]).det() == s

    def test_2x2_against_direct_formula(self):
        rng = random.Random(61)
        for _ in range(10):
            a, b, c, d = (random_series(rng, trunc=F(5), base_denom=4) for _ in range(4))
            det = SeriesMatrix([[a, b], [c, d]]).det()
            assert_agree(det, a * d - b * c)

    def test_3x3_against_cofactor_expansion(self):
        rng = random.Random(67)
        entries = [[random_series(rng, trunc=F(4), base_denom=3, max_terms=3)
                    for _ in range(3)] for _ in range(3)]
        matrix = SeriesMatrix(entries)
        a = entries
        direct = (a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
                  - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
                  + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]))
        assert_agree(matrix.det(), direct)


class TestLaplaceOracle:
    """det, cofactors and adjugate against a plain Laplace expansion."""

    @staticmethod
    def without(entries, row, col):
        return [r[:col] + r[col + 1:] for i, r in enumerate(entries) if i != row]

    @pytest.mark.parametrize("n", [3, 4])
    def test_random_matrices(self, n):
        rng = random.Random(83 + n)
        for _ in range(3):
            entries = [[random_series(rng, trunc=F(rng.randint(3, 6)), base_denom=4,
                                      max_terms=4) for _ in range(n)] for _ in range(n)]
            matrix = SeriesMatrix(entries)
            assert_agree(matrix.det(), laplace_det(entries))
            for j, cof in enumerate(matrix.last_row_cofactors()):
                minor = laplace_det(self.without(entries, n - 1, j))
                assert_agree(cof, minor if (n - 1 + j) % 2 == 0 else -minor)
            adj = matrix.adjugate()
            for i in range(n):
                for j in range(n):
                    minor = laplace_det(self.without(entries, i, j))
                    assert_agree(adj.entries[j][i], minor if (i + j) % 2 == 0 else -minor)

    def test_adjugate_last_column_is_last_row_cofactors(self):
        for m, window in ((3, 5), (4, 8), (5, 12), (6, 8), (7, 5)):
            matrix = theta_derivative_matrix(m, window)
            adj = matrix.adjugate()
            assert [adj.entries[j][m - 2] for j in range(m - 1)] == matrix.last_row_cofactors()


class TestModularWronskian:
    def test_m2_is_eta_cube(self):
        w = modular_wronskian(2, 41)
        assert_agree(w, eta_cube_by_square_identity(41))
        assert_agree(w, eta(41) ** 3)

    def test_m3_order(self):
        assert modular_wronskian(3, 6).ord_infty() == F(5, 12)

    def test_matches_derivative_matrix_determinant(self):
        # the Eisenstein corrections cancel row by row; the constant is 1
        for m in (2, 3, 4, 5):
            w = modular_wronskian(m, 8)
            det = theta_derivative_matrix(m, 8).det()
            assert_agree(w, det)
        # verify_eta_power's internal window for q_trunc 12: the same series
        for m in (2, 3, 4, 5, 6):
            window = 12 + F(eta_power_exponent(m), 24) + 2
            w = modular_wronskian(m, window)
            det = theta_derivative_matrix(m, window).det()
            assert w == det
            assert w.base_denom == det.base_denom


class TestThetaWronskian:
    @pytest.mark.parametrize("m", range(2, 8))
    def test_matches_derivative_matrix_determinant(self, m):
        # every window k/4m up to the last column's first exponent (m-1)^2/4m,
        # a sparser grid beyond it, and verify_eta_power's q12 window
        low = (m - 1) ** 2
        windows = [F(k, 4 * m) for k in [*range(-1, low + 2), *range(low + 2, 32 * m, 5)]]
        windows.append(12 + F(eta_power_exponent(m), 24) + 2)
        for window in windows:
            lattice = theta_wronskian(m, window)
            # a plain SeriesMatrix takes its minors from the bitmask table
            det = SeriesMatrix(theta_derivative_matrix(m, window).entries).det()
            assert lattice == det, window
            assert lattice.base_denom == det.base_denom

    def test_leading_term_is_vandermonde(self):
        for m in range(2, 13):
            nodes = [F(mu * mu, 4 * m) for mu in range(1, m)]
            lead = theta_wronskian(m, 2 * m).leading_term()
            assert lead == (sum(nodes), math.factorial(m - 1) * vandermonde(nodes))

    def test_rejects_small_index(self):
        with pytest.raises(ValueError):
            theta_wronskian(1, 4)


def parity_windows(m):
    """Every window k/4m up to (m-1)^2/4m + 1/4m, where entries are still
    empty, a coarser grid to 12, and 12 and 20: the verify-identities
    default and the window of an index-7 --jacobi-file table with n < 20."""
    low = (m - 1) ** 2
    return ([F(k, 4 * m) for k in range(-1, low + 2)]
            + [F(k, 4 * m) for k in range(low + 2, 48 * m, 12 * m)] + [F(12), F(20)])


def assert_same_series(engine, oracle, *where):
    assert engine == oracle, where
    assert engine.base_denom == oracle.base_denom, where


class TestThetaMinors:
    """The lattice-sum minors against the SeriesMatrix minor tables: terms,
    trunc and base_denom."""

    @pytest.mark.parametrize("m", range(2, 8))
    def test_det_cofactors_adjugate(self, m):
        for window in parity_windows(m):
            matrix = theta_derivative_matrix(m, window)
            oracle = SeriesMatrix(matrix.entries)
            det = oracle.det()
            assert_same_series(theta_wronskian(m, window), det, window)
            assert_same_series(matrix.det(), det, window)
            for nu, (engine, expected) in enumerate(zip(matrix.last_row_cofactors(),
                                                        oracle.last_row_cofactors()), 1):
                assert_same_series(engine, expected, window, nu)
            adj, expected = matrix.adjugate(), oracle.adjugate()
            for j in range(m - 1):
                for i in range(m - 1):
                    assert_same_series(adj.entries[j][i], expected.entries[j][i], window, j, i)

    @pytest.mark.parametrize("m", range(3, 8))
    def test_partial_kernel_minors(self, m):
        for window in parity_windows(m):
            matrix = theta_derivative_matrix(m, window)
            for rows in range(1, m - 1):
                for columns in (list(range(1, rows + 2)), list(range(m - rows - 1, m))):
                    h = partial_kernel_components(m, window, rows, columns)
                    sub = SeriesMatrix([[matrix.entries[row][c - 1] for c in columns]
                                        for row in range(rows)])
                    minors = sub._prefix_minors(rows)
                    full = (1 << len(columns)) - 1
                    for t, col in enumerate(columns):
                        minor = minors[full ^ (1 << t)]
                        assert_same_series(h.components[col - 1],
                                           minor if t % 2 == 0 else -minor, window, rows, col)

    def test_adjugate_identity_m8(self):
        # M adj(M) = det(M) I, with det(M) by plain Laplace expansion
        matrix = theta_derivative_matrix(8, 5)
        det = laplace_det(matrix.entries)
        assert not det.is_zero()
        product = matmul(matrix.entries, matrix.adjugate().entries)
        for i in range(7):
            for j in range(7):
                if i == j:
                    assert_agree(product[i][j], det)
                else:
                    assert product[i][j].is_zero()

    @pytest.mark.parametrize("m", [3, 5, 7])
    def test_window_is_theta_minor_window(self, m):
        # below and above the edge max mu^2/4m of each column set
        for q_trunc in (F(1, 4 * m), F(m - 1, 4), F(3)):
            for nu in range(1, m):
                columns = [mu for mu in range(1, m) if mu != nu]
                assert theta_minors(m, q_trunc, columns)[0].trunc == \
                    wronskian.theta_minor_window(m, q_trunc, columns)

    @pytest.mark.parametrize("m", range(3, 8))
    def test_windows_are_sound(self, m):
        # for random column sets, every deleted row and every pair of windows
        # q1 < q2, on and off the grid 1/4m: the minor on q1 is the minor on
        # q2 cut below its own window, which is theta_minor_window's.  The
        # engine against itself, with no product-window rule of the oracles
        rng = random.Random(m)
        windows = sorted({F(1, 4 * m), F((m - 1) ** 2, 4 * m), F(9, 7), F(5, 2), F(7, 2),
                          F(rng.randint(1, 16 * m), 4 * m + 1)})
        for _ in range(8):
            columns = sorted(rng.sample(range(1, m), rng.randint(1, m - 1)))
            rows = range(len(columns) + 1)
            minors = {q: theta_minors(m, q, columns, rows) for q in windows}
            for q1, q2 in itertools.combinations(windows, 2):
                for d, narrow, wide in zip(rows, minors[q1], minors[q2], strict=True):
                    assert narrow.trunc == wronskian.theta_minor_window(m, q1, columns)
                    assert_same_series(narrow, truncate(wide, narrow.trunc),
                                       columns, d, q1, q2)

    def test_empty_column_set_is_one(self):
        assert theta_minors(4, 3, [], [0]) == [PuiseuxSeries.one()]
        matrix = theta_derivative_matrix(2, 5)
        assert matrix.last_row_cofactors() == [PuiseuxSeries.one()]
        assert matrix.adjugate().entries == [[PuiseuxSeries.one()]]

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            theta_minors(1, 4, [])
        with pytest.raises(ValueError):
            theta_minors(4, 4, [0, 2])
        with pytest.raises(ValueError):
            theta_minors(4, 4, [4])
        with pytest.raises(ValueError):
            theta_minors(4, 4, [1, 2], [3])
        with pytest.raises(ValueError):
            theta_minors(4, 4, [1, 2], [])

    def test_walks_leave_no_cycle(self):
        # with the collector paused, whatever a walk leaves unreachable only
        # a collection could free; the walk's closure must not keep its sums
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            theta_minors(12, 12, range(1, 12))
            assert gc.collect() == 0
            theta_minors(9, 10, [1, 3, 4, 8], [0, 2, 4])
            assert gc.collect() == 0
            theta_derivative_matrix(7, 20).adjugate()
            assert gc.collect() == 0
            verify_eta_power(8, 40)
            assert gc.collect() == 0
        finally:
            if was_enabled:
                gc.enable()


class TestCofactors:
    def test_m2_empty_minor(self):
        cof = theta_derivative_matrix(2, 5).last_row_cofactors()
        assert len(cof) == 1
        assert dict(cof[0].terms) == {F(0): F(1)}

    def test_m3_hand_expansion(self):
        matrix = theta_derivative_matrix(3, 8)
        cof = matrix.last_row_cofactors()
        assert_agree(cof[0], -odd_theta_series(ThetaIndex(3, 2), 8))
        assert_agree(cof[1], odd_theta_series(ThetaIndex(3, 1), 8))

    def test_adjugate_identity_theta(self):
        for m in (3, 4):
            matrix = theta_derivative_matrix(m, 6)
            det = matrix.det()
            product = matmul(matrix.entries, matrix.adjugate().entries)
            for i in range(matrix.rows):
                for j in range(matrix.cols):
                    if i == j:
                        assert_agree(product[i][j], det)
                    else:
                        assert product[i][j].is_zero()

    def test_adjugate_identity_random(self):
        rng = random.Random(71)
        for n in (2, 3, 4):
            entries = [[random_series(rng, trunc=F(4), base_denom=2, max_terms=3)
                        for _ in range(n)] for _ in range(n)]
            matrix = SeriesMatrix(entries)
            det = matrix.det()
            product = matmul(matrix.entries, matrix.adjugate().entries)
            for i in range(n):
                for j in range(n):
                    if i == j:
                        assert_agree(product[i][j], det)
                    else:
                        assert product[i][j].is_zero()

    def test_last_row_cofactors_solve_system(self):
        matrix = theta_derivative_matrix(5, 8)
        cof = matrix.last_row_cofactors()
        det = matrix.det()
        for row in range(4):
            acc = None
            for col in range(4):
                term = matrix.entries[row][col] * cof[col]
                acc = term if acc is None else acc + term
            if row < 3:
                assert acc.is_zero()
            else:
                assert_agree(acc, det)


class TestVerifyEtaPower:
    def test_m2(self):
        report = verify_eta_power(2, 40)
        assert report.constant == 1
        assert report.ord_w == F(1, 8)
        assert report.eta_exponent == 3
        assert report.residual_all_zero
        assert report.ord_w == report.ord_w_expected
        assert report.leading_coeff == report.leading_expected

    def test_m3_leading_coefficient(self):
        report = verify_eta_power(3, 12)
        assert report.leading_coeff == 2 * F(3, 12) == F(1, 2)
        assert report.residual_max_exponent_checked > 12

    def test_m5_order(self):
        report = verify_eta_power(5, 8)
        assert report.ord_w == F(3, 2)
        assert report.constant != 0

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            verify_eta_power(4, 0)

    @pytest.mark.parametrize("q_trunc", ["1/8", "9/7", "1", "12", "40"])
    @pytest.mark.parametrize("m", range(2, 13))
    def test_difference_matches_the_quotient(self, m, q_trunc):
        # the check forms W - c * eta^lam; dividing W by eta^lam must give
        # the same constant, the same verdict and the same window
        lam = eta_power_exponent(m)
        internal = F(q_trunc) + F(lam, 24) + 2
        quotient = long_division(theta_wronskian(m, internal), eta_power(internal, lam))
        report = verify_eta_power(m, q_trunc)
        assert report.constant == quotient.coefficient(0)
        assert report.residual_max_exponent_checked == quotient.trunc
        assert set(quotient.terms) == {0}
        assert report.residual_all_zero and report.constant != 0
        assert report.ord_w == report.ord_w_expected
        assert report.leading_coeff == report.leading_expected


def eta_order_monomial(lam: int, coefficient, shift) -> PuiseuxSeries:
    """coefficient * q^(lam/24 + shift), exact."""
    return PuiseuxSeries({F(lam, 24) + shift: coefficient}, INFINITY)


class TestEtaPowerFaults:
    """The difference check still fails, with the division's messages."""

    @pytest.mark.parametrize("m, q_trunc", [(3, 12), (5, F(9, 7)), (8, 40)])
    def test_wronskian_term_is_a_residual(self, m, q_trunc, monkeypatch):
        monkeypatch.setattr(wronskian, "theta_wronskian", lambda m, q_trunc: (
            theta_wronskian(m, q_trunc) + eta_order_monomial(eta_power_exponent(m), F(1, 7), 2)))
        with pytest.raises(VerificationFailed) as failure:
            verify_eta_power(m, q_trunc)
        assert str(failure.value) == f"m={m}: residual coefficient 1/7 at exponent 2"

    @pytest.mark.parametrize("m, q_trunc, coefficient", [
        (3, 12, "-1/14"),
        (5, F(9, 7), "-81/10000"),
    ])
    def test_eta_term_is_a_residual(self, m, q_trunc, coefficient, monkeypatch):
        monkeypatch.setattr(wronskian, "eta_power", lambda trunc, lam: (
            eta_power(trunc, lam) + eta_order_monomial(lam, F(1, 7), 1)))
        with pytest.raises(VerificationFailed) as failure:
            verify_eta_power(m, q_trunc)
        assert str(failure.value) == f"m={m}: residual coefficient {coefficient} at exponent 1"


def cofactor_checked(report) -> bool:
    """The report's order and |leading coefficient| equal their expected values."""
    return (report.ord_cofactor == report.ord_expected
            and abs(report.leading_coeff) == report.leading_expected_abs)


class TestVerifyCofactorOrders:
    def test_m3_orders(self):
        reports = verify_cofactor_orders(3, 6)
        assert [r.ord_cofactor for r in reports] == [F(1, 3), F(1, 12)]
        assert all(cofactor_checked(r) for r in reports)

    def test_m4_nu3(self):
        reports = verify_cofactor_orders(4, 6)
        assert reports[2].ord_cofactor == F(5, 16)
        expected = abs(F(math.factorial(3), 3) * vandermonde([F(1, 16), F(4, 16)]))
        assert reports[2].leading_expected_abs == expected

    def test_window_too_small(self):
        with pytest.raises(VerificationFailed):
            verify_cofactor_orders(10, F(1, 4))

    @pytest.mark.parametrize("m", [3, 4, 7, 12])
    def test_window_boundary_is_each_cofactors_own(self, m):
        # cofactor nu omits column nu, and its lattice window passes its
        # order exactly when q_trunc passes the largest first exponent left,
        # (m-1)^2/4m for every nu < m-1: below the orders themselves
        edge = F((m - 1) ** 2, 4 * m)
        with pytest.raises(VerificationFailed, match="nu=1: window .* cannot reach"):
            verify_cofactor_orders(m, edge)
        reports = verify_cofactor_orders(m, edge + F(1, 1000))
        assert len(reports) == m - 1 and all(cofactor_checked(r) for r in reports)

    def test_least_window_holds_one_term_per_minor(self):
        # verify-orders' window without dumps: the least the top-index rule
        # admits.  Each minor is then its minimal tuple alone, every other
        # tuple adding at least 1 to the exponent, so the check reads what it
        # reads on any longer window: one term at the order, of closed-form size
        excess = []
        for m in range(2, 41):
            window = cmd_orders.least_window(m)
            assert cases.short_window(m, window) is None
            assert cases.short_window(m, window - F(1, 4 * m)) is not None
            minors = [(range(1, m), theta_wronskian(m, window))]
            if m >= 3:
                cofactors = theta_derivative_matrix(m, window).last_row_cofactors()
                minors += [([mu for mu in range(1, m) if mu != nu], cofactors[nu - 1])
                           for nu in range(1, m)]
            gaps = []
            for columns, minor in minors:
                order = F(sum(mu * mu for mu in columns), 4 * m)
                assert list(minor.terms) == [order], (m, columns)
                assert abs(minor.terms[order]) == F(*_minor_leading_coefficient(m, columns))
                gaps.append(minor.trunc - order)
            # W and cofactor nu = 1 pass their orders by the least step
            assert gaps[:2] == [F(1, 4 * m)] * min(m - 1, 2)
            assert all(0 < gap < 1 for gap in gaps), m
            excess += gaps
        assert max(excess) == F(39, 80)


class TestThetaMinorCheck:
    def test_negated_wronskian_fails_the_signed_check(self, monkeypatch):
        monkeypatch.setattr(wronskian, "theta_wronskian",
                            lambda m, q_trunc: -theta_wronskian(m, q_trunc))
        with pytest.raises(VerificationFailed, match="m=4: leading coefficient -"):
            verify_eta_power(4, 6)

    def test_negated_cofactor_passes_up_to_sign(self):
        m = 5
        cofactors = theta_derivative_matrix(m, 8).last_row_cofactors()
        before = wronskian._cofactor_order_reports(m, cofactors)
        after = wronskian._cofactor_order_reports(m, [-cofactors[0]] + cofactors[1:])
        assert after[0].leading_coeff == -before[0].leading_coeff
        assert after[0].sign == -before[0].sign and cofactor_checked(after[0])
        assert after[1:] == before[1:]

    def test_scaled_minor_fails(self):
        with pytest.raises(VerificationFailed,
                           match=r"m=4: leading coefficient .*, expected \+/-"):
            wronskian._check_theta_minor(4, range(1, 4), 2 * theta_wronskian(4, 6),
                                         "m=4", "Wronskian")


def system_rows(h: ThetaComponents) -> list[PuiseuxSeries]:
    """M h as the callers of ``cramer_reconstruction`` build it."""
    return [component_taylor(h, nu) for nu in range(1, h.index_m)]


def random_jacobi_components(m: int, n_trunc: int, rng) -> ThetaComponents:
    """The theta components of an orbit-complete table with a random value on every class."""
    values = {(mu, disc): F(rng.choice([x for x in range(-9, 10) if x]), rng.randint(1, 4))
              for mu in range(1, m)
              for disc in range((-mu * mu) % (4 * m), 4 * m * n_trunc, 4 * m)}
    return theta_components(from_orbit_values(3, m, 1, n_trunc, values))


class TestKernelTuple:
    @pytest.mark.parametrize("m", range(3, 9))
    def test_adjugate_last_column_is_the_kernel_tuple(self, m):
        # verify-identities reads its kernel tuple off the adjugate cached for
        # the Cramer check; kernel_components stays as the oracle
        for window in (F(12), F(20)):
            adj, _ = wronskian._cramer_operators(m, window)
            expected = kernel_components(m, window).components
            for got, want in zip((row[m - 2] for row in adj), expected, strict=True):
                assert_same_store(got, want)


class TestCramerSystemRows:
    """M h from the matrix entries is the ``component_taylor`` rows, store for store."""

    @staticmethod
    def assert_rows_match(h: ThetaComponents, q_trunc):
        entries = theta_derivative_matrix(h.index_m, q_trunc).entries
        for row, via in zip(entries, system_rows(h)):
            acc = None
            for entry, component in zip(row, h.components):
                term = entry * component
                acc = term if acc is None else acc + term
            assert (acc._terms, acc.trunc, acc.base_denom, acc._den) == \
                (via._terms, via.trunc, via.base_denom, via._den)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_components(self, seed):
        rng = random.Random(seed)
        for m in (3, 4, 5):
            for _ in range(3):
                self.assert_rows_match(random_components(m, 12, rng), 12)

    @pytest.mark.parametrize("m", range(3, 9))
    def test_kernel_components(self, m):
        self.assert_rows_match(kernel_components(m, 12), 12)

    def test_jacobi_components(self):
        rng = random.Random(7)
        for n_trunc in (2, 3):
            self.assert_rows_match(random_jacobi_components(7, n_trunc, rng), n_trunc)


class TestCramer:
    def test_random_components(self):
        rng = random.Random(73)
        for m in (3, 4):
            h = random_components(m, 8, rng)
            report = cramer_reconstruction(m, h, 8, system_rows(h))  # raises on a mismatch
            # a random tuple leaves the first rows of M h nonzero
            assert not report.kernel_case and report.constant is None

    def test_zero_components(self):
        zero = ThetaComponents(3, (PuiseuxSeries.zero(6, 12), PuiseuxSeries.zero(6, 12)))
        report = cramer_reconstruction(3, zero, 6, system_rows(zero))
        assert report.kernel_case and report.constant is None

    def test_cofactor_kernel_case(self):
        for m in (3, 4):
            h = kernel_components(m, 10)
            report = cramer_reconstruction(m, h, 10, system_rows(h))
            assert report.kernel_case
            eta_report = verify_eta_power(m, 6)
            assert report.constant == 1 / eta_report.constant

    def test_kernel_case_with_no_right_hand_side_fails(self, monkeypatch):
        # operators that vanish: the adjugate identity holds as 0 = 0 and every
        # cofactor times the top row vanishes, so h_mu * eta^lam, nonzero for
        # the kernel tuple, must be named at its first exponent
        h = kernel_components(3, 10)
        zero = PuiseuxSeries.zero(10, 12)
        monkeypatch.setattr(wronskian, "_cramer_operators",
                            lambda m, q_trunc: (((zero, zero), (zero, zero)), zero))
        expected = (h.components[0] * eta_power(10, eta_power_exponent(3))).ord_infty()
        with pytest.raises(VerificationFailed, match=(
                rf"^m=3 mu=1: component proportionality fails at exponent {expected}$")):
            cramer_reconstruction(3, h, 10, system_rows(h))

    def test_division_constructed_kernel(self):
        # solve first-row vanishing for m=3 by series division: h = (-t2/t1, 1)
        t1 = odd_theta_series(ThetaIndex(3, 1), 10)
        t2 = odd_theta_series(ThetaIndex(3, 2), 10)
        h = ThetaComponents(3, (-long_division(t2, t1),
                                PuiseuxSeries.one(t1.trunc - t1.ord_infty())))
        report = cramer_reconstruction(3, h, 8, system_rows(h))
        assert report.kernel_case


class TestPartialKernel:
    def test_prescribed_rows_vanish(self):
        for m, rows in ((4, 1), (5, 2), (6, 3)):
            h = partial_kernel_components(m, 8, rows)
            matrix = theta_derivative_matrix(m, 8)
            for row in range(rows):
                acc = None
                for col in range(m - 1):
                    term = matrix.entries[row][col] * h.components[col]
                    acc = term if acc is None else acc + term
                assert acc.is_zero()
            # the next row is generically nonzero
            acc = None
            for col in range(m - 1):
                term = matrix.entries[rows][col] * h.components[col]
                acc = term if acc is None else acc + term
            assert not acc.is_zero()

    def test_matches_per_column_determinants(self):
        # one maximal-minor pass gives exactly the series of one det per column
        for m in (4, 5, 6):
            matrix = theta_derivative_matrix(m, 8)
            for rows in range(1, m - 1):
                for columns in (list(range(1, rows + 2)), list(range(m - rows - 1, m))):
                    h = partial_kernel_components(m, 8, rows, columns)
                    for t, col in enumerate(columns):
                        kept = [c for c in columns if c != col]
                        minor = SeriesMatrix([[matrix.entries[row][c - 1] for c in kept]
                                              for row in range(rows)]).det()
                        assert h.components[col - 1] == (minor if t % 2 == 0 else -minor)
                    assert all(h.components[c - 1].is_zero()
                               for c in range(1, m) if c not in columns)

    def test_column_choice(self):
        h = partial_kernel_components(5, 8, 1, columns=[2, 4])
        assert h.components[0].is_zero() and h.components[2].is_zero()
        assert not h.components[1].is_zero()

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            partial_kernel_components(4, 8, 3)
        with pytest.raises(ValueError):
            partial_kernel_components(4, 8, 1, columns=[1, 1])
        with pytest.raises(ValueError):
            partial_kernel_components(4, 8, 1, columns=[0, 2])

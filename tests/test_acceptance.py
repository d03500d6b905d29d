"""Acceptance suite: every criterion is exact (tolerance zero everywhere).

Each test prints one PASS line on success; run with `pytest -v -s
tests/test_acceptance.py` to see them.  The randomized criteria use fixed
seeds, so the whole suite is deterministic.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from conftest import assert_agree, congruence_text, matmul, random_series, window_bounds
from oracles import component_taylor_scale, partial_kernel_components, truncate, vandermonde
from qtheta import (CaseInput, HalfIntWeight, PuiseuxSeries, SeriesMatrix,
                    ThetaComponents, ThetaIndex, UnityExponent, classify,
                    component_taylor, eta, from_theta_components, is_squarefree,
                    kernel_components, kernel_equivalence, modular_derivative,
                    modular_wronskian, nonintegrality_check, odd_theta_series,
                    random_components, squared_determinant_translation, taylor_coefficient,
                    theta_derivative_matrix, translation_eigenvalue,
                    translation_eigenvalues, verify_cofactor_orders, verify_eta_power)

F = Fraction


def total_theta_order(m: int) -> Fraction:
    """Sum of the columns' lowest exponents mu^2/4m over mu = 1..m-1."""
    return sum(F(mu * mu, 4 * m) for mu in range(1, m))


@pytest.fixture(scope="module")
def eta_power_reports():
    start = time.time()
    reports = {m: verify_eta_power(m, 40) for m in range(2, 9)}
    reports["elapsed"] = time.time() - start
    return reports


def test_criterion_1_eta_power_identity(eta_power_reports):
    for m in range(2, 9):
        report = eta_power_reports[m]
        assert report.residual_all_zero
        assert report.constant != 0
        assert report.residual_max_exponent_checked > 40
        assert report.eta_exponent == (m - 1) * (2 * m - 1)
    assert eta_power_reports[2].constant == 1
    # the m = 2 case coefficient by coefficient on the first 40 exponents
    assert_agree(modular_wronskian(2, 41), eta(41) ** 3)
    print(f"\nACCEPTANCE 1 PASS: W/eta^((m-1)(2m-1)) constant for m=2..8 at "
          f"q_trunc=40; c(m=2)=1 [{eta_power_reports['elapsed']:.1f}s]")


def test_criterion_2_order_formulas(eta_power_reports):
    for m in range(2, 9):
        report = eta_power_reports[m]
        assert 2 * report.ord_w == F((m - 1) * (2 * m - 1), 12)
        nodes = [F(mu * mu, 4 * m) for mu in range(1, m)]
        assert report.leading_coeff == math.factorial(m - 1) * vandermonde(nodes)
    # single cofactor of the 1x1 matrix: empty minor, order zero
    cof = theta_derivative_matrix(2, 6).last_row_cofactors()[0]
    assert cof.ord_infty() == total_theta_order(2) - F(1, 8) == 0
    for m in range(3, 11):
        reports = verify_cofactor_orders(m, 10)
        for report in reports:
            assert report.ord_cofactor == \
                total_theta_order(m) - F(report.nu ** 2, 4 * m)
            assert abs(report.leading_coeff) == report.leading_expected_abs
            assert report.ord_cofactor == report.ord_expected
    print("ACCEPTANCE 2 PASS: ord W^2 = (m-1)(2m-1)/12 for m<=8; cofactor "
          "orders and +/-Vandermonde leading coefficients for m<=10")


def test_criterion_3_two_path_taylor_identity():
    rng = random.Random(2024)
    for m in (3, 4, 5):
        for _ in range(20):
            h = random_components(m, 20, rng)
            assembled = from_theta_components(h, 20)
            for nu in range(1, m):
                direct = taylor_coefficient(assembled, nu)
                via = component_taylor_scale(nu, m) * component_taylor(h, nu)
                diff = direct - via
                assert diff.is_zero(), (m, nu, diff.leading_term())
                assert diff.trunc > 0
    print("ACCEPTANCE 3 PASS: two-path Taylor identity, 20 random tuples "
          "per m in 3..5 at q_trunc=20, all orders, exact")


def test_criterion_4_kernel_triangularity():
    rng = random.Random(4096)
    window = 7
    for m in (3, 4, 5):
        forms = []
        for _ in range(30):
            forms.append((random_components(m, window, rng), None))
        forms.append((kernel_components(m, window), m - 2))
        while len(forms) < 50:
            depth = rng.randint(1, m - 2)
            columns = rng.sample(range(1, m), depth + 1)
            h = partial_kernel_components(m, window, depth, columns=columns)
            if rng.random() < 0.5:
                scale = random_series(rng, trunc=F(3), base_denom=4 * m, max_terms=2)
                h = ThetaComponents(m, tuple(c * scale for c in h.components))
            forms.append((h, depth))
        assert len(forms) == 50
        for h, depth in forms:
            assembled = from_theta_components(h, window)
            chis = [taylor_coefficient(assembled, nu) for nu in range(1, m)]
            for j in range(1, m):
                operators, taylors = kernel_equivalence(chis[:j], 3, m)
                assert operators == taylors
            if depth and depth >= 1:
                prescribed = kernel_equivalence(chis[:depth], 3, m)
                assert prescribed == (True, True)
    print("ACCEPTANCE 4 PASS: kernel equivalence booleans agree on 50 forms "
          "per m in {3,4,5}, including prescribed vanishing patterns")


def test_criterion_5_character_suite():
    for m in range(2, 11):
        diag = translation_eigenvalues(m)
        for mu in range(1, m):
            series = odd_theta_series(ThetaIndex(m, mu), 2 * m + 2)
            assert translation_eigenvalue(series) == diag[mu - 1]
    for m in range(2, 201):
        assert squared_determinant_translation(m) == \
            UnityExponent(F((m - 1) * (2 * m - 1), 12))
        assert total_theta_order(m) == F((m - 1) * (2 * m - 1), 24)
    print("ACCEPTANCE 5 PASS: translation eigenvalues match series for m<=10; "
          "squared-determinant exponent and order sum closed forms for m<=200")


def test_criterion_6_modular_derivative_eigenforms():
    base = eta(61)
    power = PuiseuxSeries.one()
    for twice_weight in range(1, 25):
        power = power * base
        clipped = truncate(power, 61)
        derivative = modular_derivative(clipped, HalfIntWeight(twice_weight))
        assert derivative.trunc >= 60
        assert derivative.is_zero()
    print("ACCEPTANCE 6 PASS: modular derivative annihilates eta^(2k) at "
          "weight k for 2k = 1..24, exactly below q^60")


def test_criterion_7_classifier_grid():
    checked = 0
    for k in range(3, 22, 2):
        for m in range(k + 1, k + 21):
            for level in (1, 6, 4):
                verdict = classify(CaseInput(k, m, level))
                assert verdict.part_i == (m - k >= 4)
                assert verdict.part_ii == \
                    (is_squarefree(level) and m % 2 == 1 and m - k >= 2)
                assert verdict.part_iii == \
                    (level == 1 and m % 2 == 1 and m - k >= 2)
                if verdict.any_part:
                    # the window in Fractions, as the theorem states it
                    upper, lower, choice = window_bounds(m, verdict.s, verdict.r)
                    assert upper > m - k > lower and m - k == choice
                    assert verdict.window_ok
                checked += 1
    assert checked == 10 * 20 * 3
    for m in range(5, 100, 2):
        verdict = classify(CaseInput(3, m, 1))
        assert verdict.part_iii and (3 * m - 2) % 12 != 3
        assert verdict.congruence_details == congruence_text(m)
    print("ACCEPTANCE 7 PASS: classifier reproduces all three parts on the "
          "600-case grid; window holds on every accepted case; part-(iii) "
          "congruence holds for every odd m <= 99")


def test_criterion_8_documented_discrepancy():
    flagged = [m for m in range(4, 1001) if nonintegrality_check(m).is_integer]
    assert flagged == [6]
    report = nonintegrality_check(6)
    assert report.value == 30 and report.is_integer
    # informational only: the classifier never turns it into a failure
    verdict = classify(CaseInput(3, 7, 6))
    assert verdict.any_part and verdict.window_ok
    print("ACCEPTANCE 8 PASS: integrality discrepancy flagged exactly at m=6 "
          "in 4..1000, reported without failing the suite")


def test_criterion_9_ring_law_property_suite():
    rng = random.Random(999)
    adjugate_checks = 0
    for trial in range(500):
        denom = rng.choice([1, 2, 3, 4, 6, 8, 12, 24])
        a = random_series(rng, trunc=F(rng.randint(2, 6)), base_denom=denom)
        b = random_series(rng, trunc=F(rng.randint(2, 6)), base_denom=denom)
        c = random_series(rng, trunc=F(rng.randint(2, 6)), base_denom=denom)
        assert_agree((a + b) + c, a + (b + c))
        assert_agree(a + b, b + a)
        assert_agree(a * b, b * a)
        assert_agree((a * b) * c, a * (b * c))
        assert_agree(a * (b + c), a * b + a * c)
        assert_agree((a * b).q_derivative(),
                     a.q_derivative() * b + a * b.q_derivative())
        if trial % 10 == 0:
            matrix = SeriesMatrix([[a, b], [c, a + b]])
            det = matrix.det()
            product = matmul(matrix.entries, matrix.adjugate().entries)
            assert_agree(product[0][0], det)
            assert_agree(product[1][1], det)
            assert product[0][1].is_zero()
            assert product[1][0].is_zero()
            adjugate_checks += 1
    assert adjugate_checks == 50
    print("ACCEPTANCE 9 PASS: 500 random triples satisfy the ring, Leibniz, "
          "and division laws exactly; 50 adjugate identities exact")


def test_criterion_10_eta_power_identity_up_to_m12():
    # the lattice-sum Wronskian reaches past the m = 2..8 fixture in seconds
    start = time.time()
    for m in range(9, 13):
        report = verify_eta_power(m, 40)
        assert report.residual_all_zero and report.ord_w == report.ord_w_expected
        assert report.leading_coeff == report.leading_expected
        assert report.constant != 0
        assert report.residual_max_exponent_checked > 40
        assert report.eta_exponent == (m - 1) * (2 * m - 1)
        assert 2 * report.ord_w == F((m - 1) * (2 * m - 1), 12)
        nodes = [F(mu * mu, 4 * m) for mu in range(1, m)]
        assert report.leading_coeff == math.factorial(m - 1) * vandermonde(nodes)
    print(f"ACCEPTANCE 10 PASS: W/eta^((m-1)(2m-1)) constant, order and leading "
          f"coefficient for m=9..12 at q_trunc=40 [{time.time() - start:.1f}s]")

"""Eta, the weight-2 Eisenstein series, and the modular derivative."""

from fractions import Fraction

import pytest

from conftest import assert_agree
from qtheta import (HalfIntWeight, PuiseuxSeries, eisenstein_e2, eta, eta_power,
                    modular_derivative)
from qtheta import ThetaIndex, odd_theta_series

F = Fraction


def brute_sigma1(n: int) -> int:
    return sum(d for d in range(1, n + 1) if n % d == 0)


def pentagonal_eta(trunc) -> PuiseuxSeries:
    """Independent route: eta = sum over n in Z of (-1)^n q^((6n-1)^2/24)."""
    trunc = F(trunc)
    terms = {}
    n = 0
    while True:
        hit = False
        for m in (n, -n) if n else (0,):
            e = F((6 * m - 1) ** 2, 24)
            if e < trunc:
                terms[e] = F((-1) ** m)
                hit = True
        if not hit and n > 0:
            break
        n += 1
    return PuiseuxSeries(terms, trunc, 24)


class TestEta:
    def test_head_terms(self):
        e = eta(16)
        shift = F(1, 24)
        expected = {shift: 1, 1 + shift: -1, 2 + shift: -1, 5 + shift: 1,
                    7 + shift: 1, 12 + shift: -1, 15 + shift: -1}
        assert dict(e.terms) == {k: F(v) for k, v in expected.items()}

    def test_matches_pentagonal_series(self):
        assert eta(60) == pentagonal_eta(60)

    def test_order(self):
        assert eta(2).ord_infty() == F(1, 24)

    def test_window_below_first_exponent(self):
        assert eta(F(1, 24)).is_zero()

    def test_requires_positive_window(self):
        with pytest.raises(ValueError):
            eta(0)


class TestEtaPower:
    @pytest.mark.parametrize("m", range(2, 13))
    def test_matches_repeated_products(self, m):
        lam = (m - 1) * (2 * m - 1)
        # windows at and below the first exponent 1/24, small ones, and the
        # internal windows verify_eta_power uses for q_trunc 12 and 40
        for trunc in (F(1, 48), F(1, 24), F(1, 12), F(1), F(25, 24), F(7, 2),
                      12 + F(lam, 24) + 2, 40 + F(lam, 24) + 2):
            fast, slow = eta_power(trunc, lam), eta(trunc) ** lam
            assert fast == slow, trunc
            assert fast.base_denom == slow.base_denom

    def test_small_exponents(self):
        for lam in (1, 2, 5):
            for trunc in (F(1, 24), F(1, 7), F(73, 24), F(9)):
                assert eta_power(trunc, lam) == eta(trunc) ** lam

    @pytest.mark.parametrize("trunc, lam", [(0, 3), (F(-1, 2), 3), (4, 0), (4, F(3))])
    def test_rejects_bad_arguments(self, trunc, lam):
        with pytest.raises(ValueError):
            eta_power(trunc, lam)


class TestEisensteinE2:
    def test_head_coefficients(self):
        e2 = eisenstein_e2(10)
        assert e2.coefficient(0) == 1
        assert e2.coefficient(1) == -24
        assert e2.coefficient(4) == -168

    def test_against_brute_force_divisor_sums(self):
        e2 = eisenstein_e2(201)
        for n in range(1, 201):
            assert e2.coefficient(n) == -24 * brute_sigma1(n)

    def test_cached_instance_reused(self):
        assert eisenstein_e2(F(17)) is eisenstein_e2(17)


class TestModularDerivative:
    def test_weight_zero_constant(self):
        assert modular_derivative(PuiseuxSeries.one(), 0).is_zero()

    def test_eta_is_weight_half_eigenform(self):
        assert modular_derivative(eta(30), F(1, 2)).is_zero()

    def test_eta_cube_at_weight_three_halves(self):
        assert modular_derivative(eta(30) ** 3, HalfIntWeight(3)).is_zero()

    def test_eta_power_family(self):
        # eta^(2k) is annihilated at weight k for 2k = 1..24
        for twice in range(1, 25):
            power = eta(25) ** twice
            assert modular_derivative(power, HalfIntWeight(twice)).is_zero()

    def test_explicit_expansion(self):
        # same combination assembled by hand from the public pieces
        f = odd_theta_series(ThetaIndex(3, 1), 12)
        by_hand = f.q_derivative() - F(3, 2) / 12 * (eisenstein_e2(12) * f)
        assert_agree(modular_derivative(f, F(3, 2)), by_hand)

    def test_untruncated_input_rejected(self):
        with pytest.raises(ValueError):
            modular_derivative(PuiseuxSeries.one(), F(1, 2))


class TestHalfIntWeight:
    def test_coerce(self):
        assert HalfIntWeight.coerce(F(3, 2)).twice_weight == 3
        assert HalfIntWeight.coerce(2).twice_weight == 4
        assert HalfIntWeight.coerce(HalfIntWeight(5)).twice_weight == 5

    def test_rejects_non_half_integers(self):
        with pytest.raises(ValueError):
            HalfIntWeight.coerce(F(1, 3))

"""Translation characters as exact points of Q/Z."""

import copy
import math
import pickle
from fractions import Fraction

import pytest

from qtheta import (GammaCharacter, ThetaIndex, UnityExponent, odd_theta_series,
                    squared_determinant_delta_power, squared_determinant_translation,
                    translation_eigenvalue, translation_eigenvalues)

F = Fraction


class TestUnityExponent:
    def test_reduced_into_unit_interval(self):
        assert UnityExponent(F(9, 8)).value == F(1, 8)
        assert UnityExponent(F(-1, 3)).value == F(2, 3)
        assert UnityExponent(F(2)).value == 0

    def test_group_law(self):
        assert UnityExponent(F(2, 3)) + UnityExponent(F(2, 3)) == UnityExponent(F(1, 3))
        assert 3 * UnityExponent(F(1, 4)) == UnityExponent(F(3, 4))

    def test_integer_pair_against_fraction_reference(self):
        def ref(x):  # the Fraction formula: x mod 1
            return x - math.floor(x)

        samples = [(num, den) for den in range(1, 49) for num in range(-2 * den, 2 * den + 1)]
        distinct = {}
        for num, den in samples:
            x = F(num, den)
            e = UnityExponent(num, den)
            assert e.value == ref(x) and isinstance(e.value, F)
            assert (e.num, e.den) == (ref(x).numerator, ref(x).denominator)
            assert e == UnityExponent(x) == UnityExponent(x + 1) == UnityExponent(x - 2)
            assert hash(e) == hash(UnityExponent(x))
            for n in range(-3, 4):
                assert n * e == e * n == UnityExponent(n * x)
                assert (n * e).value == ref(n * x)
            distinct.setdefault(ref(x), e)
        assert len(set(distinct.values())) == len(distinct)
        small = [x for x in distinct if x.denominator <= 12]
        for x, e in distinct.items():
            for y in small:
                f = distinct[y]
                assert (e + f).value == ref(x + y)
                assert (e == f) == (x == y)

    def test_immutable(self):
        e = UnityExponent(3, 8)
        for name in ("num", "den", "value"):
            with pytest.raises(AttributeError):
                setattr(e, name, 1)
        with pytest.raises(AttributeError):
            del e.num
        assert (e.num, e.den) == (3, 8)

    def test_copies_keep_the_exponent(self):
        e = UnityExponent(7, 12)
        assert pickle.loads(pickle.dumps(e)) == copy.copy(e) == e

    def test_float_rejected(self):
        for args in ((0.1,), (0.5,), (1, 2.0), (1.0, 2)):
            with pytest.raises(TypeError):
                UnityExponent(*args)


class TestDiagonal:
    def test_m2(self):
        assert translation_eigenvalues(2) == [UnityExponent(F(1, 8))]

    def test_m3(self):
        assert translation_eigenvalues(3) == [UnityExponent(F(1, 12)),
                                              UnityExponent(F(1, 3))]

    def test_m5(self):
        assert translation_eigenvalues(5) == [UnityExponent(F(1, 20)),
                                              UnityExponent(F(1, 5)),
                                              UnityExponent(F(9, 20)),
                                              UnityExponent(F(4, 5))]

    def test_matches_series_eigenvalues(self):
        for m in range(2, 11):
            diag = translation_eigenvalues(m)
            for mu in range(1, m):
                series = odd_theta_series(ThetaIndex(m, mu), 2 * m + 2)
                assert translation_eigenvalue(series) == diag[mu - 1]

    def test_small_index_rejected(self):
        with pytest.raises(ValueError):
            translation_eigenvalues(1)


class TestSquaredDeterminant:
    def test_values(self):
        assert squared_determinant_translation(2) == UnityExponent(F(1, 4))
        assert squared_determinant_translation(3) == UnityExponent(F(5, 6))
        assert squared_determinant_translation(7) == UnityExponent(F(1, 2))

    def test_closed_form_sweep(self):
        for m in range(2, 201):
            assert squared_determinant_translation(m) == \
                UnityExponent(F((m - 1) * (2 * m - 1), 12))


class TestDeltaPower:
    def test_values(self):
        assert squared_determinant_delta_power(2) == GammaCharacter(3)
        assert squared_determinant_delta_power(3) == GammaCharacter(10)

    def test_consistency_sweep(self):
        for m in range(2, 51):
            power = squared_determinant_delta_power(m)
            assert power.delta_power == (m - 1) * (2 * m - 1) % 12
            assert power.translation_value == squared_determinant_translation(m)

"""Congruent theta series, their symmetries, and translation eigenvalues."""

import math
from fractions import Fraction

import pytest

from qtheta import (NotAnEigenvector, PuiseuxSeries, ThetaIndex, UnityExponent, eta,
                    eta_power_exponent, odd_theta_series, theta_series, translation_eigenvalue)
from qtheta.characters import odd_theta_exponents
from qtheta.exact import _residues

F = Fraction


class TestThetaIndex:
    def test_residue_reduced(self):
        assert ThetaIndex(3, -1).residue_mu == 5
        assert ThetaIndex(3, 7).residue_mu == 1

    def test_negate(self):
        assert ThetaIndex(4, 3).negate().residue_mu == 5

    def test_positive_index_required(self):
        with pytest.raises(ValueError):
            ThetaIndex(0, 1)


class TestResidueRanges:
    """The residues below a key bound, and the series built on them, against
    brute-force filters and sums over every integer r in reach."""

    def test_residues_are_the_brute_force_filter(self):
        for m in range(1, 13):
            top = 3 * m + 3
            bounds = sorted({-2, -1, 0} | {k * k + d for k in range(1, top + 1)
                                           for d in (-1, 0, 1)})
            for mu in range(-3 * m, 3 * m + 1):
                reach = [r for r in range(-top - 1, top + 2) if (r - mu) % (2 * m) == 0]
                for bound in bounds:
                    got = _residues(m, mu, bound)
                    assert type(got) is range
                    assert list(got) == [r for r in reach if r * r < bound], (m, mu, bound)

    @pytest.mark.parametrize("window", [F(1, 8), F(9, 7), 1, 40])
    def test_series_are_brute_force_sums(self, window):
        for m in range(1, 13):
            cap = math.isqrt(4 * m * math.ceil(window)) + 1
            for mu in range(-m, 3 * m + 1):
                rs = [r for r in range(-cap, cap + 1)
                      if (r - mu) % (2 * m) == 0 and F(r * r, 4 * m) < window]
                sums = {}
                for r in rs:
                    sums[F(r * r, 4 * m)] = sums.get(F(r * r, 4 * m), 0) + r
                odd = odd_theta_series(ThetaIndex(m, mu), window)
                assert dict(odd.terms) == {e: c for e, c in sums.items() if c}
                assert odd.trunc == window and odd.base_denom == 4 * m
                if mu % m == 0:
                    assert odd.is_zero()
                two_var = theta_series(ThetaIndex(m, mu), window)
                assert dict(two_var.terms) == {(F(r * r, 4 * m), r): 1 for r in rs}
                assert two_var.q_trunc == window and two_var.base_denom == 4 * m


class TestOddThetaColumns:
    """The classes of an index built one at a time against one fold of r
    into its columns, the reading ``odd_theta_exponents`` takes."""

    @pytest.mark.parametrize("window", [F(-3, 2), 0, F(1, 8), F(9, 7), 1, "2m+2", 40])
    def test_columns_are_the_per_class_series(self, window):
        for m in range(1, 41):
            w = 2 * m + 2 if window == "2m+2" else F(window)
            # r = 1, 2, ... with r^2/4m below the window goes to its class
            # c = r mod 2m as the term r, or to the class 2m - c of -r as the
            # term -r when c > m; the classes 0 and m take nothing
            folded = [{} for _ in range(m + 1)]
            r = 1
            while F(r * r, 4 * m) < w:
                c = r % (2 * m)
                if c < m:
                    folded[c][F(r * r, 4 * m)] = r
                else:
                    folded[2 * m - c][F(r * r, 4 * m)] = -r
                r += 1
            for mu in range(1, m):
                single = odd_theta_series(ThetaIndex(m, mu), w)
                assert dict(single.terms) == folded[mu], (m, mu, w)
                assert single.trunc == w and single.base_denom == 4 * m
                assert single._den == 1


class TestTwoVariableSeries:
    def test_m2_mu1_window2(self):
        tv = theta_series(ThetaIndex(2, 1), 2)
        assert dict(tv.terms) == {(F(1, 8), 1): F(1), (F(9, 8), -3): F(1)}

    def test_m1_mu0_small_window(self):
        tv = theta_series(ThetaIndex(1, 0), F(1, 4))
        assert dict(tv.terms) == {(F(0), 0): F(1)}

    def test_m3_mu2_window1(self):
        tv = theta_series(ThetaIndex(3, 2), 1)
        assert dict(tv.terms) == {(F(1, 3), 2): F(1)}

    def test_zeta_negation_swaps_residue(self):
        idx = ThetaIndex(3, 1)
        a = theta_series(idx, 4)
        b = theta_series(idx.negate(), 4)
        assert dict(b.terms) == {(e, -r): c for (e, r), c in a.terms.items()}

    def test_z_derivative_consistency(self):
        # collapsing zeta d/dzeta of the odd combination gives twice the
        # odd one-variable series
        for m in range(1, 7):
            for mu in range(1, m):
                idx = ThetaIndex(m, mu)
                pair = theta_series(idx, 8) - theta_series(idx.negate(), 8)
                assert pair.zeta_moment(1) == 2 * odd_theta_series(idx, 8)


class TestOddThetaSeries:
    def test_m2_head(self):
        s = odd_theta_series(ThetaIndex(2, 1), 8)
        assert dict(s.terms) == {F(1, 8): F(1), F(9, 8): F(-3),
                                 F(25, 8): F(5), F(49, 8): F(-7)}

    def test_vanishing_residues(self):
        for m in range(1, 11):
            for mu in (0, m):
                assert odd_theta_series(ThetaIndex(m, mu), 12).is_zero()

    def test_odd_symmetry(self):
        for m in range(2, 11):
            for mu in range(1, m):
                plus = odd_theta_series(ThetaIndex(m, mu), 10)
                minus = odd_theta_series(ThetaIndex(m, 2 * m - mu), 10)
                assert (plus + minus).is_zero()

    def test_leading_term(self):
        for m in range(2, 11):
            for mu in range(1, m):
                lead = odd_theta_series(ThetaIndex(m, mu), m + 1).leading_term()
                assert lead == (F(mu * mu, 4 * m), F(mu))


class TestTranslationEigenvalue:
    def test_theta_classes(self):
        for m in range(2, 11):
            for mu in range(1, m):
                value = translation_eigenvalue(odd_theta_series(ThetaIndex(m, mu), 2 * m + 2))
                assert value == UnityExponent(F(mu * mu, 4 * m))

    def test_eta(self):
        assert translation_eigenvalue(eta(40)) == UnityExponent(F(1, 24))

    def test_off_the_theta_grid(self):
        s = eta(40)  # exponents 1/24 + n on the grid D = 24, no 1/4m grid
        assert s.base_denom == 24
        value = translation_eigenvalue(s)
        assert (value.num, value.den) == (1, 24)

    def test_finer_grid_gives_the_same_reduced_exponent(self):
        for m in range(2, 9):
            for mu in range(1, m):
                s = odd_theta_series(ThetaIndex(m, mu), 2 * m + 2)
                for factor in (2, 3, 5):
                    finer = PuiseuxSeries(dict(s.terms), s.trunc, factor * s.base_denom)
                    assert finer.base_denom == factor * 4 * m
                    value = translation_eigenvalue(finer)
                    assert value == translation_eigenvalue(s)
                    reduced = F(mu * mu, 4 * m) % 1
                    assert (value.num, value.den) == (reduced.numerator, reduced.denominator)

    def test_exponent_pair_is_the_eigenvalue_reduced(self):
        # on the 1/4m grid, on finer grids and lifted by q^1 and q^2
        for m in range(2, 13):
            for mu in range(1, m):
                s = odd_theta_series(ThetaIndex(m, mu), 2 * m + 2)
                reduced = F(mu * mu, 4 * m) % 1
                for factor, lift in ((1, 0), (3, 0), (1, 1), (2, 2)):
                    moved = PuiseuxSeries({e + lift: c for e, c in s.terms.items()},
                                          s.trunc + lift, factor * s.base_denom)
                    value = translation_eigenvalue(moved)
                    assert (value.num, value.den) == (reduced.numerator, reduced.denominator)
        value = translation_eigenvalue(eta(40))
        assert (value.num, value.den) == (1, 24)

    def test_exponent_pair_rejects_as_the_eigenvalue_does(self):
        s = PuiseuxSeries._make({9: 1, 7: 2, 5: -1, 1: 3, 3: 1}, 20, 1, 4, 1)
        with pytest.raises(NotAnEigenvector) as error:
            translation_eigenvalue(s)
        assert str(error.value) == "exponents 1/4 and 3/4 differ by a non-integer"
        with pytest.raises(ValueError) as error:
            translation_eigenvalue(PuiseuxSeries.zero(3))
        assert not isinstance(error.value, NotAnEigenvector)

    def test_mixed_residues_rejected(self):
        s = PuiseuxSeries({F(0): F(1), F(1, 2): F(1)}, 5)
        with pytest.raises(NotAnEigenvector):
            translation_eigenvalue(s)

    def test_zero_series_rejected(self):
        with pytest.raises(ValueError) as error:
            translation_eigenvalue(PuiseuxSeries.zero(3))
        assert not isinstance(error.value, NotAnEigenvector)

    def test_failure_names_the_least_offending_exponent(self):
        # a store out of exponent order, with the off-class terms 7/4 and 3/4
        # after the least exponent 1/4 and before it
        s = PuiseuxSeries._make({9: 1, 7: 2, 5: -1, 1: 3, 3: 1}, 20, 1, 4, 1)
        assert list(s._terms) != sorted(s._terms)
        with pytest.raises(NotAnEigenvector) as error:
            translation_eigenvalue(s)
        assert str(error.value) == "exponents 1/4 and 3/4 differ by a non-integer"


def eigenvalue_outcome(s):
    """``translation_eigenvalue(s)`` as its reduced pair, or the type and text
    of what it raises."""
    try:
        value = translation_eigenvalue(s)
    except ValueError as error:
        return type(error), str(error)
    return value.num, value.den


class TestTranslationExponents:
    """The eigenvalues of the odd theta columns, and of faulty columns."""

    def test_every_catalog_column_against_the_oracle(self):
        # the window verify-characters reads, to twice the catalog's range:
        # each eigenvalue is mu^2/4m mod 1, on at least two terms
        for m in range(2, 401):
            for mu in range(1, m):
                column = odd_theta_series(ThetaIndex(m, mu), 2 * m + 2)
                # mu and 2m - mu are both below 2m: each eigenvalue compares
                # at least one pair of exponents
                assert len(column._terms) >= 2, (m, mu)
                reduced = F(mu * mu, 4 * m) % 1
                assert eigenvalue_outcome(column) == \
                    (reduced.numerator, reduced.denominator), (m, mu)

    @staticmethod
    def faulty(m, mu, column):
        """The column shifted by q^(1/4m), with an off-class term, and zero."""
        d = column.base_denom
        yield PuiseuxSeries({e + F(1, d): c for e, c in column.terms.items()},
                            column.trunc + 1, d)
        yield column + PuiseuxSeries({F(mu * mu + 1, d): 5}, column.trunc, d)
        low = min(column.terms)
        yield column + PuiseuxSeries({low + F(m, d) + 1: -3}, column.trunc + 2, d)
        yield PuiseuxSeries._make({}, column._tn, column._td, d, 1)

    def test_shifted_corrupted_and_zero_against_the_oracle(self):
        for m in range(2, 25):
            for mu in range(1, m):
                column = odd_theta_series(ThetaIndex(m, mu), 2 * m + 2)
                shifted, off, far, zero = map(eigenvalue_outcome, self.faulty(m, mu, column))
                # the shift keeps one class, one step of 1/4m past mu^2
                reduced = F(mu * mu + 1, 4 * m) % 1
                assert shifted == (reduced.numerator, reduced.denominator), (m, mu)
                # each off-class term breaks it, named with the least exponent
                low = F(mu * mu, 4 * m)
                assert off == (NotAnEigenvector, f"exponents {low} and "
                               f"{F(mu * mu + 1, 4 * m)} differ by a non-integer"), (m, mu)
                assert far == (NotAnEigenvector, f"exponents {low} and "
                               f"{low + F(m, 4 * m) + 1} differ by a non-integer"), (m, mu)
                assert zero == (ValueError, "the zero series scales under every eigenvalue")


def read_all(pairs):
    """The pairs a generator yields, then the type and text of what it raises, or None."""
    got = []
    try:
        for pair in pairs:
            got.append(pair)
    except ValueError as error:
        return got, (type(error), str(error))
    return got, None


class TestOddThetaExponents:
    """The one integer pass over r against its reference, the eigenvalue of
    each series that ``odd_theta_series`` builds."""

    @staticmethod
    def reference(m, window):
        """``translation_eigenvalue`` of each odd series of index m, as its pair."""
        for mu in range(1, m):
            value = translation_eigenvalue(odd_theta_series(ThetaIndex(m, mu), window))
            yield value.num, value.den

    def test_catalog_windows_against_the_columns(self):
        # the window verify-characters reads, to twice the catalog's range
        for m in range(2, 401):
            assert list(odd_theta_exponents(m, 2 * m + 2)) == \
                list(self.reference(m, 2 * m + 2)), m

    @pytest.mark.parametrize("window", [F(-3, 2), 0, F(1, 8), F(9, 7), 1, F(81, 4), 40])
    def test_short_and_long_windows_against_the_columns(self, window):
        # on short windows the high classes are empty: the same pairs come out
        # before the first empty column, then the same error
        for m in range(1, 41):
            got = read_all(odd_theta_exponents(m, window))
            assert got == read_all(self.reference(m, window)), (m, window)
        assert read_all(odd_theta_exponents(9, 1)) == (
            [(1, 36), (1, 9), (1, 4), (4, 9), (25, 36)],
            (ValueError, "the zero series scales under every eigenvalue"))

    def test_index_must_be_positive(self):
        with pytest.raises(ValueError, match="index_m must be a positive integer"):
            list(odd_theta_exponents(0, 4))


def test_total_theta_order_closed_form():
    # the columns' lowest exponents mu^2/4m add up to the order lam/24 of
    # eta^lam, lam = (m-1)(2m-1): the order verify_eta_power compares
    for m in range(2, 201):
        assert sum(F(mu * mu, 4 * m) for mu in range(1, m)) == F(eta_power_exponent(m), 24)

"""Congruent theta series, their symmetries, and translation eigenvalues."""

import math
from fractions import Fraction

import pytest

from conftest import oracle_translation_exponent
from qtheta import (NotAnEigenvector, PuiseuxSeries, ThetaIndex, UnityExponent,
                    eta, odd_theta_columns, odd_theta_series, theta_series,
                    total_theta_order, translation_eigenvalue, translation_exponent,
                    translation_exponents)
from qtheta.theta import _residues, odd_theta_exponents

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
    """The one-pass column set of an index against its classes built one at a time."""

    @pytest.mark.parametrize("window", [F(-3, 2), 0, F(1, 8), F(9, 7), 1, "2m+2", 40])
    def test_columns_are_the_per_class_series(self, window):
        for m in range(1, 41):
            w = 2 * m + 2 if window == "2m+2" else window
            columns = odd_theta_columns(m, w)
            assert len(columns) == m - 1
            for mu, column in enumerate(columns, start=1):
                single = odd_theta_series(ThetaIndex(m, mu), w)
                assert column._terms == single._terms, (m, mu, w)
                assert (column._tn, column._td, column._den) == \
                    (single._tn, single._td, single._den), (m, mu, w)
                assert column.base_denom == single.base_denom == 4 * m
                assert column == single

    def test_index_must_be_positive(self):
        with pytest.raises(ValueError):
            odd_theta_columns(0, 4)


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
                    pair = translation_exponent(moved)
                    assert pair == (reduced.numerator, reduced.denominator)
                    value = translation_eigenvalue(moved)
                    assert (value.num, value.den) == pair
        assert translation_exponent(eta(40)) == (1, 24)

    def test_exponent_pair_rejects_as_the_eigenvalue_does(self):
        s = PuiseuxSeries._make({9: 1, 7: 2, 5: -1, 1: 3, 3: 1}, 20, 1, 4, 1)
        with pytest.raises(NotAnEigenvector) as error:
            translation_exponent(s)
        assert str(error.value) == "exponents 1/4 and 3/4 differ by a non-integer"
        with pytest.raises(ValueError) as error:
            translation_exponent(PuiseuxSeries.zero(3))
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


def oracle_outcome(s):
    """The oracle's pair for s, or the type and text of what it raises."""
    try:
        return oracle_translation_exponent(s)
    except ValueError as error:
        return type(error), str(error)


class TestTranslationExponents:
    """The one-pass exponents of a column sequence against the set-based oracle."""

    def test_every_catalog_column_against_the_oracle(self):
        # the window verify-characters reads, to twice the catalog's range
        for m in range(2, 401):
            columns = odd_theta_columns(m, 2 * m + 2)
            pairs = list(translation_exponents(columns))
            assert pairs == [oracle_translation_exponent(c) for c in columns], m
            for mu, (column, pair) in enumerate(zip(columns, pairs), start=1):
                # mu and 2m - mu are both below 2m: each eigenvalue compares
                # at least one pair of exponents
                assert len(column._terms) >= 2, (m, mu)
                reduced = F(mu * mu, 4 * m) % 1
                assert pair == (reduced.numerator, reduced.denominator), (m, mu)

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
            for mu, column in enumerate(odd_theta_columns(m, 2 * m + 2), start=1):
                outcomes = []
                for s in self.faulty(m, mu, column):
                    try:
                        got = translation_exponent(s)
                    except ValueError as error:
                        got = type(error), str(error)
                    assert got == oracle_outcome(s), (m, mu, dict(s.terms))
                    outcomes.append(got[0])
                # the shift keeps one class, each off-class term breaks it
                assert outcomes[1:] == [NotAnEigenvector, NotAnEigenvector, ValueError]
                assert type(outcomes[0]) is int

    def test_stops_at_the_first_bad_column(self):
        # the pairs before the bad column come out, then its error, as the
        # oracle raises it
        columns = odd_theta_columns(9, 20)
        bad = columns[3] + PuiseuxSeries({F(1, 2): 1}, columns[3].trunc, 36)
        pairs = translation_exponents(columns[:3] + [bad] + columns[4:])
        assert [next(pairs) for _ in range(3)] == \
            [oracle_translation_exponent(c) for c in columns[:3]]
        with pytest.raises(NotAnEigenvector) as error:
            next(pairs)
        assert (type(error.value), str(error.value)) == oracle_outcome(bad)
        assert list(translation_exponents([])) == []

    def test_one_series_is_the_one_element_call(self):
        for s in [eta(40), odd_theta_series(ThetaIndex(7, 3), 9),
                  PuiseuxSeries({F(5, 3): 2, F(11, 3): -1}, 6)]:
            assert translation_exponent(s) == next(translation_exponents([s])) \
                == oracle_translation_exponent(s)


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
    """The one integer pass over r against its reference, the exponents read
    off the series that ``odd_theta_columns`` builds."""

    def test_catalog_windows_against_the_columns(self):
        # the window verify-characters reads, to twice the catalog's range
        for m in range(2, 401):
            assert list(odd_theta_exponents(m, 2 * m + 2)) == \
                list(translation_exponents(odd_theta_columns(m, 2 * m + 2))), m

    @pytest.mark.parametrize("window", [F(-3, 2), 0, F(1, 8), F(9, 7), 1, F(81, 4), 40])
    def test_short_and_long_windows_against_the_columns(self, window):
        # on short windows the high classes are empty: the same pairs come out
        # before the first empty column, then the same error
        for m in range(1, 41):
            got = read_all(odd_theta_exponents(m, window))
            assert got == read_all(translation_exponents(odd_theta_columns(m, window))), \
                (m, window)
        assert read_all(odd_theta_exponents(9, 1)) == (
            [(1, 36), (1, 9), (1, 4), (4, 9), (25, 36)],
            (ValueError, "the zero series scales under every eigenvalue"))

    def test_index_must_be_positive(self):
        with pytest.raises(ValueError, match="index_m must be a positive integer"):
            list(odd_theta_exponents(0, 4))


def test_total_theta_order_closed_form():
    for m in range(2, 201):
        assert total_theta_order(m) == F((m - 1) * (2 * m - 1), 24)

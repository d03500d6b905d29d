"""Jacobi form tables, theta decomposition, and the Taylor operators."""

import math
import random
from fractions import Fraction

import pytest

from conftest import (assert_agree, assert_same_store, oracle_component_taylor,
                      oracle_from_theta_components, oracle_taylor, perfbench_workloads)
from qtheta import (EvenIndex, InvariantViolation, JacobiFormData, NotOdd,
                    PuiseuxSeries, ThetaComponents, ThetaIndex, ThetaTwoVar,
                    component_taylor, component_taylor_scale, development_operator,
                    dump_jacobi_table, eta, from_theta_components, jacobi, kernel_components,
                    kernel_equivalence, odd_theta_series, parse_jacobi_table,
                    partial_kernel_components, random_components, taylor_coefficient,
                    taylor_coefficients, theta_components, theta_series)

F = Fraction


def single_orbit_form(n_trunc=8):
    """Index-2 table generated by the class (mu=1, disc=7) with value 1."""
    return JacobiFormData.from_orbit_values(3, 2, 1, n_trunc, {(1, 7): F(1)})


class TestJacobiFormData:
    def test_single_orbit_table(self):
        phi = single_orbit_form()
        assert phi.coeffs[(1, 1)] == 1
        assert phi.coeffs[(1, -1)] == -1
        assert phi.coeffs[(2, 3)] == -1          # 3 = -1 mod 4, odd partner
        assert phi.coeffs[(4, 5)] == 1           # 4*2*4 - 25 = 7, same class
        assert (0, 0) not in phi.coeffs

    def test_zero_residue_forced_to_vanish(self):
        with pytest.raises(InvariantViolation):
            JacobiFormData.from_orbit_values(3, 2, 1, 4, {(0, 0): F(1)})
        with pytest.raises(InvariantViolation):
            JacobiFormData.from_orbit_values(3, 2, 1, 4, {(2, 4): F(1)})

    def test_odd_symmetry_enforced(self):
        with pytest.raises(InvariantViolation):
            JacobiFormData(3, 2, 1, 4, {(1, 1): F(1), (1, -1): F(1)})

    def test_orbit_dependence_enforced(self):
        phi = single_orbit_form(4)
        table = dict(phi.coeffs)
        table[(2, 3)] = F(5)                     # breaks the class value
        with pytest.raises(InvariantViolation):
            JacobiFormData(3, 2, 1, 4, table)

    def test_incomplete_orbit_rejected(self):
        with pytest.raises(InvariantViolation):
            JacobiFormData(3, 2, 1, 4, {(1, 1): F(1), (1, -1): F(-1)})

    def test_holomorphic_bound_enforced(self):
        with pytest.raises(InvariantViolation):
            JacobiFormData(3, 2, 1, 4, {(0, 1): F(1), (0, -1): F(-1)})

    def test_even_weight_rejected(self):
        with pytest.raises(InvariantViolation):
            JacobiFormData(4, 2, 1, 4, {})

    def test_bad_class_rejected(self):
        with pytest.raises(InvariantViolation):
            JacobiFormData.from_orbit_values(3, 2, 1, 4, {(1, 6): F(1)})

    def test_fractional_window_and_messages(self):
        # n_trunc 5/2 keeps the rows n = 0, 1, 2 and drops n = 3 unchecked;
        # each violation is named by the same message, byte for byte
        phi = single_orbit_form(F(5, 2))
        assert JacobiFormData(3, 2, 1, F(5, 2), {**phi.coeffs, (3, 1): F(9)}).coeffs == phi.coeffs
        for table, message in (
                ({**phi.coeffs, (2, 3): F(5)}, "c(2,3) = 5 conflicts with class (3, 7) value -1"),
                ({(1, 1): F(1), (1, -1): F(1)}, "odd symmetry fails for class (mu=1, disc=7)"),
                ({(1, 1): F(1), (1, -1): F(-1)},
                 "c(2,-3) must depend only on (r mod 2m, 4mn - r^2); expected 1")):
            with pytest.raises(InvariantViolation) as error:
                JacobiFormData(3, 2, 1, F(5, 2), table)
            assert str(error.value) == message


class TestThetaDecomposition:
    def test_single_orbit_component(self):
        h = theta_components(single_orbit_form())
        assert dict(h.components[0].terms) == {F(7, 8): F(1)}
        assert h.components[0].trunc == 8 - F(1, 8)

    def test_zero_form(self):
        phi = JacobiFormData(3, 3, 1, 5, {})
        h = theta_components(phi)
        assert all(c.is_zero() for c in h.components)

    def test_roundtrip_through_two_variable_series(self):
        rng = random.Random(31)
        for m in (2, 3, 4):
            h = random_components(m, 6, rng)
            tv = from_theta_components(h, 6)
            phi = JacobiFormData.from_two_var(tv, 3, m, 1)
            back = theta_components(phi)
            for mine, theirs in zip(h.components, back.components):
                assert_agree(mine, theirs)

    def test_random_components_on_the_validating_constructor(self):
        # the same draws, in the same order, through PuiseuxSeries(...) on
        # Fraction exponents: the same stores, and the rng ends in one state
        for m, n_trunc in ((3, 6), (5, F(37, 7)), (7, 2), (9, F(1, 3))):
            rng, oracle_rng = random.Random(m), random.Random(m)
            h = random_components(m, n_trunc, rng)
            for mu, series in enumerate(h.components, start=1):
                trunc = n_trunc - F(mu * mu, 4 * m)
                grid = []
                disc = (-mu * mu) % (4 * m)
                while F(disc, 4 * m) < trunc:
                    grid.append(disc)
                    disc += 4 * m
                terms = {}
                for disc in oracle_rng.sample(grid, min(3, len(grid))):
                    numerator = oracle_rng.choice([x for x in range(-9, 10) if x])
                    terms[F(disc, 4 * m)] = F(numerator, oracle_rng.randint(1, 4))
                expected = PuiseuxSeries(terms, trunc, base_denom=4 * m)
                assert (series._terms, series.trunc, series.base_denom, series._den) == \
                    (expected._terms, expected.trunc, expected.base_denom, expected._den)
            assert rng.getstate() == oracle_rng.getstate()

    def test_roundtrip_on_tables(self):
        phi = single_orbit_form()
        tv = from_theta_components(theta_components(phi), phi.n_trunc)
        back = JacobiFormData.from_two_var(tv, phi.weight_k, phi.index_m, phi.level_N)
        window = back.n_trunc
        assert {k: v for k, v in phi.coeffs.items() if k[0] < window} == dict(back.coeffs)

    def test_component_count(self):
        with pytest.raises(ValueError):
            ThetaComponents(3, (odd_theta_series(ThetaIndex(3, 1), 4),))


class TestAssembly:
    def test_unit_component(self):
        idx = ThetaIndex(2, 1)
        h = ThetaComponents(2, (PuiseuxSeries.one(4),))
        tv = from_theta_components(h, 4)
        assert tv == theta_series(idx, 4) - theta_series(idx.negate(), 4)

    def test_zero_components(self):
        h = ThetaComponents(3, (PuiseuxSeries.zero(5, 12), PuiseuxSeries.zero(5, 12)))
        assert from_theta_components(h, 5).is_zero()

    def test_eta_component_brute_force(self):
        e = eta(6)
        h = ThetaComponents(3, (e, PuiseuxSeries.zero(6, 12)))
        tv = from_theta_components(h, 6)
        idx = ThetaIndex(3, 1)
        pair = theta_series(idx, 6) - theta_series(idx.negate(), 6)
        expected = {}
        for (qe, r), c in pair.terms.items():
            for ee, ec in e.terms.items():
                if qe + ee < tv.q_trunc:
                    key = (qe + ee, r)
                    expected[key] = expected.get(key, F(0)) + c * ec
        assert dict(tv.terms) == {k: v for k, v in expected.items() if v}

    def test_even_moments_vanish(self):
        rng = random.Random(37)
        for m in (2, 3, 5):
            tv = from_theta_components(random_components(m, 6, rng), 6)
            assert tv.is_zeta_odd()
            assert tv.zeta_moment(0).is_zero()
            assert tv.zeta_moment(2).is_zero()


class TestTaylorCoefficients:
    def test_unit_component_gives_doubled_theta(self):
        h = ThetaComponents(2, (PuiseuxSeries.one(6),))
        tv = from_theta_components(h, 6)
        assert_agree(taylor_coefficient(tv, 1),
                     2 * odd_theta_series(ThetaIndex(2, 1), 6))

    def test_zero_series(self):
        tv = ThetaTwoVar({}, 4, 8)
        assert taylor_coefficient(tv, 1).is_zero()

    def test_not_odd_rejected(self):
        tv = ThetaTwoVar({(F(0), 2): F(1)}, 4, 8)
        with pytest.raises(NotOdd):
            taylor_coefficient(tv, 1)

    def test_two_path_identity(self):
        rng = random.Random(41)
        for m in (3, 4, 5):
            for _ in range(6):
                h = random_components(m, 10, rng)
                tv = from_theta_components(h, 10)
                for nu in range(1, m):
                    direct = taylor_coefficient(tv, nu)
                    via = component_taylor_scale(nu, m) * component_taylor(h, nu)
                    assert_agree(direct, via)

    def test_component_taylor_single_column(self):
        h = ThetaComponents(2, (PuiseuxSeries.one(6),))
        assert_agree(component_taylor(h, 1), odd_theta_series(ThetaIndex(2, 1), 6))

    def test_scale_values(self):
        assert component_taylor_scale(1, 2) == 2
        assert component_taylor_scale(2, 3) == F(2 * 12, math.factorial(3))
        assert component_taylor_scale(3, 5) == F(2 * 400, math.factorial(5))

    def test_nu_range_enforced(self):
        rng = random.Random(43)
        h = random_components(3, 5, rng)
        with pytest.raises(ValueError):
            component_taylor(h, 3)

    def test_infinite_component_window_rejected(self):
        # h_1 = 1 is exact to every order, so its theta series has no window
        h = ThetaComponents(3, (PuiseuxSeries.one(), PuiseuxSeries.zero(5, 12)))
        with pytest.raises(ValueError, match="h_1 has an infinite window"):
            component_taylor(h, 1)


class TestCachedBuilders:
    """The theta ladders and theta pairs built once per (m, mu, window), and
    the one-pass Taylor moments, against the per-tuple, per-nu rebuilds of
    the oracles in conftest, store for store."""

    @staticmethod
    def assert_matches_oracles(h, q_trunc):
        m = h.index_m
        for nu in range(1, m):
            assert_same_store(component_taylor(h, nu), oracle_component_taylor(h, nu))
        tv = from_theta_components(h, q_trunc)
        assert_same_store(tv, oracle_from_theta_components(h, q_trunc))
        expected = [oracle_taylor(tv, nu) for nu in range(1, m)]
        for got, want in zip(taylor_coefficients(tv, range(1, m)), expected, strict=True):
            assert_same_store(got, want)
        for nu in range(1, m):
            assert_same_store(taylor_coefficient(tv, nu), expected[nu - 1])

    # integer, fractional, and short windows: at 1/3 and 5/7 every class
    # draws nothing, and its zero component, on a window below q_trunc, is
    # not skipped: it cuts the assembled form's window
    @pytest.mark.parametrize("q_trunc", [F(12), F(25, 2), F(7, 3), F(5, 7), F(1, 3)])
    def test_random_tuples(self, q_trunc):
        rng = random.Random(int(q_trunc * 21))
        for m in range(2, 13):
            for _ in range(2):
                self.assert_matches_oracles(random_components(m, q_trunc, rng), q_trunc)

    def test_mixed_grids_and_denominators(self):
        # components moved onto finer grids of their own and scaled, so the
        # products meet on an lcm grid over an lcm denominator
        rng = random.Random(53)
        for m in (3, 5, 8):
            h = random_components(m, F(17, 2), rng)
            mixed = ThetaComponents(m, tuple(
                PuiseuxSeries(c.terms, c.trunc, c.base_denom * (mu % 3 + 1)) * F(mu, 7)
                for mu, c in enumerate(h.components, start=1)))
            self.assert_matches_oracles(mixed, F(17, 2))

    @pytest.mark.parametrize("q_trunc", [F(12), F(25, 2)])
    def test_kernel_tuples(self, q_trunc):
        # the last-row cofactors: each component on its own window
        for m in range(3, 9):
            h = kernel_components(m, q_trunc)
            if m > 3:
                assert len({c.trunc for c in h.components}) > 1
            self.assert_matches_oracles(h, q_trunc)

    def test_dense_index_7_table(self):
        phi = parse_jacobi_table(perfbench_workloads().jacobi_table(random.Random(0)))
        assert (phi.index_m, phi.n_trunc) == (7, 20)
        self.assert_matches_oracles(theta_components(phi), phi.n_trunc)

    def test_series_built_once_per_class_and_window(self, monkeypatch):
        # three tuples on one window, every nu: one odd theta series and two
        # two-variable theta series per class, m - 2 derivatives per ladder
        calls = {"odd": 0, "two_var": 0, "derivative": 0}

        def counted(name, function):
            def wrapper(*args):
                calls[name] += 1
                return function(*args)
            return wrapper

        monkeypatch.setattr(jacobi, "odd_theta_series", counted("odd", odd_theta_series))
        monkeypatch.setattr(jacobi, "theta_series", counted("two_var", theta_series))
        monkeypatch.setattr(PuiseuxSeries, "q_derivative",
                            counted("derivative", PuiseuxSeries.q_derivative))
        jacobi._theta_ladder.cache_clear()
        jacobi._theta_pair.cache_clear()
        rng = random.Random(59)
        m, q_trunc = 6, F(23, 2)
        for _ in range(3):
            h = random_components(m, q_trunc, rng)
            for nu in range(1, m):
                component_taylor(h, nu)
            from_theta_components(h, q_trunc)
        assert calls == {"odd": m - 1, "two_var": 2 * (m - 1), "derivative": (m - 1) * (m - 2)}

    def test_any_order_of_nu(self):
        tv = from_theta_components(random_components(4, 6, random.Random(61)), 6)
        for got, nu in zip(taylor_coefficients(tv, (3, 1, 2, 1)), (3, 1, 2, 1)):
            assert_same_store(got, oracle_taylor(tv, nu))
        with pytest.raises(ValueError, match="positive"):
            taylor_coefficients(tv, (0, 1))
        with pytest.raises(ValueError, match="nonnegative"):
            tv.zeta_moments((1, -1))


def taylors_of(tv, count):
    """The first ``count`` Taylor coefficients chi_1, chi_2, ... of ``tv``."""
    return [taylor_coefficient(tv, nu) for nu in range(1, count + 1)]


class TestDevelopmentOperator:
    def test_first_operator_is_scaled_taylor(self):
        rng = random.Random(47)
        for k in (3, 5):
            h = random_components(3, 8, rng)
            tv = from_theta_components(h, 8)
            assert_agree(development_operator(taylors_of(tv, 1), k, 1, 3),
                         taylor_coefficient(tv, 1) / k)

    def test_zero_form(self):
        taylors = taylors_of(ThetaTwoVar({}, 6, 12), 3)
        for nu in (1, 3, 5):
            assert development_operator(taylors, 3, nu, 3).is_zero()

    def test_even_index_rejected(self):
        taylors = taylors_of(ThetaTwoVar({}, 6, 12), 1)
        with pytest.raises(EvenIndex):
            development_operator(taylors, 3, 2, 3)

    def test_too_few_taylor_coefficients_rejected(self):
        taylors = taylors_of(ThetaTwoVar({}, 6, 12), 1)
        with pytest.raises(ValueError, match="nu=3 needs the first 2 Taylor coefficients"):
            development_operator(taylors, 3, 3, 3)

    def test_index_comes_from_the_caller_not_the_grid(self):
        # the same components on the 1/40 grid assemble to an equal series;
        # reading m off the grid would have taken m = 10 for this index-5 form
        h = random_components(5, 6, random.Random(1))
        fine = ThetaComponents(5, tuple(PuiseuxSeries(c.terms, c.trunc, 40)
                                        for c in h.components))
        tv, tv_fine = from_theta_components(h, 6), from_theta_components(fine, 6)
        assert tv_fine.base_denom == 40 and tv_fine == tv
        taylors, taylors_fine = taylors_of(tv, 2), taylors_of(tv_fine, 2)
        operator = development_operator(taylors, 3, 3, 5)
        assert development_operator(taylors_fine, 3, 3, 5) == operator
        assert development_operator(taylors_fine, 3, 3, 10) != operator

    def test_triangularity(self):
        # first two Taylor coefficients vanish, so the order-5 operator is
        # the single remaining term with its nonzero leading factor
        tv = from_theta_components(kernel_components(4, 10), 10)
        taylors = taylors_of(tv, 3)
        chi5 = taylors[2]
        assert not chi5.is_zero()
        k = 3
        factor = F(math.factorial(k + 5 - 2), math.factorial(k + 10 - 2))
        assert_agree(development_operator(taylors, k, 5, 4), factor * chi5)

    def test_operator_formula(self):
        # the order-5 operator of a generic form, term by term from the formula
        rng = random.Random(67)
        for m in (3, 4):
            tv = from_theta_components(random_components(m, 8, rng), 8)
            chi1, chi2, chi3 = taylors_of(tv, 3)
            k, nu = 5, 5
            expected = None
            for j, chi in enumerate((chi3, chi2, chi1)):
                factor = F((-m) ** j * math.factorial(k + nu - j - 2),
                           math.factorial(k + 2 * nu - 2) * math.factorial(j))
                term = factor * chi.q_derivative_iterate(j)
                expected = term if expected is None else expected + term
            assert_agree(development_operator([chi1, chi2, chi3], k, nu, m), expected)


class TestKernelEquivalence:
    def test_zero_form(self):
        tv = ThetaTwoVar({}, 5, 12)
        assert kernel_equivalence(taylors_of(tv, 2), 3, 3) == (True, True)

    def test_generic_form_fails_both(self):
        rng = random.Random(53)
        h = random_components(3, 8, rng)
        tv = from_theta_components(h, 8)
        first = taylor_coefficient(tv, 1)
        if not first.is_zero():
            assert kernel_equivalence([first], 3, 3) == (False, False)

    def test_prescribed_vanishing(self):
        for m, j in ((4, 1), (5, 2), (5, 3)):
            h = partial_kernel_components(m, 10, j)
            taylors = taylors_of(from_theta_components(h, 10), j + 1)
            assert kernel_equivalence(taylors[:j], 3, m) == (True, True)
            assert kernel_equivalence(taylors, 3, m) == (False, False)

    def test_booleans_always_agree(self):
        rng = random.Random(59)
        for m in (3, 4, 5):
            for _ in range(8):
                h = random_components(m, 7, rng)
                tv = from_theta_components(h, 7)
                ops, taylors = kernel_equivalence(taylors_of(tv, m - 1), 3, m)
                assert ops == taylors

    def test_needs_a_taylor_coefficient(self):
        with pytest.raises(ValueError):
            kernel_equivalence([], 3, 3)

    def test_ladders_take_each_derivative_once(self, monkeypatch):
        # the kernel tuple's chi_1..chi_(m-2) vanish and chi_(m-1) does not,
        # so every operator is read: chi_i to (q d/dq)^(j-i) for j operators,
        # j(j-1)/2 derivatives in all, where one development_operator call per
        # operator takes j(j-1)(j+1)/6.  A random tuple stops at the first
        q_derivative = PuiseuxSeries.q_derivative
        calls = []

        def counted(s):
            calls.append(s)
            return q_derivative(s)

        rng = random.Random(71)
        for m, k in ((6, 3), (7, 5)):
            kernel = taylors_of(from_theta_components(kernel_components(m, 12), 12), m - 1)
            generic = taylors_of(from_theta_components(random_components(m, 12, rng), 12), m - 1)
            for taylors, outcome, derivatives in (
                    (kernel[:-1], (True, True), (m - 2) * (m - 3) // 2),
                    (kernel, (False, False), (m - 1) * (m - 2) // 2),
                    (generic, (False, False), 0)):
                operators = all(development_operator(taylors, k, 2 * nu - 1, m).is_zero()
                                for nu in range(1, len(taylors) + 1))
                monkeypatch.setattr(PuiseuxSeries, "q_derivative", counted)
                calls.clear()
                assert kernel_equivalence(taylors, k, m) == (operators, outcome[1]) == outcome
                monkeypatch.setattr(PuiseuxSeries, "q_derivative", q_derivative)
                assert len(calls) == derivatives, (m, outcome)

    @pytest.mark.parametrize("k, m, message", [(4, 3, "k must be a positive odd integer"),
                                               (3, 0, "m must be a positive integer")])
    def test_bad_weight_or_index_rejected(self, k, m, message):
        taylors = taylors_of(ThetaTwoVar({}, 6, 12), 2)
        with pytest.raises(ValueError, match=message):
            kernel_equivalence(taylors, k, m)
        with pytest.raises(ValueError, match=message):
            development_operator(taylors, k, 3, m)


class TestCoefficientFile:
    def test_golden_dump(self):
        phi = JacobiFormData.from_orbit_values(3, 2, 1, 3, {(1, 7): F(1, 2)})
        expected = ("k=3 m=2 N=1 trunc=3/1\n"
                    "1 -1 -1/2\n"
                    "1 1 1/2\n"
                    "2 -3 1/2\n"
                    "2 3 -1/2\n")
        assert dump_jacobi_table(phi) == expected

    def test_roundtrip(self):
        phi = single_orbit_form()
        back = parse_jacobi_table(dump_jacobi_table(phi))
        assert dict(back.coeffs) == dict(phi.coeffs)
        assert (back.weight_k, back.index_m, back.level_N, back.n_trunc) == \
            (phi.weight_k, phi.index_m, phi.level_N, phi.n_trunc)

    def test_parse_validates(self):
        bad = "k=3 m=2 N=1 trunc=4/1\n1 1 1/1\n"
        with pytest.raises(InvariantViolation):
            parse_jacobi_table(bad)

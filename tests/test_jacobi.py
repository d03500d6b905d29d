"""Jacobi form tables, theta decomposition, and the Taylor operators."""

import math
import random
from fractions import Fraction

import pytest

from conftest import (assert_agree, assert_same_store, oracle_component_taylor,
                      oracle_from_theta_components, oracle_jacobi_table, oracle_taylor,
                      oracle_theta_components, perfbench_workloads, q_derivative_iterate)
from oracles import component_taylor_scale, from_orbit_values, partial_kernel_components
from qtheta import (EvenIndex, InvariantViolation, JacobiFormData, NotOdd,
                    PuiseuxSeries, ThetaComponents, ThetaIndex, ThetaTwoVar,
                    component_taylor, development_operator, dump_jacobi_table, eta,
                    from_theta_components, jacobi, kernel_components, kernel_equivalence,
                    odd_theta_series, parse_jacobi_table, random_components, taylor_coefficient,
                    taylor_from_moment, taylor_moments, theta_components, theta_series,
                    two_path_taylor)
from qtheta.exact import _rational_pair

F = Fraction


def single_orbit_form(n_trunc=8):
    """Index-2 table generated by the class (mu=1, disc=7) with value 1."""
    return from_orbit_values(3, 2, 1, n_trunc, {(1, 7): F(1)})


def table_of(tv: ThetaTwoVar, weight_k: int, index_m: int, level_N: int) -> JacobiFormData:
    """The Fourier table read off a two-variable series with integer q-exponents."""
    assert all(e.denominator == 1 for e, _ in tv.terms), "q-exponents must be integers"
    return JacobiFormData(weight_k, index_m, level_N, tv.q_trunc,
                          {(int(e), r): c for (e, r), c in tv.terms.items()})


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
            from_orbit_values(3, 2, 1, 4, {(0, 0): F(1)})
        with pytest.raises(InvariantViolation):
            from_orbit_values(3, 2, 1, 4, {(2, 4): F(1)})

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
            from_orbit_values(3, 2, 1, 4, {(1, 6): F(1)})

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


def rewrite_values(text: str, rewrite) -> str:
    """A table text with each row's value text a/b replaced by rewrite(a, b)."""
    header, *rows = text.splitlines()
    out = [header]
    for row in rows:
        n, r, c = row.split()
        out.append(f"{n} {r} {rewrite(*c.split('/'))}")
    return "\n".join(out) + "\n"


def random_table(rng, m: int, n_trunc: int) -> str:
    """An orbit-complete table of index m with about a third of its classes
    dropped (both signs of a class go), so some components are sparse."""
    header, *rows = perfbench_workloads().jacobi_table(rng, m=m, n_trunc=n_trunc).splitlines()
    dropped: dict = {}
    kept = [header]
    for row in rows:
        n, r = map(int, row.split()[:2])
        if not dropped.setdefault((min(r % (2 * m), -r % (2 * m)), 4 * m * n - r * r),
                                  rng.random() < 0.3):
            kept.append(row)
    return "\n".join(kept) + "\n"


class TestTableIngestion:
    """Tables read on int pairs against the Fraction route in conftest."""

    @staticmethod
    def assert_matches_oracle(text):
        (k, m, level, n_trunc), coeffs, orbit = oracle_jacobi_table(text)
        phi = parse_jacobi_table(text)
        assert (phi.weight_k, phi.index_m, phi.level_N, phi.n_trunc) == (k, m, level, n_trunc)
        assert dict(phi.coeffs) == coeffs and dict(phi.orbit_values) == orbit
        assert list(phi.orbit_values) == list(orbit)  # the classes in first-seen order
        assert phi.is_zero() == (not orbit)
        h = theta_components(phi)
        for got, want in zip(h.components, oracle_theta_components(m, n_trunc, orbit),
                             strict=True):
            assert_same_store(got, want)
            assert list(got._terms) == list(want._terms)
        return phi

    @pytest.mark.parametrize("m", range(2, 10))
    def test_random_tables(self, m):
        rng = random.Random(m)
        for n_trunc in (1, 2, 5):
            self.assert_matches_oracle(random_table(rng, m, n_trunc))
        phi = self.assert_matches_oracle(perfbench_workloads().jacobi_table(rng, m=m, n_trunc=6))
        assert not phi.is_zero()

    def test_variant_0_table_and_fractional_window(self):
        text = perfbench_workloads().jacobi_table(random.Random(0))
        self.assert_matches_oracle(text)
        # trunc 37/2 drops the rows n = 19 unread, and every h_mu's window moves
        self.assert_matches_oracle(text.replace("trunc=20/1", "trunc=37/2", 1))
        self.assert_matches_oracle("k=3 m=7 N=1 trunc=4/1\n")

    def test_unreduced_values_parse_to_the_reduced_table(self):
        # 2/4, 1/-3 and -0/5: a value's pair is reduced with den >= 1, and a
        # zero row is dropped before any check, even one outside 4mn >= r^2
        text = perfbench_workloads().jacobi_table(random.Random(3), m=5, n_trunc=6)
        reduced = parse_jacobi_table(text)
        for rewrite in (lambda a, b: f"{2 * int(a)}/{2 * int(b)}",
                        lambda a, b: f"{-int(a)}/-{b}",
                        lambda a, b: f"{-3 * int(a)}/{-3 * int(b)}"):
            variant = rewrite_values(text, rewrite) + "2 0 -0/5\n3 10 0/-7\n"
            phi = self.assert_matches_oracle(variant)
            assert phi._coeffs == reduced._coeffs and phi._orbit == reduced._orbit
            assert dump_jacobi_table(phi) == dump_jacobi_table(reduced)
            for got, want in zip(theta_components(phi).components,
                                 theta_components(reduced).components):
                assert_same_store(got, want)
        for text, pair in (("2/4", (1, 2)), ("1/-3", (-1, 3)), ("-0/5", (0, 1)), ("-6", (-6, 1)),
                           ("0/-7", (0, 1)), ("-4/-6", (2, 3))):
            assert _rational_pair(text) == pair

    @pytest.mark.parametrize("edit, error", [
        # a class conflict: c(2, 3) of index 2 is in the class of c(1, -1)
        (lambda rows: rows + ["2 3 5/1"], InvariantViolation),
        # broken odd symmetry: the class of c(1, -1) and c(2, 3) flipped whole
        (lambda rows: [row.replace(" -1/2", " 1/2") if row.startswith(("1 -1 ", "2 3 "))
                       else row for row in rows], InvariantViolation),
        # an orbit gap: the representative (2, -3) of a class is missing
        (lambda rows: [row for row in rows if not row.startswith("2 -3 ")], InvariantViolation),
        # 4mn < r^2 at (0, 1)
        (lambda rows: rows + ["0 1 1/1", "0 -1 -1/1"], InvariantViolation),
        # a zero denominator, also on a zero value
        (lambda rows: rows + ["5 1 0/0"], ValueError),
        (lambda rows: rows[:3] + ["3 1 7/0"] + rows[3:], ValueError),
        # every row is read before the header is checked, and the header is
        # checked before any row is validated
        (lambda rows: [rows[0].replace("k=3", "k=4")] + rows[1:] + ["9 9 1/0"], ValueError),
        # a header with no trunc= field, and one with no N= field: each named
        # by its line, as any line that does not parse
        (lambda rows: [rows[0].replace(" trunc=4/1", "")] + rows[1:], ValueError),
        (lambda rows: [rows[0].replace(" N=1", "")] + rows[1:], ValueError),
        (lambda rows: [rows[0].replace("k=3", "k=4")] + rows[1:] + ["-1 1 1/1"],
         InvariantViolation),
        (lambda rows: [rows[0].replace("trunc=4/1", "trunc=0/3")] + rows[1:],
         InvariantViolation),
        (lambda rows: rows + ["-1 1 1/1"], InvariantViolation),
    ])
    def test_malformed_tables_fail_as_the_oracle(self, edit, error):
        phi = from_orbit_values(3, 2, 1, 4, {(1, 7): F(1, 2), (1, 15): F(-3)})
        text = "\n".join(edit(dump_jacobi_table(phi).splitlines())) + "\n"
        with pytest.raises(error) as expected:
            oracle_jacobi_table(text)
        with pytest.raises(error) as got:
            parse_jacobi_table(text)
        assert type(got.value) is type(expected.value)
        assert str(got.value) == str(expected.value)

    def test_mapping_constructor_takes_the_same_checks(self):
        # __init__ turns its Fractions into pairs for the one validator
        phi = JacobiFormData(3, 2, 1, 4, {(1, 1): F(2, 4), (1, -1): F(-1, 2), (2, 3): F(-1, 2),
                                          (2, -3): 0.5, (2, 1): F(0)})
        assert phi._coeffs == {(1, 1): (1, 2), (1, -1): (-1, 2), (2, 3): (-1, 2),
                               (2, -3): (1, 2)}
        with pytest.raises(InvariantViolation, match=r"c\(2,3\) = 1/3 conflicts with "
                                                     r"class \(3, 7\) value -1/2"):
            JacobiFormData(3, 2, 1, 4, {(1, 1): F(1, 2), (1, -1): F(-1, 2), (2, 3): F(1, 3)})


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
            phi = table_of(tv, 3, m, 1)
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

    def test_seeded_draws_are_pinned(self):
        # the numerators are one module-level tuple, the population the draws
        # always had, so a seed gives the same tuples and leaves the stream
        # in the same state
        rng = random.Random(2024)
        drawn = {m: [[(n, str(F(c, s._den))) for n, c in sorted(s._terms.items())]
                     for s in random_components(m, 6, rng).components] for m in (3, 4, 5)}
        assert drawn == {
            3: [[(23, "5/3"), (35, "9/2"), (47, "1/2")], [(20, "8"), (32, "1/3"), (44, "4")]],
            4: [[(31, "-5/2"), (47, "3/4"), (63, "5")], [(12, "4/3"), (44, "3/2"), (60, "-5/3")],
                [(23, "-3"), (39, "1"), (55, "5/2")]],
            5: [[(19, "5"), (39, "8/3"), (99, "1")], [(36, "-5/2"), (76, "3/4"), (96, "-5/3")],
                [(31, "-3"), (51, "-5/3"), (71, "3")], [(4, "-5/4"), (24, "-2/3"), (84, "-2")]]}
        assert rng.random() == 0.19564678373194588
        assert jacobi._NUMERATORS == tuple(x for x in range(-9, 10) if x)

    def test_roundtrip_on_tables(self):
        phi = single_orbit_form()
        tv = from_theta_components(theta_components(phi), phi.n_trunc)
        back = table_of(tv, phi.weight_k, phi.index_m, phi.level_N)
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
        moments = taylor_moments(tv, range(1, m))
        for nu, moment, want in zip(range(1, m), moments, expected, strict=True):
            assert_same_store(taylor_from_moment(moment, nu), want)
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
        nus = (3, 1, 2, 1)
        for moment, nu in zip(taylor_moments(tv, nus), nus, strict=True):
            assert_same_store(taylor_from_moment(moment, nu), oracle_taylor(tv, nu))
        with pytest.raises(ValueError, match="positive"):
            taylor_moments(tv, (0, 1))
        with pytest.raises(ValueError, match="nonnegative"):
            tv.zeta_moments((1, -1))


class TestTwoPathTaylor:
    """The two-path check on the int stores against the Fraction difference
    taylor - component_taylor_scale * row, on true and on faulty rows."""

    @staticmethod
    def cases():
        rng = random.Random(79)
        for m in range(2, 7):
            for q_trunc in (F(12), F(25, 2), F(7, 3)):
                h = random_components(m, q_trunc, rng)
                # the same tuple on finer grids and over other denominators
                mixed = ThetaComponents(m, tuple(
                    PuiseuxSeries(c.terms, c.trunc, c.base_denom * (mu % 3 + 1)) * F(mu, 7)
                    for mu, c in enumerate(h.components, start=1)))
                for tuple_ in (h, mixed):
                    moments = taylor_moments(from_theta_components(tuple_, q_trunc), range(1, m))
                    for nu, moment in enumerate(moments, start=1):
                        yield m, nu, moment, component_taylor(tuple_, nu)

    @staticmethod
    def fraction_route(moment, row, nu, m) -> bool:
        return (moment / math.factorial(2 * nu - 1)
                - component_taylor_scale(nu, m) * row).is_zero()

    @staticmethod
    def with_term(s, key, coefficient, raise_window=False):
        """s plus the term coefficient at ``key`` on its grid; with
        ``raise_window``, on a window one past its own, so the key may sit at
        or past the old one."""
        trunc = s.trunc + 1 if raise_window else s.trunc
        return PuiseuxSeries({**s.terms, F(key, s.base_denom): coefficient}, trunc, s.base_denom)

    def test_true_rows_pass_and_faulty_rows_fail(self):
        count = 0
        for m, nu, moment, row in self.cases():
            assert two_path_taylor(moment, row, nu, m)
            assert_same_store(taylor_from_moment(moment, nu),
                              moment / math.factorial(2 * nu - 1))
            if row.is_zero():
                continue
            count += 1
            window = min(moment.trunc, row.trunc)
            top = math.ceil(window * row.base_denom) - 1  # the last key below the lower window
            faults = [2 * row, self.with_term(row, 0, F(1, 7)), self.with_term(row, top, F(-3)),
                      self.with_term(row, min(row._terms), F(1, 7))]
            for bad in faults:
                assert not two_path_taylor(moment, bad, nu, m)
                assert not self.fraction_route(moment, bad, nu, m)
            # a term at or past the lower window is not compared, on either side
            for key in (top + 1, top + 2):
                lifted = self.with_term(row, key, F(5), raise_window=True)
                assert two_path_taylor(moment, lifted, nu, m)
                assert self.fraction_route(moment, lifted, nu, m)
            first = math.ceil(window * moment.base_denom)  # the first moment key past it
            for key in (first, first + 3):
                lifted = self.with_term(moment, key, F(5), raise_window=True)
                assert two_path_taylor(lifted, row, nu, m)
                assert self.fraction_route(lifted, row, nu, m)
        assert count > 80

    def test_infinite_windows(self):
        one = PuiseuxSeries({1: 1}, math.inf)
        assert two_path_taylor(2 * one, one, 1, 3)
        assert two_path_taylor(24 * one, one, 2, 3)  # 2 * 12
        assert not two_path_taylor(2 * one, 2 * one, 1, 3)
        assert not two_path_taylor(2 * one + PuiseuxSeries({10 ** 6: 1}, math.inf), one, 1, 3)
        assert two_path_taylor(2 * one + PuiseuxSeries({4: 1}, 4), one, 1, 3)


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
                term = factor * q_derivative_iterate(chi, j)
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
        phi = from_orbit_values(3, 2, 1, 3, {(1, 7): F(1, 2)})
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

"""Puiseux series ring: frozen examples, ring laws, and the text format."""

import random
from fractions import Fraction

import pytest

from conftest import assert_agree, convolve, long_division, random_series
from oracles import from_orbit_values, truncate
from qtheta import (INFINITY, PuiseuxSeries, dump_jacobi_table, dump_series_text,
                    parse_jacobi_table, parse_rational, parse_series_text)

F = Fraction


def q(e, c=1, trunc=INFINITY, base_denom=None):
    return PuiseuxSeries({F(e): F(c)}, trunc, base_denom)


class TestConstruction:
    def test_zero_coefficients_dropped(self):
        s = PuiseuxSeries({F(1): F(0), F(2): F(3)}, 5)
        assert dict(s.terms) == {F(2): F(3)}

    def test_terms_beyond_trunc_dropped(self):
        s = PuiseuxSeries({F(1): F(1), F(7): F(1)}, 5)
        assert dict(s.terms) == {F(1): F(1)}

    def test_exponent_off_grid_rejected(self):
        with pytest.raises(ValueError):
            PuiseuxSeries({F(1, 3): F(1)}, 5, base_denom=2)

    def test_base_denom_inferred(self):
        s = PuiseuxSeries({F(1, 8): F(1), F(1, 6): F(2)}, 5)
        assert s.base_denom == 24

    def test_duplicate_exponents_merge(self):
        s = PuiseuxSeries([(F(1), F(2)), (F(1), F(-2))], 5)
        assert s.is_zero()


class TestAdd:
    def test_additive_inverse(self):
        assert (q("1/8") + q("1/8", -1)).is_zero()

    def test_identity(self):
        s = PuiseuxSeries({F(1, 24): F(1), F(25, 24): F(-1)}, 4, 24)
        assert_agree(s + PuiseuxSeries.zero(4), s)

    def test_term_merge(self):
        a = PuiseuxSeries({F(0): F(1), F(1): F(-1)}, 3)
        b = PuiseuxSeries({F(1): F(1), F(2): F(-1)}, 3)
        total = a + b
        assert dict(total.terms) == {F(0): F(1), F(2): F(-1)}
        assert total.trunc == 3

    def test_trunc_is_min(self):
        assert (q("1/2", trunc=4) + q("1/2", trunc=7)).trunc == 4

    def test_scalar_minus_series(self):
        s = q("1/8", 3, trunc=5) + q(2, -1, trunc=5)
        for c in (1, F(2, 3)):
            diff = c - s
            assert dict(diff.terms) == {F(0): F(c), F(1, 8): F(-3), F(2): F(1)}
            assert diff.trunc == 5
            assert_agree(diff, -(s - c))

    def test_subtraction_follows_the_addition_type_rule(self):
        s = q("1/8", 3, trunc=5)
        for other in (0.5, 0.1, "x", None):
            for op in (lambda: s + other, lambda: other + s,
                       lambda: s - other, lambda: other - s):
                with pytest.raises(TypeError):
                    op()


class TestMul:
    def test_monomials(self):
        assert dict((q("1/8") * q("1/8")).terms) == {F(1, 4): F(1)}

    def test_geometric_inverse(self):
        trunc = 12
        one_minus_q = PuiseuxSeries({F(0): F(1), F(1): F(-1)}, trunc)
        geometric = PuiseuxSeries({F(n): F(1) for n in range(trunc)}, trunc)
        assert dict((one_minus_q * geometric).terms) == {F(0): F(1)}

    def test_matches_brute_force(self):
        rng = random.Random(7)
        for _ in range(40):
            a = random_series(rng, trunc=F(rng.randint(2, 8)), base_denom=6)
            b = random_series(rng, trunc=F(rng.randint(2, 8)), base_denom=4)
            product = a * b
            expected = convolve(a, b, product.trunc)
            assert dict(product.terms) == expected

    def test_trunc_shifts_by_order(self):
        a = PuiseuxSeries({F(2): F(1)}, 10)
        b = PuiseuxSeries({F(3): F(5)}, 10)
        # unknown tail of either factor enters shifted by the other's order
        assert (a * b).trunc == 12

    def test_scalar(self):
        s = q("1/2", 3, trunc=9)
        assert dict((s * F(1, 3)).terms) == {F(1, 2): F(1)}
        assert dict((2 * s).terms) == {F(1, 2): F(6)}


class TestDiv:
    """A series divides only by a nonzero scalar.  The tests' quotient
    oracle ``long_division`` is checked here against the ring operations."""

    def test_series_divisor_rejected(self):
        with pytest.raises(TypeError):
            q("1/2", trunc=5) / PuiseuxSeries.zero(5)
        with pytest.raises(TypeError):
            q("1/2", trunc=5) / q("1/8", trunc=5)
        with pytest.raises(ZeroDivisionError):
            q("1/2", trunc=5) / 0
        assert q("1/2", 3, trunc=5) / F(3, 2) == q("1/2", 2, trunc=5)

    def test_monomial_quotient(self):
        assert dict(long_division(q("3/8"), q("1/8")).terms) == {F(1, 4): F(1)}

    def test_zero_dividend(self):
        from qtheta import eta
        quotient = long_division(PuiseuxSeries.zero(10, 24), eta(10))
        assert quotient.is_zero()
        assert quotient.trunc == 10 - F(1, 24)

    def test_eta_cube_over_eta(self):
        from qtheta import eta
        e = eta(14)
        assert_agree(long_division(e ** 3, e), e * e)

    def test_mul_then_div_roundtrip(self):
        rng = random.Random(11)
        for _ in range(40):
            a = random_series(rng, trunc=F(rng.randint(3, 7)), base_denom=8)
            b = random_series(rng, trunc=F(rng.randint(3, 7)), base_denom=8, max_terms=3)
            if b.is_zero():
                continue
            assert_agree(long_division(a * b, b), a)


class TestQDerivative:
    def test_monomial_eigenvalue(self):
        assert dict(q("1/8").q_derivative().terms) == {F(1, 8): F(1, 8)}

    def test_constant_killed(self):
        assert PuiseuxSeries.one(5).q_derivative().is_zero()

    def test_termwise_scaling(self):
        s = PuiseuxSeries({F(0): F(1), F(1): F(-24), F(2): F(-72)}, 3)
        assert dict(s.q_derivative().terms) == {F(1): F(-24), F(2): F(-144)}

    def test_leibniz(self):
        rng = random.Random(13)
        for _ in range(40):
            a = random_series(rng, trunc=F(6), base_denom=12)
            b = random_series(rng, trunc=F(6), base_denom=8)
            assert_agree((a * b).q_derivative(),
                         a.q_derivative() * b + a * b.q_derivative())


class TestOrd:
    def test_eta_order(self):
        from qtheta import eta
        assert eta(5).ord_infty() == F(1, 24)

    def test_odd_theta_order(self):
        from qtheta import ThetaIndex, odd_theta_series
        assert odd_theta_series(ThetaIndex(2, 1), 5).ord_infty() == F(1, 8)

    def test_empty_is_infinite(self):
        assert PuiseuxSeries.zero(5).ord_infty() == INFINITY

    def test_additive_under_mul(self):
        rng = random.Random(17)
        hits = 0
        while hits < 25:
            a = random_series(rng, trunc=F(9), base_denom=6)
            b = random_series(rng, trunc=F(9), base_denom=6)
            if a.is_zero() or b.is_zero():
                continue
            product = a * b
            if product.trunc <= a.ord_infty() + b.ord_infty():
                continue
            assert product.ord_infty() == a.ord_infty() + b.ord_infty()
            hits += 1


class TestRingLaws:
    def test_ring_laws_random(self):
        rng = random.Random(19)
        for _ in range(60):
            a = random_series(rng, trunc=F(rng.randint(2, 6)), base_denom=6)
            b = random_series(rng, trunc=F(rng.randint(2, 6)), base_denom=4)
            c = random_series(rng, trunc=F(rng.randint(2, 6)), base_denom=3)
            assert_agree(a + b, b + a)
            assert_agree((a + b) + c, a + (b + c))
            assert_agree(a * b, b * a)
            assert_agree((a * b) * c, a * (b * c))
            assert_agree(a * (b + c), a * b + a * c)

    def test_pow_matches_repeated_mul(self):
        rng = random.Random(23)
        s = random_series(rng, trunc=F(6), base_denom=5, max_terms=4)
        assert_agree(s ** 3, s * s * s)
        assert (s ** 0) == PuiseuxSeries.one()


class TestTruncationControl:
    def test_truncate_lowers_window(self):
        s = PuiseuxSeries({F(0): F(1), F(2): F(1)}, 5)
        cut = truncate(s, 1)
        assert dict(cut.terms) == {F(0): F(1)}
        assert cut.trunc == 1

    def test_truncate_cannot_extend(self):
        with pytest.raises(ValueError):
            truncate(PuiseuxSeries.zero(3), 4)


class TestTextFormat:
    def test_golden_dump(self):
        s = PuiseuxSeries({F(1, 8): F(1), F(9, 8): F(-3, 2)}, 5, 8)
        assert dump_series_text(s) == "D=8 trunc=5/1\n1/1 1/8\n-3/2 9/8\n"

    def test_roundtrip(self):
        rng = random.Random(29)
        for _ in range(20):
            s = random_series(rng, trunc=F(rng.randint(2, 9), rng.randint(1, 3)),
                              base_denom=24)
            back = parse_series_text(dump_series_text(s))
            assert back == s and back.base_denom == s.base_denom

    @pytest.mark.parametrize("text, message", [
        ("D=8\n1/1 1/8\n", "line 1 'D=8': the header needs a D= and a trunc= field"),
        ("trunc=5/1\n", "line 1 'trunc=5/1': the header needs a D= and a trunc= field"),
        ("D=8 trunc\n", "line 1 'D=8 trunc': dictionary update sequence element #1 has "
                        "length 1; 2 is required"),
        # blank lines count toward the number
        ("D=8 trunc=5/1\n\n1/1\n", "line 3 '1/1': not enough values to unpack "
                                   "(expected 2, got 1)"),
        ("D=8 trunc=5/1\n1/1 1/8\n-3/0 9/8\n", "line 3 '-3/0 9/8': zero denominator in '-3/0'"),
        # a term the window drops, and an exponent given twice, of which one
        # coefficient would be lost: either text reads as another series
        ("D=4 trunc=1\n1/1 2\n", "line 2 '1/1 2': exponent 2 is not below trunc=1"),
        ("D=4 trunc=1\n1/1 3/4\n2/1 1\n", "line 3 '2/1 1': exponent 1 is not below trunc=1"),
        ("D=4 trunc=1\n1/1 1/4\n3/1 1/4\n", "line 3 '3/1 1/4': exponent 1/4 is repeated"),
        # an exponent off the header's grid, a grid that is not one, and a
        # zero coefficient, which no dump writes
        ("D=4 trunc=1\n1/1 1/3\n", "line 2 '1/1 1/3': exponent 1/3 is not a multiple of 1/4"),
        ("D=0 trunc=1\n", "line 1 'D=0 trunc=1': D=0 is not a positive integer"),
        ("D=4 trunc=1\n1/1 1/4\n\n-0/5 1/2\n",
         "line 4 '-0/5 1/2': exponent 1/2 has a zero coefficient"),
    ])
    def test_malformed_line_named(self, text, message):
        with pytest.raises(ValueError) as error:
            parse_series_text(text)
        assert str(error.value) == message

    def test_both_formats_round_trip_and_name_a_repeated_line(self):
        # random series and random orbit-complete tables read back as written;
        # a copy of any one term or row line, anywhere after the header and
        # with a blank line somewhere, is named at its second occurrence
        rng = random.Random(33)
        texts = []
        for _ in range(40):
            s = random_series(rng, trunc=F(rng.randint(1, 9), rng.randint(1, 3)),
                              base_denom=rng.choice([1, 2, 4, 12, 24]), max_terms=8)
            text = dump_series_text(s)
            back = parse_series_text(text)
            assert back == s and back.base_denom == s.base_denom
            texts.append((parse_series_text, text, "exponent "))
            m = rng.randint(2, 6)
            values = {}
            for _ in range(rng.randint(1, 4)):
                mu = rng.randint(1, m - 1)
                disc = 4 * m * rng.randint(-(-mu * mu // (4 * m)), 5) - mu * mu
                values[(mu, disc)] = F(rng.choice([c for c in range(-9, 10) if c]),
                                       rng.randint(1, 5))
            phi = from_orbit_values(rng.choice([1, 3, 5, 7]), m, rng.randint(1, 4),
                                    F(rng.randint(1, 12), rng.randint(1, 3)), values)
            text = dump_jacobi_table(phi)
            back = parse_jacobi_table(text)
            assert dict(back.coeffs) == dict(phi.coeffs)
            assert (back.weight_k, back.index_m, back.level_N, back.n_trunc) == \
                (phi.weight_k, phi.index_m, phi.level_N, phi.n_trunc)
            texts.append((parse_jacobi_table, text, "c("))
        repeats = 0
        for parse, text, subject in texts:
            lines = text.splitlines()
            for i in range(1, len(lines)):
                edited = lines[:]
                edited.insert(rng.randint(1, len(lines)), lines[i])
                edited.insert(rng.randint(1, len(edited)), "")
                second = [n for n, ln in enumerate(edited, 1) if ln == lines[i]][1]
                with pytest.raises(ValueError) as error:
                    parse("\n".join(edited) + "\n")
                assert str(error.value).startswith(f"line {second} {lines[i]!r}: {subject}")
                assert str(error.value).endswith(" is repeated")
                repeats += 1
        assert repeats > 200

    def test_orders_dumps_parse_back(self, tmp_path):
        # the orders-dump benchmark run: its 44 cofactor dumps each read back
        # as the series that wrote them, so no dump breaks the stricter parser
        from qtheta.cli import main

        assert main(["verify-orders", "--m", "3..10", "--q-trunc", "10", "--format", "csv",
                     "--dump-series", str(tmp_path / "dumps"),
                     "--output", str(tmp_path / "orders.csv")]) == 0
        dumps = sorted((tmp_path / "dumps").iterdir())
        assert len(dumps) == 44
        for dump in dumps:
            text = dump.read_text()
            assert dump_series_text(parse_series_text(text)) == text, dump.name

    def test_infinite_trunc_not_serializable(self):
        with pytest.raises(ValueError):
            dump_series_text(PuiseuxSeries.one())

    def test_parse_rational(self):
        assert parse_rational("40") == 40
        assert parse_rational("-3/8") == F(-3, 8)

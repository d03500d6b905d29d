"""The integer-grid series core against a Fraction-keyed reference.

``PuiseuxSeries`` and ``ThetaTwoVar`` store exponents as integer numerators
on their 1/D grid, coefficients as integer numerators over one shared,
reduced denominator, and the window as an int pair in lowest terms.  Every
operation is compared here with a small reference that works on plain
Fraction-keyed dicts, on random series whose grids D = 1..12 differ, so
the lcm refinement is exercised; every result is checked against the
stored invariants; equal values must have one store; computing on a
longer window and cutting down must agree below the certified window;
the one sum-of-products kernel, ``dot`` on series and ``_sum_products`` on
both stores, is the fold of its products and ``+`` store for store; and
every reported window is sound against exact polynomials.
"""

import math
import random
from fractions import Fraction

import pytest

import qtheta.theta
from conftest import random_series
from oracles import truncate
from qtheta import (INFINITY, PuiseuxSeries, ThetaIndex, ThetaTwoVar, dot, dump_series_text,
                    odd_theta_series, parse_series_text, theta_series)
from qtheta.cli import main
from qtheta.series import _key_bound, _window

F = Fraction


# -- the reference: (terms, trunc, D) with Fraction exponents ------------------


def ref(s: PuiseuxSeries):
    return dict(s.terms), s.trunc, s.base_denom


def ref_order(terms, trunc):
    """The least exponent the series can have: its lowest known one, else 0,
    or its window when that is negative."""
    return min(terms) if terms else min(F(0), trunc)


def ref_clean(terms, trunc):
    return {e: c for e, c in terms.items() if c and e < trunc}


def ref_add(a, b):
    (ta, tra, da), (tb, trb, db) = a, b
    out = dict(ta)
    for e, c in tb.items():
        out[e] = out.get(e, F(0)) + c
    trunc = min(tra, trb)
    return ref_clean(out, trunc), trunc, math.lcm(da, db)


def ref_mul(a, b):
    (ta, tra, da), (tb, trb, db) = a, b
    trunc = min(tra + ref_order(tb, trb), trb + ref_order(ta, tra))
    out = {}
    for ea, ca in ta.items():
        for eb, cb in tb.items():
            out[ea + eb] = out.get(ea + eb, F(0)) + ca * cb
    return ref_clean(out, trunc), trunc, math.lcm(da, db)


def ref_two_var(tv: ThetaTwoVar):
    return dict(tv.terms), tv.q_trunc, tv.base_denom


def ref_mul_series(tv, s):
    (tt, trt, dt), (ts, trs, ds) = tv, s
    ord_t = min(e for e, _ in tt) if tt else min(F(0), trt)
    trunc = min(trt + ref_order(ts, trs), trs + ord_t)
    out = {}
    for (e, r), c in tt.items():
        for es, cs in ts.items():
            if e + es < trunc:
                out[(e + es, r)] = out.get((e + es, r), F(0)) + c * cs
    return {k: c for k, c in out.items() if c}, trunc, math.lcm(dt, ds)


def ref_add_two_var(a, b):
    (ta, tra, da), (tb, trb, db) = a, b
    out = dict(ta)
    for k, c in tb.items():
        out[k] = out.get(k, F(0)) + c
    trunc = min(tra, trb)
    return {k: c for k, c in out.items() if c and k[0] < trunc}, trunc, math.lcm(da, db)


# -- invariants and random inputs --------------------------------------------


def check_canonical(terms: dict, den):
    """Nonzero int numerators over an int den >= 1 sharing no factor with all of them."""
    assert type(den) is int and den >= 1
    for c in terms.values():
        assert type(c) is int and c
    assert math.gcd(den, *terms.values()) == 1
    if not terms:
        assert den == 1


def check_window(x):
    """An int window in lowest terms, (1, 0) for +infinity; the keys below it."""
    tn, td = x._tn, x._td
    assert type(tn) is int and type(td) is int
    assert (tn, td) == (1, 0) or (td >= 1 and math.gcd(tn, td) == 1)
    bound = _key_bound(tn, td, x.base_denom)
    return math.inf if bound is None else bound


def check_invariants(s: PuiseuxSeries):
    """Integer keys on the grid below the certified window, canonical int coefficients."""
    bound = check_window(s)
    for n in s._terms:
        assert type(n) is int and n < bound
    check_canonical(s._terms, s._den)
    for e, c in s.terms.items():
        assert e < s.trunc and (e * s.base_denom).denominator == 1
        assert type(c) is Fraction and c


def check_two_var_invariants(tv: ThetaTwoVar):
    bound = check_window(tv)
    for n, r in tv._terms:
        assert type(n) is int and type(r) is int and n < bound
    check_canonical(tv._terms, tv._den)
    assert all(type(c) is Fraction and c for c in tv.terms.values())


def agrees(s: PuiseuxSeries, expected):
    check_invariants(s)
    return (dict(s.terms), s.trunc, s.base_denom) == expected


def mixed(rng, max_terms=5, lowest=0, top=30):
    trunc = F(rng.randint(1, top), rng.randint(1, 4))
    return random_series(rng, trunc=trunc, base_denom=rng.randint(1, 12),
                         max_terms=max_terms, lowest=lowest)


def random_two_var(rng):
    denom = rng.randint(1, 12)
    trunc = F(rng.randint(1, 24), rng.randint(1, 3))
    terms = {}
    for _ in range(rng.randint(0, 6)):
        e = F(rng.randrange(-denom, int(trunc * denom) + 1), denom)
        terms[(e, rng.randint(-4, 4))] = F(rng.choice([-3, -2, -1, 1, 2, 5]), rng.randint(1, 3))
    return ThetaTwoVar(terms, trunc, denom)


# -- oracle --------------------------------------------------------------------


class TestAgainstReference:
    def test_add_sub_neg(self):
        rng = random.Random(101)
        for _ in range(150):
            a, b = mixed(rng, lowest=-1), mixed(rng, lowest=-1)
            assert agrees(a + b, ref_add(ref(a), ref(b)))
            negated = {e: -c for e, c in a.terms.items()}
            assert agrees(-a, (negated, a.trunc, a.base_denom))
            assert agrees(a - b, ref_add(ref(a), ref(-b)))
            assert (a - a).is_zero()

    def test_scalar_mul(self):
        rng = random.Random(103)
        for _ in range(100):
            a = mixed(rng)
            c = F(rng.randint(-4, 4), rng.randint(1, 3))
            scaled = {e: c * v for e, v in a.terms.items() if c}
            assert agrees(a * c, (scaled, a.trunc, a.base_denom))
            assert agrees(c * a, (scaled, a.trunc, a.base_denom))

    def test_mul(self):
        rng = random.Random(107)
        for _ in range(150):
            a, b = mixed(rng, lowest=-1), mixed(rng, lowest=-1)
            assert agrees(a * b, ref_mul(ref(a), ref(b)))
            # (1 + a)(1 - a) = 1 - a^2: the cross terms cancel inside the product
            plus, minus = a + 1, -a + 1
            assert agrees(plus * minus, ref_mul(ref(plus), ref(minus)))

    def test_q_derivative_and_truncate(self):
        rng = random.Random(113)
        for _ in range(100):
            a = mixed(rng, lowest=-1)
            derived = {e: c * e for e, c in a.terms.items() if e}
            assert agrees(a.q_derivative(), (derived, a.trunc, a.base_denom))
            cut = a.trunc - F(rng.randint(0, 12), rng.randint(1, 5))
            assert agrees(truncate(a, cut), (ref_clean(dict(a.terms), cut), cut, a.base_denom))

    def test_two_var_add_mul_series_zeta_moment(self):
        rng = random.Random(127)
        for _ in range(120):
            x, y, s = random_two_var(rng), random_two_var(rng), mixed(rng, lowest=-1)
            tx, trx, dx = ref_two_var(x)
            total = x + y
            check_two_var_invariants(total)
            assert ref_two_var(total) == ref_add_two_var(ref_two_var(x), ref_two_var(y))
            product = x.mul_series(s)
            check_two_var_invariants(product)
            assert ref_two_var(product) == ref_mul_series(ref_two_var(x), ref(s))
            n = rng.randint(0, 5)
            moment = {}
            for (e, r), c in tx.items():
                moment[e] = moment.get(e, F(0)) + c * r ** n
            assert agrees(x.zeta_moment(n), (ref_clean(moment, trx), trx, dx))

    def test_equality_ignores_the_grid(self):
        rng = random.Random(131)
        for _ in range(50):
            a = mixed(rng)
            finer = PuiseuxSeries(a.terms, a.trunc, a.base_denom * rng.randint(2, 5))
            assert finer == a and a == finer
            check_invariants(finer)
            x = random_two_var(rng)
            assert ThetaTwoVar(x.terms, x.q_trunc, x.base_denom * 3) == x


# -- the canonical store ---------------------------------------------------------


def same_on_common_window(x, y):
    window = min(x.trunc, y.trunc)
    x, y = truncate(x, window), truncate(y, window)
    check_invariants(x)
    check_invariants(y)
    return x == y and x._den == y._den


class TestCanonicalStore:
    """Numerators over one reduced den: equal values have one store."""

    def test_long_chain_stays_reduced(self):
        rng = random.Random(149)
        for _ in range(5):
            acc = PuiseuxSeries.one(F(6))
            expected = ref(acc)
            for step in range(30):
                x = random_series(rng, trunc=F(6), base_denom=rng.randint(1, 6), max_terms=4)
                if step % 3 == 0:
                    factor = x + 1
                    acc, expected = acc * factor, ref_mul(expected, ref(factor))
                else:
                    c = F(rng.choice([-5, -3, -1, 2, 7]), rng.randint(1, 9))
                    scaled = x * c
                    acc, expected = acc + scaled, ref_add(expected, ref(scaled))
                assert agrees(acc, expected)
                # reduced: den is the lcm of the coefficients' own denominators
                assert acc._den == math.lcm(1, *(c.denominator for c in acc.terms.values()))

    def test_cancellation_to_empty_has_den_one(self):
        rng = random.Random(151)
        for _ in range(60):
            a = mixed(rng, lowest=-1)
            b = mixed(rng, lowest=-1)
            for empty in (a - a, a + (-a), a * b - b * a, (a + b) - b - a, a * 0,
                          truncate(a, min(a.trunc, F(-2))),
                          PuiseuxSeries.constant(F(1, 3), a.trunc).q_derivative()):
                check_invariants(empty)
                assert empty.is_zero() and empty._den == 1
            x = random_two_var(rng)
            for empty in (x - x, x + (-x)):
                check_two_var_invariants(empty)
                assert empty.is_zero() and empty._den == 1
        m = 5
        for mu in range(1, m):
            idx = ThetaIndex(m, mu)
            pair = theta_series(idx, 7) - theta_series(idx.negate(), 7)
            scaled = pair.mul_series(PuiseuxSeries({F(1, 4): F(2, 3)}, 7, 4))
            # r and -r carry opposite coefficients, so the even moments vanish
            for n in (0, 2, 4):
                moment = scaled.zeta_moment(n)
                check_invariants(moment)
                assert moment.is_zero() and moment._den == 1

    def test_equal_series_from_different_grids_and_orders(self):
        rng = random.Random(157)
        for _ in range(60):
            a = random_series(rng, trunc=F(5), base_denom=4, max_terms=4, lowest=-1)
            b = random_series(rng, trunc=F(5), base_denom=6, max_terms=4)
            c = random_series(rng, trunc=F(5), base_denom=3, max_terms=4)
            assert same_on_common_window((a + b) + c, c + (b + a))
            assert same_on_common_window((a * b) * c, a * (c * b))
            assert same_on_common_window(a * (b + c), a * c + b * a)
            assert same_on_common_window((a * F(3, 4)) * F(8, 3) / 2, a)
            assert same_on_common_window((a + b).q_derivative(), b.q_derivative() + a.q_derivative())
            # the same values through the public constructor on a finer grid
            product = a * b
            rebuilt = PuiseuxSeries(dict(product.terms), product.trunc, 48)
            assert rebuilt.base_denom != product.base_denom
            assert same_on_common_window(rebuilt, product)
            x, y = random_two_var(rng), random_two_var(rng)
            s = mixed(rng)
            left, right = (x + y).mul_series(s), y.mul_series(s) + x.mul_series(s)
            window = min(left.q_trunc, right.q_trunc)
            assert ThetaTwoVar(left.terms, window, 2 * left.base_denom) == \
                ThetaTwoVar(right.terms, window, right.base_denom)


# -- soundness of the certified windows ----------------------------------------


def cut(s: PuiseuxSeries, window) -> PuiseuxSeries:
    return truncate(s, min(F(window), s.trunc))


class TestExtendAndCompare:
    """A result on a short window equals the long-window result cut down to it."""

    def assert_extends(self, short, long):
        assert long.trunc >= short.trunc
        assert truncate(long, short.trunc) == short

    def test_ring_operations(self):
        rng = random.Random(137)
        for _ in range(80):
            a, b = mixed(rng, lowest=-1), mixed(rng, lowest=-1)
            window = min(a.trunc, b.trunc) * F(rng.randint(1, 9), 10)
            sa, sb = cut(a, window), cut(b, window)
            self.assert_extends(sa + sb, a + b)
            self.assert_extends(sa * sb, a * b)
            self.assert_extends(sa.q_derivative(), a.q_derivative())

    def test_two_var_and_theta(self):
        rng = random.Random(139)
        for _ in range(60):
            m = rng.randint(1, 6)
            idx = ThetaIndex(m, rng.randrange(2 * m))
            long_window = F(rng.randint(2, 12), rng.randint(1, 3))
            window = long_window * F(rng.randint(1, 9), 10)
            self.assert_extends(odd_theta_series(idx, window), odd_theta_series(idx, long_window))
            s = mixed(rng)
            short = theta_series(idx, window).mul_series(cut(s, window))
            full = theta_series(idx, long_window).mul_series(s)
            check_two_var_invariants(full)
            assert full.q_trunc >= short.q_trunc
            assert short.zeta_moment(1) == truncate(full.zeta_moment(1), short.q_trunc)


# -- the public contract ---------------------------------------------------------


class TestPublicContract:
    def test_terms_fraction_keyed_and_read_only(self):
        s = PuiseuxSeries({F(1, 2): 3, F(5, 3): F(-1, 7)}, 4, 6) * PuiseuxSeries.one(9)
        assert all(type(e) is Fraction and type(c) is Fraction for e, c in s.terms.items())
        assert dict(s.terms) == {F(1, 2): F(3), F(5, 3): F(-1, 7)}
        with pytest.raises(TypeError):
            s.terms[F(1)] = F(1)

    def test_constructor_validates(self):
        with pytest.raises(ValueError):
            PuiseuxSeries({F(1, 3): 1}, 5, base_denom=2)
        for bad in (0, -4):
            with pytest.raises(ValueError):
                PuiseuxSeries({}, 5, base_denom=bad)

    def test_coefficient_off_grid_is_zero(self):
        s = PuiseuxSeries({F(1, 2): 3}, 5, 2)
        assert s.coefficient(F(1, 2)) == 3 and s.coefficient(F(2, 4)) == 3
        assert s.coefficient(F(1, 3)) == 0 and s.coefficient(7) == 0

    def test_base_denom_is_the_lcm(self):
        a = PuiseuxSeries({F(1, 4): 1}, 5, 4)
        b = PuiseuxSeries({F(1, 6): 1}, 5, 6)
        assert (a + b).base_denom == (a * b).base_denom == 12
        assert PuiseuxSeries({F(1, 8): 1, F(1, 6): 2}, 5).base_denom == 24

    def test_two_var_terms_and_constructor(self):
        tv = ThetaTwoVar({(F(1, 8), 1): 1, (F(9, 8), -3): 2}, 2, 8)
        assert dict(tv.terms) == {(F(1, 8), 1): F(1), (F(9, 8), -3): F(2)}
        assert all(type(e) is Fraction and type(r) is int for e, r in tv.terms)
        with pytest.raises(TypeError):
            tv.terms[(F(0), 0)] = F(1)
        with pytest.raises(ValueError):
            ThetaTwoVar({(F(1, 3), 1): 1}, 2, 8)
        for bad in (0, -8):
            with pytest.raises(ValueError):
                ThetaTwoVar({}, 2, bad)


class TestOneStore:
    """Both series types sit on the one ``_IntStore``; only the key shape differs."""

    def test_the_two_types_never_meet(self):
        rng = random.Random(20)
        pairs = [(PuiseuxSeries({}, 2, 8), ThetaTwoVar({}, 2, 8)),  # one empty store
                 (PuiseuxSeries({}, INFINITY), ThetaTwoVar({}, INFINITY, 1))]
        pairs += [(mixed(rng), random_two_var(rng)) for _ in range(20)]
        for s, tv in pairs:
            assert s != tv and tv != s
            assert not s == tv and not tv == s
            for x in (s, tv):
                with pytest.raises(TypeError):
                    hash(x)
            for op in (lambda a, b: a + b, lambda a, b: a - b):
                for a, b in ((s, tv), (tv, s)):
                    with pytest.raises(TypeError):
                        op(a, b)

    def test_the_two_var_type_keeps_no_copy_of_the_store(self):
        own = vars(ThetaTwoVar)
        shared = {"_make", "_over", "__eq__", "__hash__", "__neg__", "__add__", "__sub__",
                  "is_zero", "_sum_products"}
        assert not shared & own.keys() and own["__slots__"] == ()
        assert ThetaTwoVar.q_trunc is PuiseuxSeries.trunc

    def test_one_product_kernel(self):
        # both stores inherit the one kernel, and no module keeps a second one
        assert "_sum_products" not in vars(PuiseuxSeries)
        assert ThetaTwoVar._sum_products.__func__ is PuiseuxSeries._sum_products.__func__
        assert not hasattr(qtheta.theta, "_mul_sum")


# -- the sum-of-products kernel ----------------------------------------------------


def store(s: PuiseuxSeries):
    return s._terms, s._tn, s._td, s.base_denom, s._den


def kernel_factor(rng, dens):
    """A factor on a grid D in {1, 12, 4m, 84}, with coefficients over one of
    ``dens``; its window is +infinity, an off-grid multiple of 115/84, or
    another rational that may be negative; some factors have no term."""
    denom = rng.choice((1, 12, 4 * rng.randint(2, 7), 84))
    kind = rng.randrange(4)
    if kind == 0:
        window = INFINITY
    elif kind == 1:
        window = F(115, 84) * rng.randint(1, 5)
    else:
        window = F(rng.randint(-6, 60), rng.choice((1, 7, 12)))
    terms = {}
    if rng.random() > 0.15:
        for _ in range(rng.randint(1, 6)):
            e = F(rng.randint(-denom, 6 * denom), denom)
            if e < window:
                terms[e] = F(rng.choice([-7, -3, -2, -1, 1, 2, 5, 9]), rng.choice(dens))
    return PuiseuxSeries(terms, window, denom)


def kernel_two_var(rng, dens):
    """A two-variable factor on the grids and windows of ``kernel_factor``:
    each of its q-exponents carries one or two zeta-exponents."""
    s = kernel_factor(rng, dens)
    terms = {(e, r): c for e, c in s.terms.items()
             for r in rng.sample(range(-4, 5), rng.randint(1, 2))}
    return ThetaTwoVar(terms, s.trunc, s.base_denom)


# store -> (left factor, its reference, the product and the sum in Fractions,
# its invariants)
STORES = {PuiseuxSeries: (kernel_factor, ref, ref_mul, ref_add, check_invariants),
          ThetaTwoVar: (kernel_two_var, ref_two_var, ref_mul_series, ref_add_two_var,
                        check_two_var_invariants)}


class TestDot:
    """``dot``, and the kernel ``_sum_products`` under it on either store, is
    the fold of the products and ``+`` from the empty series on its window
    and grid, store for store, and the sum of the Fraction references."""

    @pytest.mark.parametrize("cls, seed, dens",
                             [(PuiseuxSeries, 173, (6,)), (PuiseuxSeries, 179, (1, 5, 7)),
                              (PuiseuxSeries, 181, (2, 3, 4, 9, 35)),
                              (ThetaTwoVar, 191, (6,)), (ThetaTwoVar, 193, (1, 5, 7)),
                              (ThetaTwoVar, 197, (2, 3, 4, 9, 35))],
                             ids=["shared", "coprime", "mixed",
                                  "two-var-shared", "two-var-coprime", "two-var-mixed"])
    def test_dot_is_the_fold(self, cls, seed, dens):
        left, reference, ref_product, ref_sum, check = STORES[cls]
        rng = random.Random(seed)
        for _ in range(150):
            pairs = [(left(rng, dens), kernel_factor(rng, dens))
                     for _ in range(rng.randint(0, 5))]
            if rng.random() < 0.5:
                window, denom = INFINITY, 1
                kernel = (dot(*zip(*pairs)) if cls is PuiseuxSeries and pairs
                          else cls._sum_products(pairs))
            else:
                window = rng.choice([INFINITY, F(115, 84) * rng.randint(1, 5),
                                     F(rng.randint(-6, 60), rng.choice((1, 7, 12)))])
                denom = rng.choice((1, 12, 4 * rng.randint(2, 7), 84))
                kernel = cls._sum_products(pairs, _window(window), denom)
            total = cls({}, window, denom)
            expected = reference(total)
            for x, y in pairs:
                total = total + (x * y if cls is PuiseuxSeries else x.mul_series(y))
                expected = ref_sum(expected, ref_product(reference(x), ref(y)))
            assert store(kernel) == store(total)
            check(kernel)
            assert reference(kernel) == expected
        # there is no fold of nothing, and every factor needs a partner
        with pytest.raises(ValueError):
            dot([], [])
        x = kernel_factor(rng, dens)
        with pytest.raises(ValueError):
            dot([x, x], [x])


# -- every reported window is sound ------------------------------------------------


def exact_polynomial(rng):
    """A finite series known exactly: window +infinity, some negative exponents."""
    denom = rng.choice((1, 12, 4 * rng.randint(2, 7), 84))
    terms = {F(rng.randint(-2 * denom, 5 * denom), denom):
             F(rng.choice([-5, -2, -1, 1, 3, 4]), rng.randint(1, 5))
             for _ in range(rng.randint(0, 6))}
    return PuiseuxSeries(terms, INFINITY, denom)


def random_window(rng):
    """A window that may be negative and may lie off every grid used here."""
    return F(rng.randint(-3 * 84, 6 * 84), rng.choice((1, 7, 12, 84, 115)))


def cut_at_random(rng, exact):
    return exact if rng.random() < 0.15 else truncate(exact, random_window(rng))


def assert_sound(result, exact):
    """The known terms of ``result`` are the exact ones below its window."""
    check_invariants(result)
    assert exact.trunc == INFINITY
    assert result == truncate(exact, result.trunc)


class TestWindowSoundness:
    """Truncations of exact polynomials give results that agree with the
    exact result below every window they report."""

    def test_ring_operations_and_dot(self):
        rng = random.Random(163)
        for _ in range(300):
            exact = [exact_polynomial(rng) for _ in range(6)]
            cut = [cut_at_random(rng, p) for p in exact]
            a, b, c, d, e, f = cut
            ea, eb, ec, ed, ee, ef = exact
            assert_sound(a * b, ea * eb)
            assert_sound(a + b, ea + eb)
            assert_sound(a - b, ea - eb)
            assert_sound((a * b + c) * d, (ea * eb + ec) * ed)
            assert_sound(dot([a, b, c], [d, e, f]), dot([ea, eb, ec], [ed, ee, ef]))
            window = random_window(rng)
            if window <= a.trunc:
                assert_sound(truncate(a, window), ea)

    def test_two_var_operations(self):
        rng = random.Random(167)
        for _ in range(200):
            denom = rng.choice((1, 12, 4 * rng.randint(2, 7), 84))
            terms = {(F(rng.randint(-denom, 5 * denom), denom), rng.randint(-4, 4)):
                     F(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4))
                     for _ in range(rng.randint(0, 6))}
            exact_tv = ThetaTwoVar(terms, INFINITY, denom)
            tv = exact_tv if rng.random() < 0.15 else ThetaTwoVar(
                terms, random_window(rng), denom)
            exact_s = exact_polynomial(rng)
            s = cut_at_random(rng, exact_s)
            product, exact_product = tv.mul_series(s), exact_tv.mul_series(exact_s)
            check_two_var_invariants(product)
            assert product == ThetaTwoVar(exact_product.terms, product.q_trunc,
                                          exact_product.base_denom)
            total = product + tv
            assert total == ThetaTwoVar((exact_product + exact_tv).terms, total.q_trunc,
                                        total.base_denom)
            n = rng.randint(0, 5)
            assert_sound(product.zeta_moment(n), exact_product.zeta_moment(n))


class TestOffGridWindow:
    """A window off the series' grid stays exact through products and dumps."""

    HEADER = "D=12 trunc=115/84"

    def test_index_3_wronskian_at_9_7(self, tmp_path, capsys):
        # the lattice-sum Wronskian the CLI dumps, and each product of a
        # column with the other's derivative: all certified to 9/7 + 1/12,
        # the lower column's order, which is not a multiple of 1/12
        assert main(["verify-wronskian", "--m", "3", "--q-trunc", "9/7",
                     "--dump-series", str(tmp_path)]) == 0
        capsys.readouterr()
        (dump,) = tmp_path.iterdir()
        assert dump.read_text().splitlines()[0] == self.HEADER
        t1, t2 = (odd_theta_series(ThetaIndex(3, mu), F(9, 7)) for mu in (1, 2))
        d1, d2 = t1.q_derivative(), t2.q_derivative()
        wronskian = parse_series_text(dump.read_text())
        for product in (t1 * d2, d2 * t1, d1 * t2, t2 * d1, dot([t1, -t2], [d2, d1])):
            text = dump_series_text(product)
            assert text.splitlines()[0] == self.HEADER
            assert parse_series_text(text) == product
        assert dot([t1, -t2], [d2, d1]) == wronskian

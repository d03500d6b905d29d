"""Odd-weight Jacobi form data, theta decomposition, and Taylor operators.

A Jacobi form of odd weight k and index m is represented by its finite
Fourier table c(n, r).  Oddness of the weight forces c(n, -r) = -c(n, r),
and invariance under the index lattice forces c(n, r) to depend only on
the class (r mod 2m, 4mn - r^2); both facts are validated at construction.
The theta decomposition packages the table into m-1 component series
h_1..h_{m-1}, and the Taylor operators extract the odd coefficients of the
expansion in z (with every power of 2*pi*i absorbed so that all series
stay rational).

The series that do not depend on h (``_theta_ladder``, ``_theta_pair``)
are built once per process, keyed by exactly what they depend on, and
shared by every tuple.  A table is read and validated on int pairs
(num, den), and its components are built through ``_make``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .exact import _key_bound, _rational_pair, parse_rational
from .series import PuiseuxSeries, _line_error, _lowest_terms, _reduced, dot
from .theta import ThetaIndex, ThetaTwoVar, odd_theta_series, theta_series


class InvariantViolation(ValueError):
    """A coefficient table breaks a structural invariant of Jacobi forms."""


class NotOdd(ValueError):
    """A two-variable series is not odd under zeta -> 1/zeta negation."""


class EvenIndex(ValueError):
    """An operator index that must be odd was even."""


class JacobiFormData:
    """Validated Fourier table of an odd-weight Jacobi form.

    ``coeffs`` maps (n, r) to a rational coefficient, for integers n with
    0 <= n < n_trunc.  Only holomorphic tables (4mn >= r^2) are accepted,
    and the table must be orbit-complete: within the truncation window,
    c(n, r) is checked to depend only on (r mod 2m, 4mn - r^2).  Each value
    is held as its int pair (num, den) in lowest terms with den >= 1, and
    ``coeffs`` and ``orbit_values`` build their Fractions on each access.
    """

    __slots__ = ("weight_k", "index_m", "level_N", "n_trunc", "_coeffs", "_orbit")

    def __init__(self, weight_k: int, index_m: int, level_N: int, n_trunc,
                 coeffs: Mapping):
        self._validate(weight_k, index_m, level_N, n_trunc,
                       (((int(n), int(r)), Fraction(c).as_integer_ratio())
                        for (n, r), c in coeffs.items()))

    def _validate(self, weight_k, index_m, level_N, n_trunc, items) -> None:
        """The checks of a table given as ``items`` ((n, r), (num, den)): ints,
        num/den in lowest terms with den >= 1; ``parse_jacobi_table`` calls it
        on a new instance, and ``__init__`` on its Fractions' pairs."""
        if weight_k < 1 or weight_k % 2 == 0:
            raise InvariantViolation("weight_k must be a positive odd integer")
        if index_m < 1 or level_N < 1:
            raise InvariantViolation("index_m and level_N must be positive")
        n_trunc = Fraction(n_trunc)
        if n_trunc <= 0:
            raise InvariantViolation("n_trunc must be positive")
        self.weight_k = weight_k
        self.index_m = index_m
        self.level_N = level_N
        self.n_trunc = n_trunc
        m = index_m
        n_cap = -(-n_trunc.numerator // n_trunc.denominator)  # an int n is < n_trunc iff < n_cap
        stored: dict[tuple[int, int], tuple[int, int]] = {}
        orbit: dict[tuple[int, int], tuple[int, int]] = {}
        for (n, r), c in items:
            if not c[0]:
                continue
            if n < 0:
                raise InvariantViolation(f"negative Fourier index n={n}")
            if n >= n_cap:
                continue
            disc = 4 * m * n - r * r
            if disc < 0:
                raise InvariantViolation(
                    f"coefficient at (n={n}, r={r}) violates 4mn >= r^2")
            key = (r % (2 * m), disc)
            if orbit.setdefault(key, c) != c:
                raise InvariantViolation(f"c({n},{r}) = {Fraction(*c)} conflicts with "
                                         f"class {key} value {Fraction(*orbit[key])}")
            stored[(n, r)] = c
        for (mu, disc), (num, den) in orbit.items():
            if orbit.get(((-mu) % (2 * m), disc)) != (-num, den):
                raise InvariantViolation(
                    f"odd symmetry fails for class (mu={mu}, disc={disc})")
        for n in range(n_cap):
            r_cap = math.isqrt(4 * m * n)
            for r in range(-r_cap, r_cap + 1):
                expected = orbit.get((r % (2 * m), 4 * m * n - r * r))
                if stored.get((n, r)) != expected:
                    raise InvariantViolation(
                        f"c({n},{r}) must depend only on (r mod 2m, 4mn - r^2); "
                        f"expected {Fraction(*expected or (0, 1))}")
        self._coeffs = stored
        self._orbit = orbit

    @property
    def coeffs(self) -> Mapping[tuple[int, int], Fraction]:
        return MappingProxyType({key: Fraction(*c) for key, c in self._coeffs.items()})

    @property
    def orbit_values(self) -> Mapping[tuple[int, int], Fraction]:
        """Class values keyed by (r mod 2m, 4mn - r^2)."""
        return MappingProxyType({key: Fraction(*c) for key, c in self._orbit.items()})

    def is_zero(self) -> bool:
        """True when every coefficient in the window is zero."""
        return not self._orbit


class ThetaComponents(NamedTuple("ThetaComponents", [("index_m", int),
                                                     ("components", tuple)])):
    """The tuple (h_1, ..., h_{m-1}) of theta components of an odd form."""

    __slots__ = ()

    def __new__(cls, index_m: int, components):
        if len(components) != index_m - 1:
            raise ValueError("expected m-1 component series")
        return super().__new__(cls, index_m, tuple(components))


def theta_components(phi: JacobiFormData) -> ThetaComponents:
    """Decompose a validated table into its m-1 component series.

    h_mu collects the class values at exponents (4mn - mu^2)/(4m); it is
    certified below n_trunc - mu^2/(4m), since every class reachable below
    that bound has a representative inside the table's window.  Each h_mu
    is built through ``_make``, its values over their least common
    denominator, which is already canonical.
    """
    m = phi.index_m
    grid = 4 * m
    classes: list[dict[int, tuple[int, int]]] = [{} for _ in range(m)]
    for (mu, disc), c in phi._orbit.items():
        if mu < m:
            classes[mu][disc] = c
    tn, td = phi.n_trunc.as_integer_ratio()
    out = []
    for mu in range(1, m):
        values = classes[mu]
        den = math.lcm(1, *(d for _, d in values.values()))
        terms = {disc: num * (den // d) for disc, (num, d) in values.items()}
        window = _lowest_terms(grid * tn - mu * mu * td, grid * td)
        out.append(PuiseuxSeries._make(terms, *window, grid, den))
    return ThetaComponents(m, tuple(out))


@lru_cache(maxsize=None)
def _theta_pair(m: int, mu: int, q_trunc: Fraction) -> ThetaTwoVar:
    """theta_{m,mu} - theta_{m,-mu} on q_trunc, built once per process for
    each (m, mu, q_trunc) and shared by every tuple assembled on that window."""
    idx = ThetaIndex(m, mu)
    return theta_series(idx, q_trunc) - theta_series(idx.negate(), q_trunc)


def from_theta_components(h: ThetaComponents, q_trunc) -> ThetaTwoVar:
    """Assemble sum_mu h_mu * (theta_{m,mu} - theta_{m,-mu}) as a two-variable series.

    Equal store for store to the fold ``total + pair.mul_series(h_mu)`` from
    the empty series on q_trunc, built in one pass by ``_sum_products``.  A
    zero component whose window reaches q_trunc is skipped, so it moves
    neither the window nor the grid.
    """
    m = h.index_m
    q_trunc = Fraction(q_trunc)
    return ThetaTwoVar._sum_products([(_theta_pair(m, mu, q_trunc), series)
                                      for mu, series in enumerate(h.components, start=1)
                                      if not (series.is_zero() and series.trunc >= q_trunc)],
                                     (q_trunc.numerator, q_trunc.denominator), 4 * m)


def taylor_moments(phi_2var: ThetaTwoVar, nus) -> list[PuiseuxSeries]:
    """The zeta-moment of order 2*nu - 1 for each nu of ``nus``, from one
    oddness scan and one pass over the terms (``zeta_moments``): each is
    ``taylor_coefficient(phi_2var, nu)`` times (2*nu - 1)!."""
    orders = [2 * nu - 1 for nu in nus]
    if any(order < 1 for order in orders):
        raise ValueError("nu must be a positive integer")
    if not phi_2var.is_zeta_odd():
        raise NotOdd("two-variable series is not odd in the zeta variable")
    return phi_2var.zeta_moments(orders)


def taylor_from_moment(moment: PuiseuxSeries, nu: int) -> PuiseuxSeries:
    """The moment of order 2*nu - 1 over (2*nu - 1)!, in integers: its
    numerators over its denominator times (2*nu - 1)!, reduced once."""
    terms, den = _reduced(moment._terms, moment._den * math.factorial(2 * nu - 1))
    return PuiseuxSeries._make(terms, moment._tn, moment._td, moment.base_denom, den)


def taylor_coefficient(phi_2var: ThetaTwoVar, nu: int) -> PuiseuxSeries:
    """Normalized Taylor coefficient of z^(2*nu-1) of an odd two-variable series.

    Returns sum over terms of coeff * r^(2*nu-1) / (2*nu-1)! per
    q-exponent.  With zeta = exp(2*pi*i*z) the true coefficient carries a
    factor (2*pi*i)^(2*nu-1), which is absorbed to keep the result
    rational; vanishing is unaffected.  The zeta-moment of order 2*nu - 1
    through ``taylor_from_moment``, the one route to it.
    """
    return taylor_from_moment(taylor_moments(phi_2var, (nu,))[0], nu)


@lru_cache(maxsize=None)
def _theta_ladder(m: int, mu: int, wn: int, wd: int) -> tuple[PuiseuxSeries, ...]:
    """(q d/dq)^j of the odd theta series of class mu on the window wn/wd
    (lowest terms), j = 0..m-2: one ``odd_theta_series`` and one
    ``q_derivative`` per step, built once per process for each (m, mu,
    window) and shared by every tuple and every nu."""
    ladder = [odd_theta_series(ThetaIndex(m, mu), Fraction(wn, wd))]
    for _ in range(m - 2):
        ladder.append(ladder[-1].q_derivative())
    return tuple(ladder)


def component_taylor(h: ThetaComponents, nu: int) -> PuiseuxSeries:
    """sum_mu h_mu * (q d/dq)^(nu-1) applied to the odd theta series of mu.

    The component-side route to the same Taylor coefficient: it equals
    ``taylor_coefficient`` of the assembled form divided by 2 * (4m)^(nu-1) /
    (2*nu-1)!, since pairing r with -r doubles each term and each q d/dq
    gives r^2/4m in place of r^2.  For nu = 1..m-1 these are the
    rows M h of the theta-derivative system that ``cramer_reconstruction``
    solves; nothing else builds them.  Each theta derivative is read off
    the ladder of its class on the window trunc h_mu + mu^2/4m.
    """
    m = h.index_m
    if not 1 <= nu <= m - 1:
        raise ValueError(f"nu must lie in 1..{m - 1}")
    thetas = []
    for mu, series in enumerate(h.components, start=1):
        # the window trunc + mu^2/4m, added on the int pair
        tn, td = series._tn, series._td
        if not td:
            raise ValueError(f"h_{mu} has an infinite window; its theta series would be infinite")
        window = _lowest_terms(4 * m * tn + mu * mu * td, 4 * m * td)
        thetas.append(_theta_ladder(m, mu, *window)[nu - 1])
    return dot(h.components, thetas)


def two_path_taylor(moment: PuiseuxSeries, row: PuiseuxSeries, nu: int, m: int) -> bool:
    """Whether the Taylor coefficient of z^(2*nu-1) equals
    2 * (4m)^(nu-1) / (2*nu-1)! times ``component_taylor(h, nu)``,
    read on the int stores: the zeta-moment of order 2*nu - 1 (``taylor_moments``)
    against 2 * (4m)^(nu-1) times the row, term by term below the lower of
    their two windows; the (2*nu-1)! cancels.  a/da = s*b/db is a*db = s*b*da.
    """
    tn, td = moment._tn, moment._td
    if row._tn * td < tn * row._td:
        tn, td = row._tn, row._td
    denom = math.lcm(moment.base_denom, row.base_denom)
    bound = _key_bound(tn, td, denom) if td else math.inf
    xs, ys = moment._over(denom, moment._den), row._over(denom, row._den)
    left, right = row._den, 2 * (4 * m) ** (nu - 1) * moment._den
    below = 0
    for n, a in xs.items():
        if n < bound:
            if a * left != ys.get(n, 0) * right:
                return False
            below += 1
    return below == sum(n < bound for n in ys)


def development_operator(taylors, k: int, nu: int, m: int) -> PuiseuxSeries:
    """The normalized weight-(k + nu) development coefficient of an index-m form.

    ``taylors`` lists the form's Taylor coefficients chi_1, chi_2, ...
    (``taylor_coefficient(phi, i)`` for i = 1, 2, ...), at least (nu+1)/2
    of them.  For odd nu this is
        sum_{0 <= j <= nu/2} (-m)^j (k+nu-j-2)! / ((k+2nu-2)! j!)
                             * (q d/dq)^j chi_{(nu+1)/2-j},
    with the overall constant conventionally set to 1 and all powers of
    2*pi*i absorbed; its vanishing is equivalent to the vanishing of the
    classical operator.  The index ``m`` comes from the caller: a finer
    grid holds the same series, so the grid cannot determine it.
    """
    if nu % 2 == 0:
        raise EvenIndex("development operators of even index vanish on odd weights")
    _check_weight_and_index(k, m)
    if len(taylors) < (nu + 1) // 2:
        raise ValueError(f"nu={nu} needs the first {(nu + 1) // 2} Taylor coefficients")
    ladders = []
    for i, chi in enumerate(taylors[:(nu + 1) // 2]):
        ladder = [chi]  # chi_(i+1) is read to (q d/dq)^((nu-1)/2 - i)
        for _ in range((nu - 1) // 2 - i):
            ladder.append(ladder[-1].q_derivative())
        ladders.append(ladder)
    return _development(ladders, k, nu, m)


def _check_weight_and_index(k: int, m: int) -> None:
    if k < 1 or k % 2 == 0:
        raise ValueError("k must be a positive odd integer")
    if m < 1:
        raise ValueError("m must be a positive integer")


def _development(ladders, k: int, nu: int, m: int) -> PuiseuxSeries:
    """``development_operator`` on q-derivative ladders: ladders[i][j] is
    (q d/dq)^j chi_(i+1), read for j <= (nu-1)/2 - i."""
    total = None
    for j in range(nu // 2 + 1):
        factor = Fraction((-m) ** j * math.factorial(k + nu - j - 2),
                          math.factorial(k + 2 * nu - 2) * math.factorial(j))
        term = factor * ladders[(nu - 1) // 2 - j][j]
        total = term if total is None else total + term
    return total


def kernel_equivalence(taylors, k: int, m: int) -> tuple[bool, bool]:
    """(all development coefficients of order < 2j+1 vanish,
        all Taylor coefficients of order < 2j+1 vanish), for an index-m form
    whose Taylor coefficients chi_1..chi_j are ``taylors``.

    The two booleans agree for every input because the development
    coefficients are a triangular change of basis of the Taylor ones.  The
    operators are read in order up to the first that does not vanish, on one
    q-derivative ladder per chi_i: operator 2nu - 1 reads (q d/dq)^(nu-i)
    chi_i, so each ladder grows by one step per operator, and no derivative
    is taken twice.
    """
    if not taylors:
        raise ValueError("kernel_equivalence needs at least one Taylor coefficient")
    _check_weight_and_index(k, m)
    ladders = []
    operators_vanish = True
    for nu, chi in enumerate(taylors, start=1):
        for ladder in ladders:
            ladder.append(ladder[-1].q_derivative())
        ladders.append([chi])
        if not _development(ladders, k, 2 * nu - 1, m).is_zero():
            operators_vanish = False
            break
    return operators_vanish, all(chi.is_zero() for chi in taylors)


_NUMERATORS = tuple(x for x in range(-9, 10) if x)  # a random value's numerator


def random_components(index_m: int, n_trunc, rng) -> ThetaComponents:
    """Sparse random component tuple on the exact exponent grids.

    Each h_mu gets up to 3 terms at exponents disc/(4m) with
    disc >= 0 and disc = -mu^2 mod 4m, so the assembled two-variable series
    has an integral Fourier table.  Deterministic given the rng state.
    """
    m = index_m
    grid_denom = 4 * m
    n_trunc = Fraction(n_trunc)
    # disc/4m < n_trunc - mu^2/4m is disc < ceil(4m n_trunc) - mu^2
    cap = -(-grid_denom * n_trunc.numerator // n_trunc.denominator)
    components = []
    for mu in range(1, m):
        grid = range((-mu * mu) % grid_denom, cap - mu * mu, grid_denom)
        drawn = []
        for disc in rng.sample(grid, min(3, len(grid))):
            numerator = rng.choice(_NUMERATORS)
            d = rng.randint(1, 4)
            g = math.gcd(numerator, d)
            drawn.append((disc, numerator // g, d // g))
        den = math.lcm(1, *(d for _, _, d in drawn))
        tn, td = _lowest_terms(grid_denom * n_trunc.numerator - mu * mu * n_trunc.denominator,
                               grid_denom * n_trunc.denominator)
        components.append(PuiseuxSeries._make(
            {disc: c * (den // d) for disc, c, d in drawn}, tn, td, grid_denom, den))
    return ThetaComponents(m, tuple(components))


# -- coefficient file format --------------------------------------------------
#
# Header `k=<odd> m=<int> N=<int> trunc=<num>/<den>`, then one line per
# stored coefficient: `n r c_num/c_den`, sorted by (n, r).


def dump_jacobi_table(phi: JacobiFormData) -> str:
    tr = phi.n_trunc
    lines = [f"k={phi.weight_k} m={phi.index_m} N={phi.level_N} "
             f"trunc={tr.numerator}/{tr.denominator}"]
    for (n, r), (num, den) in sorted(phi._coeffs.items()):
        lines.append(f"{n} {r} {num}/{den}")
    return "\n".join(lines) + "\n"


def parse_jacobi_table(text: str) -> JacobiFormData:
    """The table of ``dump_jacobi_table``'s format, each c(n, r) read as its
    reduced int pair; a repeated (n, r) keeps its last value.  A class's value
    repeats on each of its representatives' rows, so each distinct value text
    is parsed once.  A line that does not parse raises ValueError naming its
    number in ``text`` and its text."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty coefficient table")
    coeffs = {}
    pairs: dict[str, tuple[int, int]] = {}
    ln = lines[0]
    try:
        fields = dict(part.split("=", 1) for part in ln.split())
        for key in ("k", "m", "N", "trunc"):
            if key not in fields:
                raise ValueError(f"header has no {key}= field")
        header = (int(fields["k"]), int(fields["m"]), int(fields["N"]),
                  parse_rational(fields["trunc"]))
        for ln in lines[1:]:
            n_text, r_text, c_text = ln.split()
            c = pairs.get(c_text)
            if c is None:
                c = pairs[c_text] = _rational_pair(c_text)
            coeffs[(int(n_text), int(r_text))] = c
    except ValueError as error:
        raise _line_error(text, lines, ln, error) from None
    phi = object.__new__(JacobiFormData)
    phi._validate(*header, coeffs.items())
    return phi

"""Fixture builders and oracles that no command calls, kept with the tests.

Each was once package API used only by the tests: the Vandermonde product
behind the closed-form leading coefficients, the partial-kernel tuples, a
Jacobi table filled in from its class values, the scale between the two
Taylor routes, and the cut of a series to a lower window.
"""

from __future__ import annotations

import math
from fractions import Fraction

from qtheta import InvariantViolation, JacobiFormData, PuiseuxSeries, ThetaComponents, theta_minors
from qtheta.series import _as_trunc, _key_bound, _reduced, _window
from qtheta.exact import _residues


def vandermonde(nodes) -> Fraction:
    """prod_{i<j} (a_j - a_i); the oracle of ``wronskian._minor_leading_coefficient``."""
    out = Fraction(1)
    for j in range(len(nodes)):
        for i in range(j):
            out *= nodes[j] - nodes[i]
    return out


def partial_kernel_components(m: int, q_trunc, vanishing_rows: int,
                              columns: list[int] | None = None) -> ThetaComponents:
    """A component tuple annihilated by the first ``vanishing_rows`` system rows.

    Supported on ``columns`` (1-based residues, default the first
    vanishing_rows + 1), with entries the alternating maximal minors of the
    corresponding submatrix, each one ``theta_minors`` sum; rows beyond the
    prescribed ones are generically nonzero.
    """
    if not 1 <= vanishing_rows <= m - 2:
        raise ValueError("vanishing_rows must lie in 1..m-2")
    if columns is None:
        columns = list(range(1, vanishing_rows + 2))
    if len(columns) != vanishing_rows + 1 or len(set(columns)) != len(columns):
        raise ValueError("need vanishing_rows + 1 distinct columns")
    if any(not 1 <= c <= m - 1 for c in columns):
        raise ValueError("columns must be residues in 1..m-1")
    columns = sorted(columns)
    components = [PuiseuxSeries.zero(Fraction(q_trunc), 4 * m) for _ in range(m - 1)]
    for t, col in enumerate(columns):
        minor = theta_minors(m, q_trunc, [c for c in columns if c != col])[0]
        components[col - 1] = minor if t % 2 == 0 else -minor
    return ThetaComponents(m, tuple(components))


def from_orbit_values(weight_k: int, index_m: int, level_N: int, n_trunc,
                      orbit_values) -> JacobiFormData:
    """The full table of a form given by its values on classes (mu, disc).

    Values for the negated residue are filled in by odd symmetry, so a
    nonzero value on a self-paired class (mu = 0 or mu = m) conflicts with
    itself and is rejected.  Every (n, r) in the truncation window whose
    class has a value is populated.
    """
    m = index_m
    n_trunc = Fraction(n_trunc)
    closed: dict[tuple[int, int], Fraction] = {}
    for (mu, disc), value in orbit_values.items():
        mu = mu % (2 * m)
        value = Fraction(value)
        if (disc + mu * mu) % (4 * m) != 0:
            raise InvariantViolation(f"class (mu={mu}, disc={disc}) contains no integral pairs")
        for key, v in (((mu, disc), value), (((-mu) % (2 * m), disc), -value)):
            if key in closed and closed[key] != v:
                raise InvariantViolation(f"conflicting values for class {key}")
            closed[key] = v
    coeffs = {}
    bound = math.ceil(4 * m * n_trunc)  # (disc + r^2)/4m < n_trunc iff r^2 < bound - disc
    for (mu, disc), value in closed.items():
        if not value:
            continue
        for r in _residues(m, mu, bound - disc):
            if disc + r * r >= 0:
                coeffs[((disc + r * r) // (4 * m), r)] = value
    return JacobiFormData(weight_k, index_m, level_N, n_trunc, coeffs)


def component_taylor_scale(nu: int, m: int) -> Fraction:
    """taylor_coefficient = 2 * (4m)^(nu-1) / (2*nu-1)! * component_taylor.

    Pairing r with -r doubles each term, each q d/dq contributes r^2/(4m)
    in place of r^2, and the normalized coefficient divides by (2*nu-1)!.
    """
    return Fraction(2 * (4 * m) ** (nu - 1), math.factorial(2 * nu - 1))


def truncate(s: PuiseuxSeries, new_trunc) -> PuiseuxSeries:
    """s cut to the lower window ``new_trunc``; a higher one raises ValueError."""
    tn, td = _window(_as_trunc(new_trunc))
    if tn * s._td > s._tn * td:
        raise ValueError("cannot extend a certified truncation")
    bound = _key_bound(tn, td, s.base_denom)
    terms = s._terms if bound is None else s._below(s._terms, bound)
    terms, den = _reduced(terms, s._den)
    return PuiseuxSeries._make(terms, tn, td, s.base_denom, den)

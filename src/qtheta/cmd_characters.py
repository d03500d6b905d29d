"""verify-characters: each index's translation eigenvalues and the character
of its squared theta determinant, read with no series built."""

from math import gcd

from .cases import check, run_cases  # check: the one every verify command takes
from .exact import VerificationFailed


def handle(args):
    from . import characters  # loaded before the cases, so no case's seconds hold its import

    return run_cases(args, case)


def case(job):
    from .characters import (odd_theta_exponents, squared_determinant_delta_power,
                             squared_determinant_translation)

    _, m, _ = job
    den = 4 * m
    # every class mu = 1..m-1 has its two least residues mu and 2m - mu below
    # 2m, so on 2m + 2 (r^2 < 8m^2 + 8m) each column has at least two terms
    # and each eigenvalue compares at least one pair of exponents
    eigen_rows = []
    try:
        for mu, (num, d) in zip(range(1, m), odd_theta_exponents(m, 2 * m + 2)):
            if num * den != mu * mu % den * d:  # num/d is not mu^2/4m mod 1
                g = gcd(mu * mu, den)
                raise VerificationFailed(
                    f"character check failed: m={m} mu={mu}: series exponent "
                    f"{num}/{d}, expected {mu * mu % den // g}/{den // g}")
            eigen_rows.append((m, mu, f"{num}/{d}", True))
    except ValueError as error:  # column mu = len(eigen_rows) + 1 is not an eigenvector, or zero
        raise VerificationFailed(f"character check failed: m={m} "
                                 f"mu={len(eigen_rows) + 1}: {error}") from None
    xi = squared_determinant_translation(m)
    power = squared_determinant_delta_power(m)
    if xi != power.translation_value:
        raise VerificationFailed(
            f"character check failed: m={m}: squared determinant exponent "
            f"{xi.num}/{xi.den}, delta power {power.delta_power}")
    return {"eigenvalues": (("m", "mu", "exponent", "matches_series"), eigen_rows),
            "characters": (("m", "xi", "delta_power", "consistent"),
                           [(m, f"{xi.num}/{xi.den}", power.delta_power, True)])}, {}

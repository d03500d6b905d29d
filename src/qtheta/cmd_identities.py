"""verify-identities: the two-path Taylor identity, the kernel equivalence
and the Cramer reconstruction, on random tuples, the kernel tuple and a
--jacobi-file table."""

import sys
from fractions import Fraction

from .cases import check_window, indices, run_cases, short_window
from .exact import ABSENT, VerificationFailed

# the k of the random and kernel tuples; the kernel equivalence holds for every odd k
WEIGHT_K = 3


def check(args) -> None:
    """``check_window``, then this command's own checks; a --jacobi-file is
    parsed into ``args.jacobi_form``, so a bad table fails before any case."""
    from .jacobi import _class_grid, parse_jacobi_table

    check_window(args)
    if args.trials < 0:
        raise ValueError("--trials must be nonnegative")
    if args.m[1] < 3 and args.trials == 0 and args.jacobi_file is None:
        raise ValueError("no case to check: every index is below 3, --trials is 0 "
                         "and there is no --jacobi-file")
    grid = _class_grid(args.m[1], 1, args.q_trunc)  # the class with the most points
    points = -((grid.start - grid.stop) // grid.step)  # a range past sys.maxsize has no len()
    if points > sys.maxsize:
        raise ValueError(f"--q-trunc {args.q_trunc} is too long for the top index: "
                         f"m={args.m[1]} mu=1: {points} exponents to draw from, "
                         f"more than sys.maxsize = {sys.maxsize}")
    args.jacobi_form = None
    if args.jacobi_file is not None:
        try:
            phi = parse_jacobi_table(args.jacobi_file.read_text())
        except (OSError, ValueError) as error:
            raise ValueError(f"--jacobi-file {args.jacobi_file}: {error}") from error
        if phi.index_m < 2:
            raise ValueError(f"--jacobi-file {args.jacobi_file}: index m={phi.index_m} "
                             f"has no odd theta component to check")
        short = short_window(phi.index_m, phi.n_trunc)
        if short:
            raise ValueError(f"--jacobi-file {args.jacobi_file}: trunc={phi.n_trunc} "
                             f"is too short for its index: {short}")
        if phi.is_zero():
            raise ValueError(f"--jacobi-file {args.jacobi_file}: every coefficient is zero, "
                             f"so every check would compare zero series")
        args.jacobi_form = phi


def handle(args):
    """One case per index, with its random tuples, and the --jacobi-file case."""
    import random

    from .jacobi import random_components

    # every random tuple is drawn here, in index order, so the seeded
    # stream is the same for any --jobs
    rng = random.Random(args.seed)
    jobs = [(args, m, [(f"random_{trial}", random_components(m, args.q_trunc, rng))
                       for trial in range(args.trials)]) for m in indices(args)]
    if args.jacobi_file is not None:
        jobs.append((args, None, None))
    return run_cases(args, case, jobs)


def _identity_rows_for_components(m, label, h, q_trunc, weight_k):
    """The rows (m, case, check, ok) of one tuple h, and its kernel_case cell from m = 3 on.

    Each check runs in report order, two-path Taylor, kernel equivalence,
    then Cramer from m = 3 on, and the first that fails raises
    ``identity check failed: m=<m> case=<label> check=<check>``; a Cramer
    failure appends its own message.  So the Cramer check solves the rows
    M h only once the rows before it hold.
    """
    from .jacobi import (component_taylor, from_theta_components, kernel_equivalence,
                         taylor_from_moment, taylor_moments, two_path_taylor)
    from .wronskian import cramer_reconstruction

    def failed(check, detail=""):
        return VerificationFailed(
            f"identity check failed: m={m} case={label} check={check}{detail}")

    assembled = from_theta_components(h, q_trunc)
    # the rows M h and the zeta-moments, built once: compared here on the int
    # stores; the rows are then solved by the Cramer check, and the moments
    # over (2nu - 1)! are the Taylor coefficients the kernel equivalence reads
    nus = range(1, m)
    system = [component_taylor(h, nu) for nu in nus]
    moments = taylor_moments(assembled, nus)
    if not all(two_path_taylor(moment, row, nu, m)
               for nu, moment, row in zip(nus, moments, system)):
        raise failed("two_path_taylor")
    taylors = [taylor_from_moment(moment, nu) for nu, moment in zip(nus, moments)]
    ops_vanish, taylors_vanish = kernel_equivalence(taylors, weight_k, m)
    if ops_vanish != taylors_vanish:
        raise failed("kernel_equivalence")
    rows = [(m, label, "two_path_taylor", True), (m, label, "kernel_equivalence", True)]
    if m < 3:
        return rows
    try:
        report = cramer_reconstruction(m, h, q_trunc, system)
    except VerificationFailed as error:
        raise failed("cramer", f": {error}") from None
    return [row + (ABSENT,) for row in rows] + [(m, label, "cramer", True, report.kernel_case)]


def case(job):
    """Index m's random tuples ``draws`` and its kernel tuple; m None is the --jacobi-file case."""
    from .jacobi import ThetaComponents, theta_components
    from .wronskian import _cramer_operators

    args, m, draws = job
    if m is None:
        phi = args.jacobi_form
        m, q_trunc, weight_k = phi.index_m, phi.n_trunc, phi.weight_k
        draws = [("jacobi_file", theta_components(phi))]
    else:
        q_trunc, weight_k = args.q_trunc, WEIGHT_K
        if m >= 3:
            # the last-row cofactors: the last column of the adjugate Cramer solves with
            adj = _cramer_operators(m, Fraction(q_trunc))[0]
            draws = draws + [("kernel", ThetaComponents(m, tuple(row[-1] for row in adj)))]
    rows = [row for label, h in draws
            for row in _identity_rows_for_components(m, label, h, q_trunc, weight_k)]
    keys = ("m", "case", "check", "ok", "kernel_case") if m >= 3 else ("m", "case", "check", "ok")
    return {"identities": (keys, rows)}, {}

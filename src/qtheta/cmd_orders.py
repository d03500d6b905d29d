"""verify-orders: the order of each index's Wronskian and last-row cofactors."""

from fractions import Fraction

from .cases import check as check_args, check_window, run_cases
from .exact import _rat_str


def check(args) -> None:
    """``check``, and with --dump-series the window rule: the dumps are on --q-trunc."""
    (check_args if args.dump_series is None else check_window)(args)


def handle(args):
    return run_cases(args, case)


def least_window(m: int) -> Fraction:
    """((m-1)^2 + 1)/4m, the least window the top-index rule admits for m: each
    minor's passes its order by less than 1, so it holds the one term a check reads."""
    return Fraction((m - 1) ** 2 + 1, 4 * m)


def case(job):
    from .wronskian import (_check_theta_minor, _cofactor_order_reports,
                            theta_derivative_matrix, theta_wronskian)

    args, m, _ = job
    # the dumps are the very minors checked, on --q-trunc; a check alone needs no more
    window = args.q_trunc if args.dump_series is not None else least_window(m)
    value, _, _ = _check_theta_minor(m, range(1, m), theta_wronskian(m, window),
                                     f"m={m}", "Wronskian")
    rows = [(m, "wronskian_order", _rat_str(value), _rat_str(value), True),
            (m, "wronskian_square_order", _rat_str(2 * value), _rat_str(2 * value), True)]
    dumps = {}
    if m >= 3:
        cofactors = theta_derivative_matrix(m, window).last_row_cofactors()
        rows += [(m, f"cofactor_order_nu_{rep.nu}", _rat_str(rep.ord_cofactor),
                  _rat_str(rep.ord_expected), True)
                 for rep in _cofactor_order_reports(m, cofactors)]
        if args.dump_series is not None:
            for nu, cof in enumerate(cofactors, start=1):
                dumps[f"cofactor_m{m}_nu{nu}.series"] = cof
    return {"orders": (("m", "check", "value", "expected", "ok"), rows)}, dumps

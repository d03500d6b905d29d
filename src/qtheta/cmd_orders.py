"""verify-orders: the order of each index's Wronskian and last-row cofactors."""

from .cases import check_window as check, run_cases  # the verify checks and window rule
from .exact import _rat_str


def handle(args):
    return run_cases(args, case)


def case(job):
    from .wronskian import (_check_theta_minor, _cofactor_order_reports,
                            theta_derivative_matrix, theta_wronskian)

    args, m, _ = job
    value, _, _ = _check_theta_minor(m, range(1, m), theta_wronskian(m, args.q_trunc),
                                     f"m={m}", "Wronskian")
    rows = [(m, "wronskian_order", _rat_str(value), _rat_str(value), True),
            (m, "wronskian_square_order", _rat_str(2 * value), _rat_str(2 * value), True)]
    dumps = {}
    if m >= 3:
        cofactors = theta_derivative_matrix(m, args.q_trunc).last_row_cofactors()
        rows += [(m, f"cofactor_order_nu_{rep.nu}", _rat_str(rep.ord_cofactor),
                  _rat_str(rep.ord_expected), True)
                 for rep in _cofactor_order_reports(m, cofactors)]
        if args.dump_series is not None:
            for nu, cof in enumerate(cofactors, start=1):
                dumps[f"cofactor_m{m}_nu{nu}.series"] = cof
    return {"orders": (("m", "check", "value", "expected", "ok"), rows)}, dumps

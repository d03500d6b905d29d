"""verify-wronskian: the eta-power identity W = c * eta^lambda, one case per index."""

from .cases import check, run_cases  # check: the one every verify command takes


def handle(args):
    from . import wronskian  # loaded before the cases, so no case's seconds hold its import

    return run_cases(args, case)


def case(job):
    from .exact import to_jsonable
    from .wronskian import theta_wronskian, verify_eta_power

    args, m, _ = job
    dumps = {}
    if args.dump_series is not None:
        dumps[f"wronskian_m{m}.series"] = theta_wronskian(m, args.q_trunc)
    report = verify_eta_power(m, args.q_trunc)
    return {"reports": (report._fields, [to_jsonable(report)])}, dumps

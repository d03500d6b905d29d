"""classify: the applicability verdict of one case (k, m, N), in sweep's tables."""

from .cmd_sweep import INTEGRALITY_KEYS, VERDICT_KEYS
from .exact import VerificationFailed
from .injectivity import CaseInput


def check(args) -> None:
    CaseInput(args.k, args.m, args.N)  # its InvalidInput is a ValueError


def handle(args):
    from .exact import to_jsonable
    from .injectivity import classify, nonintegrality_check

    verdict = classify(CaseInput(args.k, args.m, args.N))
    discrepancies = []
    tables = {"verdicts": (VERDICT_KEYS, [verdict + ("",)])}
    if args.m > 3:
        report = nonintegrality_check(args.m)
        tables["nonintegrality"] = (INTEGRALITY_KEYS,
                                    [to_jsonable(report) + (report.discrepancy,)])
        if report.discrepancy:
            discrepancies.append(f"m={args.m}: integrality discrepancy")
    if verdict.any_part and not verdict.window_ok:
        raise VerificationFailed(
            f"window check failed for accepted case k={args.k} m={args.m}")
    return tables, discrepancies, {}

"""sweep: the classifier over a grid of cases, plus the integrality
discrepancy table of every index the grid reaches."""

from .exact import VerificationFailed
from .injectivity import CaseVerdict, NonintegralityReport

# the two tables of sweep and classify: a verdict's fields, then
# ``discrepancy_flags``, blank as no accepted case has m = 6
VERDICT_KEYS = CaseVerdict._fields + ("discrepancy_flags",)
INTEGRALITY_KEYS = NonintegralityReport._fields + ("discrepancy",)


def check(args) -> None:
    """Reject a grid that is malformed or has no case to check."""
    if args.m is None and args.m_offset is None:
        raise ValueError("sweep needs --m or --m-offset")
    if args.m is not None and args.m_offset is not None:
        raise ValueError("sweep takes --m or --m-offset, not both")
    if min(args.N) < 1:
        raise ValueError("--N levels must be positive integers")
    if len(set(args.N)) < len(args.N):
        levels = ",".join(map(str, args.N))
        raise ValueError(f"--N {levels} lists a level more than once")
    if any(k % 2 for k in range(args.k[0], min(args.k[1], 2) + 1)):
        raise ValueError("--k includes an odd weight below 3")
    odd = [k for k in range(args.k[0], args.k[1] + 1) if k % 2]
    if not odd:
        raise ValueError(f"--k {args.k[0]}..{args.k[1]} has no odd weight to check")
    top = args.m[1] if args.m_offset is None else odd[-1] + args.m_offset[1]
    if top < 3:
        raise ValueError("the sweep grid has no index m >= 3 to check")


def handle(args):
    from .exact import to_jsonable
    from .injectivity import classify_levels, level_classes, nonintegrality_check

    rows, integrality_rows, discrepancies, ms_seen = [], [], [], set()
    # check has checked the grid, so each level's class is worked out once
    # here and no (k, m) validates or tests a level again
    classes = level_classes(args.N)
    for k in range(args.k[0] | 1, args.k[1] + 1, 2):  # the odd weights, none below 3
        lo, hi = args.m if args.m_offset is None else (k + args.m_offset[0],
                                                        k + args.m_offset[1])
        for m in range(max(lo, 3), hi + 1):
            ms_seen.add(m)
            for verdict in classify_levels(k, m, args.N, classes):
                if not verdict.window_ok and verdict.any_part:
                    raise VerificationFailed(
                        f"window check failed for accepted case k={k} m={m} N={verdict.N}")
                rows.append(verdict + ("",))
    for m in sorted(ms_seen - {3}):
        report = nonintegrality_check(m)
        integrality_rows.append(to_jsonable(report) + (report.is_integer,))
        if report.is_integer:
            discrepancies.append(f"m={m}: (m-2)(m-1)(2m-3)/m is an integer")
    tables = {"verdicts": (VERDICT_KEYS, rows),
              "nonintegrality": (INTEGRALITY_KEYS, integrality_rows)}
    return tables, sorted(set(discrepancies)), {}

"""What the four verify commands share: their argument checks, the window
rule of verify-identities and verify-orders --dump-series, and the case
runner.  A case takes a job (args, m, inputs) for one index m, returns
(tables, dumps) and imports its engine in its body, reading each name off its module."""

import os
import time

from .exact import ABSENT

# What one forked worker costs the run it joins: the fork itself, the
# copy-on-write faults on the parent's heap (about 20 MB) and the pickled
# results.  The cases of verify-orders --m 3..10 --q-trunc 10 --dump-series
# --jobs 2 took 6.2-6.5 ms in run_cases in one process and 10.4 ms with one
# worker forked after the first case (this constant patched to 0; 15 fresh
# interpreters each, start-up heap frozen or not, 2-core host, CPython 3.11):
# a net cost of about 4 ms, half this bound, which errs towards not forking.
FORK_SECONDS = 0.008


def check(args) -> None:
    """The checks every verify command takes; raises ValueError on malformed input."""
    if args.m[1] < 2:
        raise ValueError(f"--m {args.m[0]}..{args.m[1]} has no index m >= 2 to check")
    if args.q_trunc <= 0:
        raise ValueError("q_trunc must be positive")
    if args.jobs < 1:
        raise ValueError("--jobs must be at least 1")


def check_window(args) -> None:
    """``check``, and a --q-trunc too short for the top index is malformed,
    for the commands that build their minors on --q-trunc itself."""
    check(args)
    short = short_window(args.m[1], args.q_trunc)
    if short:
        raise ValueError(f"--q-trunc {args.q_trunc} is too short for the top index: {short}")


def short_window(m: int, q_trunc) -> str | None:
    """``m=<m>[ nu=1]: window <w> cannot reach <minor> order <o>`` if the
    binding minor of index m has its order outside its own window: the
    Wronskian for m = 2, else the last-row cofactor nu = 1; None if not.

    A minor's order is inside exactly when q_trunc passes the largest
    mu^2/4m of its columns: (m-1)^2/4m for nu = 1, no less than for any
    other nu, and growing with m, so the top index of a range decides.
    Below it a dumped minor stops short of its order, and on short windows
    every kernel tuple is zero, so the identity checks compare nothing.
    """
    from .wronskian import _short_minor, theta_minor_window

    where, name, columns = (("m=2", "Wronskian", [1]) if m == 2 else
                            (f"m={m} nu=1", "cofactor", range(2, m)))
    return _short_minor(m, columns, theta_minor_window(m, q_trunc, columns), where, name)[1]


def indices(args) -> range:
    """The indices m of ``--m`` that have a case: 2 and up."""
    return range(max(args.m[0], 2), args.m[1] + 1)


def run_cases(args, case, jobs=None):
    """``case`` of each job, by default (args, m, None) for each index, on at
    most ``--jobs`` processes; their tables merged in job order, and their dumps.

    A run with fewer than three cases per process forks at once.  Otherwise
    the parent runs the cases itself in index order and forks for the rest
    only once the cases left times the last case's CPU seconds reach twice
    ``FORK_SECONDS``.  Cases grow with the index, so that product never
    overstates the work left; each command loads its engine before calling
    this, so no case's seconds hold a one-time import.  The results, and a
    failure's record, are those of a run in one process, whether or when it
    forks.
    """
    if jobs is None:
        jobs = [(args, m, None) for m in indices(args)]
    processes = 1
    if args.jobs > 1 and hasattr(os, "fork"):
        processes = min(args.jobs, len(jobs), _usable_cpus())
    results = []
    if processes > 1 and len(jobs) >= 3 * processes:
        for job in jobs:
            start = time.process_time()
            results.append(case(job))
            if (len(jobs) - len(results)) * (time.process_time() - start) >= 2 * FORK_SECONDS:
                break
    rest = jobs[len(results):]
    if processes > 1 and len(rest) > 1:
        from .pool import _run_parallel

        results += _run_parallel(case, rest, processes, len(results))
    else:
        results += map(case, rest)
    parts, dumps = {}, {}
    for case_tables, case_dumps in results:
        for name, table in case_tables.items():
            parts.setdefault(name, []).append(table)
        dumps.update(case_dumps)
    return {name: _join(tables) for name, tables in parts.items()}, [], dumps


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform
    has one (a ``taskset`` or a cpuset container narrows it), else the host count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _join(tables) -> tuple:
    """One table of several: the keys in first-seen order, ABSENT where a row's table lacks one."""
    keys = tuple(dict.fromkeys(key for table_keys, rows in tables if rows for key in table_keys))
    joined = []
    for table_keys, rows in tables:
        if table_keys != keys:
            at = [table_keys.index(key) if key in table_keys else None for key in keys]
            rows = [tuple(ABSENT if i is None else row[i] for i in at) for row in rows]
        joined += rows
    return keys, joined

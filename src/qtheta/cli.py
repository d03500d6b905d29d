"""Command-line verification front end.

Subcommands run the exact checks and write deterministic reports:

    verify-wronskian    eta-power identity for a range of indices
    verify-orders       vanishing orders and leading coefficients
    verify-characters   translation eigenvalues and character exponents
    verify-identities   two-path Taylor identity, kernel equivalence, Cramer
    classify            one case of the applicability conditions
    sweep               a grid of cases plus the integrality discrepancy table

Reports contain no floating point: every rational is rendered "num/den".
Identical arguments produce byte-identical output.  ``run`` is the one
writer: once every case has run it opens the single target (stdout,
--output, or ``$QTHETA_OUTPUT_DIR/<command>.<ext>``) and the renderer
writes the report into it in row blocks, so a run holds the rows plus one
block, never the whole report.  Exit status 0 means every check passed;
discrepancy flags are informational and never affect the exit status.  On
a failed check only a machine-readable failure record is written and the
exit status is 1.  Malformed input, an output target of the wrong kind
included, exits 2 with a usage error and checks nothing; a report or dump
whose write fails anyway exits 2 with one ``cannot write`` error line.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

from .characters import UnityExponent, squared_determinant_delta_power
from .injectivity import (CaseInput, CaseVerdict, NonintegralityReport, classify,
                          classify_levels, level_classes, nonintegrality_check)
from .jacobi import (ThetaComponents, component_taylor, from_theta_components,
                     kernel_equivalence, parse_jacobi_table, random_components,
                     taylor_from_moment, taylor_moments, theta_components, two_path_taylor)
from .series import dump_series_text, parse_rational
from .theta import odd_theta_exponents
from .wronskian import (VerificationFailed, _check_theta_minor, _cofactor_order_reports,
                        _cramer_operators, cramer_reconstruction, theta_derivative_matrix,
                        theta_minor_window, theta_wronskian, verify_eta_power)

SCHEMA_VERSION = 1
OUTPUT_DIR_ENV = "QTHETA_OUTPUT_DIR"


def parse_range(text: str) -> tuple[int, int]:
    """'2..8' -> (2, 8); '5' -> (5, 5)."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
    else:
        lo = hi = int(text)
    if hi < lo:
        raise ValueError(f"empty range {text!r}")
    return lo, hi


def parse_levels(text: str) -> tuple[int, ...]:
    """'1,6,4' -> (1, 6, 4)."""
    return tuple(int(x) for x in text.split(","))


def _rat(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def to_jsonable(value):
    """A report record's fields as a row under its ``_fields``; a field is a
    Fraction, int, bool, str or None."""
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, Fraction):
        return _rat(value)
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        return tuple([to_jsonable(field) for field in value])
    raise TypeError(f"cannot serialize {type(value).__name__}")


ABSENT = ...  # the cell of a key a row lacks: a singleton of no JSON type, kept by pickle


# -- command implementations --------------------------------------------------
#
# Each handler takes the parsed arguments and returns (tables, discrepancies,
# dumps).  tables maps each table name to (keys, rows): the keys tuple is the
# CSV header, in first-seen order, and each row is one tuple of cells, a str,
# int, bool or None, or ABSENT where the row lacks that key (JSON and text
# leave it out, CSV prints it empty).  A row whose "ok" cell is false fails
# the run.  dumps maps a --dump-series file name to its series.
#
# The four verify commands share _run_cases.  Each of their cases takes
# (args, m, inputs) and returns its own tables and dumps, so the parent
# computes no series once the cases have run.


def _wronskian_case(job):
    args, m, _ = job
    dumps = {}
    if args.dump_series is not None:
        dumps[f"wronskian_m{m}.series"] = theta_wronskian(m, args.q_trunc)
    report = verify_eta_power(m, args.q_trunc)
    return {"reports": (report._fields, [to_jsonable(report)])}, dumps


def _orders_case(job):
    args, m, _ = job
    value, _, _ = _check_theta_minor(m, range(1, m), theta_wronskian(m, args.q_trunc),
                                     f"m={m}", "Wronskian")
    rows = [(m, "wronskian_order", _rat(value), _rat(value), True),
            (m, "wronskian_square_order", _rat(2 * value), _rat(2 * value), True)]
    dumps = {}
    if m >= 3:
        cofactors = theta_derivative_matrix(m, args.q_trunc).last_row_cofactors()
        rows += [(m, f"cofactor_order_nu_{rep.nu}", _rat(rep.ord_cofactor),
                  _rat(rep.ord_expected), rep.passed)
                 for rep in _cofactor_order_reports(m, cofactors)]
        if args.dump_series is not None:
            for nu, cof in enumerate(cofactors, start=1):
                dumps[f"cofactor_m{m}_nu{nu}.series"] = cof
    return {"orders": (("m", "check", "value", "expected", "ok"), rows)}, dumps


def _characters_case(job):
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
    # twice the eigenvalues' sum, on the integer sum of mu^2 over 4m
    xi = UnityExponent(2 * sum(mu * mu for mu in range(1, m)), den)
    power = squared_determinant_delta_power(m)
    if xi != power.translation_value:
        raise VerificationFailed(
            f"character check failed: m={m}: squared determinant exponent "
            f"{xi.num}/{xi.den}, delta power {power.delta_power}")
    return {"eigenvalues": (("m", "mu", "exponent", "matches_series"), eigen_rows),
            "characters": (("m", "xi", "delta_power", "consistent"),
                           [(m, f"{xi.num}/{xi.den}", power.delta_power, True)])}, {}


def _identity_rows_for_components(m, label, h, q_trunc, weight_k):
    """The rows (m, case, check, ok) of one tuple h, and its kernel_case cell from m = 3 on.

    The Cramer check solves the rows M h and raises on a faulty one, so it
    runs only once the rows before it hold: a failed row is then reported
    first, as it comes first in the report.
    """
    assembled = from_theta_components(h, q_trunc)
    # the rows M h and the zeta-moments, built once: compared here on the int
    # stores; the rows are then solved by the Cramer check, and the moments
    # over (2nu - 1)! are the Taylor coefficients the kernel equivalence reads
    nus = range(1, m)
    system = [component_taylor(h, nu) for nu in nus]
    moments = taylor_moments(assembled, nus)
    two_path = all(two_path_taylor(moment, row, nu, m)
                   for nu, moment, row in zip(nus, moments, system))
    taylors = [taylor_from_moment(moment, nu) for nu, moment in zip(nus, moments)]
    ops_vanish, taylors_vanish = kernel_equivalence(taylors, weight_k, m)
    rows = [(m, label, "two_path_taylor", two_path),
            (m, label, "kernel_equivalence", ops_vanish == taylors_vanish)]
    if m < 3 or not two_path or ops_vanish != taylors_vanish:
        return rows
    report = cramer_reconstruction(m, h, q_trunc, system)
    ok = report.cramer_ok and report.proportionality_ok in (None, True)
    return [row + (ABSENT,) for row in rows] + [(m, label, "cramer", ok, report.kernel_case)]


def _identities_case(job):
    """Index m's random tuples ``draws`` and its kernel tuple; m None is the --jacobi-file case."""
    args, m, draws = job
    if m is None:
        phi = args.jacobi_form
        m, q_trunc, weight_k = phi.index_m, phi.n_trunc, phi.weight_k
        draws = [("jacobi_file", theta_components(phi))]
    else:
        q_trunc, weight_k = args.q_trunc, args.weight_k
        if m >= 3:
            # the last-row cofactors: the last column of the adjugate Cramer solves with
            adj = _cramer_operators(m, Fraction(q_trunc))[0]
            draws = draws + [("kernel", ThetaComponents(m, tuple(row[-1] for row in adj)))]
    rows = [row for label, h in draws
            for row in _identity_rows_for_components(m, label, h, q_trunc, weight_k)]
    failed = [row for row in rows if not row[3]]
    if failed:
        raise VerificationFailed(
            f"identity check failed: m={failed[0][0]} case={failed[0][1]} check={failed[0][2]}")
    keys = ("m", "case", "check", "ok", "kernel_case") if m >= 3 else ("m", "case", "check", "ok")
    return {"identities": (keys, rows)}, {}


CASES = {
    "verify-wronskian": _wronskian_case,
    "verify-orders": _orders_case,
    "verify-characters": _characters_case,
    "verify-identities": _identities_case,
}


def _lift_int_str_limit() -> int | None:
    """Exact numerators outgrow CPython's default 4300-digit limit on int/str
    conversion (the m = 64 Wronskian constant has 4709 digits); lift it and
    return the old limit, None where CPython has no such limit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return None
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    return saved


# A task token is a 4-byte run number.  POSIX guarantees that a pipe holds
# PIPE_BUF = 4096 bytes, so up to 1024 tokens go into the task pipe before
# the first fork without blocking; past 1024 cases a run spans several.
_TOKEN_BYTES = 4
_MAX_TOKENS = 1024


def _work_runs(worker, items, bounds, tasks) -> dict:
    """Take tokens from the task pipe until it is empty and run every case of
    each token's run, failed or not: {index: (True, result) or (False, error)}."""
    results = {}
    while len(token := os.read(tasks, _TOKEN_BYTES)) == _TOKEN_BYTES:
        run = int.from_bytes(token, "little")
        for index in reversed(range(bounds[run], bounds[run + 1])):
            try:
                results[index] = (True, worker(items[index]))
            except Exception as error:
                results[index] = (False, error)
    return results


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform
    has one (a ``taskset`` or a cpuset container narrows it), else the host count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_parallel(worker, items, jobs):
    """``[worker(item) for item in items]`` on up to ``jobs`` processes.

    The parent is one worker and forks the others (the CLI runs no thread
    that a fork would leave behind).  Every process takes
    tokens from one task pipe, largest index first, and runs all the cases it
    takes, so the lowest failing index is always seen.  A child pickles its
    results to its own pipe and ends with ``os._exit``, never flushing the
    parent's stdio buffers.  The results are merged in item order and the
    first failure is raised, as a serial run raises it; a case that no
    process returned (its worker died) fails with the children's wait
    statuses.
    """
    workers = min(jobs, len(items), _usable_cpus())
    if workers <= 1 or not hasattr(os, "fork"):
        return [worker(item) for item in items]
    import pickle  # only worker processes need it; kept out of every start-up

    runs = min(len(items), _MAX_TOKENS)
    bounds = [run * len(items) // runs for run in range(runs + 1)]
    tasks, feed = os.pipe()
    os.write(feed, b"".join(run.to_bytes(_TOKEN_BYTES, "little")
                            for run in reversed(range(runs))))
    os.close(feed)
    pids, inboxes = [], []
    try:
        for _ in range(workers - 1):
            inbox, outbox = os.pipe()
            inboxes.append(inbox)
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    for fd in inboxes:
                        os.close(fd)
                    with open(outbox, "wb") as out:
                        pickle.dump(_work_runs(worker, items, bounds, tasks), out,
                                    pickle.HIGHEST_PROTOCOL)
                    status = 0
                finally:
                    os._exit(status)
            pids.append(pid)
            os.close(outbox)
        results = _work_runs(worker, items, bounds, tasks)
        sent = []
        for inbox in inboxes:
            with open(inbox, "rb", closefd=False) as stream:
                sent.append(stream.read())
    finally:
        # on an early exit, take the tokens left so the children stop after
        # their current case, and close the result pipes so none blocks
        while os.read(tasks, _TOKEN_BYTES * _MAX_TOKENS):
            pass
        os.close(tasks)
        for inbox in inboxes:
            os.close(inbox)
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    for data, status in zip(sent, statuses):
        if status == 0:
            results.update(pickle.loads(data))
    merged = []
    for index in range(len(items)):
        if index not in results:
            raise VerificationFailed(
                f"case {index} has no result: worker process wait statuses "
                f"{', '.join(map(str, statuses))}")
        ok, value = results[index]
        if not ok:
            raise value
        merged.append(value)
    return merged


def _run_cases(args: argparse.Namespace):
    """Handler of the four verify commands: one case per index, merged in index order."""
    lo, hi = args.m
    ms = range(max(lo, 2), hi + 1)
    if args.command == "verify-identities":
        # every random tuple is drawn here, in index order, so the seeded
        # stream is the same for any --jobs
        rng = random.Random(args.seed)
        jobs = [(args, m, [(f"random_{trial}", random_components(m, args.q_trunc, rng))
                           for trial in range(args.trials)]) for m in ms]
        if args.jacobi_file is not None:
            jobs.append((args, None, None))
    else:
        jobs = [(args, m, None) for m in ms]
    parts, dumps = {}, {}
    for case_tables, case_dumps in _run_parallel(CASES[args.command], jobs, args.jobs):
        for name, table in case_tables.items():
            parts.setdefault(name, []).append(table)
        dumps.update(case_dumps)
    return {name: _join(tables) for name, tables in parts.items()}, [], dumps


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


# a verdict's fields, then ``discrepancy_flags``: blank, as no accepted case has m = 6
_VERDICT_KEYS = CaseVerdict._fields + ("discrepancy_flags",)
_INTEGRALITY_KEYS = NonintegralityReport._fields + ("discrepancy",)


def _cmd_classify(args: argparse.Namespace):
    verdict = classify(CaseInput(args.k, args.m, args.N))
    discrepancies = []
    tables = {"verdicts": (_VERDICT_KEYS, [verdict + ("",)])}
    if args.m > 3:
        report = nonintegrality_check(args.m)
        tables["nonintegrality"] = (_INTEGRALITY_KEYS,
                                    [to_jsonable(report) + (report.discrepancy,)])
        if report.discrepancy:
            discrepancies.append(f"m={args.m}: integrality discrepancy")
    if verdict.any_part and not verdict.window_ok:
        raise VerificationFailed(
            f"window check failed for accepted case k={args.k} m={args.m}")
    return tables, discrepancies, {}


def _cmd_sweep(args: argparse.Namespace):
    k_lo, k_hi = args.k
    rows, integrality_rows, discrepancies, ms_seen = [], [], [], set()
    # config_from_args has checked the grid, so each level's class is worked
    # out once here and no (k, m) validates or tests a level again
    classes = level_classes(args.N)
    for k in range(k_lo, k_hi + 1):
        if k % 2 == 0:
            continue
        if args.m_offset is not None:
            off_lo, off_hi = args.m_offset
            ms = range(k + off_lo, k + off_hi + 1)
        else:
            ms = range(args.m[0], args.m[1] + 1)
        for m in ms:
            if m < 3:
                continue
            ms_seen.add(m)
            for verdict in classify_levels(k, m, args.N, classes):
                if not verdict.window_ok and verdict.any_part:
                    raise VerificationFailed(
                        f"window check failed for accepted case k={k} m={m} N={verdict.N}")
                rows.append(verdict + ("",))
    for m in sorted(ms_seen):
        if m <= 3:
            continue
        report = nonintegrality_check(m)
        integrality_rows.append(to_jsonable(report) + (report.discrepancy,))
        if report.discrepancy:
            discrepancies.append(f"m={m}: (m-2)(m-1)(2m-3)/m is an integer")
    tables = {"verdicts": (_VERDICT_KEYS, rows),
              "nonintegrality": (_INTEGRALITY_KEYS, integrality_rows)}
    return tables, sorted(set(discrepancies)), {}


HANDLERS = {**dict.fromkeys(CASES, _run_cases), "classify": _cmd_classify, "sweep": _cmd_sweep}


# -- rendering -----------------------------------------------------------------


# the JSON and CSV renderers write a table's rows in blocks of at most this
# many, so a render holds the rows plus one rendered block
_BLOCK_ROWS = 256
_BOOL_TEXT = {True: "true", False: "false"}


def _json_template(keys, present, templates, cell_text) -> tuple[str, list]:
    """The %-template of a row with the cells at ``present`` at the rows' depth,
    and those cells' indices in key order; cached in ``templates``."""
    if present not in templates:
        order = sorted(present, key=keys.__getitem__)
        escape = cell_text[str]
        fields = ",\n".join(f"        {escape(keys[i]).replace('%', '%%')}: %s" for i in order)
        templates[present] = ("{\n" + fields + "\n      }" if order else "{}"), order
    return templates[present]


def _json_block(keys, block, templates, cell_text) -> list[str]:
    """The rows' JSON texts: if every cell has a JSON type, converted a column at
    a time into the table's template, else row by row on their present cells."""
    columns = []
    for column in zip(*block):
        kinds = set(map(type, column))
        if not kinds <= cell_text.keys():
            return [_json_sparse_row(keys, row, templates, cell_text) for row in block]
        columns.append(map(cell_text[kinds.pop()], column) if len(kinds) == 1
                       else [cell_text[type(value)](value) for value in column])
    if not keys:
        return ["{}"] * len(block)
    template, order = _json_template(keys, tuple(range(len(keys))), templates, cell_text)
    return list(map(template.__mod__, zip(*[columns[i] for i in order])))


def _json_sparse_row(keys, row, templates, cell_text) -> str:
    """A row with ABSENT cells; a cell of no JSON type raises TypeError."""
    present = tuple([i for i, value in enumerate(row) if value is not ABSENT])
    template, order = _json_template(keys, present, templates, cell_text)
    cells = [row[i] for i in order]
    bad = [type(value).__name__ for value in cells if type(value) not in cell_text]
    if bad:
        raise TypeError(f"a report cell must be a str, int, bool or None, not {bad[0]}")
    return template % tuple([cell_text[type(value)](value) for value in cells])


def _render_json(out, args, tables, all_passed, discrepancies) -> None:
    """Write the text of ``json.dumps(doc, indent=2, sort_keys=True)`` plus a newline.

    The envelope goes through ``json.dumps`` with the results left out; the
    rows, the bulk of a report, are filled into %-templates, so no row goes
    through the pure-Python encoder that ``indent`` selects.
    """
    import json  # only JSON reports need it; kept out of every start-up

    escape = json.encoder.encode_basestring_ascii
    # a cell's JSON text by its exact type (a bool is an int), all from C-level calls
    cell_text = {str: escape, int: int.__repr__, bool: _BOOL_TEXT.__getitem__,
                 type(None): {None: "null"}.__getitem__}
    doc = {"schema_version": SCHEMA_VERSION, "command": args.command,
           "parameters": {"q_trunc": _rat(args.q_trunc), "seed": args.seed,
                          "trials": args.trials},
           "results": None, "all_passed": all_passed, "discrepancies": discrepancies}
    # a JSON string holds no raw newline, so this line is the top-level key
    head, tail = json.dumps(doc, indent=2, sort_keys=True).split('\n  "results": null,\n')
    if not tables:
        out.write(f'{head}\n  "results": {{}},\n{tail}\n')
        return
    out.write(f'{head}\n  "results": {{')
    separator = "\n"
    for name in sorted(tables):
        keys, rows = tables[name]
        out.write(f"{separator}    {escape(name)}: " + ("[\n      " if rows else "[]"))
        separator = ",\n"
        templates = {}
        for start in range(0, len(rows), _BLOCK_ROWS):
            rendered = _json_block(keys, rows[start:start + _BLOCK_ROWS], templates, cell_text)
            out.write((",\n      " if start else "") + ",\n      ".join(rendered))
        if rows:
            out.write("\n    ]")
    out.write(f"\n  }},\n{tail}\n")


def _csv_str(text: str) -> str:
    """A str cell with no "\r" as the csv writer prints it: quoted, its quotes
    doubled, exactly when it holds a comma, a quote or a newline."""
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


# a cell's CSV text by its exact type, but for a str holding "\r" (see _csv_block)
_CSV_CELL = {str: _csv_str, int: int.__repr__, bool: _BOOL_TEXT.__getitem__,
             type(None): {None: ""}.__getitem__, type(ABSENT): {ABSENT: ""}.__getitem__}


class _IntTexts(dict):
    """int -> its decimal text, each distinct int converted once per render:
    a report's ints repeat (indices, weights, levels) row after row."""

    def __missing__(self, n):
        text = self[n] = int.__repr__(n)
        return text


def _csv_block(block, int_texts) -> str | None:
    """The rows' CSV lines, converted a column at a time (ints through
    ``int_texts``) and joined; None for a block the csv writer must print: one
    with a cell that CPython versions quote differently (a str holding "\r",
    the empty cell of a one-cell row) or a cell of no report type."""
    columns = []
    for column in zip(*block):
        kinds = set(map(type, column))
        if not kinds <= _CSV_CELL.keys():
            return None
        if str in kinds:
            text = "".join(column if len(kinds) == 1 else
                           [value for value in column if type(value) is str])
            if "\r" in text:
                return None
            if len(kinds) == 1 and not ("," in text or '"' in text or "\n" in text):
                columns.append(column)  # every cell prints as it is
                continue
        if kinds == {int}:
            columns.append(map(int_texts.__getitem__, column))
        else:
            columns.append(map(_CSV_CELL[kinds.pop()], column) if len(kinds) == 1 else
                           [_CSV_CELL[type(value)](value) for value in column])
    if not columns:
        return "\n" * len(block)
    if len(columns) == 1:
        columns[0] = list(columns[0])
        if "" in columns[0]:
            return None
    return "\n".join(map(",".join, zip(*columns))) + "\n"


def _render_csv(out, tables) -> None:
    """Each table's keys are its header, then its rows in blocks: each block
    converted a column at a time (each distinct int once by ``int.__repr__``,
    bools looked up, a str quoted by hand), or printed by the csv writer
    where ``_csv_block`` says so."""
    import csv  # only CSV reports need it; kept out of every start-up

    writer = csv.writer(out, lineterminator="\n")
    int_texts = _IntTexts()
    separator = ""
    for name, (keys, rows) in tables.items():
        out.write(f"{separator}# table: {name}\n")
        separator = "\n"
        if rows:
            writer.writerow(keys)
        for start in range(0, len(rows), _BLOCK_ROWS):
            block = rows[start:start + _BLOCK_ROWS]
            text = _csv_block(block, int_texts)
            if text is None:
                # the writer prints None empty; bools and ABSENT become those first
                writer.writerows([[_BOOL_TEXT[value] if type(value) is bool else
                                   None if value is ABSENT else value for value in row]
                                  for row in block])
            else:
                out.write(text)


def _render_text(out, args, tables, all_passed, discrepancies) -> None:
    out.write(f"command: {args.command}\n")
    for name, (keys, rows) in tables.items():
        out.write(f"[{name}]\n")
        # a row's status is its ok cell, else its residual_all_zero cell, else PASS
        status = [keys.index(key) for key in ("ok", "residual_all_zero") if key in keys]
        for row in rows:
            ok = next((row[i] for i in status if row[i] is not ABSENT), True)
            cells = " ".join(f"{key}={value}" for key, value in zip(keys, row)
                             if key != "ok" and value is not ABSENT)
            out.write(f"  {'PASS' if ok else 'FAIL'} {cells}\n")
    for note in discrepancies:
        out.write(f"note: {note}\n")
    out.write("all checks passed\n" if all_passed else "FAILURES PRESENT\n")


def _render_failure(out, args, error) -> None:
    import json

    record = {"schema_version": SCHEMA_VERSION, "command": args.command,
              "all_passed": False, "failure": str(error)}
    json.dump(record, out, indent=2, sort_keys=True)
    out.write("\n")


def _report_target(args) -> Path | None:
    """The report file: --output, else ``<command>.<ext>`` in $QTHETA_OUTPUT_DIR,
    else None for a stream."""
    if args.output is not None:
        return args.output
    directory = os.environ.get(OUTPUT_DIR_ENV)
    if directory:
        ext = {"json": "json", "csv": "csv", "text": "txt"}[args.format]
        return Path(directory) / f"{args.command}.{ext}"
    return None


def _write_report(args, stream, render, *parts) -> bool:
    """Render into the report target, else into ``stream``; False, with the
    error printed, if the write failed."""
    target = _report_target(args)
    try:
        if target is None:
            render(stream, *parts)
            stream.flush()
        else:
            target.parent.mkdir(parents=True, exist_ok=True)
            with open(target, "w") as out:
                render(out, *parts)
    except OSError as error:
        name = target if target is not None else getattr(stream, "name", "the report stream")
        _write_error(name, error)
        return False
    return True


def _write_error(name, error: OSError) -> None:
    try:
        print(f"qtheta: error: cannot write {name}: {error.strerror or error}",
              file=sys.stderr)
    except OSError:
        pass  # the failed target was stderr itself; the exit status still says 2


def run(args: argparse.Namespace) -> int:
    """Execute one command and write its report; returns the process exit status.

    Once the handler has returned and ``all_passed`` is known, the one
    report target (see ``_report_target``) is opened and the ``--format``
    renderer writes into it as it goes: no whole report is held as one
    string.  A failed check writes only its failure record, to the target
    or else to stderr, and exits 1.  A dump or report that cannot be
    written prints ``qtheta: error: cannot write ...`` and exits 2.
    """
    try:
        tables, discrepancies, dumps = HANDLERS[args.command](args)
    except VerificationFailed as error:
        return 1 if _write_report(args, sys.stderr, _render_failure, args, error) else 2
    all_passed = all(row[i] for keys, rows in tables.values() if "ok" in keys
                     for i in (keys.index("ok"),) for row in rows)
    if args.dump_series is not None and dumps:
        path = args.dump_series
        try:
            path.mkdir(parents=True, exist_ok=True)
            for name, series in sorted(dumps.items()):
                path = args.dump_series / name
                path.write_text(dump_series_text(series))
        except OSError as error:
            _write_error(path, error)
            return 2
    if args.format == "csv":
        wrote = _write_report(args, sys.stdout, _render_csv, tables)
    else:
        render = _render_json if args.format == "json" else _render_text
        wrote = _write_report(args, sys.stdout, render, args, tables, all_passed,
                              discrepancies)
    return (0 if all_passed else 1) if wrote else 2


# -- argument parsing -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtheta",
        description="Exact q-expansion checks for theta Wronskians, eta powers, "
                    "and odd-weight Jacobi form operators.")
    # Every report prints q_trunc, seed and trials, so the commands without
    # those flags take these values too.  The flags default to SUPPRESS,
    # which leaves these as the only defaults.
    parser.set_defaults(q_trunc=Fraction(12), seed=0, trials=5,
                        dump_series=None, jacobi_file=None)
    sub = parser.add_subparsers(dest="command", required=True)

    def output_flags(p):
        p.add_argument("--output", type=Path, default=None,
                       help=f"report path (default: stdout, or ${OUTPUT_DIR_ENV})")
        p.add_argument("--format", choices=("json", "csv", "text"), default="text")

    def common(p, q_trunc=True):
        p.add_argument("--m", type=parse_range, default="2..8",
                       help="index range, e.g. 2..8 or 5")
        if q_trunc:
            p.add_argument("--q-trunc", type=parse_rational, default=argparse.SUPPRESS,
                           help="certified window, e.g. 40 or 81/2")
        output_flags(p)
        p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")

    p = sub.add_parser("verify-wronskian", help="eta-power identity per index")
    common(p)
    p.add_argument("--dump-series", type=Path, default=argparse.SUPPRESS,
                   help="directory for Wronskian series dumps")

    p = sub.add_parser("verify-orders", help="vanishing orders and leading coefficients")
    common(p)
    p.add_argument("--dump-series", type=Path, default=argparse.SUPPRESS,
                   help="directory for cofactor series dumps")

    # each index m reads its eigenvalues on its own window 2m + 2, so this
    # command takes no --q-trunc
    p = sub.add_parser("verify-characters", help="translation eigenvalues and characters")
    common(p, q_trunc=False)

    p = sub.add_parser("verify-identities",
                       help="two-path Taylor identity, kernel equivalence, Cramer")
    common(p)
    p.add_argument("--trials", type=int, default=argparse.SUPPRESS,
                   help="random tuples per index")
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p.add_argument("--weight-k", type=int, default=3, help="odd weight for the operators")
    p.add_argument("--jacobi-file", type=Path, default=argparse.SUPPRESS,
                   help="coefficient table to ingest and validate")

    p = sub.add_parser("classify", help="applicability verdict for one case")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    output_flags(p)

    p = sub.add_parser("sweep", help="classify a grid of cases")
    p.add_argument("--k", type=parse_range, default="3..21",
                   help="weight range (odd values used)")
    p.add_argument("--m", type=parse_range, default=None,
                   help="absolute index range, e.g. 4..41")
    p.add_argument("--m-offset", type=parse_range, default=None,
                   help="index range relative to k, e.g. 1..20 for m in k+1..k+20")
    p.add_argument("--N", type=parse_levels, default="1",
                   help="comma-separated levels, e.g. 1,6,4")
    output_flags(p)
    return parser


def config_from_args(args: argparse.Namespace) -> argparse.Namespace:
    """Check the parsed arguments; raises ValueError on malformed input, else returns them.

    verify-identities also gains ``jacobi_form``, its parsed --jacobi-file
    table or None, so a bad table is rejected before any case runs.  A
    verify-orders or verify-identities --q-trunc that ``_short_window``
    finds too short for the top index, and a report or dump target that
    names the wrong kind of file, are rejected here too.
    """
    _check_targets(args)
    if args.command in CASES:
        if args.m[1] < 2:
            raise ValueError(f"--m {args.m[0]}..{args.m[1]} has no index m >= 2 to check")
        if args.q_trunc <= 0:
            raise ValueError("q_trunc must be positive")
        if args.jobs < 1:
            raise ValueError("--jobs must be at least 1")
        short = args.command in ("verify-orders", "verify-identities") and \
            _short_window(args.m[1], args.q_trunc)
        if short:
            raise ValueError(f"--q-trunc {args.q_trunc} is too short for the top index: {short}")
        if args.command == "verify-identities":
            _check_identities_args(args)
    elif args.command == "classify":
        CaseInput(args.k, args.m, args.N)  # its InvalidInput is a ValueError
    elif args.command == "sweep":
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
    return args


def _check_targets(args: argparse.Namespace) -> None:
    """Reject a report target that is a directory or lies in a file (an
    --output or a $QTHETA_OUTPUT_DIR), and a --dump-series that is a file."""
    target = _report_target(args)
    if target is not None and target.is_dir():
        raise ValueError(f"cannot write the report to {target}: it is a directory")
    if target is not None and target.parent.exists() and not target.parent.is_dir():
        raise ValueError(f"cannot write the report to {target}: "
                         f"{target.parent} is not a directory")
    if args.dump_series is not None and args.dump_series.exists() \
            and not args.dump_series.is_dir():
        raise ValueError(f"--dump-series {args.dump_series} is not a directory")


def _check_identities_args(args: argparse.Namespace) -> None:
    """Validate verify-identities input and parse its --jacobi-file into ``args.jacobi_form``."""
    if args.weight_k < 1 or args.weight_k % 2 == 0:
        raise ValueError("--weight-k must be a positive odd integer")
    if args.trials < 0:
        raise ValueError("--trials must be nonnegative")
    if args.m[1] < 3 and args.trials == 0 and args.jacobi_file is None:
        raise ValueError("no case to check: every index is below 3, --trials is 0 "
                         "and there is no --jacobi-file")
    # a random h_mu samples the exponents n - mu^2/4m, n an integer with
    # mu^2/4m <= n < q_trunc; class 1 has the most, ceil(q_trunc) - 1, and
    # a range of more than sys.maxsize points has no len()
    points = -(-args.q_trunc.numerator // args.q_trunc.denominator) - 1
    if points > sys.maxsize:
        raise ValueError(f"--q-trunc {args.q_trunc} is too long for the top index: "
                         f"m={args.m[1]} mu=1: {points} exponents to draw from, "
                         f"more than sys.maxsize = {sys.maxsize}")
    args.jacobi_form = None
    if args.jacobi_file is not None:
        try:
            phi = parse_jacobi_table(args.jacobi_file.read_text())
        except KeyError as error:
            raise ValueError(f"--jacobi-file {args.jacobi_file}: "
                             f"header has no {error.args[0]}= field") from error
        except (OSError, ValueError) as error:
            raise ValueError(f"--jacobi-file {args.jacobi_file}: {error}") from error
        if phi.index_m < 2:
            raise ValueError(f"--jacobi-file {args.jacobi_file}: index m={phi.index_m} "
                             f"has no odd theta component to check")
        short = _short_window(phi.index_m, phi.n_trunc)
        if short:
            raise ValueError(f"--jacobi-file {args.jacobi_file}: trunc={phi.n_trunc} "
                             f"is too short for its index: {short}")
        if phi.is_zero():
            raise ValueError(f"--jacobi-file {args.jacobi_file}: every coefficient is zero, "
                             f"so every check would compare zero series")
        args.jacobi_form = phi


def _short_window(m: int, q_trunc) -> str | None:
    """``m=<m>[ nu=<nu>]: window <w> cannot reach <minor> order <o>`` for the
    first minor of index m whose order lies outside its own window: the
    Wronskian for m = 2, else a last-row cofactor; None if there is none.

    Either is inside exactly when q_trunc passes (m-1)^2/4m, which grows
    with m, so the top index of a range decides.  Below it the order checks
    must fail, and the kernel tuple loses entries: on short windows every
    tuple is zero, and the identity checks compare nothing.
    """
    minors = ([("m=2", "Wronskian", [1])] if m == 2 else
              [(f"m={m} nu={nu}", "cofactor", [mu for mu in range(1, m) if mu != nu])
               for nu in range(1, m)])
    for where, name, columns in minors:
        order = Fraction(sum(mu * mu for mu in columns), 4 * m)
        window = theta_minor_window(m, q_trunc, columns)
        if order >= window:
            return f"{where}: window {window} cannot reach {name} order {order}"
    return None


def main(argv=None) -> int:
    """Parse, check and run one command; the int/str digit limit is lifted for
    the run (forked workers inherit it) and put back on every way out."""
    saved = _lift_int_str_limit()
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        try:
            config_from_args(args)
        except ValueError as error:
            parser.error(str(error))
        return run(args)
    finally:
        if saved is not None:
            sys.set_int_max_str_digits(saved)


if __name__ == "__main__":
    sys.exit(main())

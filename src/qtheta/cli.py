"""Command-line verification front end.

Subcommands run the exact checks and write deterministic reports:

    verify-wronskian    eta-power identity for a range of indices
    verify-orders       vanishing orders and leading coefficients
    verify-characters   translation eigenvalues and character exponents
    verify-identities   two-path Taylor identity, kernel equivalence, Cramer
    classify            one case of the applicability conditions
    sweep               a grid of cases plus the integrality discrepancy table

Reports contain no floating point: every rational is rendered "num/den".
Identical configurations produce byte-identical output.  Exit status 0
means every check passed; discrepancy flags are informational and never
affect the exit status.  On a failed check a machine-readable failure
record is written and the exit status is 1.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import dataclasses
import io
import json
import os
import random
import sys
from fractions import Fraction
from pathlib import Path

from .characters import (GammaCharacter, UnityExponent, squared_determinant_delta_power,
                         squared_determinant_translation, translation_eigenvalues)
from .injectivity import CaseInput, classify, nonintegrality_check
from .jacobi import (component_taylor, component_taylor_scale, from_theta_components,
                     kernel_equivalence, parse_jacobi_table, random_components,
                     taylor_coefficient, theta_components)
from .series import INFINITY, dump_series_text, parse_rational
from .theta import ThetaIndex, odd_theta_series, total_theta_order, translation_eigenvalue
from .wronskian import (VerificationFailed, _cofactor_order_reports, _dot,
                        cramer_reconstruction, kernel_components, modular_wronskian,
                        theta_derivative_matrix, verify_eta_power)

SCHEMA_VERSION = 1
OUTPUT_DIR_ENV = "QTHETA_OUTPUT_DIR"


@dataclasses.dataclass
class RunConfig:
    """Everything a run needs; two equal configs produce identical bytes."""

    command: str
    m_range: tuple[int, int] | None = None
    k_range: tuple[int, int] | None = None
    m_offset_range: tuple[int, int] | None = None
    n_values: tuple[int, ...] = (1,)
    k: int | None = None
    m: int | None = None
    level: int | None = None
    q_trunc: Fraction = Fraction(12)
    weight_k: int = 3
    trials: int = 5
    seed: int = 0
    jobs: int = 1
    output: Path | None = None
    format: str = "text"
    dump_series: Path | None = None
    jacobi_file: Path | None = None


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


def _rat(x) -> str:
    if x == INFINITY:
        return "inf"
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def to_jsonable(value):
    if isinstance(value, Fraction):
        return _rat(value)
    if isinstance(value, UnityExponent):
        return _rat(value.value)
    if isinstance(value, GammaCharacter):
        return value.delta_power
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, float):
        return _rat(value)
    if dataclasses.is_dataclass(value):
        return {f.name: to_jsonable(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _csv_cell(value) -> str:
    value = to_jsonable(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, dict)):
        return json.dumps(value, sort_keys=True)
    return "" if value is None else str(value)


# -- command implementations --------------------------------------------------
#
# Each handler returns (tables, all_passed, discrepancies, dumps) where tables
# is an ordered mapping from table name to a list of uniform row dicts and
# dumps maps a --dump-series file name to its series.
#
# The four verify commands share _run_cases.  Each of their cases takes
# (config, m, inputs) and returns its own tables and dumps, so the parent
# computes no series once the cases have run.


def _wronskian_case(job):
    config, m, _ = job
    dumps = {}
    if config.dump_series is not None:
        dumps[f"wronskian_m{m}.series"] = modular_wronskian(m, config.q_trunc)
    return {"reports": [to_jsonable(verify_eta_power(m, config.q_trunc))]}, dumps


def _orders_case(job):
    config, m, _ = job
    matrix = theta_derivative_matrix(m, config.q_trunc)
    cofactors = matrix.last_row_cofactors()
    expected = total_theta_order(m)
    value = _dot(matrix.entries[-1], cofactors).ord_infty()
    if value != expected:
        raise VerificationFailed(f"m={m}: Wronskian order {value}, expected {expected}")
    rows = [{"m": m, "check": "wronskian_order",
             "value": _rat(value), "expected": _rat(expected), "ok": True},
            {"m": m, "check": "wronskian_square_order",
             "value": _rat(2 * value), "expected": _rat(2 * expected), "ok": True}]
    if m < 3:
        return {"orders": rows}, {}
    for rep in _cofactor_order_reports(m, config.q_trunc, cofactors):
        rows.append({"m": m, "check": f"cofactor_order_nu_{rep.nu}",
                     "value": _rat(rep.ord_cofactor), "expected": _rat(rep.ord_expected),
                     "ok": rep.passed})
    dumps = {}
    if config.dump_series is not None:
        for nu, cof in enumerate(cofactors, start=1):
            dumps[f"cofactor_m{m}_nu{nu}.series"] = cof
    return {"orders": rows}, dumps


def _characters_case(job):
    _, m, _ = job
    diag = translation_eigenvalues(m)
    eigen_rows = []
    all_ok = True
    for mu in range(1, m):
        expected = diag[mu - 1]
        # enough of the q-expansion to see at least three residues
        series = odd_theta_series(ThetaIndex(m, mu), 2 * m + 2)
        observed = translation_eigenvalue(series)
        ok = observed == expected
        all_ok = all_ok and ok
        eigen_rows.append({"m": m, "mu": mu, "exponent": _rat(expected.value),
                           "matches_series": ok})
    xi = squared_determinant_translation(m)
    power = squared_determinant_delta_power(m)
    consistent = xi == power.translation_value
    if not (all_ok and consistent):
        raise VerificationFailed("character table mismatch; see report rows")
    character_row = {"m": m, "xi": _rat(xi.value), "delta_power": power.delta_power,
                     "consistent": consistent}
    return {"eigenvalues": eigen_rows, "characters": [character_row]}, {}


def _identity_rows_for_components(m, label, h, q_trunc, weight_k):
    rows = []
    assembled = from_theta_components(h, q_trunc)
    two_path = True
    for nu in range(1, m):
        direct = taylor_coefficient(assembled, nu)
        via = component_taylor_scale(nu, m) * component_taylor(h, nu)
        if not (direct - via).is_zero():
            two_path = False
            break
    rows.append({"m": m, "case": label, "check": "two_path_taylor", "ok": two_path})
    ops_vanish, taylors_vanish = kernel_equivalence(assembled, weight_k, m - 1)
    rows.append({"m": m, "case": label, "check": "kernel_equivalence",
                 "ok": ops_vanish == taylors_vanish})
    if m >= 3:
        report = cramer_reconstruction(m, h, q_trunc)
        ok = report.cramer_ok and report.proportionality_ok in (None, True)
        rows.append({"m": m, "case": label, "check": "cramer",
                     "kernel_case": report.kernel_case, "ok": ok})
    return rows


def _identities_case(job):
    """Index m's random tuples ``draws`` and its kernel tuple; m None is the --jacobi-file case."""
    config, m, draws = job
    if m is None:
        phi = parse_jacobi_table(Path(config.jacobi_file).read_text())
        m, q_trunc, weight_k = phi.index_m, phi.n_trunc, phi.weight_k
        draws = [("jacobi_file", theta_components(phi))]
    else:
        q_trunc, weight_k = config.q_trunc, config.weight_k
        if m >= 3:
            draws = draws + [("kernel", kernel_components(m, q_trunc))]
    rows = [row for label, h in draws
            for row in _identity_rows_for_components(m, label, h, q_trunc, weight_k)]
    failed = [row for row in rows if not row["ok"]]
    if failed:
        raise VerificationFailed(
            f"identity check failed: m={failed[0]['m']} case={failed[0]['case']} "
            f"check={failed[0]['check']}")
    return {"identities": rows}, {}


CASES = {
    "verify-wronskian": _wronskian_case,
    "verify-orders": _orders_case,
    "verify-characters": _characters_case,
    "verify-identities": _identities_case,
}


def _run_parallel(worker, items, jobs):
    workers = min(jobs, len(items), os.cpu_count() or 1)
    if workers <= 1:
        return [worker(item) for item in items]
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, items))


def _run_cases(config: RunConfig):
    """Handler of the four verify commands: one case per index, merged in index order."""
    lo, hi = config.m_range
    ms = range(max(lo, 2), hi + 1)
    if config.command == "verify-identities":
        # every random tuple is drawn here, in index order, so the seeded
        # stream is the same for any --jobs
        rng = random.Random(config.seed)
        jobs = [(config, m, [(f"random_{trial}", random_components(m, config.q_trunc, rng))
                             for trial in range(config.trials)]) for m in ms]
        if config.jacobi_file is not None:
            jobs.append((config, None, None))
    else:
        jobs = [(config, m, None) for m in ms]
    tables, dumps = {}, {}
    for case_tables, case_dumps in _run_parallel(CASES[config.command], jobs, config.jobs):
        for name, rows in case_tables.items():
            tables.setdefault(name, []).extend(rows)
        dumps.update(case_dumps)
    all_passed = all(row.get("ok", True) for rows in tables.values() for row in rows)
    return tables, all_passed, [], dumps


def _verdict_row(verdict) -> dict:
    row = to_jsonable(verdict)
    row["discrepancy_flags"] = "; ".join(verdict.discrepancy_flags)
    return row


def _cmd_classify(config: RunConfig):
    verdict = classify(CaseInput(config.k, config.m, config.level))
    discrepancies = list(verdict.discrepancy_flags)
    tables = {"verdicts": [_verdict_row(verdict)]}
    if config.m > 3:
        report = nonintegrality_check(config.m)
        tables["nonintegrality"] = [to_jsonable(report) | {"discrepancy": report.discrepancy}]
        if report.discrepancy:
            discrepancies.append(f"m={config.m}: integrality discrepancy")
    ok = (not verdict.any_part) or verdict.window_ok
    if not ok:
        raise VerificationFailed(
            f"window check failed for accepted case k={config.k} m={config.m}")
    return tables, True, discrepancies, {}


def _cmd_sweep(config: RunConfig):
    k_lo, k_hi = config.k_range
    rows = []
    discrepancies = []
    ms_seen = set()
    for k in range(k_lo, k_hi + 1):
        if k % 2 == 0:
            continue
        if config.m_offset_range is not None:
            off_lo, off_hi = config.m_offset_range
            ms = range(k + off_lo, k + off_hi + 1)
        else:
            ms = range(config.m_range[0], config.m_range[1] + 1)
        for m in ms:
            if m < 3:
                continue
            ms_seen.add(m)
            for n_level in config.n_values:
                verdict = classify(CaseInput(k, m, n_level))
                if verdict.any_part and not verdict.window_ok:
                    raise VerificationFailed(
                        f"window check failed for accepted case k={k} m={m} N={n_level}")
                rows.append(_verdict_row(verdict))
                discrepancies.extend(verdict.discrepancy_flags)
    integrality_rows = []
    for m in sorted(ms_seen):
        if m <= 3:
            continue
        report = nonintegrality_check(m)
        integrality_rows.append(to_jsonable(report) | {"discrepancy": report.discrepancy})
        if report.discrepancy:
            discrepancies.append(f"m={m}: (m-2)(m-1)(2m-3)/m is an integer")
    tables = {"verdicts": rows, "nonintegrality": integrality_rows}
    return tables, True, sorted(set(discrepancies)), {}


HANDLERS = {
    "verify-wronskian": _run_cases,
    "verify-orders": _run_cases,
    "verify-characters": _run_cases,
    "verify-identities": _run_cases,
    "classify": _cmd_classify,
    "sweep": _cmd_sweep,
}


# -- rendering -----------------------------------------------------------------


def _render_json(config, tables, all_passed, discrepancies) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": config.command,
        "parameters": {
            "q_trunc": _rat(config.q_trunc),
            "seed": config.seed,
            "trials": config.trials,
        },
        "results": tables,
        "all_passed": all_passed,
        "discrepancies": discrepancies,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _render_csv(tables) -> str:
    out = io.StringIO()
    first = True
    for name, rows in tables.items():
        if not first:
            out.write("\n")
        first = False
        out.write(f"# table: {name}\n")
        if not rows:
            continue
        columns = list(rows[0].keys())
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_csv_cell(row.get(col)) for col in columns])
    return out.getvalue()


def _render_text(config, tables, all_passed, discrepancies) -> str:
    lines = [f"command: {config.command}"]
    for name, rows in tables.items():
        lines.append(f"[{name}]")
        for row in rows:
            ok = row.get("ok", row.get("residual_all_zero", True))
            status = "PASS" if ok else "FAIL"
            detail = " ".join(f"{k}={v}" for k, v in row.items()
                              if k not in ("ok",))
            lines.append(f"  {status} {detail}")
    for note in discrepancies:
        lines.append(f"note: {note}")
    lines.append("all checks passed" if all_passed else "FAILURES PRESENT")
    return "\n".join(lines) + "\n"


def _output_target(config: RunConfig) -> Path | None:
    if config.output is not None:
        return Path(config.output)
    env_dir = os.environ.get(OUTPUT_DIR_ENV)
    if env_dir:
        ext = {"json": "json", "csv": "csv", "text": "txt"}[config.format]
        return Path(env_dir) / f"{config.command}.{ext}"
    return None


def _write(config: RunConfig, payload: str) -> None:
    target = _output_target(config)
    if target is None:
        sys.stdout.write(payload)
    else:
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(payload)


def _write_failure(config: RunConfig, error: Exception) -> None:
    record = {
        "schema_version": SCHEMA_VERSION,
        "command": config.command,
        "all_passed": False,
        "failure": str(error),
    }
    payload = json.dumps(record, indent=2, sort_keys=True) + "\n"
    target = _output_target(config)
    if target is None:
        sys.stderr.write(payload)
    else:
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(payload)


def run(config: RunConfig) -> int:
    """Execute one command; returns the process exit status."""
    handler = HANDLERS[config.command]
    try:
        tables, all_passed, discrepancies, dumps = handler(config)
    except VerificationFailed as error:
        _write_failure(config, error)
        return 1
    if config.dump_series is not None and dumps:
        dump_dir = Path(config.dump_series)
        dump_dir.mkdir(parents=True, exist_ok=True)
        for name, series in sorted(dumps.items()):
            (dump_dir / name).write_text(dump_series_text(series))
    if config.format == "json":
        payload = _render_json(config, tables, all_passed, discrepancies)
    elif config.format == "csv":
        payload = _render_csv(tables)
    else:
        payload = _render_text(config, tables, all_passed, discrepancies)
    _write(config, payload)
    return 0 if all_passed else 1


# -- argument parsing -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtheta",
        description="Exact q-expansion checks for theta Wronskians, eta powers, "
                    "and odd-weight Jacobi form operators.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_m=True):
        if needs_m:
            p.add_argument("--m", default="2..8", help="index range, e.g. 2..8 or 5")
        p.add_argument("--q-trunc", default="12", help="certified window, e.g. 40 or 81/2")
        p.add_argument("--output", type=Path, default=None,
                       help=f"report path (default: stdout, or ${OUTPUT_DIR_ENV})")
        p.add_argument("--format", choices=("json", "csv", "text"), default="text")
        p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")

    p = sub.add_parser("verify-wronskian", help="eta-power identity per index")
    common(p)
    p.add_argument("--dump-series", type=Path, default=None,
                   help="directory for Wronskian series dumps")

    p = sub.add_parser("verify-orders", help="vanishing orders and leading coefficients")
    common(p)
    p.add_argument("--dump-series", type=Path, default=None,
                   help="directory for cofactor series dumps")

    p = sub.add_parser("verify-characters", help="translation eigenvalues and characters")
    common(p)

    p = sub.add_parser("verify-identities",
                       help="two-path Taylor identity, kernel equivalence, Cramer")
    common(p)
    p.add_argument("--trials", type=int, default=5, help="random tuples per index")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--weight-k", type=int, default=3, help="odd weight for the operators")
    p.add_argument("--jacobi-file", type=Path, default=None,
                   help="coefficient table to ingest and validate")

    p = sub.add_parser("classify", help="applicability verdict for one case")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--output", type=Path, default=None)
    p.add_argument("--format", choices=("json", "csv", "text"), default="text")

    p = sub.add_parser("sweep", help="classify a grid of cases")
    p.add_argument("--k", default="3..21", help="weight range (odd values used)")
    p.add_argument("--m", default=None, help="absolute index range, e.g. 4..41")
    p.add_argument("--m-offset", default=None,
                   help="index range relative to k, e.g. 1..20 for m in k+1..k+20")
    p.add_argument("--N", default="1", help="comma-separated levels, e.g. 1,6,4")
    p.add_argument("--output", type=Path, default=None)
    p.add_argument("--format", choices=("json", "csv", "text"), default="text")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    command = args.command
    config = RunConfig(command=command)
    if command in CASES:
        config.m_range = parse_range(args.m)
        if config.m_range[1] < 2:
            raise ValueError(f"--m {args.m} has no index m >= 2 to check")
        config.q_trunc = parse_rational(args.q_trunc)
        if config.q_trunc <= 0:
            raise ValueError("q_trunc must be positive")
        if args.jobs < 1:
            raise ValueError("--jobs must be at least 1")
        config.output = args.output
        config.format = args.format
        config.jobs = args.jobs
        config.dump_series = getattr(args, "dump_series", None)
        if command == "verify-identities":
            config.trials = args.trials
            config.seed = args.seed
            config.weight_k = args.weight_k
            config.jacobi_file = args.jacobi_file
    elif command == "classify":
        config.k, config.m, config.level = args.k, args.m, args.N
        config.output = args.output
        config.format = args.format
    elif command == "sweep":
        config.k_range = parse_range(args.k)
        if args.m_offset is not None:
            config.m_offset_range = parse_range(args.m_offset)
        elif args.m is not None:
            config.m_range = parse_range(args.m)
        else:
            raise ValueError("sweep needs --m or --m-offset")
        config.n_values = tuple(int(x) for x in args.N.split(","))
        config.output = args.output
        config.format = args.format
    return config


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
    except ValueError as error:
        parser.error(str(error))
    return run(config)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line verification front end: the parser, the one report writer
``run`` and its renderers.

Reports contain no floating point: every rational is rendered "num/den".
Identical arguments produce byte-identical output.  ``run`` is the one
writer: once every case has run it opens the single target (stdout,
--output, or ``$QTHETA_OUTPUT_DIR/<command>.<ext>``) and the renderer
writes the report into it in row blocks, so a run holds the rows plus one
block, never the whole report.  A check fails only by raising, so a written
report always passed and exits 0; discrepancy flags are informational and
never affect the exit status.  On a failed check only a machine-readable
failure record is written and the exit status is 1.  Malformed input, an
output target of the wrong kind included, exits 2 with a usage error and
checks nothing; a report or dump whose write fails anyway exits 2 with one
``cannot write`` error line.

Parsing loads this module, ``qtheta.exact`` and the classifier.  Each
command is a module of its own, named in ``COMMANDS`` and imported when
the command is checked; it imports its engine when it runs.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from importlib import import_module
from pathlib import Path

# not read here: perfbench's restore test needs it loaded before the tracer
# imports its targets; drop it once that test loads them (ROADMAP item 1)
from . import injectivity
# to_jsonable is re-exported: perfbench traces it as ``cli.to_jsonable``
from .exact import ABSENT, VerificationFailed, _rat_str, parse_rational, to_jsonable

SCHEMA_VERSION = 1
OUTPUT_DIR_ENV = "QTHETA_OUTPUT_DIR"


def __getattr__(name: str):
    """A package export read as ``cli.<name>`` (``cli.theta_derivative_matrix``):
    looked up in its module on each access and bound into no namespace."""
    from . import _HOME, __getattr__ as export

    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return export(name)


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


# -- commands ------------------------------------------------------------------
#
# Each command's module gives ``check(args)``, which raises ValueError on
# malformed input, and ``handle(args)``, which returns (tables,
# discrepancies, dumps).  tables maps each table name to (keys, rows): the
# keys tuple is the CSV header, in first-seen order, and each row is one
# tuple of cells, a str, int, bool or None, or ABSENT where the row lacks
# that key (JSON and text leave it out, CSV prints it empty).  dumps maps a
# --dump-series file name to its series.  No command module imports this
# one: ``python -m qtheta.cli`` runs it as ``__main__``, and the import
# would compile it a second time.

COMMANDS = {"verify-wronskian": "cmd_wronskian", "verify-orders": "cmd_orders",
            "verify-characters": "cmd_characters", "verify-identities": "cmd_identities",
            "classify": "cmd_classify", "sweep": "cmd_sweep"}


def _command(name: str):
    return import_module(f"{__package__}.{COMMANDS[name]}")


def _handle(args: argparse.Namespace):
    return _command(args.command).handle(args)


HANDLERS = dict.fromkeys(COMMANDS, _handle)


def _lift_int_str_limit() -> int | None:
    """Exact numerators outgrow CPython's default 4300-digit limit on int/str
    conversion (the m = 64 Wronskian constant has 4709 digits); lift it and
    return the old limit, None where CPython has no such limit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return None
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    return saved


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


def _columns(block, cell_text) -> list:
    """The block's cells as text, a column at a time: each column of one kind
    through that kind's ``cell_text`` entry, a column of mixed kinds cell by
    cell.  A cell of a kind the table lacks raises TypeError."""
    columns = []
    for column in zip(*block):
        kinds = set(map(type, column))
        if not kinds <= cell_text.keys():
            bad = next(type(value) for value in column if type(value) not in cell_text)
            raise TypeError(f"a report cell must be a str, int, bool or None, not {bad.__name__}")
        columns.append(map(cell_text[kinds.pop()], column) if len(kinds) == 1
                       else [cell_text[type(value)](value) for value in column])
    return columns


def _json_block(keys, block, templates, cell_text) -> list[str]:
    """The rows' JSON texts, filled into the table's template; a block with an
    ABSENT cell, which JSON's table lacks, goes row by row."""
    try:
        columns = _columns(block, cell_text)
    except TypeError:  # a cell of no JSON type raises again in its row
        return [_json_sparse_row(keys, row, templates, cell_text) for row in block]
    if not keys:
        return ["{}"] * len(block)
    template, order = _json_template(keys, tuple(range(len(keys))), templates, cell_text)
    return list(map(template.__mod__, zip(*[columns[i] for i in order])))


def _json_sparse_row(keys, row, templates, cell_text) -> str:
    """A row with ABSENT cells, filled on its present cells."""
    present = tuple([i for i, value in enumerate(row) if value is not ABSENT])
    template, order = _json_template(keys, present, templates, cell_text)
    return template % next(zip(*_columns([[row[i] for i in order]], cell_text)), ())


def _render_json(out, args, tables, discrepancies) -> None:
    """Write the text of ``json.dumps(doc, indent=2, sort_keys=True)`` plus a newline.

    The envelope goes through ``json.dumps`` with the results left out; the
    rows, the bulk of a report, are filled into %-templates, so no row goes
    through the pure-Python encoder that ``indent`` selects.
    """
    import json  # only JSON reports need it; kept out of every start-up

    escape = json.encoder.encode_basestring_ascii
    # a cell's JSON text by its exact type (a bool is an int); ints as in CSV
    cell_text = {str: escape, int: _IntTexts().__getitem__, bool: _BOOL_TEXT.__getitem__,
                 type(None): {None: "null"}.__getitem__}
    doc = {"schema_version": SCHEMA_VERSION, "command": args.command,
           "parameters": {"q_trunc": _rat_str(args.q_trunc), "seed": args.seed,
                          "trials": args.trials},
           "results": None, "all_passed": True, "discrepancies": discrepancies}
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
    """A str cell as CSV: quoted, its quotes doubled, exactly when it holds a
    comma, a quote or a line break."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


class _IntTexts(dict):
    """int -> its decimal text, each distinct int converted once per render:
    a report's ints repeat (indices, weights, levels) row after row."""

    def __missing__(self, n):
        text = self[n] = int.__repr__(n)
        return text


def _csv_block(block, cell_text) -> str:
    """The rows' CSV lines, converted a column at a time and joined."""
    columns = _columns(block, cell_text)
    if not columns:
        return "\n" * len(block)
    if len(columns) == 1:
        # a one-cell row that printed empty would read back as no cell at all
        columns[0] = [text or '""' for text in columns[0]]
    return "\n".join(map(",".join, zip(*columns))) + "\n"


def _render_csv(out, tables) -> None:
    """Each table's keys are its header, then its rows in blocks, every line
    converted by ``_csv_block``: each distinct int once by ``int.__repr__``,
    bools looked up, a str quoted by hand."""
    cell_text = {str: _csv_str, int: _IntTexts().__getitem__, bool: _BOOL_TEXT.__getitem__,
                 type(None): {None: ""}.__getitem__, type(ABSENT): {ABSENT: ""}.__getitem__}
    separator = ""
    for name, (keys, rows) in tables.items():
        out.write(f"{separator}# table: {name}\n")
        separator = "\n"
        if rows:
            out.write(_csv_block([keys], cell_text))
        for start in range(0, len(rows), _BLOCK_ROWS):
            out.write(_csv_block(rows[start:start + _BLOCK_ROWS], cell_text))


def _render_text(out, args, tables, discrepancies) -> None:
    out.write(f"command: {args.command}\n")
    for name, (keys, rows) in tables.items():
        out.write(f"[{name}]\n")
        for row in rows:
            cells = " ".join(f"{key}={value}" for key, value in zip(keys, row)
                             if key != "ok" and value is not ABSENT)
            out.write(f"  PASS {cells}\n")
    for note in discrepancies:
        out.write(f"note: {note}\n")
    out.write("all checks passed\n")


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
    """Execute one command and write its report into the target of
    ``_report_target``, or its failure record there or else to stderr;
    returns the exit status that the module docstring gives."""
    try:
        tables, discrepancies, dumps = HANDLERS[args.command](args)
    except VerificationFailed as error:
        return 1 if _write_report(args, sys.stderr, _render_failure, args, error) else 2
    if args.dump_series is not None and dumps:
        from .series import dump_series_text

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
        wrote = _write_report(args, sys.stdout, render, args, tables, discrepancies)
    return 0 if wrote else 2


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

    def common(p, q_trunc="certified window, e.g. 40 or 81/2"):
        p.add_argument("--m", type=parse_range, default="2..8",
                       help="index range, e.g. 2..8 or 5")
        if q_trunc:
            p.add_argument("--q-trunc", type=parse_rational, default=argparse.SUPPRESS,
                           help=q_trunc)
        output_flags(p)
        p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")

    p = sub.add_parser("verify-wronskian", help="eta-power identity per index")
    common(p)
    p.add_argument("--dump-series", type=Path, default=argparse.SUPPRESS,
                   help="directory for Wronskian series dumps")

    p = sub.add_parser("verify-orders", help="vanishing orders and leading coefficients")
    common(p, q_trunc="window of the --dump-series files, e.g. 10 or 81/2; each "
                      "index m checks its orders on its own window ((m-1)^2 + 1)/4m")
    p.add_argument("--dump-series", type=Path, default=argparse.SUPPRESS,
                   help="directory for cofactor series dumps")

    # each index m reads its eigenvalues on its own window 2m + 2, so this
    # command takes no --q-trunc
    p = sub.add_parser("verify-characters", help="translation eigenvalues and characters")
    common(p, q_trunc=None)

    p = sub.add_parser("verify-identities",
                       help="two-path Taylor identity, kernel equivalence, Cramer")
    common(p)
    p.add_argument("--trials", type=int, default=argparse.SUPPRESS,
                   help="random tuples per index")
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
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

    A report or dump target that names the wrong kind of file is rejected
    here, then the command's module checks its own arguments: verify-identities
    also gains ``jacobi_form``, its parsed --jacobi-file table or None, so a
    bad table is rejected before any case runs.
    """
    _check_targets(args)
    _command(args.command).check(args)
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

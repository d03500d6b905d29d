"""Every function in ``src/qtheta`` is reached by a command, or listed with its reason.

A fresh interpreter (so no cache warmed by an earlier test can hide a
function) runs a fixed set of CLI invocations under ``sys.setprofile``:
every subcommand and format, ``--dump-series`` and ``--jacobi-file``, one
input for each class of exit status 2, and one check failure for exit
status 1, made by a patch inside that interpreter.  No run forks, as
forked workers are not profiled: the one ``--jobs 2`` run has a single case,
which the pool module runs in process.  Each function,
method, nested closure and generator of the package whose code object was
never called is mapped to ``<file>:<qualname>`` through ``ast`` (CPython
3.10 has no ``co_qualname``; a decorated function's code starts at its
first decorator line, and its ``def`` line is taken too).  That set must equal the list in
``tests/unreached.txt``, where each entry carries one reason word:

    traced    a ``perfbench/tracer.py`` target, or reached only through one:
              a target must resolve, so it stays until the tracer moves
    api       public API that no command calls
    failure   reached only when a check or a write fails in a way no
              invocation here provokes
    parallel  reached only in forked workers

A newly unreached function fails the test: move it into the tests,
delete it, or list it with its reason.  A listed function that a command
now reaches fails it too, so the list only shrinks.

Run this file as a script (``python tests/test_reachability.py DIR`` with
``src`` on the path) to print the audit's raw JSON.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qtheta"
LISTING = Path(__file__).with_name("unreached.txt")
REASONS = {"traced", "api", "failure", "parallel"}

# an index-2 table of weight 3: the class (mu=1, disc=7) with value 1 and its
# odd partner, every representative below n = 4
TABLE = "k=3 m=2 N=1 trunc=4/1\n1 1 1/1\n1 -1 -1/1\n2 -3 1/1\n2 3 -1/1\n"


def invocations(work: Path) -> list[tuple[int, list[str]]]:
    """(expected exit status, argv) of each audited run, files under ``work``."""
    (work / "phi.jacobi").write_text(TABLE)
    (work / "malformed.jacobi").write_text("k=3 m=2 N=1 trunc=4/1\n1 1\n")
    (work / "headless.jacobi").write_text("k=3 m=2 N=1\n")
    (work / "plain.txt").write_text("")
    table = str(work / "phi.jacobi")
    identities = ["verify-identities", "--m", "3", "--q-trunc", "6", "--trials", "1"]
    return [
        # every subcommand and format, both dump kinds and a table
        (0, ["verify-wronskian", "--m", "2..4", "--q-trunc", "6", "--format", "json",
             "--dump-series", str(work / "wronskian")]),
        (0, ["verify-orders", "--m", "3..4", "--q-trunc", "6", "--format", "csv",
             "--dump-series", str(work / "cofactors")]),
        # without dumps each index checks on its own least window, so a short
        # --q-trunc runs
        (0, ["verify-orders", "--m", "2..3", "--q-trunc", "1/8", "--format", "text"]),
        (0, ["verify-characters", "--m", "2..6", "--format", "text"]),
        (0, ["verify-identities", "--m", "2..4", "--q-trunc", "6", "--trials", "1",
             "--jacobi-file", table, "--format", "json", "--output", str(work / "ids.json")]),
        (0, [*identities, "--format", "csv"]),
        (0, [*identities, "--format", "text"]),
        (0, ["classify", "--k", "3", "--m", "5", "--N", "1", "--format", "json"]),
        (0, ["classify", "--k", "3", "--m", "6", "--N", "2", "--format", "text"]),
        (0, ["sweep", "--k", "3..7", "--m-offset", "1..4", "--N", "1,6", "--format", "csv"]),
        (0, ["sweep", "--k", "3..5", "--m", "4..6", "--format", "json"]),
        (0, ["verify-characters", "--m", "2", "--jobs", "2", "--format", "json"]),
        # exit 2, one input per class: argument syntax, argument value, a
        # window too short, a table line, an unreadable table, a header
        # field, a case, a grid, a report target, a report or dump write
        (2, ["verify-wronskian", "--m", "x"]),
        (2, ["verify-wronskian", "--m", "2", "--jobs", "0"]),
        (2, ["verify-orders", "--m", "64", "--q-trunc", "12",
             "--dump-series", str(work / "short")]),
        (2, [*identities, "--jacobi-file", str(work / "malformed.jacobi")]),
        (2, [*identities, "--jacobi-file", str(work / "absent.jacobi")]),
        (2, [*identities, "--jacobi-file", str(work / "headless.jacobi")]),
        (2, ["verify-identities", "--m", "3", "--trials", "1",
             "--q-trunc", "100000000000000000000/3"]),
        (2, ["classify", "--k", "4", "--m", "5", "--N", "1"]),
        (2, ["sweep", "--k", "3..5", "--m", "4..6", "--N", "0"]),
        (2, ["verify-characters", "--m", "2..3", "--output", str(work)]),
        (2, ["verify-characters", "--m", "2..3", "--output",
             str(work / "plain.txt" / "sub" / "report.txt")]),
        (2, ["verify-wronskian", "--m", "2", "--q-trunc", "4",
             "--dump-series", str(work / "plain.txt" / "sub")]),
    ]


def audit(work: Path) -> dict:
    """Run the invocations in this process under ``sys.setprofile``; the exit
    statuses and the (file, first line, name) of every package code object
    that was called."""
    import contextlib
    import io

    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(profile)
    from qtheta import cli

    def run(argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                return cli.main(argv)
            except SystemExit as error:
                return error.code

    statuses = [run(argv) for _, argv in invocations(work)]
    # exit 1: row 2 of each tuple doubled fails the first tuple's two-path check
    from qtheta import jacobi
    component_taylor = jacobi.component_taylor
    jacobi.component_taylor = lambda h, nu: 2 * component_taylor(h, nu) if nu == 2 \
        else component_taylor(h, nu)
    statuses.append(run(["verify-identities", "--m", "3", "--q-trunc", "6", "--trials", "1"]))
    jacobi.component_taylor = component_taylor
    # a report written into $QTHETA_OUTPUT_DIR
    os.environ["QTHETA_OUTPUT_DIR"] = str(work / "reports")
    statuses.append(run(["verify-characters", "--m", "2..3", "--format", "csv"]))
    sys.setprofile(None)
    package = str(Path(cli.__file__).parent)
    called = sorted((c.co_filename, c.co_firstlineno, c.co_name) for c in codes
                    if c.co_filename.startswith(package))
    return {"statuses": statuses, "called": called}


def definitions() -> dict[tuple[str, int, str], str]:
    """(file, first line, name) -> ``<file>:<qualname>`` for every def in the
    package, under its ``def`` line and its first decorator line both."""
    out = {}
    for path in sorted(PACKAGE.resolve().glob("*.py")):
        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    for line in [child.lineno] + [d.lineno for d in child.decorator_list[:1]]:
                        out[(str(path), line, child.name)] = f"{path.name}:{prefix}{child.name}"
                    visit(child, f"{prefix}{child.name}.<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(), str(path)), "")
    return out


def listed() -> dict[str, str]:
    """``tests/unreached.txt`` as entry -> reason; blank and ``#`` lines skipped."""
    out = {}
    for line in LISTING.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            entry, reason = line.split()
            out[entry] = reason
    return out


def test_every_function_is_reached_or_listed(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    env.pop("QTHETA_OUTPUT_DIR", None)
    done = subprocess.run([sys.executable, __file__, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    expected = [status for status, _ in invocations(tmp_path)] + [1, 0]
    assert result["statuses"] == expected

    defs = definitions()
    called = {(str(Path(file).resolve()), line, name) for file, line, name in result["called"]}
    reached = {defs[key] for key in called if key in defs}
    unreached = set(defs.values()) - reached
    listing = listed()
    assert set(listing.values()) <= REASONS, set(listing.values()) - REASONS
    unknown = sorted(set(listing) - set(defs.values()))
    assert not unknown, f"listed in {LISTING.name} but defined nowhere: {unknown}"
    new = sorted(unreached - set(listing))
    assert not new, (f"no command reaches {new}: move each into the tests, delete it, "
                     f"or list it in {LISTING.name} with its reason")
    now_reached = sorted(set(listing) - unreached)
    assert not now_reached, f"a command now reaches {now_reached}: take it off {LISTING.name}"


if __name__ == "__main__":
    print(json.dumps(audit(Path(sys.argv[1]))))

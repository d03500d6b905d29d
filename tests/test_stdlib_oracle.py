"""``tests/stdlib_oracle.py`` passes on fresh reports and fails on edited ones.

The reports are written through ``python -m qtheta.cli`` with the inputs
CI's catalog step and the former CI oracle steps use.  Each edited copy must
make its check exit with status 1 and its message, so every run shows that
each oracle can fail.  The oracle runs in an isolated interpreter (``-I``:
no PYTHONPATH, no script directory on sys.path), and its imports are all
standard-library modules.
"""

import ast
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ORACLE = ROOT / "tests" / "stdlib_oracle.py"


def cli(*argv: str) -> bytes:
    """The stdout of ``python -m qtheta.cli argv``, which must exit 0."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("QTHETA_OUTPUT_DIR", None)
    done = subprocess.run([sys.executable, "-m", "qtheta.cli", *argv], env=env,
                          capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def oracle(*argv) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-I", str(ORACLE), *map(str, argv)],
                          capture_output=True, text=True, timeout=120)


def assert_fails(message: str, *argv) -> None:
    done = oracle(*argv)
    assert (done.returncode, done.stderr) == (1, message + "\n")


def edited(path: Path, old: str, new: str) -> None:
    """Replace the one occurrence of ``old`` in the file at ``path``."""
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))


@pytest.fixture(scope="module")
def wronskian_report(tmp_path_factory):
    path = tmp_path_factory.mktemp("wronskian") / "wronskian.json"
    path.write_bytes(cli("verify-wronskian", "--m", "2..8", "--q-trunc", "40", "--format", "json"))
    return path


@pytest.fixture(scope="module")
def orders_report(tmp_path_factory):
    """(report, dump directory) of the cofactor check."""
    root = tmp_path_factory.mktemp("orders")
    (root / "orders.json").write_bytes(cli("verify-orders", "--m", "3..8", "--q-trunc", "10",
                                           "--format", "json", "--dump-series", str(root / "dumps")))
    return root / "orders.json", root / "dumps"


def test_wronskian_passes_on_a_fresh_report(wronskian_report):
    done = oracle("wronskian", wronskian_report)
    assert (done.returncode, done.stdout, done.stderr) == \
        (0, "W = c eta^lam below q^40 for m = 2..8, c as reported\n", "")


def test_wronskian_fails_on_an_edited_constant(wronskian_report, tmp_path):
    report = tmp_path / "wronskian.json"
    shutil.copy(wronskian_report, report)
    edited(report, '"constant": "45/256"', '"constant": "45/257"')
    assert_fails("m=4: W is not 45/257 eta^21 below q^40", "wronskian", report)


def test_cofactors_pass_on_a_fresh_report(orders_report):
    done = oracle("cofactors", *orders_report)
    assert (done.returncode, done.stdout, done.stderr) == \
        (0, "every last-row cofactor of m = 3..8 matches its Leibniz minor below its window\n", "")


def coefficient(report, dumps):
    edited(dumps / "cofactor_m5_nu2.series", "63/50 ", "63/51 ")


def order_cell(report, dumps):
    data = json.loads(report.read_text())
    for row in data["results"]["orders"]:
        if (row["m"], row["check"]) == (3, "cofactor_order_nu_1"):
            row["value"] = "1/2"
    report.write_text(json.dumps(data))


def dropped_line(report, dumps):
    path = dumps / "cofactor_m3_nu1.series"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))


@pytest.mark.parametrize("edit, message", [
    (coefficient, "cofactor_m5_nu2.series: not the last-row cofactor below its window 21/2"),
    (order_cell, "m=3 nu=1: order cells 1/2, 1/3, expected 1/3"),
    (dropped_line, "cofactor_m3_nu1.series: not the last-row cofactor below its window 10"),
])
def test_cofactors_fail_on_an_edited_input(edit, message, orders_report, tmp_path):
    report, dumps = tmp_path / "orders.json", tmp_path / "dumps"
    shutil.copy(orders_report[0], report)
    shutil.copytree(orders_report[1], dumps)
    edit(report, dumps)
    assert_fails(message, "cofactors", report, dumps)


@pytest.fixture(scope="module")
def characters_rows():
    report = cli("verify-characters", "--m", "2..400", "--format", "json")
    return json.loads(report)["results"]["eigenvalues"]


def exponent_cell(rows):
    assert (rows[1]["m"], rows[1]["mu"], rows[1]["exponent"]) == (3, 1, "1/12")
    return [rows[0], {**rows[1], "exponent": "1/13"}, *rows[2:]]


# CI's catalog step checks the fresh report, so only its edited copies run here
@pytest.mark.parametrize("edit, message", [
    (exponent_cell, "m=3 mu=1: exponent 1/13, expected (mu^2 mod 4m)/4m"),
    (lambda rows: rows[:-1], "the eigenvalue rows are not m = 2..400, mu = 1..m-1"),
])
def test_characters_fail_on_an_edited_report(edit, message, characters_rows, tmp_path):
    report = tmp_path / "characters.json"
    report.write_text(json.dumps({"results": {"eigenvalues": edit(characters_rows)}}))
    assert_fails(message, "characters", report)


@pytest.mark.parametrize("text, message", [
    # a blank line where a one-cell row must be written "" round-trips
    # unchanged, so only the blank-line rule catches it
    ("# table: t\na\n\n", "row 3 is blank and no table follows it"),
    ("# table: t\na,b\n1\n", "row 3 has 1 cells, its header 2"),
    ('# table: t\na\n""\n', None),
])
def test_csv_shape(text, message, tmp_path):
    good, path = tmp_path / "good.csv", tmp_path / "report.csv"
    good.write_text("# table: t\na,b\n1,2\n\n# table: u\nc\n3\n")
    path.write_bytes(text.encode())
    if message is None:
        assert oracle("csv-shape", good, path).returncode == 0
    else:
        # every file is checked, not only the first
        assert_fails(f"{path}: {message}", "csv-shape", good, path)


def test_oracle_imports_only_the_standard_library():
    tree = ast.parse(ORACLE.read_text(), str(ORACLE))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # a relative import keeps its dots, so it is no stdlib name
            names.add("." * node.level + (node.module or "").split(".")[0])
    assert names and names <= sys.stdlib_module_names, names - sys.stdlib_module_names

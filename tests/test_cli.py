"""Command-line behavior: determinism, formats, exit codes, ingestion."""

import csv
import io
import json
import math
import os
import random
import select
import signal
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import (assert_same_store, oracle_component_taylor, oracle_from_theta_components,
                      perfbench_workloads)
from oracles import from_orbit_values, truncate
from qtheta import (CaseInput, CaseVerdict, GammaCharacter, PuiseuxSeries, SeriesMatrix,
                    ThetaIndex, cases, characters, classify, cli, cmd_characters,
                    dump_jacobi_table, injectivity, jacobi, nonintegrality_check,
                    odd_theta_series, parse_series_text, pool, random_components,
                    translation_eigenvalue, wronskian)
from qtheta.cli import main, parse_range

F = Fraction


def run_cli(*argv) -> int:
    return main(list(argv))


def cut_wronskians(monkeypatch, ms):
    """verify-orders sees the Wronskian of each index in ``ms`` cut at q^1,
    below its order, so that index's order check fails with a record."""
    theta_wronskian = wronskian.theta_wronskian
    monkeypatch.setattr(wronskian, "theta_wronskian", lambda m, q_trunc: (
        truncate(theta_wronskian(m, q_trunc), 1) if m in ms else theta_wronskian(m, q_trunc)))


class TestParsing:
    def test_parse_range(self):
        assert parse_range("2..8") == (2, 8)
        assert parse_range("5") == (5, 5)
        with pytest.raises(ValueError):
            parse_range("8..2")

    def test_bad_q_trunc(self):
        with pytest.raises(SystemExit):
            run_cli("verify-wronskian", "--m", "2", "--q-trunc", "0")

    @pytest.mark.parametrize("jobs, status", [("-1", 2), ("0", 2), ("1", 0), ("2", 0)])
    def test_jobs_validated(self, jobs, status, tmp_path):
        out = tmp_path / "r.txt"
        try:
            code = run_cli("verify-wronskian", "--m", "2", "--q-trunc", "4",
                           "--jobs", jobs, "--output", str(out))
        except SystemExit as error:
            code = error.code
        assert code == status
        assert out.exists() == (status == 0)

    @pytest.mark.parametrize("argv", [("verify-orders", "--m", "1..1"),
                                      ("verify-wronskian", "--m", "0..1"),
                                      ("verify-characters", "--m", "-3..1"),
                                      ("verify-identities", "--m", "1")])
    def test_range_without_cases_rejected(self, argv, tmp_path):
        with pytest.raises(SystemExit) as exit_info:
            run_cli(*argv, "--output", str(tmp_path / "r.txt"))
        assert exit_info.value.code == 2
        assert not (tmp_path / "r.txt").exists()

    @pytest.mark.parametrize("argv", [
        ("verify-wronskian", "--m", "2", "--q-trunc", "1/0"),
        ("classify", "--k", "4", "--m", "5", "--N", "1"),
        ("classify", "--k", "3", "--m", "2", "--N", "1"),
        ("sweep", "--k", "3..5", "--m", "4..6", "--N", "0"),
        ("sweep", "--k", "1..5", "--m", "4..6"),
        # the deleted --weight-k option, at the odd value it once accepted
        ("verify-identities", "--m", "3", "--q-trunc", "6", "--weight-k", "5"),
        ("sweep", "--k", "4..4", "--m", "4..5"),
        ("sweep", "--k", "3..5", "--m", "1..2"),
        ("sweep", "--k", "3..5", "--m-offset=-5..-3"),
        ("verify-identities", "--m", "3", "--q-trunc", "4", "--trials", "-2"),
        ("verify-identities", "--m", "2", "--trials", "0"),
        ("verify-identities", "--m", "1..2", "--trials", "0"),
        ("verify-identities", "--m", "3..4", "--q-trunc", "1/100", "--trials", "1"),
        ("verify-identities", "--m", "6", "--q-trunc", "1/2", "--trials", "1"),
        ("verify-identities", "--m", "3", "--q-trunc", "1/3", "--trials", "1"),
        ("sweep", "--k", "3..3", "--m-offset", "1..2", "--N", "1,1"),
        ("sweep", "--k", "3..3", "--m", "10..11", "--m-offset", "1..2"),
        ("sweep", "--k", "3..5"),
        # the dumps are on --q-trunc, so it must reach the top index's orders
        ("verify-orders", "--m", "64", "--q-trunc", "12", "--dump-series"),
        ("verify-orders", "--m", "2", "--q-trunc", "1/8", "--dump-series"),
        ("verify-identities", "--m", "3..4", "--trials", "1",
         "--q-trunc", "100000000000000000000/3"),
    ])
    def test_malformed_input_exits_2(self, argv, tmp_path, capsys):
        if argv[-1] == "--dump-series":
            argv += (str(tmp_path / "dumps"),)
        with pytest.raises(SystemExit) as exit_info:
            run_cli(*argv, "--output", str(tmp_path / "r.txt"))
        assert exit_info.value.code == 2
        assert "usage: qtheta" in capsys.readouterr().err
        assert not (tmp_path / "r.txt").exists()
        assert not (tmp_path / "dumps").exists()


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this CPython has no int/str digit limit")
class TestDigitLimit:
    @pytest.mark.parametrize("argv, status", [
        (("verify-wronskian", "--m", "2..3", "--q-trunc", "4"), 0),
        (("verify-orders", "--m", "10", "--q-trunc", "3"), 1),
        (("verify-wronskian", "--m", "2", "--q-trunc", "0"), 2),
    ])
    def test_main_restores_the_limit(self, argv, status, tmp_path, monkeypatch):
        if status == 1:
            cut_wronskians(monkeypatch, {10})
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(5000)
        try:
            try:
                code = run_cli(*argv, "--output", str(tmp_path / "r.txt"))
            except SystemExit as error:
                code = error.code
            assert code == status
            assert sys.get_int_max_str_digits() == 5000
        finally:
            sys.set_int_max_str_digits(saved)


class TestParallelRuns:
    @staticmethod
    def no_fork():
        raise AssertionError("no worker process expected")

    @pytest.mark.parametrize("cpus", [1, None])
    def test_workers_clamped_to_cpu_count(self, cpus, monkeypatch):
        # 1: a one-CPU affinity mask on an eight-CPU host; None: no affinity
        # mask and an unknown host count, which counts as one CPU
        if cpus is None:
            monkeypatch.delattr(pool.os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(pool.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(pool.os, "cpu_count", lambda: 8 if cpus else None)
        assert pool._usable_cpus() == 1
        monkeypatch.setattr(pool.os, "fork", self.no_fork)
        assert pool._run_parallel(abs, [-1, -2], 2) == [1, 2]

    def test_workers_clamped_to_case_count(self, monkeypatch):
        monkeypatch.setattr(pool.os, "fork", self.no_fork)
        assert pool._run_parallel(abs, [-3], 2) == [3]

    def test_one_worker_without_fork(self, monkeypatch):
        monkeypatch.setattr(pool, "_usable_cpus", lambda: 4)
        monkeypatch.delattr(pool.os, "fork")
        assert pool._run_parallel(abs, [-1, -2, -3], 3) == [1, 2, 3]

    def test_results_in_item_order_past_the_token_cap(self, monkeypatch):
        # 2500 items share the 1024 tokens: a token names a run of cases
        monkeypatch.setattr(pool, "_usable_cpus", lambda: 3)
        items = list(range(2500))
        assert len(items) > pool._MAX_TOKENS
        assert pool._run_parallel(lambda x: -x, items, 3) == [-x for x in items]

        def fail_twice(x):
            if x in (1500, 2400):
                raise cli.VerificationFailed(f"item {x}")
            return x

        with pytest.raises(cli.VerificationFailed, match="^item 1500$"):
            pool._run_parallel(fail_twice, items, 3)

    def test_dead_worker_is_a_failure_record(self, monkeypatch, tmp_path):
        # the parent holds its first case until the child has taken another
        # one and killed itself on it; the child took case 1 or case 2
        monkeypatch.setattr(pool, "_usable_cpus", lambda: 2)
        parent = os.getpid()
        died, signal_died = os.pipe()
        waited = []

        def worker(job):
            if os.getpid() != parent:
                os.write(signal_died, str(os.getpid()).encode())
                os.kill(os.getpid(), signal.SIGKILL)
            if not waited:
                waited.append(job)
                assert select.select([died], [], [], 60)[0], "no child took a case"
            return {"characters": []}, {}

        monkeypatch.setattr(cmd_characters, "case", worker)
        out = tmp_path / "record.json"
        try:
            code = run_cli("verify-characters", "--m", "2..4", "--jobs", "2",
                           "--format", "json", "--output", str(out))
            child = int(os.read(died, 64))
        finally:
            os.close(died)
            os.close(signal_died)
        assert code == 1
        record = json.loads(out.read_text())
        assert record["all_passed"] is False
        assert record["failure"] in [f"case {index} has no result: worker process wait "
                                     f"statuses {signal.SIGKILL}" for index in (1, 2)]
        with pytest.raises(ChildProcessError):
            os.waitpid(child, os.WNOHANG)  # reaped: no zombie is left

    def test_failure_record_same_for_any_jobs(self, capfd, monkeypatch):
        # m = 12 and m = 13 both fail; the parent takes 13 first, so the
        # record of m = 12 comes from whichever process ran it
        cut_wronskians(monkeypatch, {12, 13})
        captured = []
        for jobs in ("1", "2"):
            code = run_cli("verify-orders", "--m", "10..13", "--q-trunc", "3",
                           "--format", "json", "--jobs", jobs)
            captured.append((code, capfd.readouterr()))
        (code1, out1), (code2, out2) = captured
        assert code1 == code2 == 1
        assert out1.out == out2.out == ""
        assert out1.err == out2.err
        assert json.loads(out1.err)["failure"].startswith("m=12: ")

    def test_children_do_not_flush_the_parents_stdout(self):
        # a block-buffered stdout holds a line when the workers fork; a
        # child that flushed it on exit would print that line twice
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        env.pop("PYTHONUNBUFFERED", None)
        script = ("import sys; from qtheta.cli import main; print('before the cases'); "
                  "sys.exit(main(sys.argv[1:]))")
        outputs = []
        for jobs in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-c", script, "verify-wronskian", "--m", "2..6",
                 "--q-trunc", "8", "--format", "json", "--jobs", jobs],
                capture_output=True, env=env, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0].count(b"before the cases") == 1

    @pytest.mark.parametrize("argv", [
        ("verify-wronskian", "--m", "2..4", "--q-trunc", "6", "--dump-series"),
        ("verify-orders", "--m", "2..5", "--q-trunc", "6", "--dump-series"),
        ("verify-characters", "--m", "2..7"),
        ("verify-identities", "--m", "2..4", "--q-trunc", "6", "--trials", "2",
         "--seed", "3", "--jacobi-file"),
    ])
    def test_jobs_do_not_change_reports_or_dumps(self, argv, tmp_path):
        table = tmp_path / "form.jacobi"
        table.write_text(dump_jacobi_table(
            from_orbit_values(3, 2, 1, 8, {(1, 7): F(1)})))
        outputs = []
        for jobs in ("1", "2"):
            report, dumps = tmp_path / f"report{jobs}.json", tmp_path / f"dumps{jobs}"
            args = list(argv)
            if argv[-1] == "--dump-series":
                args.append(str(dumps))
            elif argv[-1] == "--jacobi-file":
                args.append(str(table))
            assert run_cli(*args, "--format", "json", "--jobs", jobs,
                           "--output", str(report)) == 0
            files = sorted(dumps.iterdir()) if dumps.exists() else []
            outputs.append((report.read_bytes(), [(f.name, f.read_bytes()) for f in files]))
        assert outputs[0] == outputs[1]
        if argv[-1] == "--dump-series":
            assert outputs[0][1]


class TestMinorRoute:
    @pytest.mark.parametrize("argv", [
        ("verify-wronskian", "--m", "2..5", "--q-trunc", "6", "--dump-series"),
        ("verify-orders", "--m", "2..5", "--q-trunc", "6", "--dump-series"),
        ("verify-identities", "--m", "3..5", "--q-trunc", "6", "--trials", "2",
         "--seed", "3", "--jacobi-file"),
    ])
    def test_no_command_takes_the_bitmask_minor_table(self, argv, tmp_path, monkeypatch):
        # every minor a command checks or dumps comes from the lattice sum
        def refuse(matrix, size):
            raise AssertionError("SeriesMatrix._prefix_minors reached")

        monkeypatch.setattr(SeriesMatrix, "_prefix_minors", refuse)
        wronskian._cramer_operators.cache_clear()  # so the Cramer matrices are rebuilt here
        args = list(argv)
        if argv[-1] == "--dump-series":
            args.append(str(tmp_path / "dumps"))
        else:
            table = tmp_path / "form.jacobi"
            table.write_text(dump_jacobi_table(
                from_orbit_values(3, 2, 1, 8, {(1, 7): F(1)})))
            args.append(str(table))
        assert run_cli(*args, "--jobs", "1", "--output", str(tmp_path / "r.txt")) == 0


def rendered(render, *parts) -> str:
    """What ``render`` writes into a stream, as one string."""
    out = io.StringIO()
    render(out, *parts)
    return out.getvalue()


def table_form(tables) -> dict:
    """Tables of dict rows, one to one, as the renderers take them: each
    table's keys in first-seen order, and a key a row lacks as ``cli.ABSENT``."""
    form = {}
    for name, rows in tables.items():
        keys = []
        for row in rows:
            keys += [key for key in row if key not in keys]
        form[name] = (tuple(keys), [tuple(row.get(key, cli.ABSENT) for key in keys)
                                    for row in rows])
    return form


def dict_view(tables) -> dict:
    """The inverse of ``table_form``: each row as a dict without its ABSENT cells."""
    return {name: [{key: value for key, value in zip(keys, row) if value is not cli.ABSENT}
                   for row in rows]
            for name, (keys, rows) in tables.items()}


def stdlib_report(args, tables, discrepancies) -> str:
    """The JSON report of dict-row tables as ``json.dumps`` writes it: the
    oracle of ``cli._render_json`` on their ``table_form``."""
    doc = {"schema_version": cli.SCHEMA_VERSION, "command": args.command,
           "parameters": {"q_trunc": "%d/%d" % args.q_trunc.as_integer_ratio(),
                          "seed": args.seed, "trials": args.trials},
           "results": tables, "all_passed": True, "discrepancies": discrepancies}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


# a character no test cell holds, which every csv writer prints as it is
NUL_STAND_IN = "\ue000"


def csv_reference(tables) -> str:
    """The CSV report of dict-row tables with one ``csv.writer`` per row: the
    oracle of ``cli._render_csv`` on their ``table_form``.

    CPython 3.11 and later print a NUL as it is and quote on it as on any
    plain character; 3.10's writer raises on it.  So every NUL goes through
    the writer as a stand-in and is put back: the 3.11 bytes on any version.
    """
    parts = []
    for name, rows in tables.items():
        lines = [f"# table: {name}\n"]
        columns = []
        for row in rows:
            columns += [key for key in row if key not in columns]
        for cells in ([columns] if rows else []) + [[csv_cell(row.get(key)) for key in columns]
                                                     for row in rows]:
            assert not any(NUL_STAND_IN in cell for cell in cells)
            line = io.StringIO()
            csv.writer(line, lineterminator="\n").writerow(
                [cell.replace("\x00", NUL_STAND_IN) for cell in cells])
            lines.append(line.getvalue().replace(NUL_STAND_IN, "\x00"))
        parts.append("".join(lines))
    return "\n".join(parts)


def holds_cr(keys, rows) -> bool:
    """Whether a key or a str cell of the table holds a "\r"."""
    return any(type(cell) is str and "\r" in cell for row in [keys, *rows] for cell in row)


def assert_csv_matches_oracle(tables):
    """``cli._render_csv`` on report-form tables, table by table, against
    ``csv_reference``.

    CPython versions write a "\r" differently (3.11's writer leaves it
    unquoted under a "\n" line terminator, so the cell would not read back),
    so a table that holds one is checked by a ``csv.reader`` round trip
    instead: its lines must parse back into its header and cell texts.
    """
    parts = [rendered(cli._render_csv, {name: table}) for name, table in tables.items()]
    assert rendered(cli._render_csv, tables) == "\n".join(parts)
    for (name, (keys, rows)), part in zip(tables.items(), parts):
        if not holds_cr(keys, rows):
            assert part == csv_reference(dict_view({name: (keys, rows)}))
            continue
        head = f"# table: {name}\n"
        assert part.startswith(head)
        body = part[len(head):].replace("\x00", NUL_STAND_IN)
        lines = [[cell.replace(NUL_STAND_IN, "\x00") for cell in line]
                 for line in csv.reader(io.StringIO(body, newline=""))]
        assert lines == [list(keys)] * bool(rows) + [
            [csv_cell(None if value is cli.ABSENT else value) for value in row] for row in rows]


def text_reference(args, tables, discrepancies) -> str:
    """The text report of dict-row tables, one row at a time: the oracle of
    ``cli._render_text`` on their ``table_form``."""
    out = io.StringIO()
    out.write(f"command: {args.command}\n")
    for name, rows in tables.items():
        out.write(f"[{name}]\n")
        for row in rows:
            detail = " ".join(f"{k}={v}" for k, v in row.items() if k != "ok")
            out.write(f"  PASS {detail}\n")
    for note in discrepancies:
        out.write(f"note: {note}\n")
    out.write("all checks passed\n")
    return out.getvalue()


def assert_renders_match_oracles(args, tables, discrepancies):
    """Each renderer on report-form tables against its oracle on their dict view."""
    view = dict_view(tables)
    assert table_form(view) == tables
    assert (rendered(cli._render_json, args, tables, discrepancies)
            == stdlib_report(args, view, discrepancies))
    assert_csv_matches_oracle(tables)
    assert (rendered(cli._render_text, args, tables, discrepancies)
            == text_reference(args, view, discrepancies))


@pytest.fixture
def no_int_str_limit():
    """Lift CPython's int/str digit limit for one test, as ``cli.main`` does."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


# characters the JSON encoder escapes: quotes, backslashes, controls,
# non-ASCII (outside and inside the BMP), and the template's own %; the
# comma, quote and line breaks are also what the CSV writer quotes
AWKWARD = '"\\/\b\f\n\r\t\x00\x1f\x7f% é€😀 ab,'
CELL_KINDS = ("str", "small_int", "big_int", "bool", "none")


def random_text(rng, length):
    return "".join(rng.choice(AWKWARD) for _ in range(length))


def random_cell(rng):
    kind = rng.choice(CELL_KINDS)
    if kind == "str":
        return random_text(rng, rng.randint(0, 6))
    if kind == "small_int":
        return rng.randint(-10 ** 6, 10 ** 6)
    if kind == "big_int":
        # past the 4300-digit default limit on int -> str
        return rng.choice((-1, 1)) * rng.randint(10 ** 4400, 10 ** 4401)
    if kind == "bool":
        return rng.random() < 0.5
    return None


def random_tables(rng) -> dict:
    """Flat tables of every cell kind; a table may mix key sets, or have no rows."""
    tables = {}
    for _ in range(rng.randint(0, 4)):
        key_sets = [[random_text(rng, rng.randint(0, 4)) for _ in range(rng.randint(0, 5))]
                    for _ in range(rng.randint(1, 2))]
        tables[random_text(rng, rng.randint(0, 5))] = [
            {key: random_cell(rng) for key in rng.choice(key_sets)}
            for _ in range(rng.randint(0, 6))]
    return tables


class TestRenderedRows:
    COMMANDS = [
        ("verify-wronskian", "--m", "2..4", "--q-trunc", "6"),
        ("verify-orders", "--m", "2..5", "--q-trunc", "6"),
        ("verify-characters", "--m", "2..7"),
        ("verify-identities", "--m", "2..4", "--q-trunc", "6", "--trials", "2",
         "--seed", "3", "--jacobi-file"),
        ("classify", "--k", "5", "--m", "7", "--N", "1"),
        ("sweep", "--k", "3..9", "--m-offset", "1..4", "--N", "1,6"),
        ("classify", "--k", "3", "--m", "6", "--N", "1"),
    ]

    @staticmethod
    def handler_output(argv, tmp_path):
        args = list(argv)
        if argv[-1] == "--jacobi-file":
            table = tmp_path / "form.jacobi"
            table.write_text(dump_jacobi_table(
                from_orbit_values(3, 2, 1, 8, {(1, 7): F(1)})))
            args.append(str(table))
        config = cli.config_from_args(cli.build_parser().parse_args(args))
        tables, discrepancies, _ = cli.HANDLERS[config.command](config)
        return config, tables, discrepancies

    @pytest.mark.parametrize("argv", COMMANDS)
    def test_every_row_is_already_converted(self, argv, tmp_path):
        # the renderers print each cell as it comes, so every table a handler
        # returns must be a tuple of str keys and one flat tuple per row, of
        # JSON scalar cells or ABSENT
        _, tables, _ = self.handler_output(argv, tmp_path)
        assert tables and all(type(keys) is tuple for keys, _ in tables.values())
        assert all(type(key) is str for keys, _ in tables.values() for key in keys)
        rows = [row for _, table_rows in tables.values() for row in table_rows]
        assert rows and all(type(row) is tuple for row in rows)
        assert all(len(row) == len(keys) for keys, table_rows in tables.values()
                   for row in table_rows)
        cells = {type(value) for row in rows for value in row}
        assert cells <= {str, int, bool, type(None), type(cli.ABSENT)}
        # one to one with dict rows: every key of a table is some row's
        assert table_form(dict_view(tables)) == tables
        # one failure channel: a failed check raises, so a returned status
        # cell is always the literal True
        status = [value for keys, table_rows in tables.values() for row in table_rows
                  for key, value in zip(keys, row) if key in ("ok", "residual_all_zero")]
        assert all(value is True for value in status)
        assert status or argv[0] in ("verify-characters", "classify", "sweep")

    def test_to_jsonable_takes_report_dataclasses_only(self):
        assert cli.to_jsonable(nonintegrality_check(6)) == (6, "30/1", True)
        for value in ([1], 0.5, {"a": 1}, (1, 2)):
            with pytest.raises(TypeError):
                cli.to_jsonable(value)

    @pytest.mark.parametrize("argv", COMMANDS)
    def test_json_report_equals_stdlib_encoder(self, argv, tmp_path):
        # and the CSV and text reports equal their oracles too
        config, tables, discrepancies = self.handler_output(argv, tmp_path)
        assert_renders_match_oracles(config, tables, discrepancies)

    def test_json_report_on_random_flat_tables(self, no_int_str_limit):
        rng = random.Random(20)
        edge_tables = [{}, {"a": []}, {"a": [{}]}, {"b": [{}], "a": [], "": [{"": ""}]},
                       {"t": [{"x": 1, "y": True}, {"y": False, "z": None}, {"x": -0}]}]
        kinds = set()
        for trial in range(300):
            args = cli.argparse.Namespace(
                command=random_text(rng, 8), q_trunc=F(rng.randint(1, 99), rng.randint(1, 9)),
                seed=rng.randint(0, 2 ** 31), trials=rng.randint(0, 50))
            tables = edge_tables[trial] if trial < len(edge_tables) else random_tables(rng)
            discrepancies = [random_text(rng, 10) for _ in range(rng.randint(0, 2))]
            kinds.update(type(v) for rows in tables.values() for row in rows
                         for v in row.values())
            assert dict_view(table_form(tables)) == tables
            assert (rendered(cli._render_json, args, table_form(tables), discrepancies)
                    == stdlib_report(args, dict_view(table_form(tables)), discrepancies))
        assert kinds == {str, int, bool, type(None)}

    @pytest.mark.parametrize("cell", [[1], {"a": 1}, 1.5, F(1, 2), (1,)])
    def test_json_report_rejects_cells_that_are_not_flat(self, cell):
        # on a full row and on a row with an ABSENT cell
        args = cli.argparse.Namespace(command="sweep", q_trunc=F(12), seed=0, trials=5)
        for rows in ([{"x": cell}], [{"y": 1}, {"x": cell}]):
            with pytest.raises(TypeError):
                cli._render_json(io.StringIO(), args, table_form({"t": rows}), [])

    @pytest.mark.parametrize("cell", [[1], {"a": 1}, 1.5, F(1, 2), (1,)])
    def test_csv_report_rejects_cells_that_are_not_flat(self, cell):
        # in a column of one kind and in a column of mixed kinds
        for rows in ([{"x": cell}], [{"x": 1}, {"x": cell}]):
            with pytest.raises(TypeError, match="a report cell must be"):
                cli._render_csv(io.StringIO(), table_form({"t": rows}))

    def test_csv_report_on_random_flat_tables(self, no_int_str_limit):
        rng = random.Random(21)
        quoted = [",", '"', "\n", ',"', ',\n', '"\n', ',"\n', 'a,b "c"\nd', "plain"]
        with_cr = ["\r", "a\rb", '\n\r', ',"\n\r', 'a,b "c"\nd\re']
        edge_tables = [{}, {"a": []}, {"a": [{}]}, {"b": [{}], "a": [], "": [{"": ""}]},
                       {"t": [{"x": None}, {"x": ""}, {"y": "a,b"}, {"x": 'say "hi"\r\n'}]},
                       # each character the writer quotes on, alone and together,
                       # beside other cells and in one-cell rows, in str columns and
                       # in columns of mixed kinds; then "\r", alone and with the
                       # others, as CPython versions differ on it
                       {"t": [{"s": text, "n": 1, "b": True} for text in quoted]},
                       {"t": [{"s": text} for text in quoted]},
                       {"t": [{"s": ",", "n": 1}, {"n": 2}, {"s": None, "n": 3},
                              {"s": -4, "n": 5}, {"s": False, "n": 6}, {"s": '"', "n": 7}]},
                       {"t": [{"s": text, "n": 1} for text in with_cr]},
                       {"t": [{"s": text} for text in with_cr]},
                       # one-cell rows whose cell is empty, alone and among others
                       {"t": [{"x": ""}]}, {"t": [{"x": None}]},
                       {"t": [{"x": "a"}, {"x": ""}, {"x": None}, {}, {"x": 0}]},
                       # header keys that need quoting
                       {"t": [{'say "a,b"': 1, "line\nbreak": "x", "cr\r": True, "": None}]},
                       {"t": [{"x": "é€😀", "y": "naïve, 😀", "z": 'ß"'}], "ü": [{"ü": "ü"}]},
                       # ints past the 4300-digit default limit on int -> str
                       {"t": [{"x": 10 ** 4400 + 1, "y": -(10 ** 4400)}, {"x": 7, "y": 7}],
                        "u": [{"x": 10 ** 4400 + 1}, {"x": -(10 ** 4400)}]}]
        kinds = set()
        # the edge tables, then as many random tables as there always were
        for trial in range(len(edge_tables) + 295):
            tables = edge_tables[trial] if trial < len(edge_tables) else random_tables(rng)
            kinds.update(type(v) for rows in tables.values() for row in rows
                         for v in row.values())
            assert_csv_matches_oracle(table_form(tables))
        assert kinds == {str, int, bool, type(None)}

    @pytest.mark.parametrize("argv", [
        ("sweep", "--k", "3..21", "--m-offset", "1..20", "--N", "1,6,4"),
        ("verify-orders", "--m", "3..6"),
    ])
    def test_csv_report_of_real_tables(self, argv, tmp_path):
        # the quoted congruence details, the empty discrepancy flags and the
        # bools and ints of real reports, across several row blocks
        _, tables, _ = self.handler_output(argv, tmp_path)
        assert_csv_matches_oracle(tables)

    def test_text_report_on_random_flat_tables(self, no_int_str_limit):
        rng = random.Random(22)
        edge_tables = [{}, {"a": []}, {"a": [{}]}, {"b": [{}], "a": [], "": [{"": ""}]},
                       {"t": [{"ok": True, "x": 1}, {"residual_all_zero": True},
                              {"x": None, "residual_all_zero": True, "ok": True},
                              {"ok": True, "y": "a b"}, {"z": 0}]}]
        kinds = set()
        for trial in range(300):
            args = cli.argparse.Namespace(command=random_text(rng, 8))
            tables = edge_tables[trial] if trial < len(edge_tables) else random_tables(rng)
            discrepancies = [random_text(rng, 10) for _ in range(rng.randint(0, 2))]
            kinds.update(type(v) for rows in tables.values() for row in rows
                         for v in row.values())
            assert (rendered(cli._render_text, args, table_form(tables), discrepancies)
                    == text_reference(args, dict_view(table_form(tables)), discrepancies))
        assert kinds == {str, int, bool, type(None)}

    @pytest.mark.parametrize("count", [0, 1, cli._BLOCK_ROWS - 1, cli._BLOCK_ROWS,
                                       cli._BLOCK_ROWS + 1, 2 * cli._BLOCK_ROWS + 1])
    def test_rows_across_block_boundaries(self, count):
        rng = random.Random(count)
        tables = {"rows": [{"i": i, "s": random_text(rng, 3), "ok": i % 2 == 0}
                           for i in range(count)],
                  "mixed": [{"a": i} if i % 3 else {"b": None, "a": -i} for i in range(count)],
                  "after": [{"x": 1}]}
        args = cli.argparse.Namespace(command="sweep", q_trunc=F(12), seed=0, trials=5)
        assert_renders_match_oracles(args, table_form(tables), ["note"])


class DiscardingSink:
    """A text stream that counts what it is given and keeps none of it."""

    def __init__(self):
        self.size = 0

    def write(self, text):
        self.size += len(text)
        return len(text)


class TestRenderMemory:
    REPORT_MIN = 10 * 2 ** 20
    PEAK_BOUND = 2 ** 20

    @staticmethod
    def synthetic_report():
        # a few distinct rows, repeated, so the tables themselves stay small
        label = "x" * 400
        shapes = [{"k": 3, "m": 4, "label": label, "ok": True, "big": 10 ** 40},
                  {"k": 5, "m": 6, "label": label + "é", "ok": False, "extra": None}]
        tables = table_form({"verdicts": shapes, "notes": [{"note": label}]})
        tables = {name: (keys, rows * {"verdicts": 12000, "notes": 4000}[name])
                  for name, (keys, rows) in tables.items()}
        args = cli.argparse.Namespace(command="sweep", q_trunc=F(12), seed=0, trials=5)
        return args, tables

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_render_holds_one_block(self, fmt):
        # the rows are built before tracing starts; the render itself may
        # hold one block of rendered rows, never the report
        args, tables = self.synthetic_report()
        render, *parts = {"json": (cli._render_json, args, tables, []),
                          "csv": (cli._render_csv, tables),
                          "text": (cli._render_text, args, tables, [])}[fmt]
        sink = DiscardingSink()
        tracemalloc.start()
        try:
            render(sink, *parts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sink.size >= self.REPORT_MIN
        assert peak < self.PEAK_BOUND


class TestWriteTargets:
    ARGV = ("verify-wronskian", "--m", "2..3", "--q-trunc", "4")

    @pytest.mark.parametrize("target, message", [
        ("output-dir", "it is a directory"),
        ("dump-file", "is not a directory"),
        ("env-file", "is not a directory")])
    def test_unwritable_target_rejected_before_cases(self, target, message, tmp_path,
                                                     monkeypatch, capsys):
        def refuse(args):
            raise AssertionError("a case ran")

        monkeypatch.setitem(cli.HANDLERS, "verify-wronskian", refuse)
        a_file = tmp_path / "a-file"
        a_file.write_text("")
        args = list(self.ARGV)
        if target == "output-dir":
            args += ["--output", str(tmp_path)]
        elif target == "dump-file":
            args += ["--dump-series", str(a_file), "--output", str(tmp_path / "r.txt")]
        else:
            monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(a_file))
        with pytest.raises(SystemExit) as exit_info:
            run_cli(*args)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "usage: qtheta" in err and message in err
        assert a_file.read_text() == "" and not (tmp_path / "r.txt").exists()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv", [
        ARGV,
        ("verify-orders", "--m", "10", "--q-trunc", "3", "--format", "json")])
    def test_failed_write_is_one_error_line(self, argv, capsys, monkeypatch):
        # ENOSPC on the report, and on the failure record of a failed check
        cut_wronskians(monkeypatch, {10})
        assert run_cli(*argv, "--output", "/dev/full") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "qtheta: error: cannot write /dev/full: No space left on device\n"

    def test_failed_dump_write_is_one_error_line(self, tmp_path, capsys):
        a_file = tmp_path / "a-file"
        a_file.write_text("")
        dumps = a_file / "dumps"
        assert run_cli(*self.ARGV, "--dump-series", str(dumps),
                       "--output", str(tmp_path / "r.txt")) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"qtheta: error: cannot write {dumps}")
        assert not (tmp_path / "r.txt").exists()

    @pytest.mark.parametrize("fmt, ext", [("json", "json"), ("csv", "csv"), ("text", "txt")])
    def test_every_target_gets_the_same_report(self, fmt, ext, tmp_path, monkeypatch, capsys):
        argv = ("classify", "--k", "3", "--m", "6", "--N", "1", "--format", fmt)
        assert run_cli(*argv) == 0
        from_stdout = capsys.readouterr().out
        assert run_cli(*argv, "--output", str(tmp_path / "out" / "report")) == 0
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path / "env"))
        assert run_cli(*argv) == 0
        assert capsys.readouterr().out == ""
        assert (tmp_path / "out" / "report").read_text() == from_stdout
        assert (tmp_path / "env" / f"classify.{ext}").read_text() == from_stdout


class TestVerifyWronskian:
    def test_json_report(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli("verify-wronskian", "--m", "2..4", "--q-trunc", "8",
                       "--format", "json", "--output", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == 1
        assert doc["all_passed"] is True
        reports = doc["results"]["reports"]
        assert [r["index_m"] for r in reports] == [2, 3, 4]
        assert reports[0]["constant"] == "1/1"
        assert all("/" in r["ord_w"] for r in reports)

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for target in (a, b):
            run_cli("verify-wronskian", "--m", "2..3", "--q-trunc", "6",
                    "--format", "json", "--output", str(target))
        assert a.read_bytes() == b.read_bytes()

    def test_jobs_flag_same_output(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("verify-wronskian", "--m", "2..3", "--q-trunc", "6",
                "--format", "json", "--output", str(a), "--jobs", "2")
        run_cli("verify-wronskian", "--m", "2..3", "--q-trunc", "6",
                "--format", "json", "--output", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_residual_fails_with_a_record(self, monkeypatch, tmp_path):
        theta_wronskian = wronskian.theta_wronskian

        def faulty(m, q_trunc):  # W + (1/7) q^(lam/24 + 2)
            extra = {F(wronskian.eta_power_exponent(m), 24) + 2: F(1, 7)}
            return theta_wronskian(m, q_trunc) + PuiseuxSeries(extra, math.inf)

        monkeypatch.setattr(wronskian, "theta_wronskian", faulty)
        out = tmp_path / "report.json"
        code = run_cli("verify-wronskian", "--m", "3..4", "--q-trunc", "12",
                       "--format", "json", "--output", str(out))
        assert code == 1
        record = json.loads(out.read_text())
        assert record["all_passed"] is False
        assert record["failure"] == "m=3: residual coefficient 1/7 at exponent 2"

    def test_dump_series_roundtrip(self, tmp_path):
        from qtheta import modular_wronskian
        dumps = tmp_path / "dumps"
        run_cli("verify-wronskian", "--m", "2..3", "--q-trunc", "6",
                "--format", "text", "--output", str(tmp_path / "r.txt"),
                "--dump-series", str(dumps))
        text = (dumps / "wronskian_m3.series").read_text()
        assert parse_series_text(text) == modular_wronskian(3, 6)


class TestVerifyOrders:
    def test_passes(self, tmp_path):
        out = tmp_path / "orders.json"
        code = run_cli("verify-orders", "--m", "2..5", "--q-trunc", "8",
                       "--format", "json", "--output", str(out))
        assert code == 0
        rows = json.loads(out.read_text())["results"]["orders"]
        checks = {(row["m"], row["check"]) for row in rows}
        assert (2, "wronskian_order") in checks
        assert (5, "cofactor_order_nu_4") in checks

    def test_failure_record_and_exit_code(self, tmp_path, monkeypatch):
        cut_wronskians(monkeypatch, {10})
        out = tmp_path / "orders.json"
        code = run_cli("verify-orders", "--m", "10", "--q-trunc", "3",
                       "--format", "json", "--output", str(out))
        assert code == 1
        record = json.loads(out.read_text())
        assert record["all_passed"] is False
        assert "m=10" in record["failure"]

    def test_order_mismatch_fails_with_a_record(self, monkeypatch, tmp_path):
        # index 4's Wronskian plus q^(1/16), below its order 7/8 and inside its window
        theta_wronskian = wronskian.theta_wronskian
        monkeypatch.setattr(wronskian, "theta_wronskian", lambda m, q_trunc: (
            theta_wronskian(m, q_trunc) + PuiseuxSeries({F(1, 16): 1}, math.inf) if m == 4
            else theta_wronskian(m, q_trunc)))
        out = tmp_path / "orders.json"
        code = run_cli("verify-orders", "--m", "3..5", "--q-trunc", "6",
                       "--format", "json", "--output", str(out))
        assert code == 1
        assert json.loads(out.read_text())["failure"] == "m=4: Wronskian order 1/16, expected 7/8"

    @pytest.mark.parametrize("q_trunc", ["10", "253/100"])
    def test_cofactor_windows_past_q_trunc(self, q_trunc, tmp_path):
        # every cofactor order of m = 12 lies above q^10 but inside the
        # cofactor's own certified window, once q passes 121/48
        out = tmp_path / "orders.json"
        code = run_cli("verify-orders", "--m", "12", "--q-trunc", q_trunc,
                       "--format", "json", "--output", str(out))
        assert code == 0
        rows = json.loads(out.read_text())["results"]["orders"]
        assert len(rows) == 2 + 11 and all(row["ok"] for row in rows)

    def test_window_edge_fails(self, tmp_path, capsys):
        # the dumps' window would be q_trunc here, below the cofactor order
        # 505/48: bad input, rejected before any case runs
        out, dumps = tmp_path / "orders.json", tmp_path / "dumps"
        with pytest.raises(SystemExit) as exit_info:
            run_cli("verify-orders", "--m", "12", "--q-trunc", "121/48",
                    "--format", "json", "--output", str(out), "--dump-series", str(dumps))
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert ("--q-trunc 121/48 is too short for the top index: m=12 nu=1: "
                "window 121/48 cannot reach cofactor order 505/48") in err
        assert not out.exists() and not dumps.exists()

    def test_short_window_checks_one_minor(self):
        # the binding minor alone, cofactor nu = 1, in memory linear in m:
        # one column list per cofactor took tens of MB here
        tracemalloc.start()
        try:
            short = cases.short_window(1000, 12)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        order = F(sum(mu * mu for mu in range(2, 1000)), 4000)
        assert short == f"m=1000 nu=1: window 12 cannot reach cofactor order {order}"
        assert peak < 2 ** 20

    def test_short_window_is_the_first_short_minor(self):
        # against every minor of index m in order: the Wronskian for m = 2,
        # else each last-row cofactor, on windows around each cofactor's bound
        for m in range(2, 13):
            minors = ([("m=2", "Wronskian", [1])] if m == 2 else
                      [(f"m={m} nu={nu}", "cofactor", [mu for mu in range(1, m) if mu != nu])
                       for nu in range(1, m)])
            for q_trunc in sorted({F(mu * mu, 4 * m) + d for mu in range(1, m)
                                   for d in (F(-1, 97), 0, F(1, 97))}):
                first = None
                for where, name, columns in minors:
                    order = F(sum(mu * mu for mu in columns), 4 * m)
                    window = wronskian.theta_minor_window(m, q_trunc, columns)
                    if order >= window:
                        first = f"{where}: window {window} cannot reach {name} order {order}"
                        break
                assert cases.short_window(m, q_trunc) == first

    @pytest.mark.parametrize("m", [2, 3, 7])
    def test_window_rule_is_the_top_index_rule(self, m, tmp_path):
        # with dumps on q_trunc, every order of index m is inside its window
        # exactly when q_trunc passes (m-1)^2/4m, and lower indices need less
        edge = F((m - 1) ** 2, 4 * m)
        for q_trunc, status in ((edge, 2), (edge + F(1, 100), 0)):
            out = tmp_path / f"orders-{status}.json"
            try:
                code = run_cli("verify-orders", "--m", f"2..{m}", "--q-trunc", str(q_trunc),
                               "--format", "json", "--output", str(out),
                               "--dump-series", str(tmp_path / f"dumps-{status}"))
            except SystemExit as error:
                code = error.code
            assert code == status
            assert out.exists() == (status == 0)

    @pytest.mark.parametrize("m, windows", [("2..8", ("1/8", "10", "20")), ("32", ("8", "60"))])
    def test_results_do_not_depend_on_q_trunc(self, m, windows, tmp_path, monkeypatch):
        # without dumps each index checks on its own least window, so --q-trunc
        # moves neither the results nor the work: every minor built is one term
        theta_minors, sizes = wronskian.theta_minors, []

        def counted(*args):
            minors = theta_minors(*args)
            sizes.extend(len(minor.terms) for minor in minors)
            return minors

        monkeypatch.setattr(wronskian, "theta_minors", counted)
        results = []
        for i, q_trunc in enumerate(windows):
            out = tmp_path / f"orders{i}.json"
            assert run_cli("verify-orders", "--m", m, "--q-trunc", q_trunc,
                           "--format", "json", "--output", str(out)) == 0
            results.append(json.loads(out.read_text())["results"])
        assert all(result == results[0] for result in results[1:])
        assert sizes and set(sizes) == {1}


class TestVerifyCharacters:
    def test_two_tables_csv(self, tmp_path):
        out = tmp_path / "chars.csv"
        code = run_cli("verify-characters", "--m", "2..6",
                       "--format", "csv", "--output", str(out))
        assert code == 0
        text = out.read_text()
        assert "# table: eigenvalues" in text
        assert "# table: characters" in text
        assert "2,1,1/8,true" in text
        assert "3,5/6,10,true" in text

    def test_q_trunc_rejected(self, tmp_path):
        # each index reads its eigenvalues on its own window 2m + 2
        out = tmp_path / "chars.json"
        with pytest.raises(SystemExit) as exit_info:
            run_cli("verify-characters", "--m", "2..6", "--q-trunc", "1/100",
                    "--output", str(out))
        assert exit_info.value.code == 2
        assert not out.exists()

    @staticmethod
    def columns(m, q_trunc):
        """The odd theta series of index m, one per class mu = 1..m-1."""
        return [odd_theta_series(ThetaIndex(m, mu), q_trunc) for mu in range(1, m)]

    @staticmethod
    def eigenvalues(columns):
        """The reference of ``odd_theta_exponents``: each column's translation
        eigenvalue as its pair, in order, raising what the column raises."""
        for column in columns:
            value = translation_eigenvalue(column)
            yield value.num, value.den

    @staticmethod
    def shift(column):
        """The column moved up by q^(1/4m): one class over, still an eigenvector."""
        step = F(1, column.base_denom)
        return PuiseuxSeries({e + step: c for e, c in column.terms.items()},
                             column.trunc, column.base_denom)

    @staticmethod
    def off_class(column):
        """The column plus the term q^(1/2), off the class of mu = 2 for m = 5."""
        return column + PuiseuxSeries({F(1, 2): 1}, column.trunc, column.base_denom)

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("fault, message", [
        ("shift", "character check failed: m=5 mu=2: series exponent 1/4, expected 1/5"),
        ("off_class", "character check failed: m=5 mu=2: exponents 1/5 and 1/2 "
                      "differ by a non-integer"),
    ])
    def test_bad_column_fails_with_a_record(self, fault, message, jobs, monkeypatch, tmp_path):
        # the case reads its eigenvalues through characters.odd_theta_exponents; the
        # faulty columns are read by its reference, translation_eigenvalue
        def faulty(m, q_trunc):
            columns = self.columns(m, q_trunc)
            if m in (5, 7):  # the record names the lowest failing index
                columns[1] = getattr(self, fault)(columns[1])
            return self.eigenvalues(columns)

        monkeypatch.setattr(characters, "odd_theta_exponents", faulty)
        out = tmp_path / "chars.json"
        code = run_cli("verify-characters", "--m", "2..8", "--format", "json",
                       "--jobs", jobs, "--output", str(out))
        assert code == 1
        record = json.loads(out.read_text())
        assert record["all_passed"] is False
        assert record["failure"] == message

    def test_delta_power_mismatch_fails_with_a_record(self, monkeypatch, tmp_path):
        # index 5's delta power moved by one: (m-1)(2m-1) = 36 is 0 mod 12,
        # and so is the squared determinant's exponent 2 * 30/20
        delta_power = characters.squared_determinant_delta_power
        monkeypatch.setattr(characters, "squared_determinant_delta_power", lambda m: (
            GammaCharacter(delta_power(m).delta_power + (m == 5))))
        out = tmp_path / "chars.json"
        code = run_cli("verify-characters", "--m", "3..6", "--format", "json",
                       "--output", str(out))
        assert code == 1
        assert json.loads(out.read_text())["failure"] == \
            "character check failed: m=5: squared determinant exponent 0/1, delta power 1"

    def test_exponents_are_reduced_pairs(self, tmp_path):
        # m = 5: 9/20 stays, 16/20 reduces to 4/5; m = 6: 25/24 reduces mod 1
        out = tmp_path / "chars.json"
        assert run_cli("verify-characters", "--m", "5..6", "--format", "json",
                       "--output", str(out)) == 0
        results = json.loads(out.read_text())["results"]
        assert [(row["m"], row["mu"], row["exponent"]) for row in results["eigenvalues"]] == [
            (5, 1, "1/20"), (5, 2, "1/5"), (5, 3, "9/20"), (5, 4, "4/5"),
            (6, 1, "1/24"), (6, 2, "1/6"), (6, 3, "3/8"), (6, 4, "2/3"), (6, 5, "1/24")]
        # 2 * (1 + 4 + 9 + 16)/20 = 3 and 2 * 55/24 = 55/12, mod 1
        assert [(row["m"], row["xi"], row["delta_power"]) for row in results["characters"]] \
            == [(5, "0/1", 0), (6, "7/12", 7)]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_column_lifted_by_q_passes_unchanged(self, jobs, monkeypatch, tmp_path):
        # each exponent one higher keeps its class mod 1, and so the eigenvalue
        expected = tmp_path / "expected.json"
        assert run_cli("verify-characters", "--m", "2..8", "--format", "json",
                       "--output", str(expected)) == 0

        def lifted(m, q_trunc):
            return self.eigenvalues([
                PuiseuxSeries({e + 1: c for e, c in column.terms.items()},
                              column.trunc + 1, column.base_denom)
                for column in self.columns(m, q_trunc)])

        monkeypatch.setattr(characters, "odd_theta_exponents", lifted)
        out = tmp_path / "chars.json"
        assert run_cli("verify-characters", "--m", "2..8", "--format", "json",
                       "--jobs", jobs, "--output", str(out)) == 0
        assert out.read_bytes() == expected.read_bytes()


class TestVerifyIdentities:
    def test_passes_and_is_seeded(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for target in (a, b):
            code = run_cli("verify-identities", "--m", "3..4", "--q-trunc", "7",
                           "--trials", "2", "--seed", "5",
                           "--format", "json", "--output", str(target))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_csv_header_has_every_key(self, tmp_path):
        # the two-path rows have no kernel_case; the Cramer rows do
        out = tmp_path / "identities.csv"
        code = run_cli("verify-identities", "--m", "3", "--q-trunc", "6", "--trials", "1",
                       "--format", "csv", "--output", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[:2] == ["# table: identities", "m,case,check,ok,kernel_case"]
        assert "3,random_0,two_path_taylor,true," in lines
        assert "3,random_0,cramer,true,false" in lines
        assert "3,kernel,cramer,true,true" in lines

    def test_csv_columns_in_first_seen_order(self):
        tables = table_form({"t": [{"a": 1, "b": True}, {"c": None, "a": 2},
                                   {"b": False, "d": "x"}]})
        assert tables["t"][0] == ("a", "b", "c", "d")
        text = rendered(cli._render_csv, tables)
        assert text == "# table: t\na,b,c,d\n1,true,,\n2,,,\n,false,,x\n"

    @pytest.mark.parametrize("m, q_trunc, status", [
        ("13", "12", 0), ("12", "121/48", 2), ("12", "253/100", 0)])
    def test_window_rule_is_the_cofactor_windows(self, m, q_trunc, status, tmp_path):
        # every cofactor order of the top index lies inside its own window
        # exactly when q_trunc passes (m-1)^2/4m, 121/48 for m = 12
        out = tmp_path / "identities.json"
        try:
            code = run_cli("verify-identities", "--m", m, "--q-trunc", q_trunc,
                           "--trials", "1", "--format", "json", "--output", str(out))
        except SystemExit as error:
            code = error.code
        assert code == status
        assert out.exists() == (status == 0)

    @pytest.mark.parametrize("q_trunc, accepted", [
        (str(sys.maxsize + 1), True), (f"{2 * sys.maxsize + 1}/2", True),
        (str(sys.maxsize + 2), False), (f"{2 * sys.maxsize + 3}/2", False)])
    def test_window_past_sys_maxsize_exponents_rejected(self, q_trunc, accepted):
        # class 1 of every index draws from ceil(q) - 1 exponents: up to
        # sys.maxsize a random tuple can be drawn, one more has no len().
        # Only config_from_args runs, so no case runs
        args = cli.build_parser().parse_args(
            ["verify-identities", "--m", "3..4", "--trials", "1", "--q-trunc", q_trunc])
        q = args.q_trunc
        if accepted:
            cli.config_from_args(args)
            random_components(4, q, random.Random(0))
        else:
            with pytest.raises(ValueError, match=(
                    rf"--q-trunc {q} is too long for the top index: m=4 mu=1: "
                    rf"{sys.maxsize + 1} exponents to draw from, more than sys.maxsize")):
                cli.config_from_args(args)
            with pytest.raises(OverflowError):
                random_components(4, q, random.Random(0))

    def test_cached_series_reused_across_runs(self, tmp_path, monkeypatch):
        # the theta ladders and pairs live for the process, keyed by index,
        # class and window: q 12, then q 25/2 over the same indices, then an
        # index-7 table at trunc 20 must give the bytes of fresh processes,
        # with --jobs 2 as with --jobs 1, and every system row and assembled
        # form built on a warm cache must be the oracle's store.  A key that
        # drops the window reuses a shorter series: the checks still pass on
        # the shorter window, so only the stores show it
        def checked(build, oracle):
            def wrapper(h, arg):
                result = build(h, arg)
                assert_same_store(result, oracle(h, arg))
                return result
            return wrapper

        monkeypatch.setattr(jacobi, "component_taylor",
                            checked(jacobi.component_taylor, oracle_component_taylor))
        monkeypatch.setattr(jacobi, "from_theta_components",
                            checked(jacobi.from_theta_components, oracle_from_theta_components))
        table = tmp_path / "phi.jacobi"
        table.write_text(perfbench_workloads().jacobi_table(random.Random(0)))
        base = ("verify-identities", "--m", "3..7", "--trials", "2", "--seed", "4",
                "--format", "json")
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        for extra in (("--q-trunc", "12"), ("--q-trunc", "25/2"),
                      ("--q-trunc", "12", "--jacobi-file", str(table))):
            fresh = subprocess.run([sys.executable, "-m", "qtheta.cli", *base, *extra],
                                   capture_output=True, env=env, timeout=120)
            assert fresh.returncode == 0, fresh.stderr
            for jobs in ("1", "2"):
                out = tmp_path / f"identities-jobs{jobs}.json"
                assert run_cli(*base, *extra, "--jobs", jobs, "--output", str(out)) == 0
                assert out.read_bytes() == fresh.stdout

    @pytest.mark.parametrize("fault, failure", [
        ("scaled", "check=two_path_taylor"), ("below_window", "check=two_path_taylor"),
        ("at_window", None), ("past_window", None)])
    def test_two_path_check_catches_a_faulty_row(self, fault, failure, monkeypatch, tmp_path):
        # the two-path check of index 4's first tuple sees its row 2 faulty
        # (the Cramer check still solves the true rows): scaled by 2, or with
        # a term below the window, the record names the two-path check; a
        # term at or past the window, on a window raised one past it, is not
        # compared, and the run writes the bytes of a clean run
        two_path_taylor = jacobi.two_path_taylor
        calls = []

        def faulty(moment, row, nu, m):
            calls.append((m, nu))
            if (m, nu) == (4, 2) and calls.count((4, 2)) == 1:
                d = row.base_denom
                if fault == "scaled":
                    row = 2 * row
                else:
                    key = {"below_window": 7, "at_window": 6 * d, "past_window": 6 * d + 1}[fault]
                    row = PuiseuxSeries({**row.terms, F(key, d): F(1, 7)},
                                        row.trunc + (fault != "below_window"), d)
            return two_path_taylor(moment, row, nu, m)

        argv = ("verify-identities", "--m", "3..5", "--q-trunc", "6", "--trials", "2",
                "--seed", "3", "--format", "json")
        clean = tmp_path / "clean.json"
        assert run_cli(*argv, "--output", str(clean)) == 0
        monkeypatch.setattr(jacobi, "two_path_taylor", faulty)
        out = tmp_path / "report.json"
        code = run_cli(*argv, "--output", str(out))
        # a clean run checks two random tuples and the kernel tuple; a failed
        # row ends the run at the first tuple, before any other is checked
        assert calls.count((4, 2)) == (3 if failure is None else 1)
        if failure is None:
            assert code == 0 and out.read_bytes() == clean.read_bytes()
        else:
            assert code == 1
            assert json.loads(out.read_text())["failure"] == \
                f"identity check failed: m=4 case=random_0 {failure}"

    def test_first_failing_check_in_report_order(self, monkeypatch, tmp_path):
        # row 2 of index 4's first tuple doubled: its two-path row fails, and
        # the Cramer check, which solves the same faulty rows and comes after
        # it in the report, does not run on that tuple to preempt it
        component_taylor = jacobi.component_taylor
        first = []

        def faulty(h, nu):
            row = component_taylor(h, nu)
            if h.index_m == 4 and not first:
                first.append(h)
            if first and h is first[0] and nu == 2:
                assert not row.is_zero()
                row = 2 * row
            return row

        monkeypatch.setattr(jacobi, "component_taylor", faulty)
        out = tmp_path / "report.json"
        code = run_cli("verify-identities", "--m", "3..5", "--q-trunc", "6", "--trials", "2",
                       "--seed", "3", "--format", "json", "--output", str(out))
        assert code == 1
        assert json.loads(out.read_text())["failure"] == \
            "identity check failed: m=4 case=random_0 check=two_path_taylor"

    @staticmethod
    def recorded_draws(monkeypatch) -> list:
        """The random tuples of the next run, in draw order, as they are drawn."""
        draws = []
        random_components = jacobi.random_components
        monkeypatch.setattr(jacobi, "random_components",
                            lambda *args: draws.append(random_components(*args)) or draws[-1])
        return draws

    def identities_failure(self, tmp_path, *argv) -> str:
        out = tmp_path / "report.json"
        assert run_cli("verify-identities", "--m", "3", "--q-trunc", "6", *argv,
                       "--format", "json", "--output", str(out)) == 1
        return json.loads(out.read_text())["failure"]

    def test_earlier_tuple_fails_before_a_later_cramer_solve(self, monkeypatch, tmp_path):
        # random_0's row 1 doubled fails its two-path check, and the Cramer
        # solve of random_1 raises: the record names random_0's row, which
        # comes first in the report, and random_1 is never solved
        draws = self.recorded_draws(monkeypatch)
        component_taylor = jacobi.component_taylor

        def faulty_row(h, nu):
            row = component_taylor(h, nu)
            if h is draws[0] and nu == 1:
                assert not row.is_zero()
                row = 2 * row
            return row

        def faulty_solve(m, h, q_trunc, system):
            assert h is draws[1]
            raise cli.VerificationFailed("m=3 mu=1: adjugate identity fails at exponent 0")

        monkeypatch.setattr(jacobi, "component_taylor", faulty_row)
        monkeypatch.setattr(wronskian, "cramer_reconstruction", faulty_solve)
        assert self.identities_failure(tmp_path, "--trials", "2") == \
            "identity check failed: m=3 case=random_0 check=two_path_taylor"

    def test_cramer_failure_names_its_tuple(self, monkeypatch, tmp_path):
        # random_1's row 1 doubled in the system the Cramer check solves (its
        # two-path check saw the true rows): the adjugate identity fails
        draws = self.recorded_draws(monkeypatch)
        cramer_reconstruction = wronskian.cramer_reconstruction

        def faulty(m, h, q_trunc, system):
            if h is draws[1]:
                system = [2 * system[0], *system[1:]]
            return cramer_reconstruction(m, h, q_trunc, system)

        monkeypatch.setattr(wronskian, "cramer_reconstruction", faulty)
        assert self.identities_failure(tmp_path, "--trials", "2") == \
            ("identity check failed: m=3 case=random_1 check=cramer: "
             "m=3 mu=1: adjugate identity fails at exponent 4/3")

    def test_kernel_proportionality_failure_is_a_record(self, monkeypatch, tmp_path):
        # eta^lam times (1 + q) is no longer proportional, term for term, to
        # the kernel tuple's cofactor times top row
        eta_power = wronskian.eta_power
        monkeypatch.setattr(wronskian, "eta_power", lambda q_trunc, lam: (
            eta_power(q_trunc, lam) * PuiseuxSeries({0: 1, 1: 1}, math.inf)))
        assert self.identities_failure(tmp_path, "--trials", "0") == \
            ("identity check failed: m=3 case=kernel check=cramer: "
             "m=3 mu=1: component proportionality fails at exponent 7/4")

    def test_jacobi_file_ingestion(self, tmp_path):
        phi = from_orbit_values(3, 2, 1, 8, {(1, 7): F(1)})
        table = tmp_path / "form.jacobi"
        table.write_text(dump_jacobi_table(phi))
        out = tmp_path / "identities.json"
        code = run_cli("verify-identities", "--m", "3..3", "--q-trunc", "6",
                       "--trials", "1", "--jacobi-file", str(table),
                       "--format", "json", "--output", str(out))
        assert code == 0
        rows = json.loads(out.read_text())["results"]["identities"]
        assert any(row["case"] == "jacobi_file" for row in rows)

    @staticmethod
    def assert_table_rejected(tmp_path, capsys, text, message):
        table = tmp_path / "bad.jacobi"
        if text is not None:
            table.write_text(text)
        with pytest.raises(SystemExit) as exit_info:
            run_cli("verify-identities", "--m", "3..3", "--q-trunc", "6",
                    "--trials", "1", "--jacobi-file", str(table),
                    "--output", str(tmp_path / "x.json"))
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "usage: qtheta" in err and message in err
        assert not (tmp_path / "x.json").exists()

    def test_invalid_jacobi_file_rejected(self, tmp_path, capsys):
        self.assert_table_rejected(tmp_path, capsys, "k=3 m=2 N=1 trunc=4/1\n1 1 1/1\n",
                                   "odd symmetry fails")

    def test_jacobi_header_without_trunc_rejected(self, tmp_path, capsys):
        self.assert_table_rejected(tmp_path, capsys, "k=3 m=2 N=1\n",
                                   "header has no trunc= field")

    def test_missing_jacobi_file_rejected(self, tmp_path, capsys):
        self.assert_table_rejected(tmp_path, capsys, None, "No such file")

    def test_index_1_jacobi_file_rejected(self, tmp_path, capsys):
        self.assert_table_rejected(tmp_path, capsys, "k=3 m=1 N=1 trunc=3/1\n",
                                   "--jacobi-file " + str(tmp_path / "bad.jacobi")
                                   + ": index m=1 has no odd theta component to check")

    def test_all_zero_jacobi_file_rejected(self, tmp_path, capsys):
        # a header-only table passes every invariant, but its components are
        # zero, so each identity would compare zero series
        self.assert_table_rejected(tmp_path, capsys, "k=3 m=7 N=1 trunc=4/1\n",
                                   "--jacobi-file " + str(tmp_path / "bad.jacobi")
                                   + ": every coefficient is zero, so every check "
                                   "would compare zero series")

    @pytest.mark.parametrize("text, message", [
        ("k=3 m=7 N=1 trunc=4/1\n\n0 0\n",
         "line 3 '0 0': not enough values to unpack (expected 3, got 2)"),
        ("k=3 m=7 N=1 trunc=4/1\n1 x 1/2\n",
         "line 2 '1 x 1/2': invalid literal for int() with base 10: 'x'"),
        ("k3 m=7 N=1 trunc=4/1\n",
         "line 1 'k3 m=7 N=1 trunc=4/1': dictionary update sequence element #0 has length 1"),
        ("\nk=3 m=7 N=1 trunc=x\n", "line 2 'k=3 m=7 N=1 trunc=x': invalid literal for int()"),
        ("k=3 m=2 N=1 trunc=4/1\n1 1 1/1\n1 -1 -1/1\n  \n1 3 1/0\n",
         "line 5 '1 3 1/0': zero denominator in '1/0'"),
        ("k=3 m=7 trunc=4/1\n", "line 1 'k=3 m=7 trunc=4/1': header has no N= field"),
        # kept, the last value of each row would validate as c(1, +/-1) = +/-5
        ("k=3 m=2 N=1 trunc=2/1\n1 1 1/1\n1 -1 -1/1\n1 1 5/1\n1 -1 -5/1\n",
         "line 4 '1 1 5/1': c(1,1) is repeated"),
    ], ids=["short-row", "bad-int", "bad-header", "bad-trunc", "zero-denominator", "no-level",
            "repeated-row"])
    def test_malformed_jacobi_line_named(self, text, message, tmp_path, capsys):
        # the record names the line, counted with the blank lines, and its text
        self.assert_table_rejected(tmp_path, capsys, text,
                                   "--jacobi-file " + str(tmp_path / "bad.jacobi")
                                   + ": " + message)

    def test_jacobi_file_too_short_for_its_index_rejected(self, tmp_path, capsys):
        # at trunc 1 every cofactor window of index 7 is 1, below the orders
        # 66/28..90/28, so the Cramer rows would compare empty series and
        # pass without checking anything
        self.assert_table_rejected(tmp_path, capsys, "k=3 m=7 N=1 trunc=1/1\n",
                                   "--jacobi-file " + str(tmp_path / "bad.jacobi")
                                   + ": trunc=1 is too short for its index: m=7 nu=1: "
                                   "window 1 cannot reach cofactor order 45/14")

    @pytest.mark.parametrize("trunc, status", [("9/7", 2), ("4/3", 0)])
    def test_jacobi_file_window_rule_is_the_top_index_rule(self, trunc, status, tmp_path):
        # a table's cofactor windows follow --q-trunc's rule for the top
        # index: index 7 needs a window past (7-1)^2/28 = 9/7
        phi = from_orbit_values(3, 7, 1, F(trunc), {(1, 27): F(1)})
        assert phi.coeffs  # c(1, 1) = 1: a table of one orbit, not all zero
        table = tmp_path / "one-orbit.jacobi"
        table.write_text(dump_jacobi_table(phi))
        out = tmp_path / "identities.json"
        try:
            code = run_cli("verify-identities", "--m", "3", "--q-trunc", "6", "--trials", "0",
                           "--jacobi-file", str(table), "--format", "json", "--output", str(out))
        except SystemExit as error:
            code = error.code
        assert code == status
        assert out.exists() == (status == 0)

    def test_numerators_past_the_int_str_digit_limit(self, tmp_path, jobs="1"):
        # every value of a valid table scaled by 10**4300, written as text so
        # the test itself converts no long int; each numerator then has more
        # digits than CPython converts between int and str by default
        phi = from_orbit_values(
            3, 3, 1, 8, {(1, 11): F(2, 3), (2, 8): F(-1), (1, 23): F(5, 2)})
        header, *lines = dump_jacobi_table(phi).splitlines()
        scaled = [header]
        for line in lines:
            n, r, c = line.split()
            num, den = c.split("/")
            scaled.append(f"{n} {r} {num}{'0' * 4300}/{den}")
        table = tmp_path / "scaled.jacobi"
        table.write_text("\n".join(scaled) + "\n")
        out = tmp_path / "identities.json"
        default = getattr(sys, "get_int_max_str_digits", lambda: None)()
        if default is not None:
            sys.set_int_max_str_digits(4300)
        try:
            code = run_cli("verify-identities", "--m", "3..3", "--q-trunc", "6",
                           "--trials", "1", "--jacobi-file", str(table),
                           "--format", "json", "--output", str(out), "--jobs", jobs)
        finally:
            if default is not None:
                sys.set_int_max_str_digits(default)
        assert code == 0
        rows = json.loads(out.read_text())["results"]["identities"]
        assert [row["check"] for row in rows if row["case"] == "jacobi_file"] == [
            "two_path_taylor", "kernel_equivalence", "cramer"]
        assert all(row["ok"] for row in rows)

    def test_numerators_past_the_int_str_digit_limit_with_two_jobs(self, tmp_path):
        # the forked workers inherit the limit that main lifted
        self.test_numerators_past_the_int_str_digit_limit(tmp_path, jobs="2")

    @pytest.mark.parametrize("m, n_trunc", [(3, 8), (7, 20)])
    def test_jacobi_file_report_independent_of_weight(self, m, n_trunc, tmp_path):
        # the kernel equivalence holds for every odd k, so one table's rows
        # under the headers k = 3, 5, 7 and 9 give one report: the fact that
        # left the random tuples no weight option
        reports, rows = set(), set()
        for k in (3, 5, 7, 9):
            text = perfbench_workloads().jacobi_table(random.Random(0), m, n_trunc, k)
            assert text.startswith(f"k={k} m={m} ")
            rows.add(text.split("\n", 1)[1])
            table = tmp_path / f"k{k}.jacobi"
            table.write_text(text)
            out = tmp_path / f"k{k}.json"
            assert run_cli("verify-identities", "--m", "3", "--q-trunc", "6", "--trials", "0",
                           "--jacobi-file", str(table), "--format", "json",
                           "--output", str(out)) == 0
            reports.add(out.read_bytes())
        assert len(rows) == 1 and len(reports) == 1
        checks = [row["check"] for row in json.loads(reports.pop())["results"]["identities"]
                  if row["case"] == "jacobi_file"]
        assert checks == ["two_path_taylor", "kernel_equivalence", "cramer"]

    def test_jacobi_file_parsed_before_cases(self, tmp_path):
        phi = from_orbit_values(3, 2, 1, 8, {(1, 7): F(1)})
        table = tmp_path / "form.jacobi"
        table.write_text(dump_jacobi_table(phi))
        args = cli.config_from_args(cli.build_parser().parse_args(
            ["verify-identities", "--m", "2", "--trials", "0", "--jacobi-file", str(table)]))
        assert dump_jacobi_table(args.jacobi_form) == dump_jacobi_table(phi)
        table.unlink()  # the cases read the parsed table, not the file
        assert cli.run(args) == 0


class TestClassifyAndSweep:
    def test_classify_json(self, tmp_path):
        out = tmp_path / "verdict.json"
        code = run_cli("classify", "--k", "3", "--m", "5", "--N", "1",
                       "--format", "json", "--output", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        verdict = doc["results"]["verdicts"][0]
        assert (verdict["part_i"], verdict["part_ii"], verdict["part_iii"]) == \
            (False, True, True)
        assert doc["parameters"] == {"q_trunc": "12/1", "seed": 0, "trials": 5}

    def test_false_window_flag_fails_classify(self, monkeypatch, tmp_path):
        monkeypatch.setattr(injectivity, "classify", lambda case: classify(case)._replace(window_ok=False))
        out = tmp_path / "verdict.json"
        code = run_cli("classify", "--k", "3", "--m", "5", "--N", "1",
                       "--format", "json", "--output", str(out))
        assert code == 1
        assert json.loads(out.read_text())["failure"] == \
            "window check failed for accepted case k=3 m=5"

    def test_sweep_reports_discrepancy_without_failing(self, tmp_path):
        out = tmp_path / "sweep.json"
        code = run_cli("sweep", "--k", "3..5", "--m", "4..8", "--N", "1,6,4",
                       "--format", "json", "--output", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["all_passed"] is True
        integrality = {row["m"]: row["discrepancy"]
                       for row in doc["results"]["nonintegrality"]}
        assert integrality == {4: False, 5: False, 6: True, 7: False, 8: False}

    def test_sweep_offset_grid(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli("sweep", "--k", "3..5", "--m-offset", "2..4", "--N", "1",
                       "--format", "csv", "--output", str(out))
        assert code == 0
        lines = [ln for ln in out.read_text().splitlines()
                 if ln and not ln.startswith("#")]
        # header + 2 odd weights * 3 offsets for verdicts, plus integrality table
        assert lines[0].startswith("k,m,N,")

    def test_sweep_rows_and_one_squarefree_test_per_level(self, monkeypatch, tmp_path):
        levels = (4, 6, 1, 9, 2)  # every class, and later levels of two of them
        tested = []
        squarefree = injectivity.is_squarefree
        monkeypatch.setattr(injectivity, "is_squarefree",
                            lambda n: tested.append(n) or squarefree(n))
        args = cli.config_from_args(cli.build_parser().parse_args(
            ["sweep", "--k", "3..21", "--m-offset", "1..20", "--N", "4,6,1,9,2"]))
        tables, _, _ = cli.HANDLERS["sweep"](args)
        assert tested == list(levels)
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--k", "3..21", "--m-offset", "1..20", "--N", "4,6,1,9,2",
                       "--format", "csv", "--output", str(out)) == 0
        assert tested == 2 * list(levels)  # once per level per sweep
        keys, rows = tables["verdicts"]
        assert keys == CaseVerdict._fields + ("discrepancy_flags",)
        assert rows == [classify(CaseInput(k, m, N)) + ("",)
                        for k in range(3, 22, 2) for m in range(k + 1, k + 21) for N in levels]
        assert all(type(row) is tuple for row in rows)

    def test_false_window_flags_fail_the_sweep(self, monkeypatch, tmp_path):
        # N = 4 is not square-free, so k=3 m=5 N=4 accepts no part and has
        # no window to fail; N = 6 is the first accepted row of the grid
        fields_of = injectivity._class_fields
        monkeypatch.setattr(injectivity, "_class_fields", lambda k, m, keys: {
            key: CaseVerdict(k, m, 0, *fields)._replace(window_ok=False)[3:]
            for key, fields in fields_of(k, m, keys).items()})
        out = tmp_path / "sweep.json"
        code = run_cli("sweep", "--k", "3", "--m", "5..7", "--N", "4,6,1",
                       "--format", "json", "--output", str(out))
        assert code == 1
        record = json.loads(out.read_text())
        assert record["failure"] == "window check failed for accepted case k=3 m=5 N=6"

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QTHETA_OUTPUT_DIR", str(tmp_path / "reports"))
        code = run_cli("classify", "--k", "3", "--m", "7", "--N", "1",
                       "--format", "json")
        assert code == 0
        assert (tmp_path / "reports" / "classify.json").exists()

"""The README's library quick start runs as it stands, and each command
its exit-status section names exits as it says."""

import os
import re
from pathlib import Path

import pytest

from qtheta.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_block_runs():
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert blocks, "the library quick start has no python block"
    exec(compile(blocks[0], f"{README.name} quick start", "exec"), {})


# each command the exit-status section names: (its text there, with DIR for
# a dump directory, the command it belongs to, its exit status)
EXIT_STATUSES = [
    ("verify-orders --m 64 --q-trunc 12 --dump-series DIR", (), 2),
    ("verify-orders --m 2 --q-trunc 1/8 --dump-series DIR", (), 2),
    ("--m 12 --q-trunc 121/48 --dump-series DIR", ("verify-orders",), 2),
    ("--m 4000 --q-trunc 12 --dump-series DIR", ("verify-orders",), 2),
    ("--m 12 --q-trunc 253/100 --dump-series DIR", ("verify-orders",), 0),
    ("verify-orders --m 64 --q-trunc 12", (), 0),
    ("verify-identities --m 3..16 --q-trunc 12", (), 0),
    ("--q-trunc 100000000000000000000/3", ("verify-identities", "--m", "3"), 2),
    ("--output /dev/full", ("verify-wronskian", "--m", "2..3", "--q-trunc", "4"), 2),
]


@pytest.mark.parametrize("text, command, status", EXIT_STATUSES,
                         ids=[text for text, _, _ in EXIT_STATUSES])
def test_exit_status_examples(text, command, status, tmp_path, capsys):
    section = README.read_text()
    section = " ".join(section[section.index("Exit status is 0"):].split())
    assert f"`{text}`" in section
    if text.endswith("/dev/full") and not os.path.exists("/dev/full"):
        pytest.skip("needs /dev/full")
    report, dumps = tmp_path / "report.txt", tmp_path / "dumps"
    argv = [*command, *text.replace("DIR", str(dumps)).split()]
    if "--output" not in argv:
        argv += ["--output", str(report)]
    try:
        code = main(argv)
    except SystemExit as error:
        code = error.code
    assert code == status, capsys.readouterr().err
    assert report.exists() == (status == 0)
    assert dumps.exists() == (status == 0 and "DIR" in text)

"""The README's library quick start runs as it stands."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_block_runs():
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert blocks, "the library quick start has no python block"
    exec(compile(blocks[0], f"{README.name} quick start", "exec"), {})

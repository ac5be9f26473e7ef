"""The README's library quick tour runs as written, so a documented call
cannot silently break when a signature changes."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_tour_runs(capsys):
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("## Library quick tour") :]
    block = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    exec(compile(block, f"{README}:quick-tour", "exec"), {})
    assert "reached_target" in capsys.readouterr().out

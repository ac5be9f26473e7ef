"""The README's library quick tour and its ``branch`` config run as written,
so a documented call or config key cannot silently break when a signature
or the accepted keys change."""

import json
import re
from pathlib import Path

from torusbif.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_tour_runs(capsys):
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("## Library quick tour") :]
    block = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    exec(compile(block, f"{README}:quick-tour", "exec"), {})
    assert "reached_target" in capsys.readouterr().out


def test_branch_config_runs(tmp_path, capsys):
    text = README.read_text(encoding="utf-8")
    section = text[text.index("A config for `branch` adds a `galerkin` block") :]
    config = tmp_path / "branch.json"
    config.write_text(re.search(r"```json\n(.*?)```", section, re.S).group(1), encoding="utf-8")
    assert main(["branch", "--config", str(config), "--out", str(tmp_path / "branch.csv")]) == 0
    assert json.loads(capsys.readouterr().out)["outcome"] == "reached_target"

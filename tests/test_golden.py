"""Exact CLI outputs pinned by SHA-256.

``golden_cli.json`` holds four configs (the README's S^2 x S^2 run, S^2 with
three equations, S^2 x S^3 at a fractional cutoff, a rank-2 generic space)
and the digest of every ``index`` and ``certify`` output in each format plus
``spectrum --format json``.  The digests were recorded from the per-level
implementation that the one-pass sweep replaced; a change to them is a change
to the program's output and is never made to get a test passing.
"""

import hashlib
import json
from pathlib import Path

import pytest

from torusbif.cli import main

GOLDEN = json.loads((Path(__file__).parent / "golden_cli.json").read_text())


@pytest.mark.parametrize(
    "case",
    GOLDEN["cases"],
    ids=lambda c: f"{c['config']}-{c['command']}-{c['format']}",
)
def test_exact_output_matches_golden_digest(tmp_path, case):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(GOLDEN["configs"][case["config"]]))
    out = tmp_path / "out"
    code = main([case["command"], "--config", str(cfg), "--format", case["format"], "--out", str(out)])
    assert code == case["exit"]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == case["sha256"]

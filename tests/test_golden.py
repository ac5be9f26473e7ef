"""Exact CLI outputs pinned by SHA-256.

``golden_cli.json`` first held four configs (the README's S^2 x S^2 run, S^2 with
three equations, S^2 x S^3 at a fractional cutoff, a rank-2 generic space)
and the digest of every ``index`` and ``certify`` output in each format plus
``spectrum --format json``.  The digests were recorded from the per-level
implementation that the one-pass sweep replaced; a change to them is a change
to the program's output and is never made to get a test passing.

The sixteen cases for ``spectrum --format csv|pretty`` and ``decompose
--format json|pretty`` were added later, recorded from the per-command
renderers that the CLI's format table replaced, so that every exact command
and format is pinned on every config.

The fifth config, (S^2)^3 with three equations, adds the eleven digests of a
rank-3 space, recorded before the range functions were changed to hold one
eigenvalue at a time and the per-alpha weight maps lost their cache.
"""

import hashlib
import json
from pathlib import Path

import pytest

from torusbif.cli import COMMANDS, main

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


def test_every_exact_format_has_a_digest_on_every_config():
    pinned = {(c["config"], c["command"], c["format"]) for c in GOLDEN["cases"]}
    wanted = {
        (config, command, fmt)
        for config in GOLDEN["configs"]
        for command, entry in COMMANDS.items()
        if entry.compute is not None
        for fmt in entry.renderers
    }
    assert sorted(wanted - pinned) == []

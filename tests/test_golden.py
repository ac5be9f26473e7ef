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

The twelve CSV digests of the four rank >= 2 configs were re-recorded when
the CSV writer began to double-quote a field holding a comma: before that,
weight ids such as ``H[0,1]`` split their rows into extra fields.  Every
other digest is unchanged by that fix.
"""

import csv
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


@pytest.mark.parametrize("config", GOLDEN["configs"])
def test_every_csv_row_is_as_wide_as_its_header(tmp_path, config):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(GOLDEN["configs"][config]))
    for command, entry in COMMANDS.items():
        if entry.compute is None or "csv" not in entry.renderers:
            continue
        out = tmp_path / f"{command}.csv"
        main([command, "--config", str(cfg), "--format", "csv", "--out", str(out)])
        header, *rows = csv.reader(out.read_text(encoding="utf-8").splitlines())
        assert rows, command
        assert [len(row) for row in rows] == [len(header)] * len(rows), command


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

"""Every config ends in an answer or a one-line refusal.

Each case starts from a golden config (the five exact ones of
``golden_cli.json`` and a small branch run), replaces one field, at any depth,
with a hostile value, and runs one command on it through ``cli.main``
in-process.  An exception other than the two ``main`` turns into exit codes
fails the test with its traceback.  The hostile values are ones the
preflights refuse cheaply or that run quickly.  A cutoff is refused before
anything large is built when its lattice box holds more than
``spaces.LATTICE_LIMIT`` points, and ``spectrum``, ``decompose`` and
``index`` refuse one that admits more than ``spaces.HARMONIC_LIMIT``
harmonics; ``test_cli`` checks that refusal on (S^2)^3 at cutoffs 400 and
800, which once ended in a ``MemoryError`` traceback.  A value under both
limits that runs long (``certify`` walks a box of up to 10**6 points) is
not a hostile input but a large one.
"""

import io
import json
import re
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusbif.cli import main

GOLDEN = json.loads((Path(__file__).parent / "golden_cli.json").read_text())["configs"]
BRANCH = {
    "space": {"kind": "sphere", "n": 2},
    "a": [-1],
    "galerkin": {"K": 8, "nl": "quartic", "crossing": 2, "target_norm": 1.0, "isotropy_restriction": "axisymmetric"},
}
CONFIGS = {name: (config, ("spectrum", "decompose", "index", "certify")) for name, config in GOLDEN.items()}
CONFIGS["branch"] = (BRANCH, ("branch",))

HOSTILE = [
    # huge and tiny rationals
    "1e400",
    "-1e400",
    "1e300",
    "1e4300",  # 10**4300 has 4301 digits, one more than Python prints
    "-1e4300",
    "1e-4300",
    10**22,
    {"num": 10**22, "den": 1},
    "1e-30",
    {"num": 1, "den": 10**22},
    # not numbers, or not finite ones (json writes NaN and Infinity)
    float("nan"),
    float("inf"),
    float("-inf"),
    "nan",
    True,
    False,
    None,
    # nested and empty containers
    [[[]]],
    [[1, [2]], {"num": 1}],
    {},
    [],
    "",
    # long strings
    "x" * 10_000,
    "9" * 5_000,
]
CASE_SECONDS = 2.0  # each case ends within this


def _paths(node, prefix=()):
    """Every field of a config, at any depth: dict keys and list indices."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _replaced(config, path, value):
    config = json.loads(json.dumps(config))
    node = config
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return config


# (config, command, field) triples; a branch K may also be 10**6, which is
# refused before any work
CASES = [
    (name, command, path)
    for name, (config, commands) in CONFIGS.items()
    for command in commands
    for path in _paths(config)
]


@st.composite
def hostile_cases(draw):
    name, command, path = draw(st.sampled_from(CASES))
    values = HOSTILE + [10**6] if path == ("galerkin", "K") else HOSTILE
    return name, command, path, draw(st.sampled_from(values))


def _check_answer_or_refusal(name, command, path, value):
    """Run ``command`` on config ``name`` with ``value`` at ``path``: it ends
    in time in an answer or a one-line refusal, and never repeats Python's
    int-to-text error."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        config, out_file = Path(tmp, "config.json"), Path(tmp, "out")
        config.write_text(json.dumps(_replaced(CONFIGS[name][0], path, value)), encoding="utf-8")
        started = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([command, "--config", str(config), "--out", str(out_file)])
        elapsed = time.perf_counter() - started
        answered = out_file.exists()
    out, err = out.getvalue(), err.getvalue()
    assert elapsed < CASE_SECONDS
    assert code in (0, 1, 2)
    assert "Exceeds the limit" not in err  # Python's int-to-text refusal is never repeated
    if answered:
        # certify's failed levels and a diverged branch are written out and
        # exit 1, the branch with one error line saying why
        assert code == 0 or command in ("certify", "branch")
        assert err == "" or (command == "branch" and re.fullmatch(r"error: [^\n]*\n", err))
    else:
        # a refusal writes nothing but one error line
        assert code in (1, 2) and out == ""
        assert re.fullmatch(r"error: [^\n]*\n", err), err


@settings(max_examples=200, deadline=None)
@given(hostile_cases())
def test_a_hostile_field_ends_in_an_answer_or_a_one_line_refusal(case):
    _check_answer_or_refusal(*case)


# the values past Python's limit on printing an int, or that build one
HUGE = ["1e4300", "-1e4300", "1e-4300", 10**400, -(10**400)]


@pytest.mark.parametrize("value", HUGE, ids=["1e4300", "-1e4300", "1e-4300", "10**400", "-10**400"])
def test_a_huge_value_in_any_field_ends_in_an_answer_or_a_one_line_refusal(value):
    # every (config, command, field) case, not a sample: a fault confined to
    # a few fields is seen on every run
    for name, command, path in CASES:
        try:
            _check_answer_or_refusal(name, command, path, value)
        except AssertionError as failed:
            raise AssertionError(f"{command} on {name} with {path} = {value!r:.40}") from failed

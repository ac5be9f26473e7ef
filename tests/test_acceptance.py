"""Acceptance suite: one test per criterion, each printing its pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines, or ``torusbif selftest`` for the same sweeps outside pytest.
"""

import pytest

from torusbif import selftest

# The case counts of the two slowest sweeps, pinned so that no speed-up can
# shrink what they cover.
EXPECTED_DETAIL = {
    "coefficient-formula": "1620 coefficient identities, 10530 vanishing checks",
    "euler-ring-axioms": "10000 randomized cases per law",
}


@pytest.mark.parametrize(
    "criterion",
    selftest.CRITERIA,
    ids=[fn.__name__.removeprefix("criterion_") for fn in selftest.CRITERIA],
)
def test_criterion(criterion):
    result = criterion(seed=0)
    print(selftest.format_result(result), end="")
    assert result.passed, f"{result.slug}: {result.detail}"
    if result.slug in EXPECTED_DETAIL:
        assert result.detail == EXPECTED_DETAIL[result.slug]

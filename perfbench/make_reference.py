"""Rebuild ``reference.json`` from the outputs of the current checkout.

    python3 perfbench/make_reference.py

Runs every workload's commands once at seed 0 and stores what the checks
compare against: SHA-256 and seed-invariant digest of each exact output, and
outcome, step count and final state of each branch.  Regenerate only when a
change to the program's output has been reviewed and accepted.
"""

from __future__ import annotations

import json
import shutil
import sys

sys.dont_write_bytecode = True  # keep perfbench/ free of __pycache__
from run import OUT_ROOT, Runner  # noqa: E402
from workloads import REFERENCE_PATH, WORKLOADS, describe  # noqa: E402


def main() -> int:
    workdir = OUT_ROOT / "reference"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    runner = Runner(workdir, {})
    reference = {}
    for name, workload in WORKLOADS.items():
        reference[name] = {}
        for cmd in workload.commands(0):
            output = runner.execute(cmd, False)[0]
            if output.code != 0:
                print(f"error: {name} {cmd.kind} exited with {output.code}", file=sys.stderr)
                return 1
            reference[name][cmd.kind] = describe(cmd, output)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

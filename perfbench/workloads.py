"""The four benchmark workloads: their CLI commands, their inputs made from the
workload seed, and the check that each command's output is correct.

Exact workloads permute the order of the sphere factors and of the signature
entries with the seed; seed 0 keeps the listed order.  A permutation leaves
the work unchanged, so every seed is checked against one seed-invariant
digest, and a config equal to the stored one is also checked byte for byte
by SHA-256.  The branch workloads are deterministic and ignore the seed;
``selftest`` passes it on as ``selftest --seed``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Relative tolerance on the final lambda and h1 norm of a branch run.  Newton
# stops at a residual of 1e-10, so 1e-6 admits summation-order changes in the
# transforms while still catching a different branch or a different path.
BRANCH_RTOL = 1e-6


@dataclass(frozen=True)
class Output:
    """What one command left behind: exit code, stdout and the --out file."""

    code: int
    stdout: bytes
    out: bytes


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a workload.  ``args`` excludes --config/--out,
    which the runner adds; ``kind`` names the subcommand and selects the
    correctness check."""

    kind: str
    args: tuple[str, ...]
    config: dict | None = None


@dataclass(frozen=True)
class Workload:
    """A named set of commands built from the seed; ``seeded`` is False
    when the commands ignore it."""

    name: str
    commands: Callable[[int], tuple[Command, ...]]
    seeded: bool = True


def _permuted(items: list, seed: int) -> list:
    items = list(items)
    if seed != 0:
        random.Random(seed).shuffle(items)
    return items


def _exact_levels(seed: int) -> tuple[Command, ...]:
    config = {
        "space": {"kind": "product", "factors": _permuted([2, 2], seed)},
        "a": _permuted([1, 1, -1], seed),
        "cutoff": 80,
    }
    return (
        Command("index", ("index", "--format", "json"), config),
        Command("certify", ("certify", "--format", "json"), config),
    )


def _branch(K: int, crossing: int, restriction: str | None):
    galerkin = {"K": K, "nl": "quartic", "crossing": crossing, "target_norm": 5}
    if restriction is not None:
        galerkin["isotropy_restriction"] = restriction
    config = {"space": {"kind": "sphere", "n": 2}, "a": [-1], "galerkin": galerkin}

    def commands(seed: int) -> tuple[Command, ...]:
        return (Command("branch", ("branch",), config),)

    return commands


def _selftest(seed: int) -> tuple[Command, ...]:
    return (Command("selftest", ("selftest", "--seed", str(seed))),)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("exact-levels", _exact_levels),
        Workload("branch-axisym", _branch(24, 2, "axisymmetric"), seeded=False),
        Workload("branch-full", _branch(16, 0, None), seeded=False),
        Workload("selftest", _selftest),
    )
}


# ---------------------------------------------------------------------------
# seed-invariant digests of the exact outputs
# ---------------------------------------------------------------------------


def _frac(d: dict) -> list[int]:
    return [d["num"], d["den"]]


def _digest_index(doc: dict) -> list:
    return [
        [
            *_frac(bl["level"]),
            bl["kernel_dim"],
            bl["index"]["unit"],
            sorted(e["c"] for e in bl["index"]["codim1"]),
        ]
        for bl in doc["levels"]
    ]


def _digest_certify(doc: dict) -> dict:
    return {
        "certificates": [
            [*_frac(c["level"]), sum(e["coeff"] for e in c["ledger"])] for c in doc["certificates"]
        ],
        "skipped": len(doc["skipped"]),
        "failures": len(doc["failures"]),
        "all_certified": doc["all_certified"],
    }


DIGESTS = {"index": _digest_index, "certify": _digest_certify}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def exact_digest(kind: str, out: bytes) -> str:
    doc = json.loads(out)
    return sha256(json.dumps(DIGESTS[kind](doc), separators=(",", ":")).encode())


# ---------------------------------------------------------------------------
# correctness checks
# ---------------------------------------------------------------------------


def describe(command: Command, output: Output) -> dict:
    """The reference entry this output would produce, used to build
    ``reference.json`` from a trusted run."""
    if command.kind in DIGESTS:
        return {
            "config": command.config,
            "sha256": sha256(output.out),
            "digest": exact_digest(command.kind, output.out),
        }
    if command.kind == "branch":
        summary = json.loads(output.stdout)
        return {
            "outcome": summary["outcome"],
            "steps": summary["steps"],
            "lambda": summary["final"]["lambda"],
            "h1_norm": summary["final"]["h1_norm"],
        }
    return {}


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= BRANCH_RTOL * max(1.0, abs(want))


def check(command: Command, output: Output, reference: dict) -> str | None:
    """None when the output is correct, else a one-line reason."""
    if output.code != 0:
        return f"exit code {output.code}"
    try:
        if command.kind in DIGESTS:
            if command.config == reference["config"] and sha256(output.out) != reference["sha256"]:
                return "SHA-256 differs from the reference output"
            if exact_digest(command.kind, output.out) != reference["digest"]:
                return "seed-invariant digest differs from the reference"
            return None
        if command.kind == "branch":
            summary = json.loads(output.stdout)
            if summary["outcome"] != "reached_target":
                return f"outcome {summary['outcome']}"
            if summary["steps"] != reference["steps"]:
                return f"{summary['steps']} steps, reference {reference['steps']}"
            rows = output.out.decode().splitlines()
            if len(rows) != summary["steps"] + 1:
                return f"CSV has {len(rows)} lines for {summary['steps']} steps"
            for key in ("lambda", "h1_norm"):
                if not _close(summary["final"][key], reference[key]):
                    return f"final {key} {summary['final'][key]!r}, reference {reference[key]!r}"
            return None
        if command.kind == "selftest":
            lines = output.out.decode().splitlines()
            if len(lines) != 10 or not all(line.startswith("[PASS]") for line in lines):
                return "selftest did not report ten passing criteria"
            return None
    except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
    return f"no check for command kind {command.kind!r}"


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))

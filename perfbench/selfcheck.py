"""Fast self-check of the benchmark harness on tiny instances.

    python3 perfbench/selfcheck.py

Confirms that every metric named in BENCHMARK.json is emitted with its unit in
both modes, that a wrong output is counted as a failed operation, and that
peak memory is attributed to the child that used it.  Exits 0 when all hold.
"""

from __future__ import annotations

import json
import sys
import time

sys.dont_write_bytecode = True  # keep perfbench/ free of __pycache__
from run import OUT_ROOT, ROOT, SETUP_PROBES, Runner, run_workload, spawn  # noqa: E402
from workloads import WORKLOADS, Command, Output, Workload, check, describe  # noqa: E402

TINY_EXACT = {"space": {"kind": "product", "factors": [2, 3]}, "a": [1, -1], "cutoff": 12}
TINY_BRANCH = {
    "space": {"kind": "sphere", "n": 2},
    "a": [-1],
    "galerkin": {"K": 4, "nl": "quartic", "crossing": 2, "target_norm": 0.5, "isotropy_restriction": "axisymmetric"},
}
TINY = Workload(
    "selfcheck-tiny",
    lambda seed: (
        Command("index", ("index", "--format", "json"), TINY_EXACT),
        Command("certify", ("certify", "--format", "json"), TINY_EXACT),
        Command("branch", ("branch",), TINY_BRANCH),
    ),
)

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def units(entries: list[dict]) -> dict:
    return {e["name"]: e["unit"] for e in entries}


def emitted(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def flip_last_digit(data: bytes) -> bytes:
    i = max(i for i, b in enumerate(data) if chr(b).isdigit())
    return data[:i] + (b"1" if data[i : i + 1] != b"1" else b"2") + data[i + 1 :]


def main() -> int:
    started = time.monotonic()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect({w["name"] for w in bench["workloads"]} == set(WORKLOADS), "BENCHMARK.json lists exactly the harness workloads")

    workdir = OUT_ROOT / "selfcheck"
    workdir.mkdir(parents=True, exist_ok=True)
    runner = Runner(workdir, {})
    reference, outputs = {}, {}
    for cmd in TINY.commands(0):
        outputs[cmd.kind] = runner.execute(cmd, False)[0]
        reference[cmd.kind] = describe(cmd, outputs[cmd.kind])
        expect(check(cmd, outputs[cmd.kind], reference[cmd.kind]) is None, f"{cmd.kind}: a correct output passes its check")

    # 1. every metric, with its unit, in each mode
    result, detail = run_workload(TINY, 0, 0.1, False, reference)
    expect(emitted(result) == units(bench["end_to_end"]), "trace 0 emits exactly the end_to_end metrics with their units")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] == 6,
           "trace 0 counts two passes of three good operations")
    expect(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()), "trace 0 values are numbers")
    expect({"python", "numpy", "scipy", "blas", "blas_threads", "nproc", "loadavg_start"} <= set(detail["env"]),
           "the detail record carries the environment")
    expect(detail["samples"]["calibration_s"]["n"] == 2 * (1 + SETUP_PROBES + result["attempted"]),
           "every child times the calibration loop before its import and after its command")
    result, detail = run_workload(TINY, 0, 0.1, True, reference)
    expect(emitted(result) == units(bench["per_layer"]), "trace 1 emits exactly the per_layer metrics with their units")
    layers = {name: m["value"] for name, m in result["metrics"].items()}
    expect(layers["spaces.spectrum_calls"] > 1 and layers["bifurcation.index_calls"] > 0
           and layers["continuation.steps"] > 0 and layers["galerkin.table_bytes"] > 0,
           "trace 1 sees the spaces, bifurcation, galerkin and continuation layers")
    expect(detail["computed_not_measured"] == ["galerkin.table_bytes", "galerkin.transform_gflop"],
           "computed metrics are labelled as such")

    # 2. a wrong output is a failed operation
    for kind in ("index", "certify", "branch"):
        cmd = next(c for c in TINY.commands(0) if c.kind == kind)
        good = outputs[kind]
        bad = Output(good.code, flip_last_digit(good.stdout), good.out) if kind == "branch" else \
            Output(good.code, good.stdout, flip_last_digit(good.out))
        expect(check(cmd, bad, reference[kind]) is not None, f"{kind}: a corrupted output fails its check")
    wrong = dict(reference, index=dict(reference["index"], digest="0" * 64))
    print("(the run below reports two FAILED index lines on purpose)")
    result, _ = run_workload(TINY, 0, 0.1, False, wrong)
    expect(not result["correct"] and result["failed"] == 2
           and abs(result["metrics"]["ok_frac"]["value"] - 4 / 6) < 1e-12,
           "a run with one wrong output per pass reports it in failed and ok_frac")

    # 3. peak memory belongs to the child that used it
    _, big, code_big, _ = spawn([sys.executable, "-c", "x = b'1' * (160 << 20)"], workdir / "big.stdout")
    _, small, code_small, _ = spawn([sys.executable, "-c", "pass"], workdir / "small.stdout")
    expect(code_big == 0 and code_small == 0, "memory probes exit 0")
    expect(big >= 160 and small < 80, f"peak RSS is per child: {big:.0f} MB then {small:.0f} MB")

    print(f"{len(failures)} failed, {time.monotonic() - started:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end benchmark of the torusbif command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the CLI is imported from ``src/``, and
the run stops with exit code 2 if that tree is missing.  Every command runs in
a fresh process (``perfbench/child.py``), one at a time: a closed loop with one
client.  BLAS keeps its default thread count.

A run warms the import path once, takes set-up probes, then repeats the
workload's commands (one *pass*) while the next pass is expected to end within
S seconds, and always runs at least one pass.  Every command's output is
checked (``workloads.check``); a nonzero exit or a wrong output counts as a
failed operation.

``--trace 0`` reports the end-to-end metrics: median pass wall time, median
set-up time, median of each pass's peak command RSS, and the fraction of
operations that succeeded.  Wall and set-up times are scaled to a reference
host speed: each child times a fixed pure-Python loop before its import and
after its command (``child.py``), the loops' time is taken out of the
command's, and the rest is multiplied by CALIBRATION_REF_S over the loops'
mean time.  ``--trace 1`` alternates an untraced and a traced
pass and reports the per-layer metrics of the traced passes (see
``tracer.py``) plus ``trace.overhead_s``.

Output: a detail line (environment record, sample counts and spread, file
paths) and, as the last line, the result object.  Both are also written under
``.perfbench_out/`` together with the traced spans.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

sys.dont_write_bytecode = True  # keep perfbench/ free of __pycache__
from workloads import WORKLOADS, Command, Output, Workload, check, load_reference  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
OUT_ROOT = ROOT / ".perfbench_out"
# Two stuck commands still end a run within three minutes.
COMMAND_TIMEOUT_S = 75
SETUP_PROBES = 4
# The calibration loop's time (child.py) that wall and set-up times are
# scaled to: about its typical time on a 2-vCPU Intel Xeon VM, Python 3.11.
CALIBRATION_REF_S = 0.2

# BENCHMARK.json is the one list of metric names and units.
_BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in _BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _BENCH["per_layer"]}
# Derived from operand shapes, not measured.
COMPUTED = ("galerkin.table_bytes", "galerkin.transform_gflop")


@dataclass
class Op:
    """One CLI invocation: timings, its own peak RSS and the check's verdict."""

    kind: str
    wall_s: float
    rss_mb: float
    setup_s: float | None
    output_bytes: int
    error: str | None
    layers: dict | None


def spawn(argv: list[str], stdout_path: Path) -> tuple[float, float, int, float]:
    """Run argv to completion; return (wall seconds, peak RSS in MB, exit code,
    CLOCK_MONOTONIC spawn time).

    The RSS comes from ``os.wait4`` on this child alone, because
    RUSAGE_CHILDREN is a running maximum over every child ever waited on."""
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, cwd=ROOT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, start


class Runner:
    """Runs a workload's commands in fresh processes inside ``workdir``."""

    def __init__(self, workdir: Path, reference: dict):
        self.workdir = workdir
        self.reference = reference
        self.serial = 0
        self.calibration: list[float] = []

    def _child(self, args: list[str], trace: bool, stem: Path):
        record = stem.with_suffix(".rec.json")
        argv = [sys.executable, str(CHILD), str(record), "1" if trace else "0", *args]
        wall, rss, code, start = spawn(argv, stem.with_suffix(".stdout"))
        rec = json.loads(record.read_text(encoding="utf-8")) if record.exists() else {}
        setup = rec["imported"] - start if "imported" in rec else None
        if "calibration_s" in rec:  # absent only when the child failed early
            before, after = rec["calibration_s"]
            self.calibration += [before, after]
            scale = CALIBRATION_REF_S / ((before + after) / 2)
            wall = (wall - before - after) * scale
            setup = (setup - before) * scale
        return wall, rss, code, setup, rec

    def _stem(self) -> Path:
        self.serial += 1
        return self.workdir / f"op{self.serial:04d}"

    def probe(self) -> tuple[float | None, dict | None]:
        """Import-only child: (set-up seconds, environment record)."""
        stem = self._stem()
        _, _, code, setup, rec = self._child([], False, stem)
        self._clean(stem)
        return (setup if code == 0 else None), rec.get("env")

    def execute(self, cmd: Command, trace: bool):
        """Run one command; return (Output, wall s, RSS MB, set-up s, record)."""
        stem = self._stem()
        args = list(cmd.args)
        if cmd.config is not None:
            config = stem.with_suffix(".config.json")
            config.write_text(json.dumps(cmd.config), encoding="utf-8")
            args += ["--config", str(config)]
        out = stem.with_suffix(".out")
        args += ["--out", str(out)]
        wall, rss, code, setup, rec = self._child(args, trace, stem)
        output = Output(code, stem.with_suffix(".stdout").read_bytes(), out.read_bytes() if out.exists() else b"")
        spans = stem.with_suffix(".rec.spans.json")
        if spans.exists():
            spans.replace(self.workdir / f"spans-{cmd.kind}.json")
        if code == 0:  # keep what a failed command left, for diagnosis
            self._clean(stem)
        return output, wall, rss, setup, rec

    def command(self, cmd: Command, trace: bool) -> Op:
        output, wall, rss, setup, rec = self.execute(cmd, trace)
        error = check(cmd, output, self.reference.get(cmd.kind, {}))
        if error is not None:
            print(f"FAILED {cmd.kind}: {error}", file=sys.stderr)
        return Op(cmd.kind, wall, rss, setup, len(output.stdout) + len(output.out), error, rec.get("layers"))

    def run_pass(self, commands, trace: bool) -> list[Op]:
        return [self.command(cmd, trace) for cmd in commands]

    def _clean(self, stem: Path) -> None:
        for path in self.workdir.glob(stem.name + ".*"):
            path.unlink()


def _summary(values: list[float]) -> dict:
    return {"n": len(values), "median": statistics.median(values), "min": min(values), "max": max(values),
            "values": values}


def _layers(ops: list[Op]) -> dict:
    """Per-layer metrics of one traced pass: the commands' sums, with the
    ratio recomputed from the sums."""
    out = {name: 0 for name in PER_LAYER}
    for op in ops:
        for name, value in (op.layers or {}).items():
            out[name] += value
    out["cli.output_bytes"] = sum(op.output_bytes for op in ops)
    steps = out["continuation.steps"]
    out["continuation.newton_per_step"] = out["galerkin.residual_calls"] / steps if steps else 0
    return out


def _loop(deadline: float, one_round, minimum: int) -> list:
    """Run at least ``minimum`` rounds, then more while the next is expected
    to end by ``deadline`` (CLOCK_MONOTONIC)."""
    rounds, walls = [], []
    while len(rounds) < minimum or time.monotonic() + statistics.median(walls) <= deadline:
        started = time.monotonic()
        rounds.append(one_round())
        walls.append(time.monotonic() - started)
    return rounds


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, reference: dict) -> tuple[dict, dict]:
    """Measure one workload; return (result object, detail record)."""
    workdir = OUT_ROOT / f"{workload.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    runner = Runner(workdir, reference)
    commands = workload.commands(seed)
    loadavg = os.getloadavg()
    _, env = runner.probe()  # warms the import path and file cache; untimed
    if env is None:
        raise RuntimeError("torusbif.cli could not be imported; see the .err files under " + str(workdir))
    env["loadavg_start"] = loadavg

    if not trace:
        deadline = time.monotonic() + seconds
        setup = [s for s in (runner.probe()[0] for _ in range(SETUP_PROBES)) if s is not None]
        # Two passes at least, so that even selftest reports a median of two.
        passes = _loop(deadline, lambda: runner.run_pass(commands, False), 2)
        ops = [op for ops in passes for op in ops]
        setup += [op.setup_s for op in ops if op.setup_s is not None]
        samples = {
            "wall_s": [sum(op.wall_s for op in ops) for ops in passes],
            "setup_s": setup,
            "peak_rss_mb": [max(op.rss_mb for op in ops) for ops in passes],
        }
        values = {name: statistics.median(v) for name, v in samples.items()}
    else:
        pairs = _loop(
            time.monotonic() + seconds,
            lambda: (runner.run_pass(commands, False), runner.run_pass(commands, True)),
            1,
        )
        ops = [op for pair in pairs for ops in pair for op in ops]
        layers = [_layers(traced) for _, traced in pairs]
        values = {name: statistics.median(layer[name] for layer in layers) for name in PER_LAYER}
        plain_wall = [sum(op.wall_s for op in plain) for plain, _ in pairs]
        traced_wall = [sum(op.wall_s for op in traced) for _, traced in pairs]
        values["trace.overhead_s"] = statistics.median(traced_wall) - statistics.median(plain_wall)
        samples = {"wall_s_untraced": plain_wall, "wall_s_traced": traced_wall}

    samples["calibration_s"] = runner.calibration
    failed = sum(op.error is not None for op in ops)
    if not trace:
        values["ok_frac"] = (len(ops) - failed) / len(ops)
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    detail = {
        "workload": workload.name,
        "seed": seed,
        "seed_used": workload.seeded,
        "trace": int(trace),
        "loop": "closed, one client, one command at a time, each in a fresh process",
        "commands": [" ".join(cmd.args) for cmd in commands],
        "env": env,
        "samples": {name: _summary(v) for name, v in samples.items()},
        "computed_not_measured": list(COMPUTED) if trace else [],
        "failures": [f"{op.kind}: {op.error}" for op in ops if op.error is not None],
        "spans": [str(path.relative_to(ROOT)) for path in sorted(workdir.glob("spans-*.json"))],
    }
    (workdir / "result.json").write_text(json.dumps({"detail": detail, "result": result}, indent=1), encoding="utf-8")
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "torusbif" / "cli.py").is_file():
        print(f"error: no torusbif source tree under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    result, detail = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                                  load_reference()[args.workload])
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

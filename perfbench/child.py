"""Run one torusbif CLI command in this fresh process and record what the
benchmark needs from inside it.

    python3 perfbench/child.py RECORD TRACE [CLI ARGS...]

RECORD is a JSON file written at exit.  It holds the CLOCK_MONOTONIC time at
which ``import torusbif.cli`` returned (the parent subtracts its spawn time to
get set-up time), the command's exit code and the durations of the
calibration loop run before the import and after the command.  With TRACE=1
the public functions of every torusbif module are wrapped before
``cli.main`` runs, and RECORD also gets the layer aggregates; the spans go to RECORD with the suffix
``.spans.json``.  Without CLI arguments the child only imports the package (a
set-up probe) and records the numerical environment.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
CALIBRATION_LOOPS = 2_000_000


def calibrate() -> float:
    """Seconds this process takes for a fixed pure-Python loop.

    The parent divides wall and set-up times by it: on a shared host the
    interpreter runs 20-50% slower for tens of seconds at a time, and a
    loop timed in the same process just before the import and just after
    the command sees the same slowdown as the command."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - start


def environment() -> dict:
    """Interpreter, numpy/scipy and BLAS versions and BLAS thread count."""
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _openblas_threads() -> int | None:
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and line.split()[-1].startswith("/")}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(argv: list[str]) -> int:
    record_path, trace, cli_args = Path(argv[1]), argv[2] == "1", argv[3:]
    before = calibrate()
    # Only modules that torusbif.cli imports anyway load before this point,
    # so set-up time is the CLI's own.
    sys.path.insert(0, str(SRC))
    import torusbif.cli

    record = {"imported": time.monotonic()}
    if not Path(torusbif.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: torusbif imported from {torusbif.cli.__file__}, not from {SRC}", file=sys.stderr)
        return 3
    if not cli_args:
        record["calibration_s"] = [before, calibrate()]
        record["env"] = environment()
        record_path.write_text(json.dumps(record), encoding="utf-8")
        return 0

    tracer = None
    if trace:
        sys.dont_write_bytecode = True
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        code = torusbif.cli.main(cli_args)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    record["calibration_s"] = [before, calibrate()]
    record["code"] = code
    if tracer is not None:
        record["layers"] = tracer.finish(record_path.with_suffix(".spans.json"))
    record_path.write_text(json.dumps(record), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))

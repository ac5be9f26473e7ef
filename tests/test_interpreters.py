"""The exact half on the other Pythons the package claims (``requires-python
>= 3.10``).  ``exact_half_driver.py`` runs on the oldest and the newest
interpreter found, side by side, one subprocess each, with criterion 07's
pinned seed-0 case digest; it reads the table of rational literals there
too, so a grammar that changes with the interpreter fails here.  The
numerical half is not run there, since it needs numpy."""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import torusbif
from test_acceptance import EULER_CASE_DIGESTS

DRIVER = Path(__file__).with_name("exact_half_driver.py")
OLDEST = (3, 10)


def _interpreters():
    """The (version, path) of one interpreter per minor version from 3.10
    on, the running one's excepted, ascending, and the places looked in:
    ``$PYENV_ROOT/versions/*/bin/python``, then ``python3.10`` to
    ``python3.13`` on PATH, each of those run once to read its version."""
    running = sys.version_info[:2]
    found, places = {}, []
    root = os.environ.get("PYENV_ROOT")
    if root:
        places.append(f"{root}/versions/*/bin/python")
        for exe in Path(root).glob("versions/*/bin/python"):
            match = re.fullmatch(r"3\.(\d+)\.(\d+)", exe.parents[1].name)
            candidate = ((3, int(match[1]), int(match[2])) if match else (), str(exe))
            key = candidate[0][:2]
            if OLDEST <= key != running:
                found[key] = max(found.get(key, candidate), candidate)
    places.append("python3.10 to python3.13 on PATH")
    for minor in range(10, 14):
        exe = shutil.which(f"python3.{minor}")
        if (3, minor) in found or (3, minor) == running or exe is None:
            continue
        probe = subprocess.run([exe, "-c", "import sys; print(*sys.version_info[:3])"], capture_output=True, text=True)
        version = tuple(map(int, probe.stdout.split())) if probe.returncode == 0 else ()
        if version[:2] == (3, minor):
            found[(3, minor)] = (version, exe)
    return [found[key] for key in sorted(found)], places


def test_the_exact_half_runs_on_the_oldest_and_newest_other_python():
    interpreters, places = _interpreters()
    if not interpreters:
        pytest.skip(f"no Python 3.10 or newer besides the running one in {' or '.join(places)}")
    chosen = {interpreters[0][1]: interpreters[0][0], interpreters[-1][1]: interpreters[-1][0]}
    src = str(Path(torusbif.__file__).parents[1])
    # -I keeps each interpreter's own environment and site-packages out; -B
    # writes no bytecode beside the sources
    procs = {
        exe: subprocess.Popen([exe, "-I", "-B", str(DRIVER), src, EULER_CASE_DIGESTS[0]], stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        for exe in chosen
    }
    try:
        for exe, proc in procs.items():
            out, _ = proc.communicate(timeout=120)
            assert proc.returncode == 0, f"{exe} ({'.'.join(map(str, chosen[exe]))}):\n{out}"
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
                proc.wait()

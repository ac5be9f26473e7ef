"""Run the exact half of torusbif on the interpreter that runs this file,
with numpy blocked: every golden CLI case, the table of rational literals
``RATIONAL_LITERALS``, selftest criteria 01-07 and the digest of criterion
07's seed-0 cases, and a round trip of every exact-half record through
pickle, ``copy``, ``deepcopy`` and, from Python 3.13, ``copy.replace``.

    python tests/exact_half_driver.py SRC DIGEST

SRC is the directory that holds the torusbif package, and DIGEST the
expected SHA-256 of the reprs of ``selftest._euler_cases(0)``, one per
line, so that a change in what ``random`` draws fails here.  The driver needs
only the standard library, so it runs on an interpreter without numpy,
pytest or hypothesis.  It prints one line when every check passes and
exits 1 with the first check that fails.
"""

import copy
import hashlib
import json
import pickle
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

GOLDEN = Path(__file__).resolve().with_name("golden_cli.json")

# Rational literals with the value ``jsonio.frac_from_json`` reads, or the
# message it refuses them with, the same on every Python.  Fraction(str) is
# not: it refuses the first three on 3.10, reads "1 / 2" and "1/ 2" from
# 3.12 on, and reads the Arabic-Indic digits of the sixth and fourteenth.
RATIONAL_LITERALS = [
    ("1_000", Fraction(1000)),
    ("1.5_0", Fraction(3, 2)),
    ("1_0/3", Fraction(10, 3)),
    ("1 / 2", "Invalid literal for Fraction: '1 / 2'"),
    ("1/ 2", "Invalid literal for Fraction: '1/ 2'"),
    ("\u0661\u0662", "Invalid literal for Fraction: '\u0661\u0662'"),
    (" 1/2 ", Fraction(1, 2)),
    (".5", Fraction(1, 2)),
    ("5.", Fraction(5)),
    ("1.5e-2", Fraction(3, 200)),
    ("1/-2", "Invalid literal for Fraction: '1/-2'"),
    ("1e3/2", "Invalid literal for Fraction: '1e3/2'"),
    ("0x10", "Invalid literal for Fraction: '0x10'"),
    ("1e\u0664\u0663\u0660\u0661", "Invalid literal for Fraction: '1e\u0664\u0663\u0660\u0661'"),
    ("1__0", "Invalid literal for Fraction: '1__0'"),
    ("1._5", "Invalid literal for Fraction: '1._5'"),
    ("-1_0.2_5E+0_1", Fraction(-205, 2)),
    ("1/0", "zero denominator in '1/0'"),
]


def fail(message):
    print(f"Python {sys.version.split()[0]}: {message}")
    sys.exit(1)


def check_golden(main):
    """Each golden case through ``cli.main``: its exit code and the SHA-256
    of its output file."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "config.json", Path(tmp) / "out"
        for case in golden["cases"]:
            config.write_text(json.dumps(golden["configs"][case["config"]]), encoding="utf-8")
            code = main([case["command"], "--config", str(config), "--format", case["format"], "--out", str(out)])
            digest = hashlib.sha256(out.read_bytes()).hexdigest()
            if (code, digest) != (case["exit"], case["sha256"]):
                fail(f"golden case {case['config']} {case['command']} {case['format']}: exit {code}, sha256 {digest}")
    return len(golden["cases"])


def check_literals(frac_from_json):
    for text, expected in RATIONAL_LITERALS:
        try:
            got = frac_from_json(text)
        except ValueError as exc:
            got = str(exc)
        if got != expected:
            fail(f"frac_from_json({text!r}) gives {got!r}, not {expected!r}")
    return len(RATIONAL_LITERALS)


def check_criteria(selftest, digest):
    for criterion in selftest.CRITERIA[:7]:
        result = criterion(seed=0)
        if not result.passed:
            fail(selftest.format_result(result).strip())
    text = "".join(repr(case) + "\n" for case in selftest._euler_cases(0))
    got = hashlib.sha256(text.encode()).hexdigest()
    if got != digest:
        fail(f"criterion 07's seed-0 cases have sha256 {got}, not {digest}")


def record_samples():
    """One instance of every record class the exact half defines."""
    from torusbif import (
        EulerRingElement,
        GenericTables,
        RestrictedWeight,
        SymmetricSpaceData,
        SystemSignature,
        TorusRepDecomposition,
        bifurcation_levels,
        canonicalize,
        certify_levels,
        spectrum_up_to,
    )
    from torusbif.selftest import CriterionResult

    h = canonicalize(RestrictedWeight((1, -2)))
    p22 = SymmetricSpaceData.product_of_spheres([2, 2])
    tables = GenericTables.from_json(
        {
            "entries": [
                {"alpha": [0], "weights": [{"mu": [0], "mult": 1}]},
                {"alpha": [1], "weights": [{"mu": [-1], "mult": 1}, {"mu": [0], "mult": 1}, {"mu": [1], "mult": 1}]},
            ]
        }
    )
    return [
        RestrictedWeight((2, -1)),
        h,
        EulerRingElement(-3, {h: 2, canonicalize(RestrictedWeight((0, 1))): -1}),
        TorusRepDecomposition(2, ((h, 1),)),
        spectrum_up_to(p22, 6)[2],
        tables,
        SymmetricSpaceData([["1"]], ["1/2"], tables=tables),
        p22,
        SystemSignature((1, -1, -1)),
        bifurcation_levels(p22, SystemSignature((1, -1)), 6)[-1],
        certify_levels(p22, SystemSignature((1, -1)), 6)[-1][1],
        CriterionResult(7, "euler-ring-axioms", True, "10000 cases", 0.25),
    ]


def check_records():
    from torusbif._record import Record

    samples = record_samples()
    missing = {cls.__name__ for cls in Record.__subclasses__()} - {type(x).__name__ for x in samples}
    if missing:
        fail(f"no sample of the record classes {sorted(missing)}")
    round_trips = {"pickle": lambda x: pickle.loads(pickle.dumps(x)), "copy": copy.copy, "deepcopy": copy.deepcopy}
    if hasattr(copy, "replace"):  # Python 3.13
        round_trips["copy.replace"] = copy.replace
    for x in samples:
        for name, round_trip in round_trips.items():
            back = round_trip(x)
            if not (type(back) is type(x) and back == x and hash(back) == hash(x) and repr(back) == repr(x)):
                fail(f"{name} changed {x!r} into {back!r}")
    return len(samples), len(round_trips)


def main(src, digest):
    sys.modules["numpy"] = None  # an import of numpy now raises ImportError
    sys.path.insert(0, src)
    from torusbif import selftest
    from torusbif.cli import main as cli_main
    from torusbif.jsonio import frac_from_json

    cases = check_golden(cli_main)
    literals = check_literals(frac_from_json)
    check_criteria(selftest, digest)
    samples, round_trips = check_records()
    if sys.modules["numpy"] is not None:
        fail("numpy was loaded")
    print(
        f"Python {sys.version.split()[0]}: {cases} golden cases, {literals} rational literals, criteria 01-07, "
        f"{samples} records x {round_trips} round trips"
    )


if __name__ == "__main__":
    main(*sys.argv[1:])

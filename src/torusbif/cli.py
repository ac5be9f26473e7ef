"""Batch command-line front end.

Subcommands: spectrum, decompose, index, certify, branch, selftest.  Each
writes the formats ``COMMANDS`` lists for it, the first by default.
Flags: --config PATH, --out PATH, --format FMT, --seed N (selftest only).
Exit codes: 0 success, 1 domain failure (a refused input, or a branch that
diverged), 2 usage or config error.  Exact rationals serialize as
{"num": p, "den": q}.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

from .bifurcation import SystemSignature, bifurcation_levels, certify_levels
from .jsonio import _echo, _int_literal, _positive_real, canonical_dumps, frac_from_json, frac_to_json
from .spaces import SymmetricSpaceData, load_space, spectrum_up_to, summand_decompositions


class ConfigError(Exception):
    """Malformed or missing configuration; maps to exit code 2."""


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def load_config(path) -> tuple[dict, Path | None]:
    if path is None:
        raise ConfigError("--config is required for this command")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, parse_int=_int_literal)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ConfigError(f"malformed config: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return raw, Path(path).resolve().parent


def require_space(raw: dict, base_dir) -> SymmetricSpaceData:
    if "space" not in raw:
        raise ConfigError("config needs a 'space' descriptor")
    if not isinstance(raw["space"], dict):
        raise ConfigError(f"bad space descriptor: expected a JSON object, got {_echo(raw['space'], repr)}")
    try:
        return load_space(raw["space"], base_dir)
    except (KeyError, TypeError, ValueError, OSError) as exc:
        raise ConfigError(f"bad space descriptor: {exc}")


def require_signature(raw: dict) -> SystemSignature:
    a = raw.get("a")
    if a is None:
        raise ConfigError("config needs a signature 'a': [...] of +-1 entries")
    try:
        return SystemSignature(tuple(a))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad signature: {exc}")


def require_cutoff(raw: dict) -> Fraction:
    if "cutoff" not in raw:
        raise ConfigError("config needs a 'cutoff' rational")
    try:
        cutoff = frac_from_json(raw["cutoff"])
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigError(f"bad cutoff: {exc}")
    if cutoff < 0:
        raise ConfigError("cutoff must be nonnegative")
    return cutoff


def _check_writable(out) -> None:
    """Open ``out`` for appending, which truncates nothing, so that a path
    that cannot be written fails before the computation instead of after it;
    a file this creates is removed again, so a refused run leaves none."""
    if out:
        existed = os.path.lexists(out)
        try:
            with open(out, "a", encoding="utf-8"):
                pass
        except OSError as exc:
            raise ConfigError(f"cannot write {out}: {exc}")
        if not existed:
            os.remove(out)


def _emit(text: str, out) -> None:
    if out:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot write {out}: {exc}")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# exact commands: one computation each, one renderer per format
# ---------------------------------------------------------------------------


class Run(NamedTuple):  # what a renderer sees: the parsed config and the result
    space: SymmetricSpaceData
    sig: SystemSignature | None
    cutoff: Fraction
    result: object


class Certification(NamedTuple):
    certificates: list
    skipped: list  # levels, as Fractions
    failures: list  # (level, error) pairs


SKIP_NOTE = "p even: no claim at level 0"


# Callees are looked up when called, so perfbench's wrapped copies are the ones that run.
def _spectrum(space, sig, cutoff) -> list:
    return spectrum_up_to(space, cutoff)


def _summands(space, sig, cutoff) -> list:
    return summand_decompositions(space, cutoff)


def _levels(space, sig, cutoff) -> list:
    return bifurcation_levels(space, sig, cutoff)


def _certify(space, sig, cutoff) -> Certification:
    done = Certification([], [], [])
    for level, cert in certify_levels(space, sig, cutoff):
        if not isinstance(cert, str):
            done.certificates.append(cert)
        elif level == 0:  # the zero level has a certificate or no claim, never a failure
            done.skipped.append(level)
        else:
            done.failures.append((level, cert))
    return done


def _levels_json(run: Run) -> dict:  # spectrum and index
    return {"levels": [lv.to_json() for lv in run.result]}


def _spectrum_pretty(run: Run) -> list[str]:
    lines = [f"spectrum of {run.space} up to {run.cutoff}"]
    for lv in run.result:
        alphas = " ".join(str(a) for a in lv.alphas)
        mults = " ".join(f"{h}:{m}" for h, m in lv.torus_decomp.mults) or "-"
        lines.append(
            f"  lambda = {lv.eigenvalue}  dim = {lv.real_dim}  alphas = {alphas}  "
            f"k0 = {lv.torus_decomp.k0}  planes = {mults}"
        )
    return lines


def _csv_text(rows) -> str:
    """Rows as CSV: a field holding a comma (a rank >= 2 weight, alpha or
    subgroup id) is double-quoted, every other field is written as is."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _spectrum_csv(run: Run) -> list[list]:
    """Exact eigenvalue, weights, dimension, k0, and one multiplicity column
    per weight id appearing anywhere in the range."""
    ids = sorted({h for lv in run.result for h, _ in lv.torus_decomp.mults}, key=lambda h: h.sort_key)
    header = ["eigenvalue_num", "eigenvalue_den", "alphas", "real_dim", "k0"]
    header += [f"k{h.canonical}" for h in ids]
    rows = [header]
    for lv in run.result:
        row = [lv.eigenvalue.numerator, lv.eigenvalue.denominator, ";".join(str(a) for a in lv.alphas)]
        mults = dict(lv.torus_decomp.mults)  # the columns span every id of the range
        row += [lv.real_dim, lv.torus_decomp.k0, *(mults.get(h, 0) for h in ids)]
        rows.append(row)
    return rows


def _decompose_pretty(run: Run) -> list[str]:
    lines = [f"torus decompositions for {run.space} up to {run.cutoff}"]
    for lv, decs in run.result:
        lines.append(f"  lambda = {lv.eigenvalue} (dim {lv.real_dim})")
        for a, dec in zip(lv.alphas, decs):
            mults = " ".join(f"{h}:{m}" for h, m in dec.mults) or "-"
            lines.append(f"    alpha {a}: k0 = {dec.k0}  planes = {mults}")
    return lines


def _decompose_json(run: Run) -> dict:
    def per_alpha(lv, decs):
        return [{"alpha": a.to_json(), "decomposition": dec.to_json()} for a, dec in zip(lv.alphas, decs)]

    return {"levels": [{**lv.to_json(), "per_alpha": per_alpha(lv, decs)} for lv, decs in run.result]}


def _index_pretty(run: Run) -> list[str]:
    lines = [f"bifurcation levels of {run.space} for a = {list(run.sig.a)}"]
    lines += [f"  level {bl.level}: kernel dim {bl.kernel_dim}, index {bl.index}" for bl in run.result]
    return lines


def _index_csv(run: Run) -> list[list]:
    rows = [["level_num", "level_den", "kernel_dim", "index"]]
    rows += [[bl.level.numerator, bl.level.denominator, bl.kernel_dim, bl.index] for bl in run.result]
    return rows


def _certify_pretty(run: Run) -> list[str]:
    done = run.result
    lines = [f"unboundedness certificates for {run.space}, a = {list(run.sig.a)}"]
    for c in done.certificates:
        witness = str(c.witness) if c.witness is not None else "(unit)"
        lines.append(f"  level {c.level}: witness {witness}, {c.conclusion}")
    lines += [f"  level {level}: skipped ({SKIP_NOTE})" for level in done.skipped]
    lines += [f"  level {level}: FAILED ({error})" for level, error in done.failures]
    return lines


def _certify_json(run: Run) -> dict:
    done = run.result
    return {
        "certificates": [c.to_json() for c in done.certificates],
        "skipped": [{"level": frac_to_json(level), "note": SKIP_NOTE} for level in done.skipped],
        "failures": [{"level": frac_to_json(level), "error": error} for level, error in done.failures],
        "all_certified": not done.failures,
    }


def _certify_csv(run: Run) -> list[list]:
    rows = [["level_num", "level_den", "witness", "ledger", "unbounded", "symmetry_breaking"]]
    for c in run.result.certificates:
        ledger = ";".join(f"{lv}:{co}" for lv, co in c.ledger)
        witness = c.witness if c.witness is not None else "-"
        rows.append([c.level.numerator, c.level.denominator, witness, ledger, c.unbounded, c.symmetry_breaking])
    return rows


class Command(NamedTuple):
    """A subcommand's renderers by format, the first being its default.  An
    exact command also names its computation and whether it reads a
    signature; a renderer returns the JSON body under the shared header, the
    CSV rows, or the text lines.  branch and selftest write their own
    output."""

    renderers: dict
    compute: Callable | None = None
    signature: bool = False


COMMANDS = {
    "spectrum": Command({"pretty": _spectrum_pretty, "json": _levels_json, "csv": _spectrum_csv}, _spectrum),
    "decompose": Command({"pretty": _decompose_pretty, "json": _decompose_json}, _summands),
    "index": Command({"pretty": _index_pretty, "json": _levels_json, "csv": _index_csv}, _levels, signature=True),
    "certify": Command(
        {"pretty": _certify_pretty, "json": _certify_json, "csv": _certify_csv}, _certify, signature=True
    ),
    "branch": Command({"csv": None}),
    "selftest": Command({"pretty": None}),
}


def run_exact(command: str, raw: dict, base_dir, fmt: str, out=None) -> tuple[str, int]:
    """Run an exact command on a parsed config and render it in ``fmt``.
    Returns the text and the exit code, 1 when certify has failures.  An
    ``out`` path that cannot be written is refused after the config is
    parsed, so a config error leaves no file behind, and before the
    computation, so an unwritable path costs no enumeration."""
    entry = COMMANDS[command]
    space = require_space(raw, base_dir)
    sig = require_signature(raw) if entry.signature else None
    cutoff = require_cutoff(raw)
    _check_writable(out)
    run = Run(space, sig, cutoff, entry.compute(space, sig, cutoff))
    code = 1 if isinstance(run.result, Certification) and run.result.failures else 0
    try:
        body = entry.renderers[fmt](run)
        if fmt == "csv":
            return _csv_text(body), code
        if fmt == "pretty":
            return "\n".join(body) + "\n", code
        header = {"space": str(space), "cutoff": frac_to_json(cutoff)}
        if sig is not None:
            header["a"] = list(sig.a)
        return canonical_dumps({**header, **body}), code
    except ValueError:  # what rendering raises: an integer Python will not print
        raise ValueError(
            f"the output holds an integer of more than {sys.get_int_max_str_digits()} digits, "
            "past Python's limit on printing one (sys.get_int_max_str_digits())"
        ) from None


# ---------------------------------------------------------------------------
# branch
# ---------------------------------------------------------------------------


def branch_csv(result) -> str:
    import numpy as np

    from .continuation import NEWTON_TOL

    basis, states = result.basis, result.states
    # at most four coefficient columns, the largest of the final state, and
    # none at roundoff level: a column must exceed NEWTON_TOL times the largest
    leading: list[int] = []
    if states:
        final = np.abs(np.asarray(states[-1].coeffs, dtype=float))
        order = np.argsort(-final, kind="stable")[:4]
        leading = sorted(int(i) for i in order if final[i] > NEWTON_TOL * final[order[0]])
    header = ["arclength", "lambda", "h1_norm"]
    for idx in leading:
        comp, mode = divmod(idx, basis.n_modes)
        k, m = basis.modes[mode]
        header.append(f"c[{comp};{k};{m}]")
    rows = [header]
    rows += [[float(x) for x in (st.arclength, st.lam, st.h1_norm, *st.coeffs[leading])] for st in states]
    return _csv_text(rows)


# numpy starts OpenBLAS's thread pool when it loads, and its worker thread
# spins through a start-up timeout while the import goes on: about 60 ms of
# wall time that a small solve never wins back.  A branch of degree K at
# most this loads numpy on one BLAS thread (the sweep is in CHANGES.md); a
# larger one keeps the default pool.
SERIAL_BLAS_MAX_DEGREE = 128
# what OpenBLAS reads for its thread count; a caller's own setting stands
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@contextmanager
def _serial_blas(serial: bool = True):
    """Run the body with OPENBLAS_NUM_THREADS=1 in the environment, so that
    numpy, when the body loads it, starts OpenBLAS without a thread pool,
    and then restore the environment.  Nothing is set when ``serial`` is
    false, when numpy is already loaded, or when the caller set a BLAS
    thread count."""
    if not serial or "numpy" in sys.modules or any(name in os.environ for name in BLAS_THREAD_VARIABLES):
        yield
        return
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        yield
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]


def cmd_branch(raw: dict, base_dir, out) -> int:
    space = require_space(raw, base_dir)
    if space.factors != (2,):
        raise ConfigError("the branch solver supports the 2-sphere only")
    sig = require_signature(raw)
    block = raw.get("galerkin")
    if not isinstance(block, dict):
        raise ConfigError("config needs a 'galerkin' block for branch runs")
    unknown = sorted(set(block) - {"K", "crossing", "nl", "target_norm", "isotropy_restriction"})
    if unknown:
        raise ConfigError(f"bad galerkin block: unknown key {', '.join(map(repr, unknown))}")
    try:
        K, crossing = block["K"], frac_from_json(block["crossing"])
        target_norm = _positive_real("target_norm", block.get("target_norm", 1.0))
        # the solver always works on the axisymmetric (m = 0) modes; the key may say so
        restriction = block.get("isotropy_restriction", "axisymmetric")
        if restriction != "axisymmetric":
            raise ValueError(f"isotropy_restriction must be 'axisymmetric', got {_echo(restriction, repr)}")
        # the numerical half (and numpy) loads only for this command, and only
        # once the checks that need no solver have passed
        with _serial_blas(type(K) is int and K <= SERIAL_BLAS_MAX_DEGREE):
            from .continuation import continue_branch
            from .galerkin import NONLINEARITIES, trivial_branch_crossings
        known = {c.lam for c in trivial_branch_crossings(K, sig, (crossing, crossing))}
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad galerkin block: {exc}")
    nl_name = block.get("nl", "quartic")
    if not isinstance(nl_name, str):
        raise ConfigError(f"bad galerkin block: 'nl' must be a string, got {_echo(nl_name, repr)}")
    if nl_name not in NONLINEARITIES:
        raise ConfigError(f"unknown nonlinearity {_echo(nl_name, repr)}; choose from {sorted(NONLINEARITIES)}")
    nl = NONLINEARITIES[nl_name]()
    if crossing not in known:
        raise ConfigError(f"{_echo(crossing)} is not a crossing of the trivial branch")
    _check_writable(out)
    result = continue_branch(K, nl, sig, crossing, target_norm)
    states = result.states
    summary = {
        "outcome": result.outcome,
        "steps": len(states),
        "crossing": frac_to_json(crossing),
        "final": None
        if not states
        else {
            "lambda": float(states[-1].lam),
            "h1_norm": float(states[-1].h1_norm),
            "arclength": float(states[-1].arclength),
        },
    }
    csv_text = branch_csv(result)
    summary_text = canonical_dumps(summary)
    if out:
        _emit(csv_text, out)
        sys.stdout.write(summary_text)
    else:
        sys.stdout.write(csv_text)
        sys.stderr.write(summary_text)
    if result.outcome == "diverged":
        print(f"error: {result.reason}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def non_negative_int(text: str) -> int:
    """argparse type: ``int``, refusing negative values as a usage error."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torusbif",
        description="Exact spectra, bifurcation indices, unboundedness certificates, "
        "and branch continuation for elliptic systems on symmetric spaces.",
    )
    parser.add_argument("command", choices=tuple(COMMANDS))
    parser.add_argument("--config", help="JSON run configuration")
    parser.add_argument("--out", help="output path (default: stdout)")
    formats = sorted({fmt for entry in COMMANDS.values() for fmt in entry.renderers})
    parser.add_argument("--format", choices=formats, help="default: the command's first format")
    parser.add_argument("--seed", type=non_negative_int, help="seed for the selftest sweeps (default: 0)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    formats = COMMANDS[args.command].renderers
    fmt = args.format or next(iter(formats))
    try:
        if fmt not in formats:
            raise ConfigError(f"{args.command} writes {' or '.join(sorted(formats))}")
        if args.command == "selftest":
            # a run never proceeds with an option it does not read
            if args.config is not None:
                raise ConfigError("selftest reads no --config")
            _check_writable(args.out)
            from . import selftest

            with _serial_blas():  # criteria 08-10 load numpy and solve at K = 8
                results = selftest.run_all(seed=args.seed or 0)
            text = "".join(selftest.format_result(r) for r in results)
            _emit(text, args.out)
            return 0 if all(r.passed for r in results) else 1
        if args.seed is not None:
            raise ConfigError(f"{args.command} reads no --seed")
        raw, base_dir = load_config(args.config)
        if args.command == "branch":
            return cmd_branch(raw, base_dir, args.out)
        text, code = run_exact(args.command, raw, base_dir, fmt, args.out)
        _emit(text, args.out)
        return code
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

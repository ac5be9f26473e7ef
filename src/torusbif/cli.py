"""Batch command-line front end.

Subcommands: spectrum, decompose, index, certify, branch, selftest.  Each
writes the formats ``COMMANDS`` lists for it, the first by default.
Flags: --config PATH, --out PATH, --format FMT, --seed N.
Exit codes: 0 success, 1 domain failure (precondition or solver), 2 usage or
config error.  Exact rationals serialize as {"num": p, "den": q}.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

from .bifurcation import SystemSignature, bifurcation_levels, certify_levels
from .jsonio import canonical_dumps, frac_from_json, frac_to_json, int_from_json
from .spaces import SymmetricSpaceData, alpha_decomposition, load_space, spectrum_up_to


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
            raw = json.load(fh)
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
        raise ConfigError(f"bad space descriptor: expected a JSON object, got {raw['space']!r}")
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


def _levels(space, sig, cutoff) -> list:
    return bifurcation_levels(space, sig, cutoff)


def _certify(space, sig, cutoff) -> Certification:
    done = Certification([], [], [])
    for level, cert in certify_levels(space, sig, cutoff):
        if level == 0 and sig.p % 2 == 0:
            done.skipped.append(level)
        elif isinstance(cert, str):
            done.failures.append((level, cert))
        else:
            done.certificates.append(cert)
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


def _spectrum_csv(run: Run) -> list[str]:
    """Exact eigenvalue, weights, dimension, k0, and one multiplicity column
    per weight id appearing anywhere in the range."""
    ids = sorted({h for lv in run.result for h, _ in lv.torus_decomp.mults}, key=lambda h: h.sort_key)
    header = ["eigenvalue_num", "eigenvalue_den", "alphas", "real_dim", "k0"]
    header += [f"k{h.canonical}" for h in ids]
    lines = [",".join(header)]
    for lv in run.result:
        row = [lv.eigenvalue.numerator, lv.eigenvalue.denominator, ";".join(str(a) for a in lv.alphas)]
        row += [lv.real_dim, lv.torus_decomp.k0, *(lv.torus_decomp.multiplicity(h) for h in ids)]
        lines.append(",".join(map(str, row)))
    return lines


def _decompose_pretty(run: Run) -> list[str]:
    lines = [f"torus decompositions for {run.space} up to {run.cutoff}"]
    for lv in run.result:
        lines.append(f"  lambda = {lv.eigenvalue} (dim {lv.real_dim})")
        for a in lv.alphas:
            dec = alpha_decomposition(run.space, a)
            mults = " ".join(f"{h}:{m}" for h, m in dec.mults) or "-"
            lines.append(f"    alpha {a}: k0 = {dec.k0}  planes = {mults}")
    return lines


def _decompose_json(run: Run) -> dict:
    def per_alpha(a):
        return {"alpha": a.to_json(), "decomposition": alpha_decomposition(run.space, a).to_json()}

    return {"levels": [{**lv.to_json(), "per_alpha": [per_alpha(a) for a in lv.alphas]} for lv in run.result]}


def _index_pretty(run: Run) -> list[str]:
    lines = [f"bifurcation levels of {run.space} for a = {list(run.sig.a)}"]
    lines += [f"  level {bl.level}: kernel dim {bl.kernel_dim}, index {bl.index}" for bl in run.result]
    return lines


def _index_csv(run: Run) -> list[str]:
    lines = ["level_num,level_den,kernel_dim,index"]
    lines += [f"{bl.level.numerator},{bl.level.denominator},{bl.kernel_dim},{bl.index}" for bl in run.result]
    return lines


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


def _certify_csv(run: Run) -> list[str]:
    lines = ["level_num,level_den,witness,ledger,unbounded,symmetry_breaking"]
    for c in run.result.certificates:
        ledger = ";".join(f"{lv}:{co}" for lv, co in c.ledger)
        witness = str(c.witness) if c.witness is not None else "-"
        row = [c.level.numerator, c.level.denominator, witness, ledger, c.unbounded, c.symmetry_breaking]
        lines.append(",".join(map(str, row)))
    return lines


class Command(NamedTuple):
    """A subcommand's renderers by format, the first being its default.  An
    exact command also names its computation and whether it reads a
    signature; a renderer returns the JSON body under the shared header, or
    the text lines.  branch and selftest write their own output."""

    renderers: dict
    compute: Callable | None = None
    signature: bool = False


COMMANDS = {
    "spectrum": Command({"pretty": _spectrum_pretty, "json": _levels_json, "csv": _spectrum_csv}, _spectrum),
    "decompose": Command({"pretty": _decompose_pretty, "json": _decompose_json}, _spectrum),
    "index": Command({"pretty": _index_pretty, "json": _levels_json, "csv": _index_csv}, _levels, signature=True),
    "certify": Command(
        {"pretty": _certify_pretty, "json": _certify_json, "csv": _certify_csv}, _certify, signature=True
    ),
    "branch": Command({"csv": None}),
    "selftest": Command({"pretty": None}),
}


def run_exact(command: str, raw: dict, base_dir, fmt: str) -> tuple[str, int]:
    """Run an exact command on a parsed config and render it in ``fmt``.
    Returns the text and the exit code, 1 when certify has failures."""
    entry = COMMANDS[command]
    space = require_space(raw, base_dir)
    sig = require_signature(raw) if entry.signature else None
    cutoff = require_cutoff(raw)
    run = Run(space, sig, cutoff, entry.compute(space, sig, cutoff))
    body = entry.renderers[fmt](run)
    code = 1 if isinstance(run.result, Certification) and run.result.failures else 0
    if fmt != "json":
        return "\n".join(body) + "\n", code
    header = {"space": str(space), "cutoff": frac_to_json(cutoff)}
    if sig is not None:
        header["a"] = list(sig.a)
    return canonical_dumps({**header, **body}), code


# ---------------------------------------------------------------------------
# branch
# ---------------------------------------------------------------------------


def branch_csv(basis, sig: SystemSignature, states) -> str:
    import numpy as np

    leading: list[int] = []
    if states:
        final = np.abs(np.asarray(states[-1].coeffs, dtype=float))
        order = np.argsort(-final, kind="stable")[:4]
        leading = sorted(int(i) for i in order)
    header = ["arclength", "lambda", "h1_norm"]
    for idx in leading:
        comp, mode = divmod(idx, basis.n_modes)
        k, m = basis.modes[mode]
        header.append(f"c[{comp};{k},{m}]")
    lines = [",".join(header)]
    for st in states:
        row = [repr(float(st.arclength)), repr(float(st.lam)), repr(float(st.h1_norm))]
        row += [repr(float(st.coeffs[idx])) for idx in leading]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def cmd_branch(raw: dict, base_dir, out) -> int:
    # the numerical half (and numpy) loads only for this command
    from .continuation import ContinuationError, ContinuationOptions, continue_branch
    from .galerkin import NONLINEARITIES, GalerkinBasis, trivial_branch_crossings

    space = require_space(raw, base_dir)
    if space.factors != (2,):
        raise ConfigError("the branch solver supports the 2-sphere only")
    sig = require_signature(raw)
    block = raw.get("galerkin")
    if not isinstance(block, dict):
        raise ConfigError("config needs a 'galerkin' block for branch runs")
    option_keys = [f.name for f in fields(ContinuationOptions)]
    unknown = sorted(set(block) - {"K", "crossing", "nl", *option_keys})
    if unknown:
        raise ConfigError(f"bad galerkin block: unknown key {', '.join(map(repr, unknown))}")
    try:
        K = int_from_json(block["K"])
        if K < 0:
            raise ValueError(f"K must be nonnegative, got {K}")
        crossing = frac_from_json(block["crossing"])
        opts = ContinuationOptions(**{key: block[key] for key in option_keys if key in block})
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad galerkin block: {exc}")
    nl_name = block.get("nl", "quartic")
    if not isinstance(nl_name, str):
        raise ConfigError(f"bad galerkin block: 'nl' must be a string, got {nl_name!r}")
    if nl_name not in NONLINEARITIES:
        raise ConfigError(f"unknown nonlinearity {nl_name!r}; choose from {sorted(NONLINEARITIES)}")
    nl = NONLINEARITIES[nl_name]()
    basis = GalerkinBasis(K)
    known = {c.lam for c in trivial_branch_crossings(basis, sig, (crossing, crossing))}
    if crossing not in known:
        raise ConfigError(f"{crossing} is not a crossing of the trivial branch")
    code = 0
    try:
        result = continue_branch(basis, nl, sig, crossing, opts)
        states, outcome = result.states, result.outcome
    except ContinuationError as exc:
        states, outcome = exc.states, "diverged"
        code = 1
    summary = {
        "outcome": outcome,
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
    csv_text = branch_csv(basis, sig, states)
    summary_text = canonical_dumps(summary)
    if out:
        _emit(csv_text, out)
        sys.stdout.write(summary_text)
    else:
        sys.stdout.write(csv_text)
        sys.stderr.write(summary_text)
    return code


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _domain_errors() -> tuple[type[Exception], ...]:
    """ValueError, plus ContinuationError once the solver is loaded; it can
    only have been raised if it was, so the exact commands never import it."""
    solver = sys.modules.get(f"{__package__}.continuation")
    return (ValueError,) if solver is None else (ValueError, solver.ContinuationError)


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
    parser.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    formats = COMMANDS[args.command].renderers
    fmt = args.format or next(iter(formats))
    try:
        if fmt not in formats:
            raise ConfigError(f"{args.command} writes {' or '.join(sorted(formats))}")
        if args.command == "selftest":
            from . import selftest

            results = selftest.run_all(seed=args.seed)
            text = "".join(selftest.format_result(r) for r in results)
            _emit(text, args.out)
            return 0 if all(r.passed for r in results) else 1
        raw, base_dir = load_config(args.config)
        if args.command == "branch":
            return cmd_branch(raw, base_dir, args.out)
        text, code = run_exact(args.command, raw, base_dir, fmt)
        _emit(text, args.out)
        return code
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _domain_errors() as exc:  # evaluated only when an exception reaches it
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

"""Batch command-line front end.

Subcommands: spectrum, decompose, index, certify, branch, selftest.
Flags: --config PATH, --out PATH, --format {json,csv,pretty}, --seed N.
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

from .bifurcation import SystemSignature, bifurcation_levels, certify_levels
from .jsonio import canonical_dumps, frac_from_json, frac_to_json, int_from_json
from .spaces import SymmetricSpaceData, alpha_decomposition, load_space, spectrum_to_csv, spectrum_up_to

FORMATS = ("json", "csv", "pretty")


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
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# spectrum / decompose
# ---------------------------------------------------------------------------


def cmd_spectrum(raw: dict, base_dir, fmt: str) -> str:
    space = require_space(raw, base_dir)
    cutoff = require_cutoff(raw)
    levels = spectrum_up_to(space, cutoff)
    if fmt == "csv":
        return spectrum_to_csv(levels)
    if fmt == "json":
        payload = {
            "space": str(space),
            "cutoff": frac_to_json(cutoff),
            "levels": [lv.to_json() for lv in levels],
        }
        return canonical_dumps(payload)
    lines = [f"spectrum of {space} up to {cutoff}"]
    for lv in levels:
        alphas = " ".join(str(a) for a in lv.alphas)
        mults = " ".join(f"{h}:{m}" for h, m in lv.torus_decomp.mults) or "-"
        lines.append(
            f"  lambda = {lv.eigenvalue}  dim = {lv.real_dim}  alphas = {alphas}  "
            f"k0 = {lv.torus_decomp.k0}  planes = {mults}"
        )
    return "\n".join(lines) + "\n"


def cmd_decompose(raw: dict, base_dir, fmt: str) -> str:
    if fmt == "csv":
        raise ConfigError("decompose writes json or pretty; for csv use spectrum")
    space = require_space(raw, base_dir)
    cutoff = require_cutoff(raw)
    levels = spectrum_up_to(space, cutoff)
    if fmt == "json":
        payload = {
            "space": str(space),
            "cutoff": frac_to_json(cutoff),
            "levels": [
                {
                    **lv.to_json(),
                    "per_alpha": [
                        {
                            "alpha": a.to_json(),
                            "decomposition": alpha_decomposition(space, a).to_json(),
                        }
                        for a in lv.alphas
                    ],
                }
                for lv in levels
            ],
        }
        return canonical_dumps(payload)
    lines = [f"torus decompositions for {space} up to {cutoff}"]
    for lv in levels:
        lines.append(f"  lambda = {lv.eigenvalue} (dim {lv.real_dim})")
        for a in lv.alphas:
            dec = alpha_decomposition(space, a)
            mults = " ".join(f"{h}:{m}" for h, m in dec.mults) or "-"
            lines.append(f"    alpha {a}: k0 = {dec.k0}  planes = {mults}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# index / certify
# ---------------------------------------------------------------------------


def cmd_index(raw: dict, base_dir, fmt: str) -> str:
    space = require_space(raw, base_dir)
    sig = require_signature(raw)
    cutoff = require_cutoff(raw)
    levels = bifurcation_levels(space, sig, cutoff)
    if fmt == "json":
        payload = {
            "space": str(space),
            "a": list(sig.a),
            "cutoff": frac_to_json(cutoff),
            "levels": [bl.to_json() for bl in levels],
        }
        return canonical_dumps(payload)
    if fmt == "csv":
        lines = ["level_num,level_den,kernel_dim,index"]
        for bl in levels:
            lines.append(f"{bl.level.numerator},{bl.level.denominator},{bl.kernel_dim},{bl.index}")
        return "\n".join(lines) + "\n"
    lines = [f"bifurcation levels of {space} for a = {list(sig.a)}"]
    for bl in levels:
        lines.append(f"  level {bl.level}: kernel dim {bl.kernel_dim}, index {bl.index}")
    return "\n".join(lines) + "\n"


def cmd_certify(raw: dict, base_dir, fmt: str) -> tuple[str, int]:
    space = require_space(raw, base_dir)
    sig = require_signature(raw)
    cutoff = require_cutoff(raw)
    certificates = []
    skipped = []
    failures = []
    for level, cert in certify_levels(space, sig, cutoff):
        if level == 0 and sig.p % 2 == 0:
            skipped.append({"level": frac_to_json(level), "note": "p even: no claim at level 0"})
        elif isinstance(cert, str):
            failures.append({"level": frac_to_json(level), "error": cert})
        else:
            certificates.append(cert)
    code = 1 if failures else 0
    if fmt == "json":
        payload = {
            "space": str(space),
            "a": list(sig.a),
            "cutoff": frac_to_json(cutoff),
            "certificates": [c.to_json() for c in certificates],
            "skipped": skipped,
            "failures": failures,
            "all_certified": not failures,
        }
        return canonical_dumps(payload), code
    if fmt == "csv":
        lines = ["level_num,level_den,witness,ledger,unbounded,symmetry_breaking"]
        for c in certificates:
            ledger = ";".join(f"{lv}:{co}" for lv, co in c.ledger)
            witness = str(c.witness) if c.witness is not None else "-"
            lines.append(
                f"{c.level.numerator},{c.level.denominator},{witness},{ledger},"
                f"{c.unbounded},{c.symmetry_breaking}"
            )
        return "\n".join(lines) + "\n", code
    lines = [f"unboundedness certificates for {space}, a = {list(sig.a)}"]
    for c in certificates:
        witness = str(c.witness) if c.witness is not None else "(unit)"
        lines.append(f"  level {c.level}: witness {witness}, {c.conclusion}")
    for s in skipped:
        lines.append(f"  level {frac_from_json(s['level'])}: skipped ({s['note']})")
    for f in failures:
        lines.append(f"  level {frac_from_json(f['level'])}: FAILED ({f['error']})")
    return "\n".join(lines) + "\n", code


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
    if space.kind != "sphere" or space.factors != (2,):
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
    parser.add_argument(
        "command", choices=("spectrum", "decompose", "index", "certify", "branch", "selftest")
    )
    parser.add_argument("--config", help="JSON run configuration")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--format", choices=FORMATS, default="pretty")
    parser.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "selftest":
            from . import selftest

            results = selftest.run_all(seed=args.seed)
            text = "".join(selftest.format_result(r) for r in results)
            _emit(text, args.out)
            return 0 if all(r.passed for r in results) else 1
        raw, base_dir = load_config(args.config)
        if args.command == "spectrum":
            _emit(cmd_spectrum(raw, base_dir, args.format), args.out)
            return 0
        if args.command == "decompose":
            _emit(cmd_decompose(raw, base_dir, args.format), args.out)
            return 0
        if args.command == "index":
            _emit(cmd_index(raw, base_dir, args.format), args.out)
            return 0
        if args.command == "certify":
            text, code = cmd_certify(raw, base_dir, args.format)
            _emit(text, args.out)
            return code
        return cmd_branch(raw, base_dir, args.out)
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

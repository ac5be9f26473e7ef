import json
from fractions import Fraction

import pytest

from torusbif import (
    BifurcationLevel,
    SpectralLevel,
    UnboundednessCertificate,
)
from torusbif.cli import main


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SPHERE_CFG = {"space": {"kind": "sphere", "n": 2}, "cutoff": 12}


# -- spectrum ---------------------------------------------------------------------


def test_spectrum_csv(tmp_path, capsys):
    cfg = write_config(tmp_path, SPHERE_CFG)
    code, out, _ = run(capsys, ["spectrum", "--config", cfg, "--format", "csv"])
    assert code == 0
    rows = out.strip().splitlines()
    assert [r.split(",")[0] for r in rows[1:]] == ["0", "2", "6", "12"]


def test_spectrum_cutoff_zero(tmp_path, capsys):
    cfg = write_config(tmp_path, {"space": {"kind": "sphere", "n": 2}, "cutoff": 0})
    code, out, _ = run(capsys, ["spectrum", "--config", cfg, "--format", "csv"])
    assert code == 0
    assert len(out.strip().splitlines()) == 2


def test_spectrum_product_json_round_trip(tmp_path, capsys):
    cfg = write_config(tmp_path, {"space": {"kind": "product", "factors": [2, 2]}, "cutoff": 4})
    code, out, _ = run(capsys, ["spectrum", "--config", cfg, "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    levels = [SpectralLevel.from_json(lv) for lv in payload["levels"]]
    assert [lv.eigenvalue for lv in levels] == [0, 2, 4]
    assert len(levels[1].alphas) == 2


def test_spectrum_pretty(tmp_path, capsys):
    cfg = write_config(tmp_path, SPHERE_CFG)
    code, out, _ = run(capsys, ["spectrum", "--config", cfg])
    assert code == 0
    assert "lambda = 6" in out


def test_decompose_json_lists_per_alpha(tmp_path, capsys):
    cfg = write_config(tmp_path, {"space": {"kind": "product", "factors": [2, 2]}, "cutoff": 2})
    code, out, _ = run(capsys, ["decompose", "--config", cfg, "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    level2 = payload["levels"][1]
    assert len(level2["per_alpha"]) == 2


# -- index / certify -----------------------------------------------------------------


def test_index_json_round_trip(tmp_path, capsys):
    cfg = write_config(tmp_path, {**SPHERE_CFG, "a": [1, -1], "cutoff": 6})
    code, out, _ = run(capsys, ["index", "--config", cfg, "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    levels = [BifurcationLevel.from_json(lv) for lv in payload["levels"]]
    assert [lv.level for lv in levels] == [-6, -2, 0, 2, 6]


def test_certify_single_negative_equation(tmp_path, capsys):
    cfg = write_config(tmp_path, {"space": {"kind": "sphere", "n": 2}, "a": [-1], "cutoff": 6})
    code, out, _ = run(capsys, ["certify", "--config", cfg, "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    certs = [UnboundednessCertificate.from_json(c) for c in payload["certificates"]]
    assert [c.level for c in certs] == [0, 2, 6]  # 0 included since p = 1 is odd
    assert payload["all_certified"]
    assert not payload["skipped"]


def test_certify_skips_zero_level_for_even_p(tmp_path, capsys):
    cfg = write_config(tmp_path, {"space": {"kind": "sphere", "n": 2}, "a": [1, -1], "cutoff": 2})
    code, out, _ = run(capsys, ["certify", "--config", cfg, "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    levels = [Fraction(c["level"]["num"], c["level"]["den"]) for c in payload["certificates"]]
    assert levels == [-2, 2]
    assert payload["skipped"][0]["note"] == "p even: no claim at level 0"


def test_certify_empty_window_even_p(tmp_path, capsys):
    cfg = write_config(tmp_path, {"space": {"kind": "sphere", "n": 2}, "a": [1, -1], "cutoff": 1})
    code, out, _ = run(capsys, ["certify", "--config", cfg, "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["certificates"] == []


def test_certificates_round_trip(tmp_path, capsys):
    cfg = write_config(
        tmp_path, {"space": {"kind": "product", "factors": [2, 3]}, "a": [1, -1, -1], "cutoff": 6}
    )
    code, out, _ = run(capsys, ["certify", "--config", cfg, "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    for raw in payload["certificates"]:
        cert = UnboundednessCertificate.from_json(raw)
        assert cert.to_json() == raw


# -- determinism -----------------------------------------------------------------------


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_byte_identical_reruns(tmp_path, capsys, fmt):
    cfg = write_config(tmp_path, {**SPHERE_CFG, "a": [-1, 1]})
    out1 = tmp_path / "a.out"
    out2 = tmp_path / "b.out"
    assert main(["certify", "--config", cfg, "--format", fmt, "--out", str(out1)]) == 0
    assert main(["certify", "--config", cfg, "--format", fmt, "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


# -- config errors ------------------------------------------------------------------------


def test_missing_config_flag(capsys):
    code, _, err = run(capsys, ["spectrum"])
    assert code == 2
    assert "config" in err


def test_missing_config_file(capsys):
    code, _, err = run(capsys, ["spectrum", "--config", "/nonexistent.json"])
    assert code == 2
    assert "not found" in err


def test_malformed_json_config(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, ["spectrum", "--config", str(path)])
    assert code == 2
    assert "malformed" in err


def test_unknown_space_kind(tmp_path, capsys):
    cfg = write_config(tmp_path, {"space": {"kind": "hyperbolic"}, "cutoff": 4})
    code, _, err = run(capsys, ["spectrum", "--config", cfg])
    assert code == 2


def test_bad_signature(tmp_path, capsys):
    cfg = write_config(tmp_path, {**SPHERE_CFG, "a": [2]})
    code, _, err = run(capsys, ["index", "--config", cfg])
    assert code == 2


@pytest.mark.parametrize("a", [[1.7], [-1.0], [True], ["-1"]])
def test_non_integer_signature_rejected(tmp_path, capsys, a):
    cfg = write_config(tmp_path, {**SPHERE_CFG, "a": a, "cutoff": 6})
    code, out, err = run(capsys, ["index", "--config", cfg])
    assert code == 2
    assert "bad signature" in err
    assert out == ""


@pytest.mark.parametrize(
    "space",
    [{"kind": "sphere", "n": 2.9}, {"kind": "sphere", "n": True}, {"kind": "product", "factors": [2, 3.5]}],
)
def test_non_integer_sphere_dimension_rejected(tmp_path, capsys, space):
    cfg = write_config(tmp_path, {"space": space, "a": [-1], "cutoff": 6})
    code, out, err = run(capsys, ["index", "--config", cfg])
    assert code == 2
    assert "bad space descriptor" in err
    assert out == ""


def test_float_cutoff_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, {"space": {"kind": "sphere", "n": 2}, "cutoff": 6.5})
    code, _, err = run(capsys, ["spectrum", "--config", cfg])
    assert code == 2


def test_non_integer_cutoff_fraction_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, {"space": {"kind": "sphere", "n": 2}, "cutoff": {"num": 30.9, "den": 1}})
    code, out, err = run(capsys, ["spectrum", "--config", cfg])
    assert code == 2
    assert "bad cutoff: expected an integer, got 30.9" in err
    assert out == ""


@pytest.mark.parametrize("cutoff", [{"num": 1, "den": 0}, "3/0"])
def test_zero_denominator_cutoff_rejected(tmp_path, capsys, cutoff):
    cfg = write_config(tmp_path, {"space": {"kind": "sphere", "n": 2}, "cutoff": cutoff})
    code, out, err = run(capsys, ["spectrum", "--config", cfg])
    assert code == 2
    assert "bad cutoff: zero denominator" in err
    assert out == ""


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda entry: entry.update(alpha=[1.9]),
        lambda entry: entry["weights"][0].update(mu=[-1.0]),
        lambda entry: entry["weights"][0].update(mult=1.5),
    ],
    ids=["alpha", "mu", "mult"],
)
def test_non_integer_generic_table_rejected(tmp_path, capsys, corrupt):
    # weight tables of the degree-0 and degree-1 harmonics on S^2, one entry spoiled
    tables = {
        "entries": [
            {"alpha": [0], "weights": [{"mu": [0], "mult": 1}]},
            {"alpha": [1], "weights": [{"mu": [m], "mult": 1} for m in (-1, 0, 1)]},
        ]
    }
    corrupt(tables["entries"][1])
    space = {"kind": "generic", "gram": [[1]], "rho": ["1/2"], "tables": tables}
    cfg = write_config(tmp_path, {"space": space, "cutoff": 2})
    code, out, err = run(capsys, ["spectrum", "--config", cfg])
    assert code == 2
    assert "bad space descriptor: expected an integer" in err
    assert out == ""


# -- branch -----------------------------------------------------------------------------


BRANCH_CFG = {
    "space": {"kind": "sphere", "n": 2},
    "a": [-1],
    "galerkin": {
        "K": 8,
        "nl": "quartic",
        "crossing": 2,
        "target_norm": 1.0,
        "max_steps": 500,
        "isotropy_restriction": "axisymmetric",
    },
}


def test_branch_run_writes_csv_and_summary(tmp_path, capsys):
    cfg = write_config(tmp_path, BRANCH_CFG)
    out_csv = tmp_path / "branch.csv"
    code, out, _ = run(capsys, ["branch", "--config", cfg, "--out", str(out_csv)])
    assert code == 0
    summary = json.loads(out)
    assert summary["outcome"] == "reached_target"
    assert summary["final"]["h1_norm"] >= 1.0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0].startswith("arclength,lambda,h1_norm")
    assert len(lines) == summary["steps"] + 1


def test_branch_rejects_non_crossing(tmp_path, capsys):
    cfg = write_config(tmp_path, {**BRANCH_CFG, "galerkin": {**BRANCH_CFG["galerkin"], "crossing": 3}})
    code, _, err = run(capsys, ["branch", "--config", cfg])
    assert code == 2
    assert "not a crossing" in err


def test_branch_budget_of_one_step(tmp_path, capsys):
    cfg = write_config(tmp_path, {**BRANCH_CFG, "galerkin": {**BRANCH_CFG["galerkin"], "max_steps": 1}})
    out_csv = tmp_path / "branch.csv"
    code, out, _ = run(capsys, ["branch", "--config", cfg, "--out", str(out_csv)])
    assert code == 0
    summary = json.loads(out)
    assert summary["outcome"] == "incomplete"
    assert summary["steps"] == 1
    assert len(out_csv.read_text().strip().splitlines()) == 2


@pytest.mark.parametrize("key, value", [("K", 8.9), ("max_steps", 1.7), ("max_steps", True)])
def test_branch_non_integer_block_entry_rejected(tmp_path, capsys, key, value):
    cfg = write_config(tmp_path, {**BRANCH_CFG, "galerkin": {**BRANCH_CFG["galerkin"], key: value}})
    code, out, err = run(capsys, ["branch", "--config", cfg])
    assert code == 2
    assert f"bad galerkin block: expected an integer, got {value!r}" in err
    assert out == ""


def test_branch_zero_denominator_crossing_rejected(tmp_path, capsys):
    block = {**BRANCH_CFG["galerkin"], "crossing": {"num": 2, "den": 0}}
    cfg = write_config(tmp_path, {**BRANCH_CFG, "galerkin": block})
    code, out, err = run(capsys, ["branch", "--config", cfg])
    assert code == 2
    assert "bad galerkin block: zero denominator" in err
    assert out == ""


def test_branch_requires_sphere_two(tmp_path, capsys):
    cfg = write_config(tmp_path, {**BRANCH_CFG, "space": {"kind": "sphere", "n": 3}})
    code, _, err = run(capsys, ["branch", "--config", cfg])
    assert code == 2


def test_branch_kernel_restriction_error_is_domain_failure(tmp_path, capsys):
    block = {**BRANCH_CFG["galerkin"]}
    del block["isotropy_restriction"]
    cfg = write_config(tmp_path, {**BRANCH_CFG, "galerkin": block})
    code, _, err = run(capsys, ["branch", "--config", cfg])
    assert code == 1
    assert "apply isotropy restriction" in err


def test_module_entry_point(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import torusbif

    # the child imports the same torusbif as this process, installed or not
    src = str(Path(torusbif.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    cfg = write_config(tmp_path, SPHERE_CFG)
    proc = subprocess.run(
        [sys.executable, "-m", "torusbif", "spectrum", "--config", cfg, "--format", "csv"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1].startswith("0,1,(0)")


def test_branch_solver_divergence_reports_partial_output(tmp_path, capsys, monkeypatch):
    import torusbif.cli as cli
    from torusbif.continuation import ContinuationError
    from torusbif.galerkin import GalerkinBasis, make_state
    import numpy as np

    basis = GalerkinBasis(8)
    partial = [make_state(basis, np.zeros(basis.n_modes), 2.0)]

    def explode(*args, **kwargs):
        raise ContinuationError("corrector failed", partial)

    monkeypatch.setattr(cli, "continue_branch", explode)
    cfg = write_config(tmp_path, BRANCH_CFG)
    out_csv = tmp_path / "branch.csv"
    code, out, _ = run(capsys, ["branch", "--config", cfg, "--out", str(out_csv)])
    assert code == 1
    summary = json.loads(out)
    assert summary["outcome"] == "diverged"
    assert summary["steps"] == 1
    assert len(out_csv.read_text().strip().splitlines()) == 2

import csv
import json
from fractions import Fraction

import pytest

from torusbif import (
    SymmetricSpaceData,
    SystemSignature,
    bifurcation_levels,
    certify_levels,
    spectrum_up_to,
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
    levels = spectrum_up_to(SymmetricSpaceData.product_of_spheres([2, 2]), 4)
    assert payload["levels"] == [lv.to_json() for lv in levels]
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


def test_decompose_csv_is_a_config_error(tmp_path, capsys):
    # csv held only the spectrum's rows, with no per-alpha data
    cfg = write_config(tmp_path, {"space": {"kind": "sphere", "n": 2}, "cutoff": 6})
    code, out, err = run(capsys, ["decompose", "--config", cfg, "--format", "csv"])
    assert code == 2
    assert out == ""
    assert "decompose writes json or pretty" in err


# -- index / certify -----------------------------------------------------------------


def test_index_json_round_trip(tmp_path, capsys):
    cfg = write_config(tmp_path, {**SPHERE_CFG, "a": [1, -1], "cutoff": 6})
    code, out, _ = run(capsys, ["index", "--config", cfg, "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    levels = bifurcation_levels(SymmetricSpaceData.sphere(2), SystemSignature((1, -1)), 6)
    assert payload["levels"] == [lv.to_json() for lv in levels]
    assert [lv.level for lv in levels] == [-6, -2, 0, 2, 6]


@pytest.mark.parametrize("n_plus, n_minus", [(i, p - i) for p in range(1, 4) for i in range(p + 1)])
def test_index_json_marks_nonzero_levels_truncated(tmp_path, capsys, n_plus, n_minus):
    a = [1] * n_plus + [-1] * n_minus
    cfg = write_config(tmp_path, {"space": {"kind": "product", "factors": [2, 3]}, "a": a, "cutoff": 12})
    code, out, _ = run(capsys, ["index", "--config", cfg, "--format", "json"])
    assert code == 0
    levels = json.loads(out)["levels"]
    assert levels
    for lv in levels:
        level = Fraction(lv["level"]["num"], lv["level"]["den"])
        assert lv["index"]["truncated"] is (level != 0)
        assert sorted(lv["index"]) == ["codim1", "truncated", "unit"]


def test_certify_single_negative_equation(tmp_path, capsys):
    cfg = write_config(tmp_path, {"space": {"kind": "sphere", "n": 2}, "a": [-1], "cutoff": 6})
    code, out, _ = run(capsys, ["certify", "--config", cfg, "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    certs = [cert for _, cert in certify_levels(SymmetricSpaceData.sphere(2), SystemSignature((-1,)), 6)]
    assert payload["certificates"] == [c.to_json() for c in certs]
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
    space = SymmetricSpaceData.product_of_spheres([2, 3])
    certs = [cert for _, cert in certify_levels(space, SystemSignature((1, -1, -1)), 6)]
    assert payload["certificates"] == [c.to_json() for c in certs]


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


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda p: p.mkdir(), "cannot read config"),
        (lambda p: p.write_bytes(b'{"cutoff": "\xff"}'), "malformed config"),
    ],
    ids=["directory", "not-utf8"],
)
def test_unreadable_config_is_config_error(tmp_path, capsys, make, message):
    path = tmp_path / "config.json"
    make(path)
    code, out, err = run(capsys, ["spectrum", "--config", str(path)])
    assert code == 2
    assert message in err
    assert out == ""


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
    [{"kind": "sphere", "n": 2.9}, {"kind": "sphere", "n": True}, {"kind": "product", "factors": [2, 3.5]}, "sphere"],
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


def s2_tables():
    # weight tables of the degree-0 and degree-1 harmonics on S^2
    return {
        "entries": [
            {"alpha": [0], "weights": [{"mu": [0], "mult": 1}]},
            {"alpha": [1], "weights": [{"mu": [m], "mult": 1} for m in (-1, 0, 1)]},
        ]
    }


@pytest.mark.parametrize(
    "spoil, gram, rho, message",
    [
        (lambda t: t["entries"].append(t["entries"][1]), [[1]], ["1/2"], "repeat alpha (1)"),
        (lambda t: t["entries"][1]["weights"].append({"mu": [0], "mult": 1}), [[1]], ["1/2"], "repeat mu (0) at"),
        (lambda t: t["entries"][1]["weights"][1].update(mult=0), [[1]], ["1/2"], "need mult >= 1, got 0"),
        (lambda t: t["entries"][1]["weights"][1].update(mult=-1), [[1]], ["1/2"], "need mult >= 1, got -1"),
        (lambda t: t["entries"][1]["weights"][1].update(mu=[0, 1]), [[1]], ["1/2"], "mu (0,1) of rank 2 at"),
        (lambda t: None, [[1, 0], [0, 1]], ["1/2", "1/2"], "alpha (0) of rank 1, but gram has rank 2"),
    ],
    ids=["repeated-alpha", "repeated-mu", "zero-mult", "negative-mult", "mu-rank", "table-rank"],
)
def test_inconsistent_generic_table_rejected(tmp_path, capsys, spoil, gram, rho, message):
    tables = s2_tables()
    spoil(tables)
    space = {"kind": "generic", "gram": gram, "rho": rho, "tables": tables}
    cfg = write_config(tmp_path, {"space": space, "cutoff": 2})
    code, out, err = run(capsys, ["spectrum", "--config", cfg])
    assert code == 2
    assert err.startswith("error: bad space descriptor: weight tables")
    assert message in err
    assert out == ""


@pytest.mark.parametrize("target", ["directory", "missing/out.csv"])
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, target):
    (tmp_path / "directory").mkdir()
    out = tmp_path / target
    cfg = write_config(tmp_path, SPHERE_CFG)
    code, stdout, err = run(capsys, ["spectrum", "--config", cfg, "--out", str(out)])
    assert code == 2
    assert err.startswith(f"error: cannot write {out}: ")
    assert stdout == ""


def _refuse(*args, **kwargs):
    raise AssertionError("the computation ran although --out cannot be written")


def test_selftest_checks_out_before_running(tmp_path, capsys, monkeypatch):
    from torusbif import selftest

    monkeypatch.setattr(selftest, "run_all", _refuse)
    code, out, err = run(capsys, ["selftest", "--out", str(tmp_path)])
    assert code == 2
    assert err.startswith(f"error: cannot write {tmp_path}: ")
    assert out == ""


@pytest.mark.parametrize(
    "command, computation",
    [
        ("spectrum", "spectrum_up_to"),
        ("decompose", "spectrum_up_to"),
        ("index", "bifurcation_levels"),
        ("certify", "certify_levels"),
    ],
)
def test_exact_commands_check_out_before_computing(tmp_path, capsys, monkeypatch, command, computation):
    from torusbif import cli

    monkeypatch.setattr(cli, computation, _refuse)
    cfg = write_config(tmp_path, {**SPHERE_CFG, "a": [-1]})
    code, out, err = run(capsys, [command, "--config", cfg, "--out", str(tmp_path)])
    assert code == 2
    assert err.startswith(f"error: cannot write {tmp_path}: ")
    assert out == ""


@pytest.mark.parametrize("drop", ["space", "cutoff"])
def test_config_error_leaves_no_out_file(tmp_path, capsys, drop):
    cfg = write_config(tmp_path, {key: value for key, value in SPHERE_CFG.items() if key != drop})
    out_file = tmp_path / "fresh.json"
    code, out, err = run(capsys, ["spectrum", "--config", cfg, "--format", "json", "--out", str(out_file)])
    assert code == 2
    assert f"needs a '{drop}'" in err
    assert out == ""
    assert not out_file.exists()


def test_out_is_appended_to_by_the_check_not_truncated(tmp_path, capsys, monkeypatch):
    from torusbif import selftest

    out_file = tmp_path / "out.txt"
    out_file.write_text("kept\n")

    def run_all(seed):
        assert out_file.read_text() == "kept\n"
        return [selftest.criterion_05_impossibility(seed)]

    monkeypatch.setattr(selftest, "run_all", run_all)
    code, _, _ = run(capsys, ["selftest", "--out", str(out_file)])
    assert code == 0
    assert out_file.read_text().startswith("[PASS] criterion 05 impossibility-identity")


@pytest.mark.parametrize(
    "seed, message",
    [("-1", "expected a non-negative integer, got -1"), ("2.5", "invalid non_negative_int value: '2.5'")],
)
def test_seed_must_be_a_non_negative_integer(capsys, monkeypatch, seed, message):
    from torusbif import selftest

    monkeypatch.setattr(selftest, "run_all", _refuse)
    with pytest.raises(SystemExit) as exc:
        main(["selftest", "--seed", seed])
    assert exc.value.code == 2
    assert f"argument --seed: {message}" in capsys.readouterr().err


def _unread_option(*args, **kwargs):
    raise AssertionError("the command did work although it was given an option it does not read")


def test_selftest_refuses_a_config_before_running(capsys, monkeypatch):
    from torusbif import cli, selftest

    monkeypatch.setattr(selftest, "run_all", _unread_option)
    monkeypatch.setattr(cli, "load_config", _unread_option)
    code, out, err = run(capsys, ["selftest", "--config", "any.json"])
    assert (code, out, err) == (2, "", "error: selftest reads no --config\n")


@pytest.mark.parametrize("command", ["spectrum", "decompose", "index", "certify", "branch"])
@pytest.mark.parametrize("seed", ["0", "3"])
def test_commands_without_sampling_refuse_a_seed(capsys, monkeypatch, command, seed):
    from torusbif import cli

    monkeypatch.setattr(cli, "load_config", _unread_option)
    code, out, err = run(capsys, [command, "--config", "any.json", "--seed", seed])
    assert (code, out, err) == (2, "", f"error: {command} reads no --seed\n")


@pytest.mark.parametrize("argv, seed", [([], 0), (["--seed", "0"], 0), (["--seed", "3"], 3)])
def test_selftest_seed_defaults_to_zero(capsys, monkeypatch, argv, seed):
    from torusbif import selftest

    seen = []

    def run_all(seed):
        seen.append(seed)
        return [selftest.criterion_05_impossibility(seed)]

    monkeypatch.setattr(selftest, "run_all", run_all)
    code, _, _ = run(capsys, ["selftest", *argv])
    assert code == 0
    assert seen == [seed]


# -- branch -----------------------------------------------------------------------------


BRANCH_CFG = {
    "space": {"kind": "sphere", "n": 2},
    "a": [-1],
    "galerkin": {
        "K": 8,
        "nl": "quartic",
        "crossing": 2,
        "target_norm": 1.0,
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
    # every record parses to as many fields as the header names
    header, *records = csv.reader(lines)
    assert len(header) == 3 + 4
    assert all(len(record) == len(header) for record in records)


def test_branch_csv_has_no_roundoff_columns(tmp_path, capsys):
    # the unrestricted K = 8 branch from lambda = 0 stays on the constant
    # mode: every other final coefficient is 0.0 or roundoff (about 1e-18),
    # so the CSV keeps the one column c[0;0;0]
    galerkin = {"K": 8, "nl": "quartic", "crossing": 0, "target_norm": 0.8}
    cfg = write_config(tmp_path, {**BRANCH_CFG, "galerkin": galerkin})
    out_csv = tmp_path / "branch.csv"
    code, out, _ = run(capsys, ["branch", "--config", cfg, "--out", str(out_csv)])
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "arclength,lambda,h1_norm,c[0;0;0]"
    assert len(lines) == json.loads(out)["steps"] + 1
    assert all(line.count(",") == 3 for line in lines[1:])


@pytest.mark.parametrize(
    "command, fmt, message",
    [
        ("branch", "json", "branch writes csv"),
        ("branch", "pretty", "branch writes csv"),
        ("selftest", "csv", "selftest writes pretty"),
        ("selftest", "json", "selftest writes pretty"),
    ],
)
def test_unwritten_format_is_a_config_error(tmp_path, capsys, command, fmt, message):
    out_file = tmp_path / "out"
    argv = [command, "--config", write_config(tmp_path, BRANCH_CFG), "--format", fmt, "--out", str(out_file)]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert message in err
    assert not out_file.exists()


def test_branch_to_an_unwritable_out_is_a_usage_error(tmp_path, capsys, monkeypatch):
    from torusbif import continuation

    monkeypatch.setattr(continuation, "continue_branch", _refuse)
    cfg = write_config(tmp_path, {**BRANCH_CFG, "galerkin": {**BRANCH_CFG["galerkin"], "K": 4}})
    code, out, err = run(capsys, ["branch", "--config", cfg, "--out", str(tmp_path)])
    assert code == 2
    assert err.startswith(f"error: cannot write {tmp_path}: ")
    assert out == ""


def test_branch_default_format_is_csv(tmp_path, capsys):
    cfg = write_config(tmp_path, BRANCH_CFG)
    runs = []
    for extra in ([], ["--format", "csv"]):
        out_csv = tmp_path / "branch.csv"
        code, out, err = run(capsys, ["branch", "--config", cfg, "--out", str(out_csv), *extra])
        runs.append((code, out, err, out_csv.read_bytes()))
    assert runs[0] == runs[1]
    assert runs[0][3].startswith(b"arclength,lambda,h1_norm")


def test_branch_rejects_non_crossing(tmp_path, capsys):
    cfg = write_config(tmp_path, {**BRANCH_CFG, "galerkin": {**BRANCH_CFG["galerkin"], "crossing": 3}})
    code, _, err = run(capsys, ["branch", "--config", cfg])
    assert code == 2
    assert "not a crossing" in err


def test_branch_budget_of_one_step(tmp_path, capsys, monkeypatch):
    from torusbif import continuation

    monkeypatch.setattr(continuation, "MAX_STEPS", 1)
    cfg = write_config(tmp_path, BRANCH_CFG)
    out_csv = tmp_path / "branch.csv"
    code, out, _ = run(capsys, ["branch", "--config", cfg, "--out", str(out_csv)])
    assert code == 0
    summary = json.loads(out)
    assert summary["outcome"] == "incomplete"
    assert summary["steps"] == 1
    assert len(out_csv.read_text().strip().splitlines()) == 2


@pytest.mark.parametrize("key, value", [("K", 8.9), ("K", True), ("K", "8")])
def test_branch_non_integer_block_entry_rejected(tmp_path, capsys, key, value):
    cfg = write_config(tmp_path, {**BRANCH_CFG, "galerkin": {**BRANCH_CFG["galerkin"], key: value}})
    code, out, err = run(capsys, ["branch", "--config", cfg])
    assert code == 2
    assert f"bad galerkin block: expected an integer, got {value!r}" in err
    assert out == ""


def test_branch_negative_K_is_refused_by_the_basis(tmp_path, capsys):
    cfg = write_config(tmp_path, {**BRANCH_CFG, "galerkin": {**BRANCH_CFG["galerkin"], "K": -1}})
    code, out, err = run(capsys, ["branch", "--config", cfg])
    assert code == 2
    assert "bad galerkin block: max_degree must be nonnegative, got -1" in err
    assert out == ""


@pytest.mark.parametrize(
    "key, value",
    [
        ("target_norm", "nan"),
        ("target_norm", float("nan")),  # written as the JSON literal NaN
        ("target_norm", "abc"),
        ("target_norm", 0),
        ("target_norm", True),
        ("target_norm", -1.0),
        ("isotropy_restriction", "bogus"),
        ("nl", ["quartic"]),
        ("K", -3),
    ],
)
def test_branch_bad_continuation_option_rejected(tmp_path, capsys, key, value):
    cfg = write_config(tmp_path, {**BRANCH_CFG, "galerkin": {**BRANCH_CFG["galerkin"], key: value}})
    code, out, err = run(capsys, ["branch", "--config", cfg])
    assert code == 2
    assert "bad galerkin block: " in err
    assert out == ""


@pytest.mark.parametrize(
    "extra, top_level_a, message",
    [
        ({"min_step": 1e-3}, True, "bad galerkin block: unknown key 'min_step'"),
        ({"newton_tol": 1e-8}, True, "bad galerkin block: unknown key 'newton_tol'"),
        ({"stepp": 0.1}, True, "bad galerkin block: unknown key 'stepp'"),
        ({"step": 0.05}, True, "bad galerkin block: unknown key 'step'"),
        ({"max_steps": 500}, True, "bad galerkin block: unknown key 'max_steps'"),
        ({"a": [-1]}, True, "bad galerkin block: unknown key 'a'"),
        ({"a": [-1]}, False, "config needs a signature 'a'"),
    ],
    ids=["min_step", "newton_tol", "typo", "step", "max_steps", "signature-in-block", "signature-only-in-block"],
)
def test_branch_galerkin_block_accepts_only_its_keys(tmp_path, capsys, extra, top_level_a, message):
    config = {**BRANCH_CFG, "galerkin": {**BRANCH_CFG["galerkin"], **extra}}
    if not top_level_a:
        del config["a"]
    out_csv = tmp_path / "branch.csv"
    code, out, err = run(capsys, ["branch", "--config", write_config(tmp_path, config), "--out", str(out_csv)])
    assert code == 2
    assert message in err
    assert out == ""
    assert not out_csv.exists()


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


def test_branch_accepts_any_descriptor_of_the_two_sphere(tmp_path, capsys):
    runs = []
    for space in ({"kind": "sphere", "n": 2}, {"kind": "product", "factors": [2]}):
        cfg = write_config(tmp_path, {**BRANCH_CFG, "space": space})
        runs.append(run(capsys, ["branch", "--config", cfg]))
    assert runs[0][0] == 0
    assert runs[1] == runs[0]


def test_branch_kernel_restriction_error_is_domain_failure(tmp_path, capsys):
    block = {**BRANCH_CFG["galerkin"]}
    del block["isotropy_restriction"]
    cfg = write_config(tmp_path, {**BRANCH_CFG, "galerkin": block})
    code, _, err = run(capsys, ["branch", "--config", cfg])
    assert code == 1
    assert "apply isotropy restriction" in err


def test_refused_branch_leaves_no_out_file_and_keeps_an_existing_one(tmp_path, capsys):
    # --out is probed before the kernel is counted; a file the probe created
    # is removed again, and an existing one keeps its bytes
    block = {**BRANCH_CFG["galerkin"]}
    del block["isotropy_restriction"]
    cfg = write_config(tmp_path, {**BRANCH_CFG, "galerkin": block})
    fresh, kept = tmp_path / "fresh.csv", tmp_path / "kept.csv"
    kept.write_bytes(b"old rows\n")
    for out_file in (fresh, kept):
        code, out, err = run(capsys, ["branch", "--config", cfg, "--out", str(out_file)])
        assert code == 1 and "apply isotropy restriction" in err and out == ""
    assert not fresh.exists()
    assert kept.read_bytes() == b"old rows\n"


def test_exact_command_failing_in_its_computation_leaves_no_out_file(tmp_path, capsys, monkeypatch):
    from torusbif import cli

    def failing(*args, **kwargs):
        raise ValueError("no spectrum")

    monkeypatch.setattr(cli, "spectrum_up_to", failing)
    out_file = tmp_path / "fresh.json"
    code, out, err = run(capsys, ["spectrum", "--config", write_config(tmp_path, SPHERE_CFG), "--out", str(out_file)])
    assert (code, out, err) == (1, "", "error: no spectrum\n")
    assert not out_file.exists()


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
    import torusbif.continuation as continuation
    from torusbif.continuation import ContinuationError
    from torusbif.galerkin import GalerkinBasis, make_state
    import numpy as np

    basis = GalerkinBasis(8, orders=[0])
    partial = [make_state(basis, np.zeros(basis.n_modes), 2.0)]

    def explode(*args, **kwargs):
        raise ContinuationError("corrector failed", basis, partial)

    monkeypatch.setattr(continuation, "continue_branch", explode)
    cfg = write_config(tmp_path, BRANCH_CFG)
    out_csv = tmp_path / "branch.csv"
    code, out, _ = run(capsys, ["branch", "--config", cfg, "--out", str(out_csv)])
    assert code == 1
    summary = json.loads(out)
    assert summary["outcome"] == "diverged"
    assert summary["steps"] == 1
    assert len(out_csv.read_text().strip().splitlines()) == 2


def test_escaping_solver_error_is_domain_failure(tmp_path, capsys, monkeypatch):
    import torusbif.cli as cli
    from torusbif.continuation import ContinuationError

    def explode(*args, **kwargs):
        raise ContinuationError("corrector failed", None, [])

    monkeypatch.setattr(cli, "cmd_branch", explode)
    code, _, err = run(capsys, ["branch", "--config", write_config(tmp_path, BRANCH_CFG)])
    assert code == 1
    assert "corrector failed" in err


IMPORT_PROBE = """
import json, sys
from torusbif.cli import main

exact, branch, out, result = sys.argv[1:]


def loaded():
    return sorted(m for m in ("numpy", "numpy.ma", "numpy.random", "scipy") if m in sys.modules)

seen = {}
for command in ("spectrum", "index", "certify"):
    assert main([command, "--config", exact, "--format", "json", "--out", out]) == 0, command
seen["exact"] = loaded()
assert main(["branch", "--config", branch, "--out", out]) == 0
seen["branch"] = loaded()
assert main(["selftest", "--out", out]) == 0
seen["selftest"] = loaded()
with open(result, "w") as fh:
    json.dump(seen, fh)
"""


def test_commands_load_only_the_layers_they_use(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import torusbif

    src = str(Path(torusbif.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    exact = write_config(tmp_path, {**SPHERE_CFG, "a": [-1]}, "exact.json")
    branch = write_config(tmp_path, BRANCH_CFG, "branch.json")
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, exact, branch, str(tmp_path / "out"), str(tmp_path / "result")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads((tmp_path / "result").read_text())
    assert seen["exact"] == []
    # no scipy, and no numpy.ma (np.unique, for one, imports it) or
    # numpy.random (several MB of resident size)
    assert seen["branch"] == ["numpy"]
    assert seen["selftest"] == ["numpy"]


def test_every_public_name_resolves():
    import torusbif

    missing = [name for name in torusbif.__all__ if not hasattr(torusbif, name)]
    assert missing == []
    assert set(torusbif.__all__) <= set(dir(torusbif))
    namespace = {}
    exec("from torusbif import *", namespace)
    assert set(torusbif.__all__) <= set(namespace)

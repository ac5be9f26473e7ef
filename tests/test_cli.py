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
from torusbif.cli import COMMANDS, main


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


def test_decompose_builds_one_weight_map_per_alpha(tmp_path, capsys, monkeypatch):
    # each summand's weight map feeds both its level and its own decomposition
    from torusbif import spaces

    built, weight_map = [], spaces._alpha_weight_map

    def counted(space, alpha):
        built.append(alpha.coords)
        return weight_map(space, alpha)

    monkeypatch.setattr(spaces, "_alpha_weight_map", counted)
    cfg = write_config(tmp_path, {"space": {"kind": "product", "factors": [2, 2, 2]}, "cutoff": 100})
    code, out, _ = run(capsys, ["decompose", "--config", cfg, "--format", "json"])
    assert code == 0
    alphas = [tuple(pa["alpha"]) for lv in json.loads(out)["levels"] for pa in lv["per_alpha"]]
    assert len(alphas) > 100
    assert built == alphas


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
        ("decompose", "summand_decompositions"),
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


@pytest.mark.parametrize("K", [None, 10**5, 10**6], ids=["MAX_DEGREE+1", "1e5", "1e6"])
def test_a_K_past_max_degree_is_refused_before_any_work(tmp_path, capsys, K):
    # a branch run's memory peaks in continuation's order-invariance check,
    # which evaluates grad on the (2K + 1) x (4K + 1) grid, 640 GB an array
    # at K = 10**5 (which once ended in a numpy _ArrayMemoryError from the
    # quadrature's companion matrix), and K = 10**6 was refused only after
    # 3 s of listing crossings
    import time
    import tracemalloc

    from torusbif import continuation  # noqa: F401  (numpy loads outside the measured window)
    from torusbif.galerkin import MAX_DEGREE

    K = MAX_DEGREE + 1 if K is None else K
    cfg = write_config(tmp_path, {**BRANCH_CFG, "galerkin": {**BRANCH_CFG["galerkin"], "K": K}})
    out_csv = tmp_path / "branch.csv"
    started = time.perf_counter()
    tracemalloc.start()
    try:
        code, out, err = run(capsys, ["branch", "--config", cfg, "--out", str(out_csv)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err == f"error: bad galerkin block: max_degree must be at most MAX_DEGREE = {MAX_DEGREE}, got {K}\n"
    assert peak < 1e6 and time.perf_counter() - started < 1.0
    assert not out_csv.exists()


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
        ("target_norm", float("inf")),  # the JSON literal Infinity
        ("target_norm", float("-inf")),
        ("target_norm", "0.05"),
        ("target_norm", 0.0),
        ("target_norm", None),
        ("isotropy_restriction", None),
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


SHARED_LEVEL = "error: components 0 and 1 share the crossing 2: the m = 0 kernel is 2-dimensional\n"


def test_branch_kernel_restriction_error_is_domain_failure(tmp_path, capsys):
    # two components at one level leave a two-dimensional kernel even on the
    # m = 0 modes
    cfg = write_config(tmp_path, {**BRANCH_CFG, "a": [-1, -1]})
    assert run(capsys, ["branch", "--config", cfg]) == (1, "", SHARED_LEVEL)


def test_branch_without_a_stated_restriction_writes_the_axisymmetric_bytes(tmp_path, capsys):
    # the solver always works on the m = 0 modes, so leaving the key out
    # runs the same branch, also at a crossing of degree 1
    block = {**BRANCH_CFG["galerkin"]}
    del block["isotropy_restriction"]
    stated = run(capsys, ["branch", "--config", write_config(tmp_path, BRANCH_CFG, "stated.json")])
    absent = run(capsys, ["branch", "--config", write_config(tmp_path, {**BRANCH_CFG, "galerkin": block})])
    assert stated[0] == 0 and '"outcome": "reached_target"' in stated[2]
    assert absent == stated


def test_refused_branch_leaves_no_out_file_and_keeps_an_existing_one(tmp_path, capsys):
    # --out is probed before the kernel is counted; a file the probe created
    # is removed again, and an existing one keeps its bytes
    cfg = write_config(tmp_path, {**BRANCH_CFG, "a": [-1, -1]})
    fresh, kept = tmp_path / "fresh.csv", tmp_path / "kept.csv"
    kept.write_bytes(b"old rows\n")
    for out_file in (fresh, kept):
        code, out, err = run(capsys, ["branch", "--config", cfg, "--out", str(out_file)])
        assert (code, out, err) == (1, "", SHARED_LEVEL)
    assert not fresh.exists()
    assert kept.read_bytes() == b"old rows\n"


@pytest.mark.parametrize(
    "space, cutoff, count",
    [
        (SPHERE_CFG["space"], "1e400", "about 10^200.0"),  # once an OverflowError traceback
        (SPHERE_CFG["space"], {"num": 10**22, "den": 1}, "100000000001"),  # once a MemoryError traceback
        (
            {"kind": "generic", "gram": [["1e-30"]], "rho": ["1/2"], "tables": {"entries": []}},
            3,
            "1732050807568878",
        ),
        (  # once an OverflowError traceback
            {"kind": "generic", "gram": [[1, 0], [0, 1]], "rho": ["1/2", "1/2"], "tables": {"entries": []}},
            "1e300",
            "about 10^300.0",
        ),
    ],
    ids=["1e400", "1e22", "tiny-gram", "rank2-1e300"],
)
@pytest.mark.parametrize("command", ["spectrum", "index", "certify"])
def test_a_cutoff_past_the_lattice_limit_is_refused_before_enumeration(tmp_path, capsys, space, cutoff, count, command):
    import time
    import tracemalloc

    cfg = write_config(tmp_path, {"space": space, "a": [-1], "cutoff": cutoff})
    started = time.perf_counter()
    tracemalloc.start()
    try:
        code, out, err = run(capsys, [command, "--config", cfg])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (1, "")
    refusal = f"the cutoff spans a lattice box of {count} candidate weights, more than LATTICE_LIMIT = 1000000"
    assert err == f"error: {refusal}\n"
    assert peak < 1e6 and time.perf_counter() - started < 1.0


@pytest.mark.parametrize("cutoff, count", [(400, 10_727_448), (800, 85_957_450)])
@pytest.mark.parametrize("command", ["spectrum", "decompose", "index"])
def test_a_cutoff_past_the_harmonic_limit_is_refused_before_any_weight_map(
    tmp_path, capsys, monkeypatch, cutoff, count, command
):
    # both boxes pass the lattice preflight (9261 and 24,389 points); decompose
    # at cutoff 400 once ended in a MemoryError traceback under a 2.5 GB
    # address-space cap, and at cutoff 800 it did so in the weight maps
    import time

    from torusbif import spaces

    def no_map(*args):
        raise AssertionError("a weight map was built")

    monkeypatch.setattr(spaces, "_alpha_weight_map", no_map)
    config = {"space": {"kind": "product", "factors": [2, 2, 2]}, "a": [1, 1, -1], "cutoff": cutoff}
    out_file = tmp_path / "out.json"
    started = time.perf_counter()
    code, out, err = run(capsys, [command, "--config", write_config(tmp_path, config), "--out", str(out_file)])
    assert time.perf_counter() - started < 1.0
    assert (code, out) == (1, "")
    assert err == f"error: the cutoff admits {count} harmonics, more than HARMONIC_LIMIT = 2000000\n"
    assert not out_file.exists()


@pytest.mark.parametrize("exponent", ["1000000", "+1000000", "-1000000", "10000000", "-10000000"])
@pytest.mark.parametrize("command", ["spectrum", "index", "certify"])
def test_a_huge_decimal_exponent_is_refused_before_the_rational_is_built(tmp_path, capsys, exponent, command):
    # "1e1000000" once took seconds in Fraction and the coordinate bound, and
    # "1e10000000" ran past a minute; both signs are refused as config errors
    import time

    text = f"1e{exponent}"
    refusal = f"the decimal exponent of {text!r} exceeds 4300 in magnitude"
    configs = [
        ({"space": SPHERE_CFG["space"], "a": [-1], "cutoff": text}, f"bad cutoff: {refusal}"),
        (
            {"space": {"kind": "generic", "gram": [[text]], "rho": ["1/2"], "tables": {"entries": []}}, "a": [-1], "cutoff": 3},
            f"bad space descriptor: {refusal}",
        ),
    ]
    for config, message in configs:
        started = time.perf_counter()
        code, out, err = run(capsys, [command, "--config", write_config(tmp_path, config)])
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert time.perf_counter() - started < 1.0


def test_a_long_refused_value_is_echoed_cut(tmp_path, capsys):
    # a crossing of 400 digits is named by its first 60 and its length
    crossing = int("9" * 400)
    cfg = write_config(tmp_path, {**BRANCH_CFG, "galerkin": {**BRANCH_CFG["galerkin"], "crossing": crossing}})
    code, out, err = run(capsys, ["branch", "--config", cfg])
    assert (code, out) == (2, "")
    assert err == f"error: {'9' * 60}... (400 characters) is not a crossing of the trivial branch\n"
    # a short value keeps its whole message
    cfg = write_config(tmp_path, {**BRANCH_CFG, "galerkin": {**BRANCH_CFG["galerkin"], "crossing": 3}})
    assert run(capsys, ["branch", "--config", cfg]) == (2, "", "error: 3 is not a crossing of the trivial branch\n")
    cfg = write_config(tmp_path, {"space": {"kind": "sphere", "n": 2}, "cutoff": "x" * 400})
    code, out, err = run(capsys, ["spectrum", "--config", cfg])
    assert (code, out) == (2, "")
    assert err == f"error: bad cutoff: Invalid literal for Fraction: '{'x' * 59}... (402 characters)\n"
    # a crossing of 4301 digits, past what Python prints, is cut the same way
    cfg = write_config(tmp_path, {**BRANCH_CFG, "galerkin": {**BRANCH_CFG["galerkin"], "crossing": "1e4300"}})
    code, out, err = run(capsys, ["branch", "--config", cfg])
    assert (code, out) == (2, "")
    assert err == f"error: 1{'0' * 59}... (4301 characters) is not a crossing of the trivial branch\n"


PRINT_LIMIT = (
    "error: the output holds an integer of more than 4300 digits, "
    "past Python's limit on printing one (sys.get_int_max_str_digits())\n"
)


@pytest.mark.parametrize("command", ["spectrum", "decompose", "index", "certify"])
def test_an_output_number_too_long_to_print_is_refused_in_one_line(tmp_path, capsys, command):
    # gram 10^4300 and cutoff 10^4300: the levels are 0 and 10^4300, whose
    # 4301 digits Python refuses to print; every format refuses in one line
    weights = [[[0]], [[-1], [0], [1]]]
    tables = {"entries": [{"alpha": [k], "weights": [{"mu": mu, "mult": 1} for mu in weights[k]]} for k in (0, 1)]}
    space = {"kind": "generic", "gram": [["1e4300"]], "rho": [0], "tables": tables}
    out_file = tmp_path / "out"
    # the JSON header also holds the cutoff, here 1/10^4300 at level 0 only
    cases = [("1e4300", fmt) for fmt in COMMANDS[command].renderers] + [("1e-4300", "json")]
    for cutoff, fmt in cases:
        cfg = write_config(tmp_path, {"space": space, "a": [1], "cutoff": cutoff})
        code, out, err = run(capsys, [command, "--config", cfg, "--format", fmt, "--out", str(out_file)])
        assert (code, out, err) == (1, "", PRINT_LIMIT)
        assert not out_file.exists()


def test_an_integer_literal_past_the_read_limit_is_refused_in_one_line(tmp_path, capsys):
    # json.load once repeated Python's int-from-text error, for a config and
    # for a tables file alike
    config = tmp_path / "config.json"
    config.write_text('{"space": {"kind": "sphere", "n": 2}, "cutoff": ' + "9" * 5000 + "}")
    assert run(capsys, ["spectrum", "--config", str(config)]) == (
        2,
        "",
        "error: malformed config: an integer literal of 5000 digits, past Python's limit of 4300\n",
    )
    (tmp_path / "tables.json").write_text('{"entries": [{"alpha": [0], "weights": [{"mu": [0], "mult": -' + "9" * 4301 + "}]}]}")
    space = {"kind": "generic", "gram": [[1]], "rho": ["1/2"], "tables": "tables.json"}
    assert run(capsys, ["spectrum", "--config", write_config(tmp_path, {"space": space, "cutoff": 2})]) == (
        2,
        "",
        "error: bad space descriptor: an integer literal of 4301 digits, past Python's limit of 4300\n",
    )


def test_a_rational_string_past_the_read_limit_is_refused_in_one_line(tmp_path, capsys):
    # it was refused as an invalid literal, though it is only too long
    cfg = write_config(tmp_path, {"space": {"kind": "sphere", "n": 2}, "cutoff": "1" * 5000})
    assert run(capsys, ["spectrum", "--config", cfg]) == (
        2,
        "",
        "error: bad cutoff: a rational literal with a run of 5000 digits, past Python's limit of 4300\n",
    )


def test_a_huge_target_norm_is_refused_in_one_line(tmp_path, capsys):
    # an integer past the largest float once ended in an OverflowError traceback
    cfg = write_config(tmp_path, {**BRANCH_CFG, "galerkin": {**BRANCH_CFG["galerkin"], "target_norm": 10**400}})
    code, out, err = run(capsys, ["branch", "--config", cfg])
    assert (code, out) == (2, "")
    refusal = f"target_norm must be a finite positive number, got 1{'0' * 59}... (401 characters)"
    assert err == f"error: bad galerkin block: {refusal}\n"


A2_TABLES = {
    "entries": [
        {"alpha": [0, 0], "weights": [{"mu": [0, 0], "mult": 1}]},
        {"alpha": [1, 0], "weights": [{"mu": mu, "mult": 1} for mu in ([1, 0], [-1, 1], [0, -1])]},
        {"alpha": [0, 1], "weights": [{"mu": mu, "mult": 1} for mu in ([0, 1], [1, -1], [-1, 0])]},
    ]
}
A2_CFG = {
    "space": {"kind": "generic", "gram": [[2, -1], [-1, 2]], "rho": [1, 1], "tables": A2_TABLES},
    "a": [1, -1],
    "cutoff": 4,
}


def test_decompose_names_a_summand_that_is_real_only_with_its_conjugate(tmp_path, capsys):
    # level 4 holds alphas (0,1) and (1,0), two conjugate summands: the level
    # is real, and spectrum, index and certify answer, but neither summand is
    # real by itself, and decompose lists one real summand per alpha
    cfg = write_config(tmp_path, A2_CFG)
    for command in ("spectrum", "index", "certify"):
        assert run(capsys, [command, "--config", cfg])[0] == 0
    assert run(capsys, ["decompose", "--config", cfg]) == (
        1,
        "",
        "error: decompose lists one real summand per alpha, but alpha (0,1) at lambda = 4 "
        "is not real by itself: its weights are not conjugation-symmetric\n",
    )


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
    from torusbif.continuation import BranchResult
    from torusbif.galerkin import GalerkinBasis, make_state
    import numpy as np

    basis = GalerkinBasis(8, orders=[0])
    partial = [make_state(basis, np.zeros(basis.n_modes), 2.0)]

    def diverge(*args, **kwargs):
        return BranchResult(basis, partial, "diverged", "corrector failed")

    monkeypatch.setattr(continuation, "continue_branch", diverge)
    cfg = write_config(tmp_path, BRANCH_CFG)
    out_csv = tmp_path / "branch.csv"
    code, out, err = run(capsys, ["branch", "--config", cfg, "--out", str(out_csv)])
    assert (code, err) == (1, "error: corrector failed\n")
    summary = json.loads(out)
    assert summary["outcome"] == "diverged"
    assert summary["steps"] == 1
    assert len(out_csv.read_text().strip().splitlines()) == 2


def _quartic_with_nan(where):
    """The quartic nonlinearity with its gradient NaN wherever ``where(u)``."""
    import numpy as np
    from torusbif.galerkin import NonlinearitySpec

    quartic = NonlinearitySpec.quartic()

    def grad(u, lam):
        out = quartic.grad(u, lam)
        out[where(u)] = np.nan
        return out

    return lambda: NonlinearitySpec("quartic", quartic.value, grad, quartic.hess, quartic.grad_degree)


@pytest.mark.parametrize(
    "where, reason",
    [
        (lambda u: abs(u) > 0.02, "Newton corrector failed at minimum step 1e-06"),
        (lambda u: u == u, "failed to leave the trivial branch at the crossing"),
    ],
    ids=["nan-above-0.02", "nan-everywhere"],
)
def test_diverged_branch_run_says_why(tmp_path, capsys, monkeypatch, where, reason):
    # the solver runs unmocked on a gradient that turns NaN; the run exits 1,
    # names the reason and still writes the partial branch
    from torusbif import galerkin

    monkeypatch.setitem(galerkin.NONLINEARITIES, "quartic", _quartic_with_nan(where))
    cfg, out_csv = write_config(tmp_path, BRANCH_CFG), tmp_path / "branch.csv"
    code, out, err = run(capsys, ["branch", "--config", cfg, "--out", str(out_csv)])
    assert (code, err) == (1, f"error: {reason}\n")
    summary = json.loads(out)
    rows = out_csv.read_text().splitlines()
    assert summary["outcome"] == "diverged"
    assert len(rows) == summary["steps"] + 1
    if summary["steps"] == 0:
        assert summary["final"] is None and rows == ["arclength,lambda,h1_norm"]


def test_selftest_reports_every_criterion_when_the_branch_diverges(capsys, monkeypatch):
    from torusbif import continuation
    from torusbif.continuation import BranchResult

    def diverge(*args, **kwargs):
        return BranchResult(None, [], "diverged", "failed to leave the trivial branch at the crossing")

    # criterion 10 imports the solver when it runs
    monkeypatch.setattr(continuation, "continue_branch", diverge)
    code, out, _ = run(capsys, ["selftest"])
    lines = out.splitlines()
    assert code == 1 and len(lines) == 10
    assert all(line.startswith("[PASS]") for line in lines[:9])
    assert lines[9].startswith(
        "[FAIL] criterion 10 branch-witness: diverged in 0 steps: failed to leave the trivial branch at the crossing ("
    )


IMPORT_PROBE = """
import contextlib, io, json, os, sys

WATCHED = ("dataclasses", "inspect", "numpy", "numpy.ma", "numpy.polynomial", "numpy.random", "scipy")


def loaded():
    return sorted(m for m in WATCHED if m in sys.modules)

seen = {"before": loaded()}
from torusbif.cli import main

# selftest forks its worker on two CPUs or more; show it two, and note what
# is loaded when it forks
fork = os.fork


def probed_fork():
    seen["fork"] = loaded()
    return fork()


os.sched_getaffinity = lambda pid: {0, 1}
os.fork = probed_fork

exact, branch, out, *refused, result = sys.argv[1:]
for command in ("spectrum", "index", "certify"):
    assert main([command, "--config", exact, "--format", "json", "--out", out]) == 0, command
seen["exact"] = loaded()
seen["refused"] = []
for config in refused:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["branch", "--config", config, "--out", out])
    seen["refused"].append([code, err.getvalue(), loaded()])
assert main(["selftest", "--out", out]) == 0
seen["selftest"] = loaded()
tasks = "/proc/self/task"
seen["selftest_tasks"] = len(os.listdir(tasks)) if os.path.isdir(tasks) else None
assert main(["branch", "--config", branch, "--out", out]) == 0
seen["branch"] = loaded()
with open(result, "w") as fh:
    json.dump(seen, fh)
"""


def run_probe(tmp_path, probe, *args, blas_env=None):
    """Run ``probe`` in a fresh interpreter that imports this checkout's
    torusbif, with no BLAS thread count in its environment but
    ``blas_env``; return what it wrote to the path after ``args``."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import torusbif
    from torusbif.cli import BLAS_THREAD_VARIABLES

    src = str(Path(torusbif.__file__).parents[1])
    env = {name: value for name, value in os.environ.items() if name not in BLAS_THREAD_VARIABLES}
    env.update(blas_env or {})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = tmp_path / "result"
    proc = subprocess.run([sys.executable, "-c", probe, *args, str(result)], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(result.read_text())


# galerkin-block values that the branch command refuses without the solver
NO_SOLVER_REFUSALS = [
    ("step", 0.1, "unknown key 'step'"),
    ("target_norm", -1, "target_norm must be a finite positive number, got -1"),
    ("isotropy_restriction", "none", "isotropy_restriction must be 'axisymmetric', got 'none'"),
    ("crossing", 2.5, "expected a rational (int, 'p/q', or {num,den}), got 2.5"),
]


def test_commands_load_only_the_layers_they_use(tmp_path):
    exact = write_config(tmp_path, {**SPHERE_CFG, "a": [-1]}, "exact.json")
    branch = write_config(tmp_path, BRANCH_CFG, "branch.json")
    refused = [
        write_config(tmp_path, {**BRANCH_CFG, "galerkin": {**BRANCH_CFG["galerkin"], key: value}}, f"{key}.json")
        for key, value, _ in NO_SOLVER_REFUSALS
    ]
    seen = run_probe(tmp_path, IMPORT_PROBE, exact, branch, str(tmp_path / "out"), *refused)

    def added(key):
        return [m for m in seen[key] if m not in seen["before"]]

    # the exact commands load neither numpy nor dataclasses and inspect,
    # which cost a fresh process about 10 ms to import
    assert added("exact") == []
    # a branch config that needs no solver to refuse is refused, with exit
    # 2, before numpy loads
    assert seen["refused"] == [
        [2, f"error: bad galerkin block: {message}\n", seen["before"]] for *_, message in NO_SOLVER_REFUSALS
    ]
    # numpy imports inspect itself; no dataclasses, no scipy, no
    # numpy.polynomial (the quadrature seeds its own nodes), and no
    # numpy.ma (np.unique, for one, imports it) or numpy.random (several MB
    # of resident size)
    assert [m for m in added("branch") if m != "inspect"] == ["numpy"]
    assert [m for m in added("selftest") if m != "inspect"] == ["numpy"]
    # selftest forks before numpy loads, so the worker is a copy of a
    # one-thread process that holds no BLAS state, and numpy then starts
    # OpenBLAS without a thread pool
    assert "numpy" not in seen["fork"]
    assert seen["selftest_tasks"] in (1, None)


BLAS_PROBE = """
import json, os, sys
from torusbif.cli import main

branch, out, result = sys.argv[1:]
environ = dict(os.environ)
assert main(["branch", "--config", branch, "--out", out]) == 0
tasks = "/proc/self/task"
seen = {
    "tasks": len(os.listdir(tasks)) if os.path.isdir(tasks) else None,
    "cpus": len(os.sched_getaffinity(0)),
    "environ_kept": dict(os.environ) == environ,
}
with open(result, "w") as fh:
    json.dump(seen, fh)
"""


@pytest.mark.parametrize("caller", [None, "2"], ids=["default", "caller-sets-2"])
def test_a_small_branch_starts_numpy_on_one_blas_thread(tmp_path, caller):
    # OpenBLAS starts its thread pool when numpy loads, and at a small K the
    # pool costs more than it saves; a caller's own OPENBLAS_NUM_THREADS
    # stands, and the command leaves os.environ as it found it
    branch = write_config(tmp_path, BRANCH_CFG, "branch.json")
    blas_env = None if caller is None else {"OPENBLAS_NUM_THREADS": caller}
    seen = run_probe(tmp_path, BLAS_PROBE, branch, str(tmp_path / "out"), blas_env=blas_env)
    assert seen["environ_kept"]
    if seen["tasks"] is None:
        pytest.skip("no /proc/self/task to count threads in")
    assert seen["tasks"] == (1 if caller is None else min(int(caller), seen["cpus"]))


@pytest.mark.parametrize(
    "serial, caller, fresh, inside",
    [
        (True, None, True, "1"),
        (False, None, True, None),
        (True, None, False, None),
        (True, ("OPENBLAS_NUM_THREADS", "4"), True, "4"),
        (True, ("OMP_NUM_THREADS", "2"), True, None),
    ],
    ids=["serial", "not-serial", "numpy-loaded", "caller-openblas", "caller-omp"],
)
def test_serial_blas_sets_one_thread_only_for_a_fresh_numpy(monkeypatch, serial, caller, fresh, inside):
    import os
    import sys

    from torusbif import cli

    for name in cli.BLAS_THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    if caller is not None:
        monkeypatch.setenv(*caller)
    if fresh:  # nothing in the body imports numpy
        monkeypatch.delitem(sys.modules, "numpy", raising=False)
    else:
        import numpy  # noqa: F401
    before = dict(os.environ)
    with cli._serial_blas(serial):
        assert os.environ.get("OPENBLAS_NUM_THREADS") == inside
    assert dict(os.environ) == before


@pytest.mark.parametrize("offset, serial", [(0, True), (1, False)], ids=["at-the-degree", "above-it"])
def test_branch_keeps_the_blas_pool_above_the_serial_degree(tmp_path, capsys, monkeypatch, offset, serial):
    from torusbif import cli

    seen = []
    real = cli._serial_blas

    def recording(flag=True):
        seen.append(flag)
        return real(flag)

    monkeypatch.setattr(cli, "_serial_blas", recording)
    # 3 is no crossing, so the run is refused before the solver starts
    K = cli.SERIAL_BLAS_MAX_DEGREE + offset
    cfg = write_config(tmp_path, {**BRANCH_CFG, "galerkin": {**BRANCH_CFG["galerkin"], "K": K, "crossing": 3}})
    code, out, err = run(capsys, ["branch", "--config", cfg])
    assert (code, out, err) == (2, "", "error: 3 is not a crossing of the trivial branch\n")
    assert seen == [serial]


def test_every_public_name_resolves():
    import torusbif

    missing = [name for name in torusbif.__all__ if not hasattr(torusbif, name)]
    assert missing == []
    assert set(torusbif.__all__) <= set(dir(torusbif))
    namespace = {}
    exec("from torusbif import *", namespace)
    assert set(torusbif.__all__) <= set(namespace)

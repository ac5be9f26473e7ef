"""The benchmark's own correctness checks, run once in-process on the seed-0
commands of every workload, so that a change which breaks a workload's
command or output fails here, before a benchmark run.  The benchmark's files
are only read."""

import ast
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from torusbif.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = _workloads()


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_commands_pass_the_benchmark_check(tmp_path, capsys, name):
    reference = workloads.load_reference()[name]
    for n, command in enumerate(workloads.WORKLOADS[name].commands(0)):
        args, out = list(command.args), tmp_path / f"{n}.out"
        if command.config is not None:  # selftest reads none
            config = tmp_path / f"{n}.config.json"
            config.write_text(json.dumps(command.config), encoding="utf-8")
            args += ["--config", str(config)]
        code = main([*args, "--out", str(out)])
        output = workloads.Output(code, capsys.readouterr().out.encode(), out.read_bytes())
        error = workloads.check(command, output, reference.get(command.kind, {}))
        assert error is None, f"{command.kind}: {error}"


def test_selfcheck_tiny_branch_config_runs(tmp_path, capsys):
    # the branch config of perfbench/selfcheck.py, which states
    # isotropy_restriction; the script imports the harness by bare module
    # names and sets process-wide flags, so the config is read from its
    # source, not imported
    tree = ast.parse((PERFBENCH / "selfcheck.py").read_text(encoding="utf-8"))
    (value,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TINY_BRANCH" for t in node.targets)
    ]
    config = tmp_path / "tiny_branch.json"
    config.write_text(json.dumps(ast.literal_eval(value)), encoding="utf-8")
    assert main(["branch", "--config", str(config), "--out", str(tmp_path / "branch.csv")]) == 0
    assert json.loads(capsys.readouterr().out)["outcome"] == "reached_target"

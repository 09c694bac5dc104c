"""Tests of the benchmark itself: seeded inputs and oracles.

    python3 -m pytest perfbench -q

Outputs are produced in-process by ``erlab.cli.main`` on small inputs, then
corrupted to check that each oracle rejects them.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402

WORKDIR = "perfbench/out/test-work"


def run_inprocess(op: Op):
    _, _, _, code, out, err = next(tracing.replay([op]))
    return code, out, err, oracles.take_dumps(op, ROOT)


@pytest.fixture(scope="module", autouse=True)
def clean_workdir():
    yield
    shutil.rmtree(ROOT / WORKDIR, ignore_errors=True)


@pytest.fixture(scope="module")
def cli_inputs():
    inputs = workloads.generate("cli-analytic", 3, WORKDIR)
    inputs.write_files(ROOT)
    return inputs


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    a = workloads.generate(workload, 11, WORKDIR)
    b = workloads.generate(workload, 11, WORKDIR)
    assert a == b
    assert [op.argv for op in a.ops] == [op.argv for op in b.ops]


def test_other_seed_other_inputs():
    a = workloads.generate("cli-analytic", 11, WORKDIR)
    b = workloads.generate("cli-analytic", 12, WORKDIR)
    assert [op.argv for op in a.ops] != [op.argv for op in b.ops]
    assert a.files != b.files


def test_cli_mix_shape():
    inputs = workloads.generate("cli-analytic", 5, WORKDIR)
    assert len(inputs.ops) == workloads.CLI_OPS
    assert sum(op.expect == "error" for op in inputs.ops) == 6
    assert {op.command for op in inputs.ops if op.expect == "ok"} <= set(workloads.COMMANDS)
    assert all(op.defect for op in inputs.defect_probes)


def test_harness_modules_do_not_import_numpy():
    # a parent holding numpy would inflate the peak RSS its children report
    code = "import sys, oracles, tracing, workloads; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True, text=True)
    assert proc.stdout.strip() == "False", proc.stderr


def test_benchmark_json_lists_the_reported_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        name: unit for name, (unit, _) in tracing.PER_LAYER.items()}


# ---------------------------------------------------------------------------
# oracles accept correct outputs ...
# ---------------------------------------------------------------------------

def test_every_generated_analytic_input_passes(cli_inputs):
    for op in cli_inputs.ops + cli_inputs.probe_ops[:-1]:
        assert oracles.check(op, *run_inprocess(op)) is None, op.argv


def test_defect_probes_are_reported(cli_inputs):
    for op in cli_inputs.defect_probes:
        assert oracles.check(op, *run_inprocess(op)) is not None, op.argv


# ---------------------------------------------------------------------------
# ... and reject corrupted ones
# ---------------------------------------------------------------------------

JSON_OP = Op("squid", (("--p", "1e-6"), ("--temp", "4.2K"), ("--tau", "5us"),
                       ("--format", "json")))
SIM_OP = workloads.sim_op(7, 512, steps=100, dump_dir=f"{WORKDIR}/dump", dumps=(0, 3))


def test_nan_in_json_is_rejected():
    code, out, err, _ = run_inprocess(JSON_OP)
    assert oracles.check(JSON_OP, code, out, err) is None
    doc = json.loads(out)
    doc["rows"][-1]["value"] = float("nan")
    corrupted = json.dumps(doc)
    assert "NaN" in corrupted
    assert "non-finite" in oracles.check(JSON_OP, code, corrupted, err)


def test_wrong_value_is_rejected():
    code, out, err, _ = run_inprocess(JSON_OP)
    doc = json.loads(out)
    doc["rows"][-1]["value"] *= 1 + 1e-9
    assert "predicted_erl" in oracles.check(JSON_OP, code, json.dumps(doc), err)


def test_wrong_exit_code_is_rejected():
    code, out, err, _ = run_inprocess(JSON_OP)
    assert "exit 1" in oracles.check(JSON_OP, 1, out, err)
    error_op = Op("squid", (("--p", "nan"), ("--temp", "4.2K"), ("--tau", "5us")), "error")
    code, out, err, _ = run_inprocess(error_op)
    assert code == 2 and oracles.check(error_op, code, out, err) is None
    assert oracles.check(error_op, 0, out, err) is not None
    assert "traceback" in oracles.check(error_op, None, out, "Traceback (most recent call last):")


@pytest.fixture(scope="module")
def sim_output():
    (ROOT / WORKDIR / "dump").mkdir(parents=True, exist_ok=True)
    code, out, err, dumps = run_inprocess(SIM_OP)
    assert code == 0 and len(dumps) == 2
    return out, dumps


def test_simulate_passes(sim_output):
    out, dumps = sim_output
    assert oracles.check(SIM_OP, 0, out, "", dumps) is None


def test_shifted_variance_is_rejected(sim_output):
    out, dumps = sim_output
    doc = json.loads(out)
    doc["variance"] *= 1.5
    assert "standard errors" in oracles.check(SIM_OP, 0, json.dumps(doc), "", dumps)


def test_wrong_config_echo_is_rejected(sim_output):
    out, dumps = sim_output
    doc = json.loads(out)
    doc["config_echo"]["seed"] += 1
    assert "config_echo" in oracles.check(SIM_OP, 0, json.dumps(doc), "", dumps)


def test_short_or_missing_dump_is_rejected(sim_output):
    out, dumps = sim_output
    short = (dumps[0], dataclasses.replace(dumps[1], lines=dumps[1].lines - 1))
    assert "rows" in oracles.check(SIM_OP, 0, out, "", short)
    missing = (dumps[0], oracles.Dump(dumps[1].name))
    assert "missing" in oracles.check(SIM_OP, 0, out, "", missing)


def test_changed_byte_is_rejected(sim_output):
    out, dumps = sim_output
    determinism = oracles.Determinism()
    assert determinism.check(SIM_OP, out, dumps) is None
    assert determinism.check(SIM_OP, out, dumps) is None
    assert determinism.check(SIM_OP, out.replace("1", "2", 1), dumps) is not None
    changed_dump = (dumps[0], dataclasses.replace(dumps[1], digest="0" * 64))
    assert determinism.check(SIM_OP, out, changed_dump) is not None


def test_span_wrapper_cost_is_positive():
    assert 0 < tracing.wrapper_cost() < 1e-4

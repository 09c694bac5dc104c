"""End-to-end CLI tests via subprocess (``python -m erlab``)."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from erlab.sensors import VaporCell, atomic_floor
from erlab.species import default_catalog

PKG_DATA = Path(__file__).resolve().parent.parent / "src" / "erlab" / "data"


def run_cli(*args, env_extra=None, cwd=None):
    env = os.environ.copy()
    env.pop("ERLAB_SPECIES_FILE", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "erlab", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


# ---------------------------------------------------------------------------
# happy paths
# ---------------------------------------------------------------------------

def test_version():
    proc = run_cli("--version")
    assert proc.returncode == 0
    assert proc.stdout.startswith("erlab ")


def test_table1_text():
    proc = run_cli("table1")
    assert proc.returncode == 0
    assert "41K.delta_B_floor" in proc.stdout
    assert "3.68951" in proc.stdout
    assert "6764.09" in proc.stdout
    assert proc.stderr == ""


def test_table1_matches_library():
    proc = run_cli("table1", "--format", "json")
    doc = json.loads(proc.stdout)
    rows = {r["label"]: r["value"] for r in doc["rows"]}
    for sp in default_catalog():
        rep = atomic_floor(VaporCell(sp, 1e20, 1e-5))
        assert rows[f"{sp.name}.erl"] == rep.erl_hbar
        assert rows[f"{sp.name}.delta_B_floor"] == rep.delta_B_floor / 1e-17


def test_atomic_matches_library():
    proc = run_cli(
        "atomic", "--species", "Cs", "--density", "2e13/cm3", "--volume", "1cm3",
        "--format", "json",
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    rows = {r["label"]: r for r in doc["rows"]}
    rep = atomic_floor(VaporCell(default_catalog().get("Cs"), 2e19, 1e-6))
    assert rows["delta_B_floor"]["value"] == rep.delta_B_floor
    assert rows["psd"]["value"] == rep.psd
    assert rows["erl"]["unit"] == "hbar"
    assert rows["delta_B_floor"]["provenance"] == "predicted"
    assert doc["header"]["species"] == "133Cs"


def test_atomic_unit_spellings_are_equivalent():
    a = run_cli("atomic", "--species", "K", "--density", "1e14/cm3", "--volume", "1cm3")
    b = run_cli("atomic", "--species", "K", "--density", "1e20m^-3", "--volume", "1e-6m3")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_atomic_explicit_temperature_changes_floor():
    hot = run_cli("atomic", "--species", "K", "--density", "1e14/cm3", "--volume", "1cm3",
                  "--temp", "500K", "--format", "json")
    ref = run_cli("atomic", "--species", "K", "--density", "1e14/cm3", "--volume", "1cm3",
                  "--format", "json")
    v_hot = {r["label"]: r["value"] for r in json.loads(hot.stdout)["rows"]}["delta_B_floor"]
    v_ref = {r["label"]: r["value"] for r in json.loads(ref.stdout)["rows"]}["delta_B_floor"]
    assert v_hot > v_ref  # faster collisions at higher temperature


def test_squid_command():
    proc = run_cli(
        "squid", "--p", "4.5e-8", "--temp", "4.2K", "--tau", "0.5e-5s",
        "--measured", "6.3", "--format", "json",
    )
    assert proc.returncode == 0
    rows = {r["label"]: r["value"] for r in json.loads(proc.stdout)["rows"]}
    assert rows["predicted_erl"] == pytest.approx(2.0929174374991533, rel=1e-12)
    assert rows["ratio_measured_to_predicted"] == pytest.approx(3.0101521861884475, rel=1e-12)


def test_diamond_command():
    proc = run_cli(
        "diamond", "--temp", "300K", "--tau", "1us",
        "--psd", "300pT/rtHz", "--volume", "2.79e-12m3", "--format", "json",
    )
    rows = {r["label"]: r["value"] for r in json.loads(proc.stdout)["rows"]}
    assert rows["optimal_erl"] == pytest.approx(27224119.183147293, rel=1e-12)
    assert rows["measured_erl"] == pytest.approx(947394134.7546226, rel=1e-12)


def test_table2_csv_has_fixed_schema():
    proc = run_cli("table2", "--format", "csv")
    assert proc.returncode == 0
    reader = list(csv.reader(io.StringIO(proc.stdout)))
    assert reader[0] == ["label", "p", "T_K", "tau_s", "predicted_erl_hbar", "measured_erl_hbar", "ratio"]
    assert len(reader) == 6
    assert all(len(line) == 7 for line in reader)


def test_table2_text_warns_on_subunity_ratio():
    proc = run_cli("table2")
    assert "Awschalom1988.warning" in proc.stdout
    assert "Wakai1988.warning" in proc.stdout
    assert "Schmelz2017.warning" not in proc.stdout


def test_compare_with_custom_records(tmp_path):
    records = tmp_path / "records.json"
    records.write_text(json.dumps(
        [{"label": "lab", "p": 1e-6, "T_K": 4.2, "tau_s": 5e-6, "measured_erl_hbar": 100.0}]
    ))
    proc = run_cli("compare", "--records", str(records), "--format", "csv")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1].startswith("lab,1e-06,4.2,")


def test_species_list_csv():
    proc = run_cli("species-list", "--format", "csv")
    reader = list(csv.reader(io.StringIO(proc.stdout)))
    assert reader[0] == ["label", "value", "unit", "provenance"]
    labels = [line[0] for line in reader[1:]]
    assert "133Cs.slowing_factor" in labels
    idx = labels.index("133Cs.slowing_factor")
    assert float(reader[1 + idx][1]) == 22.0


def test_output_file_equals_stdout(tmp_path):
    out = tmp_path / "t1.json"
    proc = run_cli("table1", "--format", "json", "--output", str(out))
    assert proc.returncode == 0
    assert proc.stdout == ""
    direct = run_cli("table1", "--format", "json")
    assert out.read_text() == direct.stdout


def test_digits_flag_controls_text_precision():
    short = run_cli("table1", "--digits", "3")
    long = run_cli("table1", "--digits", "12")
    assert "3.69" in short.stdout and "3.68951" not in short.stdout
    assert "3.6895061499" in long.stdout


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_table_output_is_stable_between_runs():
    assert run_cli("table1", "--format", "json").stdout == run_cli("table1", "--format", "json").stdout
    assert run_cli("table2", "--format", "csv").stdout == run_cli("table2", "--format", "csv").stdout


SIM_ARGS = ("simulate", "--atoms", "1e6", "--trajectories", "2000", "--seed", "42")


def test_simulate_byte_identical_across_runs_and_workers():
    one = run_cli(*SIM_ARGS)
    two = run_cli(*SIM_ARGS)
    threaded = run_cli(*SIM_ARGS, "--workers", "4")
    assert one.returncode == 0
    assert one.stdout == two.stdout == threaded.stdout
    doc = json.loads(one.stdout)
    assert doc["config_echo"]["seed"] == 42
    # workers must not leak into the echoed configuration
    assert "workers" not in doc["config_echo"]


def test_simulate_text_and_csv_formats():
    text = run_cli(*SIM_ARGS, "--format", "text")
    assert "variance_at_horizon" in text.stdout
    as_csv = run_cli(*SIM_ARGS, "--format", "csv")
    header, values = as_csv.stdout.strip().split("\n")
    assert header == "variance,std_error,mean"
    var = float(values.split(",")[0])
    assert var == pytest.approx(json.loads(run_cli(*SIM_ARGS).stdout)["variance"], rel=1e-15)


def test_simulate_trajectory_dumps(tmp_path):
    proc = run_cli(
        "simulate", "--atoms", "100", "--trajectories", "10", "--seed", "7",
        "--steps-per-tau", "10", "--dump-trajectories", "0,3",
        "--dump-dir", str(tmp_path),
    )
    assert proc.returncode == 0
    for idx in (0, 3):
        lines = (tmp_path / f"trajectory_{idx}.csv").read_text().strip().split("\n")
        assert lines[0] == "t_over_tau,value"
        assert len(lines) == 12  # header + t=0 + 10 steps
        assert lines[1] == "0.0,0.0"


def test_simulate_matches_analytic_from_cli():
    proc = run_cli("simulate", "--atoms", "1e6", "--trajectories", "20000", "--seed", "5")
    doc = json.loads(proc.stdout)
    target = 0.16809124072457832e-6
    se = doc["variance"] * math.sqrt(2.0 / 19999)
    assert abs(doc["variance"] - target) < 4.0 * se


# ---------------------------------------------------------------------------
# species file override
# ---------------------------------------------------------------------------

def _custom_species_file(tmp_path):
    doc = json.loads((PKG_DATA / "species.json").read_text())
    doc["species"] = [row for row in doc["species"] if row["name"] == "133Cs"]
    path = tmp_path / "only_cs.json"
    path.write_text(json.dumps(doc))
    return path


def test_env_var_selects_species_file(tmp_path):
    path = _custom_species_file(tmp_path)
    proc = run_cli("table1", env_extra={"ERLAB_SPECIES_FILE": str(path)})
    assert proc.returncode == 0
    assert "133Cs.erl" in proc.stdout
    assert "41K" not in proc.stdout


def test_flag_overrides_env_var(tmp_path):
    path = _custom_species_file(tmp_path)
    proc = run_cli(
        "table1", "--species-file", str(path),
        env_extra={"ERLAB_SPECIES_FILE": "/does/not/exist.json"},
    )
    assert proc.returncode == 0
    assert "133Cs.erl" in proc.stdout


def test_env_var_pointing_nowhere_is_io_error():
    proc = run_cli("table1", env_extra={"ERLAB_SPECIES_FILE": "/does/not/exist.json"})
    assert proc.returncode == 3
    assert proc.stderr.startswith("erlab: error: io:")


# ---------------------------------------------------------------------------
# failure taxonomy: 1 usage, 2 validation, 3 io
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "args",
    [
        (),
        ("frobnicate",),
        ("table1", "--nonsense"),
        ("atomic", "--species", "Cs"),  # missing required flags
        ("simulate", "--atoms", "ten", "--trajectories", "5", "--seed", "0"),
    ],
)
def test_usage_errors_exit_1(args):
    proc = run_cli(*args)
    assert proc.returncode == 1
    assert proc.stderr.startswith("erlab: error: usage:")
    assert len(proc.stderr.strip().split("\n")) == 1


@pytest.mark.parametrize(
    "args",
    [
        ("atomic", "--species", "Xe", "--density", "1e14/cm3", "--volume", "1cm3"),
        ("atomic", "--species", "Cs", "--density", "1e14", "--volume", "1cm3"),
        ("atomic", "--species", "Cs", "--density", "1e14/cm3", "--volume", "1s"),
        ("squid", "--p", "2.0", "--temp", "4.2K", "--tau", "1us"),
        ("squid", "--p", "1e-6", "--temp", "0K", "--tau", "1us"),
        ("diamond", "--temp", "300K", "--tau", "1us", "--psd", "300pT/rtHz"),
        ("simulate", "--atoms", "1e6", "--trajectories", "0", "--seed", "0"),
        ("simulate", "--atoms", "1e6", "--trajectories", "5", "--seed", "0",
         "--dump-trajectories", "a,b"),
        ("simulate", "--atoms", "1e6", "--trajectories", "5", "--seed", "0",
         "--dump-trajectories", "99"),
        # values that overflow to infinity in SI, or are NaN or infinite
        ("atomic", "--species", "Cs", "--density", "1e400/cm3", "--volume", "1cm3"),
        ("squid", "--p", "1e-6", "--temp", "4.2K", "--tau", "1us", "--measured", "nan"),
        ("diamond", "--temp", "1e400K", "--tau", "1us"),
        ("simulate", "--atoms", "nan", "--trajectories", "5", "--seed", "0"),
        ("simulate", "--atoms", "1e6", "--trajectories", "5", "--seed", "0", "--horizon", "inf"),
        ("simulate", "--atoms", "inf", "--trajectories", "5", "--seed", "0"),
        # each value finite, but N = density * volume overflows
        ("atomic", "--species", "Cs", "--density", "1e300/cm3", "--volume", "1e300cm3"),
    ],
)
def test_validation_errors_exit_2(args):
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("erlab: error: validation:")
    assert len(proc.stderr.strip().split("\n")) == 1


@pytest.mark.parametrize(
    "args",
    [
        ("table2", "--records", "/no/such/file.json"),
        ("table1", "--species-file", "/no/such/species.json"),
        ("table1", "--output", "/no/such/dir/out.txt"),
    ],
)
def test_io_errors_exit_3(args):
    proc = run_cli(*args)
    assert proc.returncode == 3
    assert proc.stderr.startswith("erlab: error: io:")


def test_bad_records_content_is_validation_error(tmp_path):
    path = tmp_path / "records.json"
    path.write_text("{\"oops\": 1}")
    proc = run_cli("table2", "--records", str(path))
    assert proc.returncode == 2
    assert proc.stderr.startswith("erlab: error: validation:")

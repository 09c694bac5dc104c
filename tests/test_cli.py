"""End-to-end CLI tests via subprocess (``python -m erlab``), and one
in-process property test over arbitrary numeric inputs."""

import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from erlab.cli import main as cli_main
from erlab.report import Report, render_json, render_text
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
    # no float has more than 767 significant digits, so the cap of 1000 prints the same
    assert run_cli("table1", "--digits", "1000").stdout == run_cli("table1", "--digits", "767").stdout
    over = run_cli("table1", "--digits", "1001")
    assert over.returncode == 2
    assert over.stderr == "erlab: error: validation: --digits must be from 0 to 1000, got 1001\n"


# ---------------------------------------------------------------------------
# layering: only simulate needs numpy
# ---------------------------------------------------------------------------

def _imports(*args):
    """The modules a fresh ``python -X importtime ARGS`` imports, and the process."""
    env = os.environ.copy()
    env.pop("ERLAB_SPECIES_FILE", None)
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], capture_output=True, text=True, env=env)
    modules = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    return modules, proc


def test_only_simulate_imports_numpy():
    for args in (("-c", "import erlab.cli"), ("-m", "erlab", "table1")):
        modules, proc = _imports(*args)
        assert proc.returncode == 0
        assert "erlab.cli" in modules and "numpy" not in modules
    modules, proc = _imports("-m", "erlab", "simulate", "--atoms", "1e6", "--trajectories", "100",
                             "--seed", "1")
    assert proc.returncode == 0
    assert "numpy" in modules
    assert json.loads(proc.stdout)["config_echo"]["trajectory_count"] == 100


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


def _main_in_process(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(list(argv))
    return code, out.getvalue(), err.getvalue()


WIDE_SIM_ARGS = ("simulate", "--atoms", "1e6", "--trajectories", "8193", "--seed", "43")  # 3 blocks


def test_simulate_defaults_to_the_usable_cpus(fake_cpus, record_forks):
    fake_cpus(2)
    forks = record_forks()
    serial = _main_in_process(*WIDE_SIM_ARGS, "--workers", "1")
    assert forks == []
    assert _main_in_process(*WIDE_SIM_ARGS) == serial
    assert len(forks) == 1  # two usable CPUs: this process and one fork
    assert serial[0] == 0 and serial[2] == ""


def test_simulate_failed_worker_exits_3(fake_cpus, record_forks):
    fake_cpus(2)
    forks = record_forks(child=lambda: os._exit(1))
    code, out, err = _main_in_process(*WIDE_SIM_ARGS)
    assert len(forks) == 1
    assert (code, out) == (3, "")
    assert re.fullmatch(r"erlab: error: io: worker process \d+ ended before sending its results\n", err)
    with pytest.raises(ChildProcessError):  # the worker was reaped
        os.waitpid(-1, os.WNOHANG)


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
        # finite inputs whose results overflow or underflow the float range
        ("diamond", "--temp", "300K", "--tau", "1e300s"),
        ("squid", "--p", "0.5", "--temp", "1e200K", "--tau", "1e200s"),
        ("atomic", "--species", "Cs", "--density", "1e-280/m3", "--volume", "1e280m3"),
        ("atomic", "--species", "Cs", "--density", "1e300/m3", "--volume", "1e-299m3"),
        ("atomic", "--species", "Cs", "--density", "1e14/cm3", "--volume", "1cm3",
         "--temp", "1e300K"),
        # a measured-to-predicted ratio that overflows, or has no prediction
        ("squid", "--p", "0.5", "--temp", "1e-10K", "--tau", "1e-10s", "--measured", "1e300"),
        ("diamond", "--temp", "300K", "--tau", "0s", "--psd", "1pT/rtHz", "--volume", "1m3"),
        # over the simulator's memory budget, rejected before allocating
        ("simulate", "--atoms", "1e4", "--trajectories", "3", "--seed", "0",
         "--steps-per-tau", "1000000000000"),
        # --digits outside 0..1000, in every format
        *(("squid", "--p", "0.1", "--temp", "4K", "--tau", "1s", "--format", fmt, "--digits", d)
          for fmt in ("text", "json", "csv") for d in ("-1", "100000000000")),
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


def test_bad_records_content_is_validation_error(tmp_path, monkeypatch):
    path = tmp_path / "records.json"
    for content in (
        "{\"oops\": 1}",
        '[{"label": "a", "p": 1e-6, "T_K": NaN, "tau_s": 1e-6, "measured_erl_hbar": 5}]',
        # an integer past the float range
        '[{"label": "a", "p": 1e-6, "T_K": 1%s, "tau_s": 1e-6, "measured_erl_hbar": 5}]'
        % ("0" * 400),
        # an integer past Python's digit limit, which json.load rejects
        '[{"label": "a", "p": 1e-6, "T_K": 1%s, "tau_s": 1e-6, "measured_erl_hbar": 5}]'
        % ("0" * 5000),
    ):
        path.write_text(content)
        proc = run_cli("table2", "--records", str(path))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"erlab: error: validation: {path}: ")
    # a 4001-digit integer, or a 4000-character string, is quoted by its head only
    monkeypatch.chdir(tmp_path)
    for value in ("1" + "0" * 4000, '"%s"' % ("9" * 4000)):
        path.write_text(
            '[{"label": "a", "p": 1e-6, "T_K": %s, "tau_s": 1e-6, "measured_erl_hbar": 5}]' % value
        )
        code, out, err = _main_in_process("compare", "--records", path.name)
        assert (code, out) == (2, "")
        assert err.startswith("erlab: error: validation: records.json: record 0: field 'T_K' must be ")
        assert len(err.splitlines()) == 1 and len(err.encode()) < 200


# ---------------------------------------------------------------------------
# property: any numeric input ends in a documented exit code
# ---------------------------------------------------------------------------

_EDGE_NUMBERS = ("nan", "inf", "-inf", "-0", "0", "1e400", "1e-400", "-1",
                 "5e-324", "1e-300", "1e300", "1e308")
_numbers = st.one_of(
    st.sampled_from(_EDGE_NUMBERS),
    st.floats().map(repr),
    st.integers(-10**6, 10**6).map(str),
)


@st.composite
def _argv(draw, dump_dir):
    def num(unit=""):
        return draw(_numbers) + unit

    command = draw(st.sampled_from(("atomic", "squid", "diamond", "simulate")))
    if command == "atomic":
        argv = ["atomic", "--species", "Cs", "--density", num("/cm3"), "--volume", num("cm3")]
        if draw(st.booleans()):
            argv += ["--temp", num("K")]
    elif command == "squid":
        argv = ["squid", "--p", num(), "--temp", num("K"), "--tau", num("s")]
        if draw(st.booleans()):
            argv += ["--measured", num()]
    elif command == "diamond":
        argv = ["diamond", "--temp", num("K"), "--tau", num("s")]
        if draw(st.booleans()):
            argv += ["--psd", num("pT/rtHz"), "--volume", num("m3")]
    else:
        # at most 4 trajectories and 1e5 steps, or a step count past the budget
        horizon = st.one_of(st.sampled_from(_EDGE_NUMBERS), st.floats(-10, 100).map(repr))
        argv = [
            "simulate", "--atoms", num(), "--tau", num("s"),
            "--trajectories", draw(st.sampled_from(("1", "4", "0", "-1", "nan", "1e400", "2.5"))),
            "--seed", draw(st.one_of(_numbers, st.integers(-1, 2**64).map(str))),
            "--steps-per-tau", draw(st.sampled_from(("10", "1000", "5", "-0", "nan", "1e3",
                                                     "1000000000000"))),
            "--horizon", draw(horizon),
            "--workers", draw(st.sampled_from(("1", "2", "0", "-1", "inf"))),
            "--dump-trajectories", draw(st.sampled_from(("0", "0,3", "-1", "4", "nan"))),
            "--dump-dir", str(dump_dir),
        ]
    fmt = draw(st.sampled_from(("text", "json", "csv")))
    digits = draw(st.sampled_from(("6", "17", "0", "-1", "nan", "1e400")))
    return argv + ["--format", fmt, "--digits", digits]


def test_json_is_strict_and_a_missing_value_is_null():
    with pytest.raises(ValueError):
        render_json(Report("t", {}, (("x", math.inf, "", "derived"),)))
    missing = Report("t", {}, (("x", None, "", "derived"),))
    assert json.loads(render_json(missing))["rows"][0]["value"] is None
    assert render_text(missing).splitlines()[-1].split() == ["x", "nan", "derived"]


def test_report_refuses_an_unknown_provenance_and_names_the_row():
    with pytest.raises(ValueError, match=r"row 'y': provenance must be one of .*, got 'guessed'"):
        Report("t", {}, (("x", 1.0, "", "derived"), ("y", 2.0, "", "guessed")))


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_numeric_input_exits_with_a_documented_code(data, tmp_path):
    argv = data.draw(_argv(tmp_path))
    code, out, err = _main_in_process(*argv)
    assert code in (0, 1, 2, 3)
    if code:
        assert out == ""
        assert len(err.splitlines()) == 1
        return
    assert err == ""
    if argv[argv.index("--format") + 1] == "json":
        json.loads(out, parse_constant=_reject_constant)
    else:
        assert not re.search(r"\b(nan|inf)\b", out, re.IGNORECASE)

"""CLI tests.  They call ``erlab.cli.main`` in-process through ``run_main``
(``tests/conftest.py``), except the few that test what only a process
shows: the ``python -m erlab`` entry point and its exit status, the
``ERLAB_SPECIES_FILE`` variable, ``--output`` and the modules a command
imports, which start one through ``_process``.  ``tests/test_golden.py``
pins the bytes of every command's output at fixed argv; here
``_check_against_library`` holds the values of the analytic commands to the
library, over drawn inputs in the property test at the end and at
hand-picked argv in the happy-path tests."""

import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import astuple
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from erlab import sensors, units
from erlab.report import Report, format_value, render_json, render_text
from erlab.species import default_catalog
from erlab.units import FIELD_NOISE_DENSITY, NUMBER_DENSITY, TEMPERATURE, TIME, VOLUME, parse_quantity

PKG_DATA = Path(__file__).resolve().parent.parent / "src" / "erlab" / "data"


def _process(*args, env=None):
    """A fresh ``python ARGS`` process, run to its end, with
    ``ERLAB_SPECIES_FILE`` unset unless ``env`` sets it."""
    environ = {k: v for k, v in os.environ.items() if k != "ERLAB_SPECIES_FILE"}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env={**environ, **(env or {})}
    )


# ---------------------------------------------------------------------------
# the library oracle of the analytic commands
# ---------------------------------------------------------------------------

# (label, unit, provenance) of each row an analytic command prints, in order;
# those of table1, species-list, table2 and compare repeat for each species or record
_SCHEMA = {
    "atomic": (
        ("atom_count", "", "derived"), ("relaxation_time", "s", "derived"),
        ("delta_B_floor", "T", "predicted"), ("erl", "hbar", "predicted"), ("kappa", "", "derived"),
        ("kappa_bare", "", "derived"), ("spin_temperature", "K", "derived"),
        ("correlation_atoms", "", "derived"), ("correlation_volume", "m3", "derived"),
        ("collision_time", "s", "derived"), ("sd_phase", "", "derived"),
        ("delta_B_uncertainty_check", "T", "derived"), ("psd", "T/rtHz", "predicted"),
    ),
    "squid": (
        ("flux_noise_fraction", "", "measured"), ("bath_temperature", "K", "measured"),
        ("measurement_time", "s", "measured"), ("info_gained", "nat", "derived"),
        ("predicted_erl", "hbar", "predicted"), ("measured_erl", "hbar", "measured"),
        ("ratio_measured_to_predicted", "", "derived"),
    ),
    "diamond": (
        ("bath_temperature", "K", "measured"), ("relaxation_time", "s", "measured"),
        ("optimal_erl", "hbar", "predicted"), ("noise_density", "T/rtHz", "measured"),
        ("sensing_volume", "m3", "measured"), ("measured_erl", "hbar", "measured"),
        ("ratio_measured_to_optimal", "", "derived"),
    ),
    "table1": (("delta_B_floor", "1e-17 T", "predicted"), ("erl", "hbar", "predicted")),
    "species-list": (
        ("nuclear_spin", "", "measured"), ("mass", "amu", "measured"), ("sd_cross_section", "cm2", "derived"),
        ("reference_temperature", "K", "derived"), ("slowing_factor", "", "derived"),
        ("magnetic_moment", "J/T", "derived"), ("mean_relative_velocity", "m/s", "derived"),
    ),
    "table2": (
        ("p", "", "measured"), ("bath_temperature", "K", "measured"), ("measurement_time", "s", "measured"),
        ("predicted_erl", "hbar", "predicted"), ("measured_erl", "hbar", "measured"),
        ("ratio", "", "derived"), ("warning", "", "derived"),
    ),
}
_SCHEMA["compare"] = _SCHEMA["table2"]
# table2 and compare print CSV one line per record, the first six values as its columns
_WIDE_CSV_HEADER = ["label", "p", "T_K", "tau_s", "predicted_erl_hbar", "measured_erl_hbar", "ratio"]


def _library_values(command, opts):
    """``(label prefix, values)`` for each species or record the analytic
    ``command`` reports with the options ``opts``: the values the library
    computes, in ``_SCHEMA`` order, without the rows the command leaves out;
    ValueError or KeyError where the library refuses the options."""

    def si(flag, dimension):
        return parse_quantity(opts[flag], dimension).si

    if command == "atomic":
        temperature = si("--temp", TEMPERATURE) if "--temp" in opts else None
        species = default_catalog().get(opts["--species"])
        cell = sensors.VaporCell(species, si("--density", NUMBER_DENSITY), si("--volume", VOLUME), temperature)
        return [("", astuple(sensors.atomic_floor(cell)))]
    if command == "squid":
        measured = float(opts["--measured"]) if "--measured" in opts else None
        spec = sensors.SquidSpec(float(opts["--p"]), si("--temp", TEMPERATURE), si("--tau", TIME), measured)
        predicted = sensors.squid_erl(spec)
        values = [spec.flux_noise_fraction, spec.bath_temperature, spec.measurement_time, spec.info_nats,
                  predicted]
        if measured is not None:
            values += [measured, sensors.erl_ratio(measured, predicted)]
        return [("", values)]
    if command == "diamond":
        temperature, tau = si("--temp", TEMPERATURE), si("--tau", TIME)
        optimal = sensors.diamond_erl(temperature, tau)
        values = [temperature, tau, optimal]
        if "--psd" in opts:
            psd, volume = si("--psd", FIELD_NOISE_DENSITY), si("--volume", VOLUME)
            measured = sensors.measured_erl_from_psd(psd, volume)
            values += [psd, volume, measured, sensors.erl_ratio(measured, optimal)]
        return [("", values)]
    if command == "table1":
        reports = [(sp.name, sensors.atomic_floor(sensors.VaporCell(sp, 1e20, 1e-5))) for sp in default_catalog()]
        return [(f"{name}.", (rep.delta_B_floor / 1e-17, rep.erl_hbar)) for name, rep in reports]
    groups = []
    if command == "species-list":
        for sp in default_catalog():
            sigma = sp.sd_cross_section_m2
            values = (str(sp.nuclear_spin), sp.mass_kg / units.constants().atomic_mass,
                      None if sigma is None else sigma * 1e4, sp.reference_temperature_K,
                      sp.slowing_factor, sp.magnetic_moment, sp.mean_relative_velocity())
            groups.append((f"{sp.name}.", values))
        return groups
    path = opts.get("--records")
    for row in sensors.compare_published(
        sensors.load_published_records(path) if path else sensors.default_published_records()
    ):
        warning = ("measured below prediction",) if row.flagged else ()
        groups.append((f"{row.label}.", astuple(row)[1:-1] + warning))  # the fields from p to ratio
    return groups


def _check_against_library(run_main, *argv):
    """Run the analytic command ``argv`` and hold its outcome to the library's:
    exit 2 where ``_library_values`` refuses the options or ``--digits`` is
    out of range, else exit 0 and the library's rows, each value exact in
    JSON and ``format_value(value, digits)`` in text and CSV.  An argv
    argparse refuses (exit 1) is not checked here.  Returns the run's outcome."""
    result = code, out, err = run_main(*argv)
    if code == 1:
        return result
    command, opts = argv[0], dict(zip(argv[1::2], argv[2::2]))
    try:
        digits = int(opts.get("--digits", "6"))
        if not 0 <= digits <= 1000:
            raise ValueError(f"--digits {digits}")
        groups = _library_values(command, opts)
    except (ValueError, KeyError):
        assert code == 2, argv
        return result
    assert (code, err) == (0, ""), argv
    rows = [(prefix + label, value, unit, prov)
            for prefix, values in groups for value, (label, unit, prov) in zip(values, _SCHEMA[command])]
    fmt = opts.get("--format", "text")
    if fmt == "json":
        got = json.loads(out)["rows"]
        expected = [dict(zip(("label", "value", "unit", "provenance"), row)) for row in rows]
    elif fmt == "text":
        got = [line.split() for line in out.splitlines() if not line.startswith("#")]
        expected = [f"{label} {format_value(v, digits)} {unit} {prov}".split() for label, v, unit, prov in rows]
    elif command in ("table2", "compare"):
        got = list(csv.reader(io.StringIO(out)))
        expected = [_WIDE_CSV_HEADER, *([prefix[:-1], *(format_value(v, digits) for v in values[:6])]
                                        for prefix, values in groups)]
    else:
        got = list(csv.reader(io.StringIO(out)))
        expected = [["label", "value", "unit", "provenance"],
                    *([label, format_value(v, digits), unit, prov] for label, v, unit, prov in rows)]
    assert got == expected, argv
    return result


# ---------------------------------------------------------------------------
# what only a process shows
# ---------------------------------------------------------------------------

def test_version():
    proc = _process("-m", "erlab", "--version")
    assert proc.returncode == 0
    assert proc.stdout.startswith("erlab ")


def test_output_file_equals_stdout(run_main, tmp_path):
    out = tmp_path / "t1.json"
    proc = _process("-m", "erlab", "table1", "--format", "json", "--output", str(out))
    assert proc.returncode == 0
    assert proc.stdout == ""
    assert out.read_text() == run_main("table1", "--format", "json")[1]


def _custom_species_file(tmp_path):
    doc = json.loads((PKG_DATA / "species.json").read_text())
    doc["species"] = [row for row in doc["species"] if row["name"] == "133Cs"]
    path = tmp_path / "only_cs.json"
    path.write_text(json.dumps(doc))
    return path


def test_env_var_selects_species_file(tmp_path):
    path = _custom_species_file(tmp_path)
    proc = _process("-m", "erlab", "table1", env={"ERLAB_SPECIES_FILE": str(path)})
    assert proc.returncode == 0
    assert "133Cs.erl" in proc.stdout
    assert "41K" not in proc.stdout


def test_flag_overrides_env_var(tmp_path):
    path = _custom_species_file(tmp_path)
    proc = _process(
        "-m", "erlab", "table1", "--species-file", str(path),
        env={"ERLAB_SPECIES_FILE": "/does/not/exist.json"},
    )
    assert proc.returncode == 0
    assert "133Cs.erl" in proc.stdout


def test_env_var_pointing_nowhere_is_io_error():
    proc = _process("-m", "erlab", "table1", env={"ERLAB_SPECIES_FILE": "/does/not/exist.json"})
    assert proc.returncode == 3
    assert proc.stderr.startswith("erlab: error: io:")


# argv -> modules its process must not load: each command imports only
# what it runs, and only simulate loads numpy
_NO_COMMAND = {"numpy", "erlab.units", "erlab.sensors", "erlab.species", "erlab.report"}
_LAYERING = (
    (("-c", "import erlab.cli"), {"numpy"}),
    (("-m", "erlab", "table1"), {"numpy"}),
    (("-m", "erlab", "--version"), _NO_COMMAND),
    (("-m", "erlab", "--help"), _NO_COMMAND),
    (("-m", "erlab", "species-list"), {"numpy", "erlab.sensors", "erlab.bounds"}),
    (("-m", "erlab", "squid", "--p", "0.01", "--temp", "4.2K", "--tau", "1us"), {"numpy", "erlab.species"}),
    (("-m", "erlab", "diamond", "--temp", "300K", "--tau", "1us"), {"numpy", "erlab.species"}),
    (("-m", "erlab", "simulate", "--atoms", "1e6", "--trajectories", "100", "--seed", "1"),
     {"erlab.sensors", "erlab.species", "erlab.bounds"}),
)


def test_only_simulate_imports_numpy():
    for args, absent in _LAYERING:
        proc = _process("-X", "importtime", *args)
        modules = {
            line.rsplit("|", 1)[1].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:")
        }
        assert proc.returncode == 0, args
        assert "erlab.cli" in modules and not modules & absent, (args, modules & absent)
    assert "numpy" in modules
    assert json.loads(proc.stdout)["config_echo"]["trajectory_count"] == 100


# ---------------------------------------------------------------------------
# analytic commands: the library oracle at hand-picked argv
# ---------------------------------------------------------------------------

def test_table1_text(run_main):
    assert _check_against_library(run_main, "table1")[0] == 0


def test_table1_matches_library(run_main):
    assert _check_against_library(run_main, "table1", "--format", "json")[0] == 0


def test_atomic_matches_library(run_main):
    argv = ("atomic", "--species", "Cs", "--density", "2e13/cm3", "--volume", "1cm3", "--format", "json")
    assert _check_against_library(run_main, *argv)[0] == 0


def test_atomic_unit_spellings_are_equivalent(run_main):
    a = run_main("atomic", "--species", "K", "--density", "1e14/cm3", "--volume", "1cm3")
    b = run_main("atomic", "--species", "K", "--density", "1e20m^-3", "--volume", "1e-6m3")
    assert a[0] == 0 and a == b


def test_atomic_explicit_temperature_changes_floor(run_main):
    argv = ("atomic", "--species", "K", "--density", "1e14/cm3", "--volume", "1cm3", "--format", "json")
    hot, ref = (json.loads(run_main(*argv, *temp)[1])["rows"][2] for temp in (("--temp", "500K"), ()))
    assert hot["label"] == ref["label"] == "delta_B_floor"
    assert hot["value"] > ref["value"]  # faster collisions at higher temperature


def test_squid_command(run_main):
    argv = ("squid", "--p", "4.5e-8", "--temp", "4.2K", "--tau", "0.5e-5s", "--measured", "6.3")
    assert _check_against_library(run_main, *argv, "--format", "json")[0] == 0


def test_diamond_command(run_main):
    argv = ("diamond", "--temp", "300K", "--tau", "1us", "--psd", "300pT/rtHz", "--volume", "2.79e-12m3")
    assert _check_against_library(run_main, *argv, "--format", "json")[0] == 0


def test_table2_csv_has_fixed_schema(run_main):
    assert _check_against_library(run_main, "table2", "--format", "csv")[0] == 0


def test_table2_text_warns_on_subunity_ratio(run_main):
    assert _check_against_library(run_main, "table2")[0] == 0


def test_compare_with_custom_records(run_main, tmp_path):
    records = tmp_path / "records.json"
    records.write_text(json.dumps(
        [{"label": "lab", "p": 1e-6, "T_K": 4.2, "tau_s": 5e-6, "measured_erl_hbar": 100.0}]
    ))
    assert _check_against_library(run_main, "compare", "--records", str(records), "--format", "csv")[0] == 0


def test_species_list_csv(run_main):
    assert _check_against_library(run_main, "species-list", "--format", "csv")[0] == 0


def test_digits_flag_controls_text_precision(run_main):
    short = run_main("table1", "--digits", "3")[1]
    assert "3.69" in short and "3.68951" not in short
    assert "3.6895061499" in run_main("table1", "--digits", "12")[1]
    # no float has more than 767 significant digits, so the cap of 1000 prints the same
    assert run_main("table1", "--digits", "1000") == run_main("table1", "--digits", "767")
    assert run_main("table1", "--digits", "1001") == (
        2, "", "erlab: error: validation: --digits must be from 0 to 1000, got 1001\n"
    )


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

SIM_ARGS = ("simulate", "--atoms", "1e6", "--trajectories", "2000", "--seed", "42")
WIDE_SIM_ARGS = ("simulate", "--atoms", "1e6", "--trajectories", "8193", "--seed", "43")  # 3 blocks


def test_simulate_defaults_to_the_usable_cpus(run_main, fake_cpus, record_forks):
    fake_cpus(2)
    forks = record_forks()
    serial = run_main(*WIDE_SIM_ARGS, "--workers", "1")
    assert forks == []
    assert run_main(*WIDE_SIM_ARGS) == serial
    assert len(forks) == 1  # two usable CPUs: this process and one fork
    assert serial[0] == 0 and serial[2] == ""


def test_simulate_failed_worker_exits_3(run_main, fake_cpus, record_forks):
    fake_cpus(2)
    forks = record_forks(child=lambda: os._exit(1))
    code, out, err = run_main(*WIDE_SIM_ARGS)
    assert len(forks) == 1
    assert (code, out) == (3, "")
    assert re.fullmatch(r"erlab: error: io: worker process \d+ ended before sending its results\n", err)
    with pytest.raises(ChildProcessError):  # the worker was reaped
        os.waitpid(-1, os.WNOHANG)


def test_simulate_text_and_csv_formats(run_main):
    assert "variance_at_horizon" in run_main(*SIM_ARGS, "--format", "text")[1]
    header, values = run_main(*SIM_ARGS, "--format", "csv")[1].strip().split("\n")
    assert header == "variance,std_error,mean"
    var = float(values.split(",")[0])
    assert var == pytest.approx(json.loads(run_main(*SIM_ARGS)[1])["variance"], rel=1e-15)


def test_simulate_trajectory_dumps(run_main, tmp_path):
    code, _, _ = run_main(
        "simulate", "--atoms", "100", "--trajectories", "10", "--seed", "7",
        "--steps-per-tau", "10", "--dump-trajectories", "0,3",
        "--dump-dir", str(tmp_path),
    )
    assert code == 0
    for idx in (0, 3):
        lines = (tmp_path / f"trajectory_{idx}.csv").read_text().strip().split("\n")
        assert lines[0] == "t_over_tau,value"
        assert len(lines) == 12  # header + t=0 + 10 steps
        assert lines[1] == "0.0,0.0"


# SHA-256 of each dump of simulate --atoms 100 --trajectories 10
# --steps-per-tau 1000 at two seeds, pinned from the build that built each
# dump in memory before writing it
DUMP_DIGESTS = {
    ("7", 0): "f2bf9c578bc6d7ca203a805e2e73c04aa3d6109ff0c83d3eb8ac6be9efa94b2b",
    ("7", 3): "f3d5a481e45ca8fb2d3b2b96fa2e03c6af0626897879bef387868622992826df",
    ("18446744073709551615", 0): "5ca1fe93aeae927b322bac0461ec81d317ec460c8224f808ed27300e7f64642e",
    ("18446744073709551615", 9): "b452c1c4f22add4fda2d177b38e8e88db4403a3b141b51a9c527d9a97a35075a",
}


def test_trajectory_dump_bytes_are_pinned(run_main, tmp_path):
    for seed in ("7", "18446744073709551615"):
        indices = [idx for s, idx in DUMP_DIGESTS if s == seed]
        code, _, err = run_main(
            "simulate", "--atoms", "100", "--trajectories", "10", "--seed", seed,
            "--steps-per-tau", "1000", "--dump-trajectories", ",".join(map(str, indices)),
            "--dump-dir", str(tmp_path),
        )
        assert (code, err) == (0, "")
        for idx in indices:
            data = (tmp_path / f"trajectory_{idx}.csv").read_bytes()
            assert hashlib.sha256(data).hexdigest() == DUMP_DIGESTS[seed, idx], (seed, idx)


def test_simulate_matches_analytic_from_cli(run_main):
    doc = json.loads(run_main("simulate", "--atoms", "1e6", "--trajectories", "20000", "--seed", "5")[1])
    target = 0.16809124072457832e-6
    se = doc["variance"] * math.sqrt(2.0 / 19999)
    assert abs(doc["variance"] - target) < 4.0 * se


# ---------------------------------------------------------------------------
# failure taxonomy: 1 usage, 2 validation, 3 io
# ---------------------------------------------------------------------------

def _assert_fails(result, code, kind):
    """``result``, an in-process run, exited with ``code``, printed nothing
    and wrote one ``erlab: error: KIND:`` line to stderr."""
    assert result[:2] == (code, "")
    assert result[2].startswith(f"erlab: error: {kind}: ") and len(result[2].splitlines()) == 1


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
def test_usage_errors_exit_1(run_main, args):
    _assert_fails(run_main(*args), 1, "usage")


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
def test_validation_errors_exit_2(run_main, args):
    _assert_fails(run_main(*args), 2, "validation")


@pytest.mark.parametrize(
    "args",
    [
        ("table2", "--records", "/no/such/file.json"),
        ("table1", "--species-file", "/no/such/species.json"),
        ("table1", "--output", "/no/such/dir/out.txt"),
    ],
)
def test_io_errors_exit_3(run_main, args):
    _assert_fails(run_main(*args), 3, "io")


def test_bad_records_content_is_validation_error(run_main, tmp_path, monkeypatch):
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
        _assert_fails(run_main("table2", "--records", str(path)), 2, f"validation: {path}")
    # a 4001-digit integer, or a 4000-character string, is quoted by its head only
    monkeypatch.chdir(tmp_path)
    for value in ("1" + "0" * 4000, '"%s"' % ("9" * 4000)):
        path.write_text(
            '[{"label": "a", "p": 1e-6, "T_K": %s, "tau_s": 1e-6, "measured_erl_hbar": 5}]' % value
        )
        code, out, err = run_main("compare", "--records", path.name)
        assert (code, out) == (2, "")
        assert err.startswith("erlab: error: validation: records.json: record 0: field 'T_K' must be ")
        assert len(err.splitlines()) == 1 and len(err.encode()) < 200


# ---------------------------------------------------------------------------
# property: any numeric input ends in a documented exit code, and an
# analytic command prints what the library computes
# ---------------------------------------------------------------------------

_EDGE_NUMBERS = ("nan", "inf", "-inf", "-0", "0", "1e400", "1e-400", "-1",
                 "5e-324", "1e-300", "1e300", "1e308")
_numbers = st.one_of(
    st.sampled_from(_EDGE_NUMBERS),
    st.floats().map(repr),
    st.integers(-10**6, 10**6).map(str),
)


def _in_range(low, high):
    """Floats from ``low`` to ``high``, uniform in their logarithm."""
    return st.floats(math.log10(low), math.log10(high)).map(lambda e: 10.0**e)


def _spellings(dimension):
    """Every unit spelling the parser accepts for ``dimension``, aliases too."""
    spellings = {*units._UNITS, *units._ALIASES}
    return sorted(u for u in spellings if u and parse_quantity(f"1{u}").dimension == dimension)


def _records(anything):
    """Record lists for compare: each field in its valid range, or, if
    ``anything``, possibly any float."""

    def field(low, high):
        return st.one_of(_in_range(low, high), st.floats()) if anything else _in_range(low, high)

    return st.lists(st.fixed_dictionaries({
        "label": st.sampled_from(("lab", "a,b")),
        "p": field(1e-12, 0.9),
        "T_K": field(1e-3, 1e3),
        "tau_s": field(1e-12, 1e3),
        "measured_erl_hbar": field(1e-3, 1e9),
    }), max_size=3)


@st.composite
def _argv(draw, tmp_dir):
    anything = draw(st.booleans())  # else each number of an analytic command is in its valid range

    def num(unit=""):
        return draw(_numbers) + unit

    def bare(low, high):
        valid = _in_range(low, high).map(repr)
        return draw(st.one_of(_numbers, valid) if anything else valid)

    def quantity(dimension, low, high):  # low and high in SI
        unit = draw(st.sampled_from(_spellings(dimension)))
        scale = parse_quantity(f"1{unit}").si
        return bare(low / scale, high / scale) + unit

    command = draw(st.sampled_from(
        ("atomic", "squid", "diamond", "table1", "table2", "compare", "species-list", "simulate")
    ))
    if command == "atomic":
        argv = ["atomic", "--species", draw(st.sampled_from(("Cs", "133Cs", "K", "41K", "Rb", "Xe"))),
                "--density", quantity(NUMBER_DENSITY, 1e16, 1e24), "--volume", quantity(VOLUME, 1e-10, 1e-2)]
        if draw(st.booleans()):
            argv += ["--temp", quantity(TEMPERATURE, 1e2, 2e3)]
    elif command == "squid":
        argv = ["squid", "--p", bare(1e-12, 0.9), "--temp", quantity(TEMPERATURE, 1e-3, 1e3),
                "--tau", quantity(TIME, 1e-12, 1e3)]
        if draw(st.booleans()):
            argv += ["--measured", bare(1e-3, 1e9)]
    elif command == "diamond":
        argv = ["diamond", "--temp", quantity(TEMPERATURE, 1e-3, 1e4), "--tau", quantity(TIME, 1e-12, 1e3)]
        if draw(st.booleans()):
            argv += ["--psd", quantity(FIELD_NOISE_DENSITY, 1e-16, 1e-8),
                     "--volume", quantity(VOLUME, 1e-18, 1e-3)]
    elif command == "compare":
        path = tmp_dir / "records.json"
        path.write_text(json.dumps(draw(_records(anything))))
        argv = ["compare", "--records", str(path)]
    elif command == "simulate":
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
            "--dump-dir", str(tmp_dir),
        ]
    else:
        argv = [command]
    fmt = draw(st.sampled_from(("text", "json", "csv")))
    bad_digits = draw(st.integers(0, 9)) == 0
    digits = draw(st.sampled_from(("-1", "1001", "nan", "1e400") if bad_digits else ("6", "0", "3", "12", "17")))
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


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_numeric_input_exits_with_a_documented_code(data, run_main, tmp_path):
    argv = data.draw(_argv(tmp_path))
    if argv[0] == "simulate":
        code, out, err = run_main(*argv)
    else:
        code, out, err = _check_against_library(run_main, *argv)
        event(f"analytic command, exit {code}")
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

"""CLI tests.  They call ``erlab.cli.main`` in-process through ``run_main``
(``tests/conftest.py``), except the nine that test what only a process
shows: the ``python -m erlab`` entry point and its exit status, ``--output``,
the modules a command imports, the one ``numpy.random`` import of a forked
``simulate`` and the one thread it forks from, an output its stream cannot
encode, the error line of an argv that is not UTF-8 and of a stderr that is
not UTF-8, and runs under ``python -X dev -W error``, which start one
through ``_process``.
``tests/test_golden.py`` pins the bytes of every command's output at fixed
argv; here ``_check_against_library`` holds the values of the analytic
commands to the library, over drawn inputs in the property test at the end
and at hand-picked argv in the happy-path tests."""

import contextlib
import csv
import errno
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import astuple
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, example, given, settings, strategies as st

from erlab import cli, sensors, spinsim, units
from erlab.report import format_value, render_json, render_text
from erlab.species import default_catalog, load_catalog
from erlab.units import FIELD_NOISE_DENSITY, NUMBER_DENSITY, TEMPERATURE, TIME, VOLUME, parse_quantity

PKG_DATA = Path(__file__).resolve().parent.parent / "src" / "erlab" / "data"
GOLDEN = Path(__file__).resolve().parent / "golden"
# a relative directory path of 302 bytes, each of its three names under the 255-byte limit
_DEEP = "/".join(["d" * 100] * 3)


def _process(*args, env=None):
    """A fresh ``python ARGS`` process, run to its end, in the environment
    ``env`` if given, else in this one."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


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
    ValueError where the library refuses the options."""

    def si(flag, dimension):
        return parse_quantity(opts[flag], dimension).si

    def catalog():
        return load_catalog(opts["--species-file"]) if "--species-file" in opts else default_catalog()

    if command == "atomic":
        temperature = si("--temp", TEMPERATURE) if "--temp" in opts else None
        species = catalog().get(opts["--species"])
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
        reports = [(sp.name, sensors.atomic_floor(sensors.VaporCell(sp, 1e20, 1e-5))) for sp in catalog()]
        return [(f"{name}.", (rep.delta_B_floor / 1e-17, rep.erl_hbar)) for name, rep in reports]
    groups = []
    if command == "species-list":
        for sp in catalog():
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
        groups.append((f"{row.label}.", tuple(row)[1:-1] + warning))  # the fields from p to ratio
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
    except ValueError:
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


def test_an_output_the_stream_cannot_encode_exits_3(tmp_path):
    doc = json.loads((PKG_DATA / "species.json").read_text())
    doc["species"] = [dict(doc["species"][0], name="é")]
    path = tmp_path / "e.json"
    path.write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONIOENCODING="ascii")
    proc = _process("-m", "erlab", "species-list", "--species-file", str(path), env=env)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert re.fullmatch(r"erlab: error: io: 'ascii' codec can't encode character '\\xe9' [^\n]+\n", proc.stderr)


def test_an_argv_that_is_not_utf8_is_written_as_escapes():
    # Python decodes each byte of such an argument to a lone surrogate,
    # which stderr writes as a 6-byte escape such as \udcff
    proc = _process("-m", "erlab", "table1", *[b"\xff\xfe\xfd\xfc"] * 20)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("erlab: error: usage: unrecognized arguments: \\udcff\\udcfe\\udcfd\\udcfc ")
    assert len(proc.stderr.splitlines()) == 1 and len(proc.stderr.encode()) < 200


def test_a_stderr_that_is_not_utf8_gets_a_line_under_200_bytes_in_its_encoding():
    # ASCII writes each é as the 4-byte escape \xe9, where UTF-8 takes 2
    # bytes: counted in UTF-8, this line was cut to 197 bytes and written as 229
    env = dict(os.environ, PYTHONIOENCODING="ascii")
    proc = _process("-m", "erlab", "é" * 300, env=env)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("erlab: error: usage: argument COMMAND: invalid choice: '\\xe9\\xe9")
    assert proc.stderr.endswith(" 'compare', 'simulate')\n")
    assert len(proc.stderr.splitlines()) == 1 and len(proc.stderr.encode()) < 200


def test_a_forked_run_with_dumps_and_a_records_file_warn_nothing_in_dev_mode(tmp_path):
    # -X dev turns on ResourceWarning, among others, and -W error makes any
    # warning an error; one left at exit, an unclosed file say, is written to stderr
    for args in (
        ("simulate", "--atoms", "1e6", "--trajectories", "1000", "--seed", "1", "--workers", "2",
         "--dump-trajectories", "0,5", "--dump-dir", str(tmp_path)),
        ("compare", "--records", str(GOLDEN / "records_comma.json")),
    ):
        proc = _process("-X", "dev", "-W", "error", "-m", "erlab", *args)
        assert (proc.returncode, proc.stderr) == (0, ""), args
    assert sorted(path.name for path in tmp_path.iterdir()) == ["trajectory_0.csv", "trajectory_5.csv"]


_COUNT_THREADS_AT_FORK = """
import os, sys
from erlab import cli
fork, threads = os.fork, []
def counted():
    with open("/proc/self/status") as status:
        threads.append(next(line.split()[1] for line in status if line.startswith("Threads:")))
    return fork()
os.fork = counted
os.sched_getaffinity = lambda pid: {0, 1}  # two usable CPUs, whatever the host has
code = cli.main(["simulate", "--atoms", "1e6", "--trajectories", "1000", "--seed", "1", "--workers", "2"])
print(code, *threads, file=sys.stderr)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="no /proc to count threads in")
def test_simulate_forks_from_one_thread():
    # import numpy starts an OpenBLAS pool of a thread per core unless
    # OPENBLAS_NUM_THREADS is set, and simulate sets it to 1 before that import
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    code, *threads = _process("-c", _COUNT_THREADS_AT_FORK, env=env).stderr.split()
    if not threads:
        pytest.skip("a CPU quota of one CPU: simulate forked no worker")
    assert (code, threads) == ("0", ["1"])


# argv -> modules its process must not load, and its exit code: each command
# imports only what it runs, the standard library's modules too, only
# simulate loads numpy, and only atomic and table1, which build atomic_floor's
# report, load dataclasses and its inspect (numpy imports inspect itself)
_NO_DATACLASSES = {"dataclasses", "inspect"}
_NO_COMMAND = {"numpy", "erlab.units", "erlab.sensors", "erlab.species", "erlab.report", *_NO_DATACLASSES}
_NO_FRACTIONS = {"fractions", "decimal"}
_LAYERING = (
    (("-c", "import erlab.cli"), {"numpy", *_NO_DATACLASSES}, 0),
    (("-m", "erlab", "table1"), {"numpy", "csv"}, 0),
    (("-m", "erlab", "--version"), _NO_COMMAND, 0),
    (("-m", "erlab", "--help"), _NO_COMMAND, 0),
    # a usage error's line, however long, is cut without the unit layer
    (("-m", "erlab", "simulate", "--atoms", "1e6", "--trajectories", "5", "--seed", "1" * 5000), _NO_COMMAND, 1),
    (("-m", "erlab", "species-list"), {"numpy", "erlab.sensors", "erlab.bounds", "csv", *_NO_DATACLASSES}, 0),
    # text output reads no JSON and writes no CSV
    (("-m", "erlab", "squid", "--p", "0.01", "--temp", "4.2K", "--tau", "1us"),
     {"numpy", "erlab.species", "json", "csv", *_NO_FRACTIONS, *_NO_DATACLASSES}, 0),
    (("-m", "erlab", "diamond", "--temp", "300K", "--tau", "1us"),
     {"numpy", "erlab.species", "json", "csv", *_NO_FRACTIONS, *_NO_DATACLASSES}, 0),
    (("-m", "erlab", "table2"), {"numpy", "erlab.species", *_NO_FRACTIONS, *_NO_DATACLASSES}, 0),
    (("-m", "erlab", "compare", "--records", str(PKG_DATA / "squid_records.json")),
     {"numpy", "erlab.species", *_NO_FRACTIONS, *_NO_DATACLASSES}, 0),
    # JSON output and no dumps: nothing of report or csv runs
    (("-m", "erlab", "simulate", "--atoms", "1e6", "--trajectories", "100", "--seed", "1"),
     {"erlab.sensors", "erlab.species", "erlab.bounds", "erlab.report", "csv", "dataclasses", *_NO_FRACTIONS}, 0),
)


def _imports(*args):
    """A fresh ``python -X importtime ARGS`` process and the names of the
    modules it imported, in the order of their imports, each time it was
    imported (a forked worker imports in its own process)."""
    proc = _process("-X", "importtime", *args)
    return proc, [
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    ]


def _importer(stderr: str, name: str) -> str:
    """The module whose import imported ``name``, read from the tree that
    ``-X importtime`` writes to ``stderr``: a module's line follows those of
    the modules it imported, which are indented two spaces more."""
    entries = [line.rsplit("|", 1)[1] for line in stderr.splitlines() if line.startswith("import time:")]
    depth = [len(entry) - len(entry.lstrip()) for entry in entries]
    i = [entry.strip() for entry in entries].index(name)
    return next(entry.strip() for entry, d in zip(entries[i + 1:], depth[i + 1:]) if d < depth[i])


def test_only_simulate_imports_numpy():
    for args, absent, code in _LAYERING:
        proc, modules = _imports(*args)
        modules = set(modules)
        assert proc.returncode == code, args
        assert "erlab.cli" in modules and not modules & absent, (args, modules & absent)
    assert "numpy" in modules
    assert json.loads(proc.stdout)["config_echo"]["trajectory_count"] == 100
    # --version loads erlab and erlab.cli beyond the standard library modules its parser needs
    version = set(_imports("-m", "erlab", "--version")[1])
    stdlib = set(_imports("-c", "import argparse, gettext, locale, runpy, textwrap, __future__")[1])
    assert version - stdlib == {"erlab", "erlab.cli"}
    # table1 loads dataclasses for atomic_floor's report alone
    proc, modules = _imports("-m", "erlab", "table1")
    assert proc.returncode == 0 and modules.count("dataclasses") == 1
    assert _importer(proc.stderr, "dataclasses") == "erlab.atomic_report"


@pytest.mark.skipif(spinsim.usable_cpus() < 2, reason="forks a worker only with 2 usable CPUs")
def test_a_forked_simulate_imports_numpy_random_once():
    # the generator is built before the fork, so no worker imports numpy.random again
    proc, modules = _imports("-m", "erlab", "simulate", "--atoms", "1e6", "--trajectories", "1000",
                             "--seed", "1", "--workers", "2")
    assert proc.returncode == 0, proc.stderr
    assert modules.count("numpy.random") == 1


# ---------------------------------------------------------------------------
# analytic commands: the library oracle at hand-picked argv
# ---------------------------------------------------------------------------

def test_table1_text(run_main):
    assert _check_against_library(run_main, "table1")[0] == 0


def test_table1_matches_library(run_main):
    assert _check_against_library(run_main, "table1", "--format", "json")[0] == 0


def test_table1_species_file_selects_the_catalog(run_main, tmp_path):
    doc = json.loads((PKG_DATA / "species.json").read_text())
    doc["species"] = [row for row in doc["species"] if row["name"] == "133Cs"]
    path = tmp_path / "only_cs.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_main("table1", "--species-file", str(path))
    assert (code, err) == (0, "")
    assert "133Cs.erl" in out
    assert "41K" not in out and "87Rb" not in out


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
WIDE_SIM_ARGS = ("simulate", "--atoms", "1e6", "--trajectories", "8193", "--seed", "43")  # 51 units


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
    assert re.fullmatch(r"erlab: error: io: worker process \d+ ended with exit status 1\n", err)
    with pytest.raises(ChildProcessError):  # the worker was reaped
        os.waitpid(-1, os.WNOHANG)


def test_simulate_failed_fork_exits_3(run_main, fake_cpus, record_forks):
    fake_cpus(3)
    forks = record_forks(fail_at=2)
    code, out, err = run_main(*WIDE_SIM_ARGS)
    assert len(forks) == 1
    assert (code, out) == (3, "")
    assert re.fullmatch(rf"erlab: error: io: \[Errno {errno.EAGAIN}\] [^\n]+\n", err)
    with pytest.raises(ChildProcessError):  # the worker was reaped
        os.waitpid(-1, os.WNOHANG)


def test_simulate_text_and_csv_formats(run_main):
    assert "variance_at_horizon" in run_main(*SIM_ARGS, "--format", "text")[1]
    header, values = run_main(*SIM_ARGS, "--format", "csv")[1].strip().split("\n")
    assert header == "variance,std_error,mean"
    var = float(values.split(",")[0])
    assert var == pytest.approx(json.loads(run_main(*SIM_ARGS)[1])["variance"], rel=1e-15)


def test_simulate_leaves_the_environment_as_it_found_it(run_main, monkeypatch):
    # the OpenBLAS pin holds only while numpy loads; a user's own setting stays
    for value in (None, "4"):
        if value is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", value)
        assert run_main(*SIM_ARGS)[0] == 0
        assert os.environ.get("OPENBLAS_NUM_THREADS") == value


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


def test_the_peak_does_not_grow_with_the_dump_count(run_main, tmp_path):
    # traced peaks of simulate with 1 and with 8 dumps of 2^14 steps: each
    # dump is drawn and written alone, before the run; holding every dumped
    # path at once grew the peak by 128 KiB a dump.  The first run is not
    # traced, so numpy's and csv's one-time set-up is not counted.
    args = ("simulate", "--atoms", "100", "--trajectories", "8", "--seed", "3",
            "--steps-per-tau", str(2**14), "--workers", "1", "--dump-dir", str(tmp_path))
    run_main(*args, "--dump-trajectories", "0")
    peaks = []
    for dumps in ("0", "0,1,2,3,4,5,6,7"):
        tracemalloc.start()
        try:
            assert run_main(*args, "--dump-trajectories", dumps)[0] == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 2**16


def test_a_dump_set_past_the_old_product_budget_runs(run_main, tmp_path, monkeypatch):
    # three dumps of 50 steps are 150 values, which a budget of 100 once
    # refused when it counted dumps times steps; it now bounds one array
    monkeypatch.setattr(spinsim, "MAX_ARRAY_LENGTH", 100)
    code, _, err = run_main(
        "simulate", "--atoms", "1e4", "--trajectories", "3", "--seed", "0", "--steps-per-tau", "25",
        "--horizon", "2", "--dump-trajectories", "0,1,2", "--dump-dir", str(tmp_path),
    )
    assert (code, err) == (0, "")
    for i in range(3):
        assert len((tmp_path / f"trajectory_{i}.csv").read_text().splitlines()) == 52


def test_an_invalid_dump_fails_before_the_run(run_main, tmp_path, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("simulate_transient ran")

    monkeypatch.setattr(spinsim, "simulate_transient", no_run)
    monkeypatch.chdir(tmp_path)
    args = ("simulate", "--atoms", "1e6", "--trajectories", "5", "--seed", "0")
    assert run_main(*args, "--dump-trajectories", "99") == (
        2, "", "erlab: error: validation: sample index 99 is not an integer in [0, 5)\n")
    assert run_main(*args, "--dump-trajectories", "0", "--dump-dir", "missing") == (
        3, "", "erlab: error: io: [Errno 2] No such file or directory: 'missing/trajectory_0.csv'\n")
    # a refused index or worker count writes no dump, not even of a valid index
    (tmp_path / "D").mkdir()
    for dump, message in (
        (("--dump-trajectories", "0,99"), "sample index 99 is not an integer in [0, 5)"),
        (("--dump-trajectories", "1", "--workers", "0"), "workers must be an integer >= 1, got 0"),
    ):
        assert run_main(*args, *dump, "--dump-dir", "D") == (2, "", f"erlab: error: validation: {message}\n")
        assert list((tmp_path / "D").iterdir()) == []


def test_simulate_matches_analytic_from_cli(run_main):
    doc = json.loads(run_main("simulate", "--atoms", "1e6", "--trajectories", "20000", "--seed", "5")[1])
    target = 0.16809124072457832e-6
    se = doc["variance"] * math.sqrt(2.0 / 19999)
    assert abs(doc["variance"] - target) < 4.0 * se


# ---------------------------------------------------------------------------
# failure taxonomy: 1 usage, 2 validation, 3 io
# ---------------------------------------------------------------------------

@pytest.fixture
def input_files(tmp_path, monkeypatch):
    """Work in ``tmp_path``, where the inputs of ``test_validation_errors_exit_2``
    name these files: under ``_DEEP``, a records file that is not JSON, one
    holding a 5,001-digit integer, a catalog that is not an object, one of a
    mass of 4,000 nines and one of a spin of 4,003 characters; a records file
    that is not JSON, named with a carriage return; a catalog of one
    uncalibrated species of 300 characters, one of two species of the same
    300-character name, one of 40 species and one of a spin of 4,003
    characters; a records file and a catalog, each holding a name with a lone
    surrogate; a records file nested 2,000 deep; a catalog of one species
    of a subnormal mass, 3e-297 amu, whose half is 0 as a float, but which
    gets its floor (``test_a_subnormal_mass_gets_its_floor``); a
    catalog of one species of a spin of 8e137, whose collision floor
    overflows; and one of a cross section of 1e-281 cm^2, whose floor is in
    range though hbar sigma_v is subnormal (``test_a_faint_species_gets_its_floor``)
    but whose relaxation time in a thin vapor overflows."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / _DEEP).mkdir(parents=True)
    row = json.loads((PKG_DATA / "species.json").read_text())["species"][0]
    record = {"label": "A\ud800", "p": 1e-6, "T_K": 4.2, "tau_s": 5e-6, "measured_erl_hbar": 100.0}
    for name, content in (
        (f"{_DEEP}/records.json", "not json"),
        (f"{_DEEP}/digits.json", '[{"label": "a", "p": 1%s}]' % ("0" * 5000)),
        (f"{_DEEP}/species.json", "[]"),
        (f"{_DEEP}/mass.json", [dict(row, mass_amu="9" * 4000)]),
        (f"{_DEEP}/spin.json", [dict(row, nuclear_spin="0.5" + "0" * 4000 + "1")]),
        ("records\r.json", "not json"),
        ("uncalibrated.json", [dict(row, name="U" * 300, sd_cross_section_cm2=None)]),
        ("duplicates.json", [dict(row, name="D" * 300)] * 2),
        ("forty.json", [dict(row, name=f"{100 + i}Xx") for i in range(40)]),
        ("spin.json", [dict(row, nuclear_spin="0.5" + "0" * 4000 + "1")]),
        ("surrogate_records.json", json.dumps([record])),
        ("surrogate_species.json", [dict(row, name="A\ud800")]),
        ("nested.json", "[" * 2000 + "]" * 2000),
        ("subnormal.json", [dict(row, name="Sb", mass_amu=3e-297)]),
        ("huge_spin.json", [dict(row, name="X", nuclear_spin="8e137", mass_amu=87, sd_cross_section_cm2=1e-14,
                                 reference_temperature_K=300)]),
        ("faint.json", [dict(row, name="X", nuclear_spin="1e66", mass_amu=86.72, sd_cross_section_cm2=1e-281,
                             reference_temperature_K=300)]),
    ):
        text = content if isinstance(content, str) else json.dumps({"species": content})
        (tmp_path / name).write_text(text)


def _assert_fails(result, code, kind):
    """``result``, an in-process run, exited with ``code``, printed nothing
    and wrote one ``erlab: error: KIND:`` line of under 200 bytes to stderr."""
    assert result[:2] == (code, "")
    assert result[2].startswith(f"erlab: error: {kind}: ") and len(result[2].splitlines()) == 1
    assert len(result[2].encode()) < 200


@pytest.mark.parametrize(
    "args",
    [
        (),
        ("frobnicate",),
        ("table1", "--nonsense"),
        ("atomic", "--species", "Cs"),  # missing required flags
        ("simulate", "--atoms", "ten", "--trajectories", "5", "--seed", "0"),
        # long values, in a line cut to its head and its tail
        ("simulate", "--atoms", "1e6", "--trajectories", "5", "--seed", "1" * 5000),
        ("table1", "--format", "x" * 500),
        ("y" * 500,),  # invalid command
        ("table1", "z" * 500),  # unrecognized argument
        ("table1", "--digits", "q" * 500),
        ("squid", "--p", "w" * 500, "--temp", "4.2K", "--tau", "5us"),
        ("simulate", "--atoms", "1e6", "--trajectories", "5", "--seed", "é" * 100),
        # non-ASCII invalid commands, measured and cut by their UTF-8 bytes
        ("é" * 20,),
        ("é" * 100,),
        ("界" * 20,),
        ("😀" * 30,),
        # many short values, and argv that is not UTF-8, as Python decodes it
        ("table1", *["ab"] * 60),
        ("table1", *["\udcff\udcfe\udcfd\udcfc"] * 20),
        # every line break becomes a space
        *(("table1", f"x{c}y") for c in ("\r", "\x85", "\u2028")),
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
        # long values, each quoted by its head and its length
        ("simulate", "--atoms", "1e6", "--trajectories", "5", "--seed", "0", "--horizon", "1e300"),
        ("simulate", "--atoms", "1e6", "--trajectories", "1" * 500, "--seed", "0"),
        ("simulate", "--atoms", "1e6", "--trajectories", "5", "--seed", "1" * 500),
        ("simulate", "--atoms", "1e6", "--trajectories", "5", "--seed", "0",
         "--dump-trajectories", "1" * 500),
        ("atomic", "--species", "X" * 500, "--density", "1e14/cm3", "--volume", "1cm3"),
        ("atomic", "--species", "Cs", "--density", "1%s/cm3" % ("0" * 500), "--volume", "1cm3"),
        ("simulate", "--atoms", "1e6", "--trajectories", "5", "--seed", "0", "--steps-per-tau", "-" + "1" * 500),
        ("simulate", "--atoms", "1e6", "--trajectories", "5", "--seed", "0", "--workers", "-" + "1" * 500),
        ("simulate", "--atoms", "1e6", "--trajectories", "5", "--seed", "0",
         "--dump-trajectories", "a" * 500),
        ("squid", "--p", "0.1", "--temp", "4K", "--tau", "1s", "--digits", "1" * 500),
        # a long unknown unit after each quantity flag, measured and cut by its UTF-8 bytes
        ("atomic", "--species", "Cs", "--density", "1" + "😀" * 500, "--volume", "1cm3"),
        ("atomic", "--species", "Cs", "--density", "1e14/cm3", "--volume", "1" + "😀" * 500),
        ("atomic", "--species", "Cs", "--density", "1e14/cm3", "--volume", "1cm3", "--temp", "1" + "😀" * 500),
        ("diamond", "--temp", "300K", "--tau", "1" + "😀" * 500),
        ("diamond", "--temp", "300K", "--tau", "1us", "--psd", "1" + "😀" * 500, "--volume", "1cm3"),
        ("atomic", "--species", "😀" * 41, "--density", "1e14/cm3", "--volume", "1cm3"),
        # the files of ``input_files``: a long path, long species names, a long catalog
        ("compare", "--records", f"{_DEEP}/records.json"),
        ("table1", "--species-file", f"{_DEEP}/species.json"),
        ("atomic", "--species-file", "uncalibrated.json", "--species", "U" * 300,
         "--density", "1e14/cm3", "--volume", "1cm3"),
        ("table1", "--species-file", "duplicates.json"),
        ("atomic", "--species-file", "forty.json", "--species", "Cs", "--density", "1e14/cm3", "--volume", "1cm3"),
        # a long JSON reason after a long path, and a long spin, each quoted once
        ("compare", "--records", f"{_DEEP}/digits.json"),
        ("table1", "--species-file", "spin.json"),
        # a name UTF-8 cannot encode, in every format
        *(("compare", "--records", "surrogate_records.json", "--format", fmt) for fmt in ("text", "csv", "json")),
        *(("table1", "--species-file", "surrogate_species.json", "--format", fmt) for fmt in ("text", "csv", "json")),
        ("compare", "--records", "nested.json"),
        # a long path and a long value in one line
        ("table1", "--species-file", f"{_DEEP}/mass.json"),
        ("table1", "--species-file", f"{_DEEP}/spin.json"),
        # a path holding a line break
        ("compare", "--records", "records\r.json"),
        # a collision floor past the float range
        ("atomic", "--species-file", "huge_spin.json", "--species", "X", "--density", "1e14/cm3", "--volume", "10cm3"),
        ("table1", "--species-file", "huge_spin.json"),
        # a report field past the float range: N_c / n of a cell of N = 10
        # atoms underflows; a faint species' relaxation time in a thin vapor overflows
        ("atomic", "--species", "87Rb", "--density", "1e291/m3", "--volume", "1e-290m3"),
        ("atomic", "--species-file", "faint.json", "--species", "X", "--density", "1e-280/m3", "--volume", "1e280m3"),
    ],
)
def test_validation_errors_exit_2(run_main, args, input_files):
    _assert_fails(run_main(*args), 2, "validation")


def test_only_a_value_error_exits_2(run_main, monkeypatch):
    # a KeyError is a bug, not a refused input: it must reach its traceback
    def lookup_bug(args):
        return {}["missing"]

    monkeypatch.setattr(cli, "_cmd_table1", lookup_bug)
    with pytest.raises(KeyError, match="missing"):
        run_main("table1")
    # an unknown species is a refused input, with the line its golden pins
    assert run_main("atomic", "--species", "Xe", "--density", "1e14/cm3", "--volume", "1cm3") == (
        2, "", "erlab: error: validation: unknown species 'Xe' (catalog has: 41K, 87Rb, 133Cs)\n")


def test_a_vapor_floor_field_past_the_range_is_named(run_main, input_files):
    # a spin of 8e137 takes the floor past the float range; a cell of
    # 1e-290 m^3 holds N = 10 atoms, a valid cell, but its N_c / n underflows
    for argv, field in (
        (("atomic", "--species-file", "huge_spin.json", "--species", "X", "--density", "1e14/cm3", "--volume", "10cm3"),
         "erl_hbar must be finite, got inf"),
        (("atomic", "--species", "87Rb", "--density", "1e291/m3", "--volume", "1e-290m3"),
         "correlation_volume must be a normal float, got 0.0"),
    ):
        assert run_main(*argv) == (2, "", f"erlab: error: validation: {field}\n")


def test_a_faint_species_gets_its_floor(run_main, input_files):
    # a cross section of 1e-281 cm^2 makes the plain product hbar sigma_v
    # subnormal, but every field of the report is a normal float
    for argv in (("atomic", "--species-file", "faint.json", "--species", "X", "--density", "1e10/m3",
                  "--volume", "1e-10m3"), ("table1", "--species-file", "faint.json")):
        for fmt in ("text", "json"):
            assert _check_against_library(run_main, *argv, "--format", fmt)[0] == 0


def test_a_subnormal_mass_gets_its_floor(run_main, input_files):
    # 3e-297 amu is 4.9e-324 kg, whose half is 0 as a float; v_bar divides by
    # m and by 1/2 separately, so every command that reads the mass runs
    for argv in (("species-list", "--species-file", "subnormal.json"), ("table1", "--species-file", "subnormal.json"),
                 ("atomic", "--species-file", "subnormal.json", "--species", "Sb", "--density", "1e14/cm3",
                  "--volume", "1cm3")):
        for fmt in ("text", "json"):
            assert _check_against_library(run_main, *argv, "--format", fmt)[0] == 0


def test_a_long_usage_line_keeps_its_head_and_its_tail(run_main):
    assert run_main("table1", "--format", "x" * 500) == (1, "", (
        "erlab: error: usage: argument --format: invalid choice: '%s ... %s'"
        " (choose from 'text', 'json', 'csv')\n" % ("x" * 26, "x" * 73)))
    # the tail holds the longest list of choices, the commands', whole
    code, out, err = run_main("y" * 500)
    assert (code, out) == (1, "")
    assert err.endswith(" ... yyyyyyy' (choose from 'species-list', 'atomic', 'squid', 'diamond', "
                        "'table1', 'table2', 'compare', 'simulate')\n")


def test_an_unknown_unit_is_quoted_by_its_head_and_length(run_main):
    # the known units that follow are those of the expected dimension
    code, out, err = run_main("atomic", "--species", "Cs", "--density", "1e14/" + "c" * 500, "--volume", "1cm3")
    assert (code, out) == (2, "")
    unit, known = err.split(" (known units: ")
    assert unit == "erlab: error: validation: unknown unit '/%s... (501 characters)'" % ("c" * 39)
    assert known == "m^-3, cm^-3, mm^-3)\n"


# every character str.splitlines breaks a line at, found by asking it
_SPLITLINES = "".join(c for c in map(chr, range(0x2030)) if len(f"a{c}b".splitlines()) == 2)
# any text, lone surrogates included, often holding line breaks; repeated to run past the bound
_any_text = st.tuples(
    st.text(st.one_of(st.characters(exclude_categories=()), st.sampled_from(_SPLITLINES))),
    st.integers(1, 40),
).map(lambda drawn: drawn[0] * drawn[1])


@given(category=st.sampled_from(("usage", "validation", "io")), message=_any_text)
@example(category="usage", message="x" * 177)  # a 198-byte line, the longest written whole
@example(category="usage", message="x" * 178)  # a 199-byte line, 200 with its newline
def test_fail_writes_one_line_under_200_bytes(category, message):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert cli._fail(3, category, message) == 3
    line = err.getvalue()
    written = line.encode()  # strict: no lone surrogate reaches the stream
    assert len(line.splitlines()) == 1 and line.endswith("\n") and len(written) < 200
    # the line, each break a space and each lone surrogate its escape, as stderr writes it
    whole = "".join(" " if c in _SPLITLINES else c for c in f"erlab: error: {category}: {message}")
    whole = whole.encode(errors="backslashreplace")
    if len(whole) < 199:
        event("fits")
        assert written == whole + b"\n"
    else:  # its head and its tail, joined by " ... ", each losing at most a partial character
        event("cut")
        assert len(written) > 190 and any(
            written[i:i + 5] == b" ... " and whole.startswith(written[:i]) and whole.endswith(written[i + 5:-1])
            for i in range(len(written))
        )


@pytest.mark.parametrize(
    "args",
    [
        ("table2", "--records", "/no/such/file.json"),
        ("table1", "--species-file", "/no/such/species.json"),
        ("table1", "--output", "/no/such/dir/out.txt"),
        # a directory path past 200 bytes, in a line cut to its head and its tail
        ("simulate", "--atoms", "1e6", "--trajectories", "5", "--seed", "0",
         "--dump-trajectories", "0", "--dump-dir", f"/no/such/{_DEEP}"),
        ("table1", "--output", f"/no/such/{_DEEP}/out.txt"),
    ],
)
def test_io_errors_exit_3(run_main, args):
    _assert_fails(run_main(*args), 3, "io")


def test_bad_records_content_is_validation_error(run_main, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the file is named by a short path, so the message is short
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
        "[]".ljust(units._JSON_CHARS + 1),  # one character over the cap
    ):
        path.write_text(content)
        _assert_fails(run_main("table2", "--records", path.name), 2, "validation: records.json")
    # a 4001-digit integer, or a 4000-character string, is quoted by its head only
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
    return sorted(u for u in spellings if units._UNITS[units._ALIASES.get(u, u)][0] == dimension)


def _records(anything):
    """Record lists for compare: each field in its valid range, or, if
    ``anything``, possibly any float; a label may hold a lone surrogate."""

    def field(low, high):
        return st.one_of(_in_range(low, high), st.floats()) if anything else _in_range(low, high)

    return st.lists(st.fixed_dictionaries({
        "label": st.sampled_from(("lab", "a,b", "A\ud800")),
        "p": field(1e-12, 0.9),
        "T_K": field(1e-3, 1e3),
        "tau_s": field(1e-12, 1e3),
        "measured_erl_hbar": field(1e-3, 1e9),
    }), max_size=3)


_SPECIES_ROWS = json.loads((PKG_DATA / "species.json").read_text())["species"]


def _species_file(anything):
    """A catalog JSON of one bundled species: each numeric field as bundled
    or, if ``anything``, possibly an edge value, the spin as its text."""

    def row(bundled):
        def field(key, edge):
            return st.one_of(st.just(bundled[key]), edge) if anything else st.just(bundled[key])

        edge = st.sampled_from(_EDGE_NUMBERS)
        return st.fixed_dictionaries({
            "name": st.just(bundled["name"]),
            "nuclear_spin": field("nuclear_spin", edge),
            **{key: field(key, edge.map(float))
               for key in ("mass_amu", "sd_cross_section_cm2", "reference_temperature_K")},
        })

    return st.sampled_from(_SPECIES_ROWS).flatmap(row).map(lambda r: json.dumps({"species": [r]}))


@st.composite
def _argv_and_files(draw):
    """An argv and the input files it names, ``{path: text}``, each path
    relative to the working directory the run starts in."""
    anything = draw(st.booleans())  # else each number is in its valid range
    files = {}

    def bare(low, high):
        valid = _in_range(low, high).map(repr)
        return draw(st.one_of(_numbers, valid) if anything else valid)

    def quantity(dimension, low, high):  # low and high in SI
        unit = draw(st.sampled_from(_spellings(dimension)))
        scale = parse_quantity(f"1{unit}", dimension).si
        return bare(low / scale, high / scale) + unit

    command = draw(st.sampled_from(
        ("atomic", "squid", "diamond", "table1", "table2", "compare", "species-list", "simulate")
    ))
    if command == "atomic":
        species = st.one_of(  # a catalog name, or one that is long or not ASCII
            st.sampled_from(("Cs", "133Cs", "K", "41K", "Rb", "Xe", "X" * 300)),
            st.text(st.sampled_from("Xé界😀"), min_size=1, max_size=300),
        )
        argv = ["atomic", "--species", draw(species),
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
        directory = draw(st.sampled_from(("", f"{_DEEP}/")))  # a path past 200 bytes, or not
        # relative, so a short path is quoted whole, line breaks too
        path = directory + draw(st.sampled_from(("records.json", "records\r\x85\u2028.json")))
        files[path] = json.dumps(draw(_records(anything)))
        argv = ["compare", "--records", path]
    elif command == "simulate":
        # at most 4 trajectories and 1e5 steps, or a step count past the budget; unless
        # ``anything``, a valid run, but for its workers and dumps
        def pick(valid, invalid):
            return draw(st.sampled_from(valid + invalid if anything else valid))

        horizon = st.floats(0, 100).map(repr)
        seed = st.integers(0, 2**64 - 1).map(str)
        argv = [
            "simulate", "--atoms", bare(1, 1e12), "--tau", quantity(TIME, 1e-9, 1e3),
            "--trajectories", pick(("1", "4"), ("0", "-1", "nan", "1e400", "2.5")),
            "--seed", draw(st.one_of(_numbers, st.integers(-1, 2**64).map(str)) if anything else seed),
            "--steps-per-tau", pick(("10", "1000"), ("5", "-0", "nan", "1e3", "1000000000000")),
            "--horizon", draw(st.one_of(st.sampled_from(_EDGE_NUMBERS), horizon) if anything else horizon),
            "--workers", draw(st.sampled_from(("1", "2", "0", "-1", "inf"))),
            "--dump-trajectories", draw(st.sampled_from(("0", "0,3", "-1", "4", "nan"))),
            "--dump-dir", draw(st.sampled_from((".", f"missing/{_DEEP}", "missing\n\x1e\u2029"))),
        ]
    else:
        argv = [command]
    if command in ("atomic", "table1", "species-list") and draw(st.booleans()):
        files["species.json"] = draw(_species_file(anything))
        argv += ["--species-file", "species.json"]
    fmt = draw(st.sampled_from(("text", "json", "csv")))
    bad_digits = draw(st.integers(0, 9)) == 0
    digits = draw(st.sampled_from(("-1", "1001", "nan", "1e400") if bad_digits else ("6", "0", "3", "12", "17")))
    return argv + ["--format", fmt, "--digits", digits], files


def test_json_is_strict_and_a_missing_value_is_null():
    with pytest.raises(ValueError):
        render_json("t", {}, [("x", math.inf, "", "derived")])
    missing = [("x", None, "", "derived")]
    assert json.loads(render_json("t", {}, missing))["rows"][0]["value"] is None
    assert render_text("t", {}, missing).splitlines()[-1].split() == ["x", "nan", "derived"]


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _subnormal_mass(*argv):
    """``argv`` with a catalog of 133Cs at 3e-297 amu, whose mass in kg is
    subnormal and its half 0 as a float: once the input of a ZeroDivisionError
    traceback, then refused by a check of m/2, and now held to the library's
    result like any other catalog."""
    row = dict(_SPECIES_ROWS[2], mass_amu=3e-297)
    return [*argv, "--species-file", "species.json", "--format", "text", "--digits", "6"], {
        "species.json": json.dumps({"species": [row]})}


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_argv_and_files())
@example(case=_subnormal_mass("species-list"))
@example(case=_subnormal_mass("table1"))
@example(case=_subnormal_mass("atomic", "--species", "Cs", "--density", "1e14/cm3", "--volume", "1cm3"))
@example(case=(["simulate", "--atoms", "1e6", "--trajectories", "1", "--seed", "0", "--workers", "0",
                "--dump-trajectories", "0", "--dump-dir", ".", "--format", "json", "--digits", "6"], {}))
@example(case=(["simulate", "--atoms", "1e6", "--trajectories", "1", "--seed", "0", "--workers", "1",
                "--dump-trajectories", "0,3", "--dump-dir", ".", "--format", "json", "--digits", "6"], {}))
def test_any_numeric_input_exits_with_a_documented_code(case, run_main, tmp_path, monkeypatch):
    argv, files = case
    # a working directory of its own, empty but for the input files, which also takes the dumps
    monkeypatch.chdir(tempfile.mkdtemp(dir=tmp_path))
    for name, text in files.items():
        Path(name).parent.mkdir(parents=True, exist_ok=True)
        Path(name).write_text(text)
    if argv[0] == "simulate":
        code, out, err = run_main(*argv)
        event(f"simulate, exit {code}")
        if code:  # a refused run writes no dump
            assert list(Path().glob("trajectory_*.csv")) == []
    else:
        code, out, err = _check_against_library(run_main, *argv)
        event(f"analytic command, exit {code}")
    assert code in (0, 1, 2, 3)
    if code:
        assert out == ""
        assert len(err.splitlines()) == 1 and len(err.encode()) < 200
        return
    assert err == ""
    out.encode()  # a terminal or file in UTF-8 can take every output
    if argv[argv.index("--format") + 1] == "json":
        json.loads(out, parse_constant=_reject_constant)
    else:
        assert not re.search(r"\b(nan|inf)\b", out, re.IGNORECASE)

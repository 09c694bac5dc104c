"""Byte-for-byte CLI outputs.

``golden/cli.json`` holds, for each argv that ``_cases`` builds, the stdout, stderr
and exit code that ``erlab.cli.main`` produced when the file was captured.
Every case must reproduce them exactly: refactors of the unit layer, the
sensors, the renderers or the parser may not change a single byte of what
the tool prints, ``--help`` included.  Cases run in-process with
``golden/`` as the working directory, so the input files below are named
by relative path, and with ``COLUMNS=80``, the width argparse wraps help to.

Re-capture (only for an intended, documented output change)::

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import functools
import json
import os
import sys
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN_FILE = GOLDEN_DIR / "cli.json"

_FORMATS = ("text", "json", "csv")
_DIGITS = ("6", "12")

# every command, in every format and at both digit settings
_COMMANDS = {
    "species-list": ["species-list"],
    "species-list-uncalibrated": ["species-list", "--species-file", "species_uncalibrated.json"],
    "atomic": ["atomic", "--species", "Cs", "--density", "2e13/cm3", "--volume", "1cm3"],
    "atomic-aliases": ["atomic", "--species", "41K", "--density", "1e14cm^-3",
                       "--volume", "10cm^3", "--temp", "450K"],
    "squid": ["squid", "--p", "4.5e-8", "--temp", "4.2K", "--tau", "5us"],
    "squid-measured": ["squid", "--p", "4.5e-8", "--temp", "4.2K", "--tau", "0.5e-5s",
                       "--measured", "6.3"],
    "diamond": ["diamond", "--temp", "300K", "--tau", "1us"],
    "diamond-psd": ["diamond", "--temp", "300K", "--tau", "1ms", "--psd", "300pG/sqrtHz",
                    "--volume", "2.79e-12m3"],
    "table1": ["table1"],
    "table2": ["table2"],
    "compare-comma-label": ["compare", "--records", "records_comma.json"],
    "simulate": ["simulate", "--atoms", "1e6", "--trajectories", "300", "--seed", "7",
                 "--steps-per-tau", "10"],
    "simulate-fractional-atoms": ["simulate", "--atoms", "2.5", "--trajectories", "64",
                                  "--seed", "3", "--steps-per-tau", "10", "--horizon", "2"],
}

# usage (1), validation (2) and I/O (3) failures, one line on stderr each
_ERRORS = {
    "no-command": [],
    "version": ["--version"],
    "bad-format": ["table2", "--format", "xml"],
    "bare-number": ["atomic", "--species", "Cs", "--density", "1e14", "--volume", "1cm3"],
    "wrong-dimension": ["atomic", "--species", "Cs", "--density", "1e14/cm3", "--volume", "10s"],
    "unknown-unit": ["atomic", "--species", "Cs", "--density", "1e14/furlong", "--volume", "1cm3"],
    "garbage-quantity": ["diamond", "--temp", "warm", "--tau", "1us"],
    "unknown-species": ["atomic", "--species", "Xe", "--density", "1e14/cm3", "--volume", "1cm3"],
    "uncalibrated-species": ["atomic", "--species-file", "species_uncalibrated.json",
                             "--species", "Li", "--density", "1e14/cm3", "--volume", "1cm3"],
    "no-atoms": ["atomic", "--species", "Cs", "--density", "1/m3", "--volume", "1mm3"],
    "below-floor": ["atomic", "--species", "41K", "--density", "1e14/cm3", "--volume", "1cm3",
                    "--temp", "1e-9K"],
    "squid-p-range": ["squid", "--p", "2.0", "--temp", "4.2K", "--tau", "1us"],
    "squid-p-not-float": ["squid", "--p", "abc", "--temp", "4.2K", "--tau", "1us"],
    "diamond-psd-alone": ["diamond", "--temp", "300K", "--tau", "1us", "--psd", "300pT/rtHz"],
    "records-missing": ["compare", "--records", "no_such_records.json"],
    "records-invalid": ["compare", "--records", "records_bad.json"],
    "simulate-no-trajectories": ["simulate", "--atoms", "1e6", "--trajectories", "0",
                                 "--seed", "0"],
    "simulate-bad-dump": ["simulate", "--atoms", "1e6", "--trajectories", "5", "--seed", "0",
                          "--dump-trajectories", "a,b"],
}


def _cases() -> dict[str, list[str]]:
    cases = {}
    for name, argv in _COMMANDS.items():
        for fmt in _FORMATS:
            for digits in _DIGITS:
                cases[f"{name}-{fmt}-d{digits}"] = [*argv, "--format", fmt, "--digits", digits]
    cases.update({f"error-{name}": argv for name, argv in _ERRORS.items()})
    cases["help"] = ["--help"]
    for name in ("species-list", "atomic", "squid", "diamond", "table1", "table2", "compare", "simulate"):
        cases[f"help-{name}"] = [name, "--help"]
    return cases


@functools.cache
def _load() -> dict:
    return json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))


@pytest.fixture
def in_golden_dir(monkeypatch):
    monkeypatch.chdir(GOLDEN_DIR)
    monkeypatch.setenv("COLUMNS", "80")


def test_golden_file_covers_every_case():
    assert sorted(_load()) == sorted(_cases())


@pytest.mark.parametrize("case", sorted(_cases()))
def test_cli_output_is_byte_identical(case, in_golden_dir, run_main):
    expected = _load()[case]
    assert run_main(*expected["argv"]) == (expected["code"], expected["stdout"], expected["stderr"])


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    from conftest import main_in_process

    os.chdir(GOLDEN_DIR)
    os.environ["COLUMNS"] = "80"
    captured = {}
    for name, argv in _cases().items():
        code, stdout, stderr = main_in_process(*argv)
        captured[name] = {"argv": argv, "code": code, "stdout": stdout, "stderr": stderr}
    GOLDEN_FILE.write_text(json.dumps(captured, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(captured)} cases to {GOLDEN_FILE}")

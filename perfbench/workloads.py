"""Seeded inputs for the benchmark workloads.

Every input is a function of ``(workload, seed)`` alone: the same seed
gives the same argument lists and the same generated files.  Paths in the
argument lists are relative to the repository root, which is the working
directory of every ``python -m erlab`` child process.

Workloads
---------
``cli-analytic``
    A mix of analytic commands in all three output formats, with a small
    fixed share of malformed inputs that must be rejected with exit code 2.
``sim-wide``
    ``simulate`` at 1e5 trajectories x 100 steps, one worker.
``sim-deep``
    ``simulate`` at 8192 trajectories x 1e4 steps, dumping two trajectories
    as CSV.  It runs one worker: at two workers on two shared cores the
    wall time spread 20% from run to run, so thread scaling is measured per
    layer instead, by ``spinsim.speedup_w2`` on this configuration.

Besides the timed operations, ``cli-analytic`` carries *defect probes*:
inputs whose documented outcome is exit 2, but which the program is known
to mishandle.  They are run and reported on every run, apart from the timed
operations, so that the timed operations are those that should all succeed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("cli-analytic", "sim-wide", "sim-deep")

FORMATS = ("text", "json", "csv")
COMMANDS = ("species-list", "atomic", "squid", "diamond", "table1", "table2", "compare")
SPECIES_NAMES = ("41K", "87Rb", "133Cs", "K", "Rb", "Cs")

CLI_OPS = 64          # operations in the cli-analytic mix, cycled by the timed loop
RECORD_FILES = 4      # generated records files for `compare`
SIM_ATOMS = "1e6"

# sim-deep dumps these trajectories; the oracle checks their CSV files
DEEP_DUMPS = (0, 4096)


@dataclass(frozen=True)
class Op:
    """One ``erlab`` invocation and the outcome its oracle expects.

    ``expect`` is ``"ok"`` (exit 0 with correct output) or ``"error"``
    (exit 2 with one validation message).  ``defect`` names the known
    defect an input exercises, for defect probes only.
    """

    command: str
    options: tuple[tuple[str, str], ...] = ()
    expect: str = "ok"
    defect: str = ""

    @property
    def argv(self) -> tuple[str, ...]:
        out = [self.command]
        for key, value in self.options:
            out += [key, value]
        return tuple(out)

    def option(self, key: str, default: str | None = None) -> str | None:
        for k, v in self.options:
            if k == key:
                return v
        return default

    @property
    def format(self) -> str:
        return self.option("--format", "json" if self.command == "simulate" else "text")


@dataclass
class Inputs:
    """Everything a run needs: timed ops, probes and files to write."""

    workload: str
    seed: int
    workdir: str
    ops: list[Op]
    defect_probes: list[Op] = field(default_factory=list)
    probe_ops: list[Op] = field(default_factory=list)   # in-process layer probes only
    files: dict[str, str] = field(default_factory=dict)  # relative path -> content

    def write_files(self, root: Path) -> None:
        for rel, content in self.files.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(content, encoding="utf-8")
        (root / self.workdir / "dump").mkdir(parents=True, exist_ok=True)


def _g(x: float) -> str:
    return f"{x:.4g}"


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10 ** rng.uniform(lo, hi)


def _records(rng: random.Random) -> str:
    records = [
        {
            "label": f"R{i}",
            "p": float(_g(_log_uniform(rng, -8, -5))),
            "T_K": float(_g(rng.uniform(0.3, 4.2))),
            "tau_s": float(_g(_log_uniform(rng, -7, -4))),
            "measured_erl_hbar": float(_g(rng.uniform(0.5, 100.0))),
        }
        for i in range(rng.randint(1, 8))
    ]
    return json.dumps(records, indent=2) + "\n"


def _common(rng: random.Random, fmt: str) -> list[tuple[str, str]]:
    opts = [("--format", fmt)]
    if fmt != "json" and rng.random() < 0.3:
        opts.append(("--digits", str(rng.choice((4, 8, 10)))))
    return opts


def _analytic_op(rng: random.Random, command: str, fmt: str, records: list[str]) -> Op:
    opts: list[tuple[str, str]] = []
    if command == "atomic":
        opts += [
            ("--species", rng.choice(SPECIES_NAMES)),
            ("--density", rng.choice((f"{_g(_log_uniform(rng, 11, 16))}/cm3",
                                      f"{_g(_log_uniform(rng, 17, 22))}/m3"))),
            ("--volume", rng.choice((f"{_g(_log_uniform(rng, -2, 2))}cm3",
                                     f"{_g(_log_uniform(rng, -8, -4))}m3"))),
        ]
        if rng.random() < 0.5:
            opts.append(("--temp", f"{_g(rng.uniform(300, 480))}K"))
    elif command == "squid":
        opts += [
            ("--p", _g(_log_uniform(rng, -8, -4))),
            ("--temp", f"{_g(rng.uniform(0.3, 10))}K"),
            ("--tau", rng.choice((f"{_g(_log_uniform(rng, -7, -4))}s",
                                  f"{_g(_log_uniform(rng, -1, 2))}us"))),
        ]
        if rng.random() < 0.5:
            opts.append(("--measured", _g(rng.uniform(0.5, 200))))
    elif command == "diamond":
        opts += [
            ("--temp", f"{_g(rng.uniform(4, 400))}K"),
            ("--tau", rng.choice((f"{_g(_log_uniform(rng, 0, 3))}us",
                                  f"{_g(_log_uniform(rng, -1, 1))}ms"))),
        ]
        if rng.random() < 0.5:
            opts += [
                ("--psd", f"{_g(rng.uniform(1, 1000))}pT/rtHz"),
                ("--volume", f"{_g(_log_uniform(rng, -15, -9))}m3"),
            ]
    elif command == "compare":
        opts.append(("--records", rng.choice(records)))
    return Op(command, tuple(opts + _common(rng, fmt)))


def _error_ops(rng: random.Random) -> list[Op]:
    """Malformed inputs the program rejects with exit 2 today."""
    fmt = rng.choice(FORMATS)
    cell = [("--density", f"{_g(_log_uniform(rng, 11, 16))}/cm3"),
            ("--volume", f"{_g(_log_uniform(rng, -2, 2))}cm3")]
    squid = [("--temp", "4.2K"), ("--tau", f"{_g(_log_uniform(rng, -7, -4))}s")]
    return [
        Op("atomic", (("--species", rng.choice(("Xx", "Na", "223Fr"))), *cell), "error"),
        Op("squid", (("--p", "nan"), *squid, ("--format", fmt)), "error"),
        Op("squid", (("--p", "inf"), *squid), "error"),
        Op("squid", (("--p", "1e400"), *squid), "error"),
        Op("diamond", (("--temp", "nanK"), ("--tau", "1us")), "error"),
        Op("atomic", (("--species", "Cs"), ("--density", "inf/cm3"), cell[1]), "error"),
    ]


def _defect_probes(rng: random.Random, seed: int) -> list[Op]:
    """Inputs whose documented outcome is exit 2 but which the program mishandles."""
    return [
        Op("atomic", (("--species", rng.choice(SPECIES_NAMES)), ("--density", "1e400/cm3"),
                      ("--volume", "10cm3"), ("--format", "json")),
           "error", "traceback with exit 1 on --density 1e400/cm3"),
        Op("squid", (("--p", _g(_log_uniform(rng, -8, -4))), ("--temp", "4.2K"),
                     ("--tau", "5us"), ("--measured", "nan"), ("--format", "json")),
           "error", "exit 0 with NaN in JSON on --measured nan"),
        Op("diamond", (("--temp", "1e400K"), ("--tau", "1us"), ("--format", "json")),
           "error", "exit 0 with Infinity in JSON on --temp 1e400K"),
        Op("simulate", (("--atoms", "nan"), ("--trajectories", "64"), ("--seed", str(seed))),
           "error", "exit 0 with NaN in JSON on --atoms nan"),
    ]


def sim_op(seed: int, trajectories: int, steps: int | None = None, workers: int | None = None,
           dump_dir: str | None = None, dumps: tuple[int, ...] = ()) -> Op:
    opts = [("--atoms", SIM_ATOMS), ("--trajectories", str(trajectories))]
    if steps is not None:
        opts.append(("--steps-per-tau", str(steps)))
    opts.append(("--seed", str(seed)))
    if workers is not None:
        opts.append(("--workers", str(workers)))
    if dumps:
        opts += [("--dump-trajectories", ",".join(map(str, dumps))), ("--dump-dir", dump_dir)]
    return Op("simulate", tuple(opts))


def generate(workload: str, seed: int, workdir: str) -> Inputs:
    """Inputs of ``workload`` for ``seed``; ``workdir`` is relative to the repo root."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"erlab-perfbench:{seed}")
    files = {}
    records = []
    for i in range(RECORD_FILES):
        rel = f"{workdir}/records-{i}.json"
        files[rel] = _records(rng)
        records.append(rel)
    dump_dir = f"{workdir}/dump"

    valid = [_analytic_op(rng, rng.choice(COMMANDS), rng.choice(FORMATS), records)
             for _ in range(CLI_OPS - 6)]
    errors = _error_ops(rng)
    mix = valid + errors
    rng.shuffle(mix)
    defects = _defect_probes(rng, seed)
    # one op per command and format, so every analytic function is reached
    analytic_probe = [_analytic_op(rng, c, f, records) for c in COMMANDS for f in FORMATS]
    sim_probe = sim_op(seed, 8192, steps=1000, dump_dir=dump_dir, dumps=(0,))

    if workload == "cli-analytic":
        return Inputs(workload, seed, workdir, mix, defects, analytic_probe + [sim_probe], files)
    if workload == "sim-wide":
        op = sim_op(seed, 100_000)
        return Inputs(workload, seed, workdir, [op], [], analytic_probe + [sim_probe], files)
    op = sim_op(seed, 8192, steps=10_000, workers=1, dump_dir=dump_dir, dumps=DEEP_DUMPS)
    return Inputs(workload, seed, workdir, [op], [], analytic_probe, files)

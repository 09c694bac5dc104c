"""Command-line front end.

Commands map one-to-one onto library operations: ``atomic`` ->
``sensors.atomic_floor``, ``squid`` -> ``sensors.squid_erl``, ``diamond``
-> ``sensors.diamond_erl`` / ``measured_erl_from_psd``, ``simulate`` ->
``spinsim.simulate_transient``, ``table1``/``table2``/``compare`` ->
the bundled reproduction tables.

Every dimensioned value on the command line must carry a unit suffix
(``1e14/cm3``, ``10cm3``, ``0.5e-5s``, ``300pT/rtHz``); bare numbers are
accepted only for dimensionless parameters.  Exit codes: 0 success,
1 usage error, 2 validation error, 3 I/O error.

Each command imports only what it runs: every ``_cmd_*`` handler, and
``_catalog`` and ``_render``, imports its own ``sensors``, ``species``,
``report``, ``spinsim`` and ``units`` names, so ``--version`` loads none
of them and only ``simulate`` loads numpy.  Nothing of erlab but
``__version__`` is imported at the top.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import __version__

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_IO = 3

# --digits cap: no float has more than 767 significant decimal digits, so it changes no output
_MAX_DIGITS = 1000

# reference cell shared by the table1 reproduction: n = 1e14 cm^-3, V = 10 cm^3
_TABLE1_DENSITY = 1e20  # m^-3
_TABLE1_VOLUME = 1e-5   # m^3

# result-dataclass field -> (row label, unit, provenance), in report order
_ATOMIC_FIELDS = {
    "atom_count": ("atom_count", "", "derived"),
    "relaxation_time": ("relaxation_time", "s", "derived"),
    "delta_B_floor": ("delta_B_floor", "T", "predicted"),
    "erl_hbar": ("erl", "hbar", "predicted"),
    "kappa": ("kappa", "", "derived"),
    "kappa_bare": ("kappa_bare", "", "derived"),
    "spin_temperature": ("spin_temperature", "K", "derived"),
    "correlation_atoms": ("correlation_atoms", "", "derived"),
    "correlation_volume": ("correlation_volume", "m3", "derived"),
    "collision_time": ("collision_time", "s", "derived"),
    "sd_phase": ("sd_phase", "", "derived"),
    "delta_B_uncertainty_check": ("delta_B_uncertainty_check", "T", "derived"),
    "psd": ("psd", "T/rtHz", "predicted"),
}
# the keys are also the columns of the wide table2/compare CSV
_COMPARISON_FIELDS = {
    "p": ("p", "", "measured"),
    "T_K": ("bath_temperature", "K", "measured"),
    "tau_s": ("measurement_time", "s", "measured"),
    "predicted_erl_hbar": ("predicted_erl", "hbar", "predicted"),
    "measured_erl_hbar": ("measured_erl", "hbar", "measured"),
    "ratio": ("ratio", "", "derived"),
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); route to our taxonomy
        raise _UsageError(message)


def _common_options(default_format: str = "text") -> _Parser:
    p = _Parser(add_help=False)
    p.add_argument(
        "--format",
        choices=("text", "json", "csv"),
        default=default_format,
        help=f"output format (default: {default_format})",
    )
    p.add_argument("--output", metavar="PATH", help="write output to PATH instead of stdout")
    p.add_argument(
        "--digits",
        type=int,
        default=6,
        metavar="N",
        help=(
            "significant digits for text/csv floats, as Python's g format: 0 prints one "
            "(default: 6; simulate --format csv ignores it and prints each float in full)"
        ),
    )
    return p


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="erlab",
        description="Energy-resolution limits for magnetometers and a spin-noise Monte Carlo.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"erlab {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", parser_class=_Parser)
    common = {fmt: _common_options(fmt) for fmt in ("text", "json")}

    def command(name, handler, help_text, default_format="text"):
        p = sub.add_parser(name, parents=[common[default_format]], help=help_text)
        p.set_defaults(handler=handler)
        return p

    p = command("species-list", _cmd_species_list, "list the species catalog with derived quantities")
    p.add_argument("--species-file", metavar="PATH", help="species catalog JSON (overrides bundled)")

    p = command("atomic", _cmd_atomic, "vapor-cell field floor and energy resolution")
    p.add_argument("--species", required=True, help="catalog species, e.g. Cs or 133Cs")
    p.add_argument("--density", required=True, help="number density, e.g. 1e14/cm3")
    p.add_argument("--volume", required=True, help="cell volume, e.g. 10cm3")
    p.add_argument("--temp", help="cell temperature, e.g. 400K (default: calibration temperature)")
    p.add_argument("--species-file", metavar="PATH", help="species catalog JSON (overrides bundled)")

    p = command("squid", _cmd_squid, "SQUID readout energy resolution from flux noise")
    p.add_argument("--p", required=True, type=float, help="flux noise as a fraction of Phi_0 (bare number)")
    p.add_argument("--temp", required=True, help="bath temperature, e.g. 4.2K")
    p.add_argument("--tau", required=True, help="measurement time, e.g. 0.5e-5s")
    p.add_argument("--measured", type=float, help="measured energy resolution in hbar units, for comparison")

    p = command("diamond", _cmd_diamond, "diamond (NV) sensor energy resolution")
    p.add_argument("--temp", required=True, help="bath temperature, e.g. 300K")
    p.add_argument("--tau", required=True, help="spin relaxation time, e.g. 1us")
    p.add_argument("--psd", help="measured noise density, e.g. 300pT/rtHz (with --volume)")
    p.add_argument("--volume", help="sensing volume, e.g. 2.79e-12m3 (with --psd)")

    p = command("table1", _cmd_table1, "vapor floor for the catalog species at the reference cell")
    p.add_argument("--species-file", metavar="PATH", help="species catalog JSON (overrides bundled)")

    p = command("table2", _cmd_table2, "predicted vs measured SQUID energy resolutions")
    p.add_argument("--records", metavar="PATH", help="records JSON (default: bundled)")

    p = command("compare", _cmd_table2, "compare a records file against the prediction")
    p.add_argument("--records", metavar="PATH", required=True, help="records JSON")

    p = command("simulate", _cmd_simulate, "Monte Carlo spin-noise transient", default_format="json")
    p.add_argument("--atoms", required=True, type=float, help="ensemble size N (bare number)")
    p.add_argument("--trajectories", required=True, type=int, help="Monte Carlo sample size")
    p.add_argument("--seed", required=True, type=int, help="64-bit RNG seed")
    p.add_argument("--tau", default="1s", help="relaxation time with unit (default: 1s)")
    p.add_argument("--steps-per-tau", type=int, default=100, help="time resolution (default: 100)")
    p.add_argument("--horizon", type=float, default=1.0, help="endpoint in units of tau (default: 1)")
    p.add_argument(
        "--workers",
        type=int,
        help=(
            "worker processes (default: the usable CPU count, the CPU affinity set "
            "capped at a cgroup CPU quota; output-invariant)"
        ),
    )
    p.add_argument(
        "--dump-trajectories",
        metavar="I,J,...",
        help="comma-separated trajectory indices to dump as CSV",
    )
    p.add_argument("--dump-dir", metavar="DIR", default=".", help="directory for trajectory dumps")

    return parser


# ---------------------------------------------------------------------------
# handlers: each returns (title, inputs, rows) for _render, or a finished string
# ---------------------------------------------------------------------------

def _catalog(args):
    from .species import default_catalog, load_catalog

    return load_catalog(args.species_file) if args.species_file else default_catalog()


def _cmd_species_list(args):
    from .units import constants

    rows = []
    for sp in _catalog(args):
        sigma = sp.sd_cross_section_m2
        rows += [
            (f"{sp.name}.nuclear_spin", str(sp.nuclear_spin), "", "measured"),
            (f"{sp.name}.mass", sp.mass_kg / constants().atomic_mass, "amu", "measured"),
            (f"{sp.name}.sd_cross_section", None if sigma is None else sigma * 1e4, "cm2", "derived"),
            (f"{sp.name}.reference_temperature", sp.reference_temperature_K, "K", "derived"),
            (f"{sp.name}.slowing_factor", sp.slowing_factor, "", "derived"),
            (f"{sp.name}.magnetic_moment", sp.magnetic_moment, "J/T", "derived"),
            (f"{sp.name}.mean_relative_velocity", sp.mean_relative_velocity(), "m/s", "derived"),
        ]
    return "species catalog", {}, rows


def _field_rows(result, fields: dict, prefix: str = "") -> list[tuple]:
    return [
        (f"{prefix}{label}", getattr(result, name), unit, provenance)
        for name, (label, unit, provenance) in fields.items()
    ]


def _cmd_atomic(args):
    from .sensors import VaporCell, atomic_floor
    from .units import NUMBER_DENSITY, TEMPERATURE, VOLUME, parse_quantity

    species = _catalog(args).get(args.species)
    density = parse_quantity(args.density, NUMBER_DENSITY).si
    volume = parse_quantity(args.volume, VOLUME).si
    temperature = parse_quantity(args.temp, TEMPERATURE).si if args.temp else None
    cell = VaporCell(species, density, volume, temperature)
    inputs = {
        "species": species.name,
        "number_density_per_m3": density,
        "volume_m3": volume,
        "cell_temperature_K": cell.temperature,
    }
    return "vapor-cell spin-destruction floor", inputs, _field_rows(atomic_floor(cell), _ATOMIC_FIELDS)


def _cmd_squid(args):
    from .sensors import SquidSpec, erl_ratio, squid_erl
    from .units import TEMPERATURE, TIME, parse_quantity

    temperature = parse_quantity(args.temp, TEMPERATURE).si
    tau = parse_quantity(args.tau, TIME).si
    spec = SquidSpec(args.p, temperature, tau, args.measured)
    predicted = squid_erl(spec)
    rows = [
        ("flux_noise_fraction", spec.flux_noise_fraction, "", "measured"),
        ("bath_temperature", temperature, "K", "measured"),
        ("measurement_time", tau, "s", "measured"),
        ("info_gained", spec.info_nats, "nat", "derived"),
        ("predicted_erl", predicted, "hbar", "predicted"),
    ]
    if args.measured is not None:
        rows += [
            ("measured_erl", args.measured, "hbar", "measured"),
            ("ratio_measured_to_predicted", erl_ratio(args.measured, predicted), "", "derived"),
        ]
    return "SQUID readout bound", {"p": args.p, "T_K": temperature, "tau_s": tau}, rows


def _cmd_diamond(args):
    from .sensors import diamond_erl, erl_ratio, measured_erl_from_psd
    from .units import FIELD_NOISE_DENSITY, TEMPERATURE, TIME, VOLUME, parse_quantity

    temperature = parse_quantity(args.temp, TEMPERATURE).si
    tau = parse_quantity(args.tau, TIME).si
    if (args.psd is None) != (args.volume is None):
        raise ValueError("--psd and --volume must be given together for the measured route")
    optimal = diamond_erl(temperature, tau)
    rows = [
        ("bath_temperature", temperature, "K", "measured"),
        ("relaxation_time", tau, "s", "measured"),
        ("optimal_erl", optimal, "hbar", "predicted"),
    ]
    if args.psd is not None:
        psd = parse_quantity(args.psd, FIELD_NOISE_DENSITY).si
        volume = parse_quantity(args.volume, VOLUME).si
        measured = measured_erl_from_psd(psd, volume)
        rows += [
            ("noise_density", psd, "T/rtHz", "measured"),
            ("sensing_volume", volume, "m3", "measured"),
            ("measured_erl", measured, "hbar", "measured"),
            ("ratio_measured_to_optimal", erl_ratio(measured, optimal), "", "derived"),
        ]
    return "diamond sensor bound", {"T_K": temperature, "tau_s": tau}, rows


def _cmd_table1(args):
    from .sensors import VaporCell, atomic_floor

    rows = []
    for sp in _catalog(args):
        rep = atomic_floor(VaporCell(sp, _TABLE1_DENSITY, _TABLE1_VOLUME))
        rows += [
            (f"{sp.name}.delta_B_floor", rep.delta_B_floor / 1e-17, "1e-17 T", "predicted"),
            (f"{sp.name}.erl", rep.erl_hbar, "hbar", "predicted"),
        ]
    inputs = {"number_density_per_cm3": 1e14, "volume_cm3": 10.0}
    return "vapor floor at the reference cell", inputs, rows


def _cmd_table2(args):
    from .report import csv_text, format_value
    from .sensors import compare_published, default_published_records, load_published_records

    records = load_published_records(args.records) if args.records else default_published_records()
    comparison = compare_published(records)
    if args.format == "csv":
        table = []
        for row in comparison:
            values = (getattr(row, name) for name in _COMPARISON_FIELDS)
            table.append([row.label, *(format_value(v, args.digits) for v in values)])
        return csv_text(("label", *_COMPARISON_FIELDS), table)
    rows = []
    for row in comparison:
        rows += _field_rows(row, _COMPARISON_FIELDS, f"{row.label}.")
        if row.flagged:
            rows.append((f"{row.label}.warning", "measured below prediction", "", "derived"))
    title = "SQUID energy resolution: prediction vs measurement"
    return title, {"records": len(comparison)}, rows


def _cmd_simulate(args):
    from .report import csv_text
    from .spinsim import (
        SimConfig,
        result_to_json,
        simulate_transient,
        usable_cpus,
        write_trajectory_csv,
    )
    from .units import TIME, parse_quantity

    tau = parse_quantity(args.tau, TIME).si
    atoms = int(args.atoms) if float(args.atoms).is_integer() else args.atoms
    config = SimConfig(
        atom_count=atoms,
        relaxation_time=tau,
        trajectory_count=args.trajectories,
        steps_per_tau=args.steps_per_tau,
        horizon=args.horizon,
        seed=args.seed,
    )
    indices: tuple[int, ...] = ()
    if args.dump_trajectories:
        try:
            indices = tuple(int(tok) for tok in args.dump_trajectories.split(","))
        except ValueError:
            raise ValueError(
                f"--dump-trajectories must be comma-separated integers, got {args.dump_trajectories!r}"
            ) from None
    workers = usable_cpus() if args.workers is None else args.workers
    result = simulate_transient(config, workers=workers, sample_indices=indices)
    for sample in result.trajectory_sample:
        write_trajectory_csv(sample, Path(args.dump_dir) / f"trajectory_{sample.index}.csv")
    if args.format == "json":
        return result_to_json(result, config)
    if args.format == "csv":
        return csv_text(
            ("variance", "std_error", "mean"),
            [(result.variance_at_horizon, result.standard_error, result.mean_over_trajectories)],
        )
    return "spin-noise transient Monte Carlo", config.config_echo(), [
        ("variance_at_horizon", result.variance_at_horizon, "", "predicted"),
        ("uncertainty", math.sqrt(result.variance_at_horizon), "", "predicted"),
        ("mean_over_trajectories", result.mean_over_trajectories, "", "derived"),
        ("standard_error_of_mean", result.standard_error, "", "derived"),
        ("variance_standard_error", result.variance_standard_error, "", "derived"),
    ]


def _render(content, args) -> str:
    """A handler's finished string as it is; its ``(title, inputs, rows)`` as
    one report in ``--format``, its header the tool and then the inputs."""
    if isinstance(content, str):
        return content
    from .report import Report, render_csv, render_json, render_text

    title, inputs, rows = content
    report = Report(title, {"tool": f"erlab {__version__}", **inputs}, tuple(rows))
    if args.format == "json":
        return render_json(report)
    if args.format == "csv":
        return render_csv(report, args.digits)
    return render_text(report, args.digits)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _fail(code: int, category: str, message) -> int:
    text = str(message).replace("\n", " ")
    print(f"erlab: error: {category}: {text}", file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        return _fail(EXIT_USAGE, "usage", exc)
    if getattr(args, "handler", None) is None:
        return _fail(EXIT_USAGE, "usage", "a command is required (try --help)")
    if not 0 <= args.digits <= _MAX_DIGITS:
        message = f"--digits must be from 0 to {_MAX_DIGITS}, got {args.digits}"
        return _fail(EXIT_VALIDATION, "validation", message)
    try:
        content = _render(args.handler(args), args)
    except _UsageError as exc:
        return _fail(EXIT_USAGE, "usage", exc)
    except KeyError as exc:
        return _fail(EXIT_VALIDATION, "validation", exc.args[0] if exc.args else exc)
    except ValueError as exc:  # includes DimensionError
        return _fail(EXIT_VALIDATION, "validation", exc)
    except OSError as exc:
        return _fail(EXIT_IO, "io", exc)
    try:
        if args.output:
            Path(args.output).write_text(content, encoding="utf-8")
        else:
            sys.stdout.write(content)
    except OSError as exc:
        return _fail(EXIT_IO, "io", exc)
    return EXIT_OK

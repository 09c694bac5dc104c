"""Output oracles: each returns ``None`` for a correct outcome or a reason string.

Analytic outputs are compared against the same public functions called
in-process: JSON values to 1e-12 relative, text and CSV values to the
precision they were printed at.  Every JSON document is parsed strictly,
so ``NaN`` and ``Infinity`` fail.  ``simulate`` must land within four
standard errors of the discretised scheme's exact variance, echo its
inputs, and dump CSVs with one row per step plus the initial point.
Repeated inputs within a run must give byte-identical output.

``erlab`` is imported only when an oracle first needs it: a process that
holds numpy would raise the peak RSS its ``vfork``ed children report.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

JSON_RTOL = 1e-12
TABLE1_DENSITY = 1e20   # the reference cell: n = 1e14 cm^-3, V = 10 cm^3
TABLE1_VOLUME = 1e-5
VARIANCE_SIGMAS = 4.0
WARNING = "measured below prediction"
_COMPARISON_COLUMNS = {
    "p": "p",
    "T_K": "bath_temperature",
    "tau_s": "measurement_time",
    "predicted_erl_hbar": "predicted_erl",
    "measured_erl_hbar": "measured_erl",
    "ratio": "ratio",
}


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def strict_json(text: str):
    """Parse RFC 8259 JSON; ``NaN``/``Infinity`` raise ``ValueError``."""
    return json.loads(text, parse_constant=_reject_constant)


def is_strict(text: str) -> bool:
    try:
        strict_json(text)
    except ValueError:
        return False
    return True


# ---------------------------------------------------------------------------
# expected analytic rows, from the public functions
# ---------------------------------------------------------------------------

def expected_rows(op) -> dict[str, object]:
    """Label -> value that ``op`` must report, computed in-process."""
    from erlab import sensors, species, units

    si = lambda key, dim: units.parse_quantity(op.option(key), dim).si  # noqa: E731
    rows: dict[str, object] = {}
    if op.command == "species-list":
        amu = units.constants().atomic_mass
        for sp in species.default_catalog():
            sigma = sp.sd_cross_section_m2
            rows.update({
                f"{sp.name}.nuclear_spin": str(sp.nuclear_spin),
                f"{sp.name}.mass": sp.mass_kg / amu,
                f"{sp.name}.sd_cross_section": math.nan if sigma is None else sigma * 1e4,
                f"{sp.name}.reference_temperature": sp.reference_temperature_K,
                f"{sp.name}.slowing_factor": sp.slowing_factor,
                f"{sp.name}.magnetic_moment": sp.magnetic_moment,
                f"{sp.name}.mean_relative_velocity": sp.mean_relative_velocity(),
            })
    elif op.command == "atomic":
        temp = si("--temp", units.TEMPERATURE) if op.option("--temp") else None
        cell = sensors.VaporCell(species.default_catalog().get(op.option("--species")),
                                 si("--density", units.NUMBER_DENSITY),
                                 si("--volume", units.VOLUME), temp)
        report = dataclasses.asdict(sensors.atomic_floor(cell))
        report["erl"] = report.pop("erl_hbar")
        rows.update(report)
    elif op.command == "squid":
        p = float(op.option("--p"))
        temp, tau = si("--temp", units.TEMPERATURE), si("--tau", units.TIME)
        predicted = sensors.squid_erl(sensors.SquidSpec(p, temp, tau))
        rows.update(flux_noise_fraction=p, bath_temperature=temp, measurement_time=tau,
                    info_gained=-p * math.log(p), predicted_erl=predicted)
        if op.option("--measured") is not None:
            measured = float(op.option("--measured"))
            rows.update(measured_erl=measured, ratio_measured_to_predicted=measured / predicted)
    elif op.command == "diamond":
        temp, tau = si("--temp", units.TEMPERATURE), si("--tau", units.TIME)
        optimal = sensors.diamond_erl(temp, tau)
        rows.update(bath_temperature=temp, relaxation_time=tau, optimal_erl=optimal)
        if op.option("--psd") is not None:
            psd = si("--psd", units.FIELD_NOISE_DENSITY)
            volume = si("--volume", units.VOLUME)
            measured = sensors.measured_erl_from_psd(psd, volume)
            rows.update(noise_density=psd, sensing_volume=volume, measured_erl=measured,
                        ratio_measured_to_optimal=measured / optimal)
    elif op.command == "table1":
        for sp in species.default_catalog():
            rep = sensors.atomic_floor(sensors.VaporCell(sp, TABLE1_DENSITY, TABLE1_VOLUME))
            rows[f"{sp.name}.delta_B_floor"] = rep.delta_B_floor / 1e-17
            rows[f"{sp.name}.erl"] = rep.erl_hbar
    elif op.command in ("table2", "compare"):
        path = op.option("--records")
        records = (sensors.load_published_records(path) if path
                   else sensors.default_published_records())
        for row in sensors.compare_published(records):
            rows.update({
                f"{row.label}.p": row.p,
                f"{row.label}.bath_temperature": row.T_K,
                f"{row.label}.measurement_time": row.tau_s,
                f"{row.label}.predicted_erl": row.predicted_erl_hbar,
                f"{row.label}.measured_erl": row.measured_erl_hbar,
                f"{row.label}.ratio": row.ratio,
            })
            if row.flagged:
                rows[f"{row.label}.warning"] = WARNING
    else:
        raise ValueError(f"no analytic oracle for {op.command!r}")
    return rows


# ---------------------------------------------------------------------------
# parsing the three output formats into label -> value
# ---------------------------------------------------------------------------

def _parse_output(op, stdout: str) -> dict[str, object]:
    fmt = op.format
    if fmt == "json":
        doc = strict_json(stdout)
        return {row["label"]: row["value"] for row in doc["rows"]}
    if fmt == "csv" and op.command in ("table2", "compare"):
        rows = {}
        for rec in csv.DictReader(io.StringIO(stdout)):
            for column, suffix in _COMPARISON_COLUMNS.items():
                rows[f"{rec['label']}.{suffix}"] = rec[column]
        return rows
    if fmt == "csv":
        return {rec["label"]: rec["value"] for rec in csv.DictReader(io.StringIO(stdout))}
    rows = {}
    for line in stdout.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        label, rest = line.split(None, 1)
        rows[label] = rest
    return rows


def _value_matches(got, want, fmt: str, digits: int) -> bool:
    if isinstance(want, str):
        return got == want if fmt != "text" else got.startswith(want)
    if fmt == "json":
        if not isinstance(got, (int, float)) or isinstance(got, bool):
            return False
        return math.isclose(got, want, rel_tol=JSON_RTOL, abs_tol=0.0)
    token = got.split()[0] if fmt == "text" else got
    try:
        value = float(token)
    except ValueError:
        return False
    if math.isnan(want):
        return math.isnan(value)
    return math.isclose(value, want, rel_tol=10.0 ** (1 - digits), abs_tol=0.0)


def check_analytic(op, stdout: str) -> str | None:
    try:
        got = _parse_output(op, stdout)
    except (ValueError, KeyError) as exc:
        return f"unparseable {op.format} output: {exc}"
    want = expected_rows(op)
    if op.format == "csv" and op.command in ("table2", "compare"):
        want = {k: v for k, v in want.items() if not k.endswith(".warning")}
    if set(got) != set(want):
        return f"row labels differ: missing {sorted(set(want) - set(got))[:3]}, " \
               f"extra {sorted(set(got) - set(want))[:3]}"
    digits = int(op.option("--digits", "6"))
    for label, value in want.items():
        if not _value_matches(got[label], value, op.format, digits):
            return f"{label}: got {got[label]!r}, expected {value!r}"
    return None


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def sim_config(op):
    from erlab import spinsim, units

    return spinsim.SimConfig(
        atom_count=float(op.option("--atoms")),
        relaxation_time=units.parse_quantity(op.option("--tau", "1s"), units.TIME).si,
        trajectory_count=int(op.option("--trajectories")),
        steps_per_tau=int(op.option("--steps-per-tau", "100")),
        seed=int(op.option("--seed")),
    )


@dataclass(frozen=True)
class Dump:
    """What the oracle needs of one trajectory CSV; ``lines`` is 0 if missing."""

    name: str
    lines: int = 0
    head: tuple[str, ...] = ()
    last: str = ""
    digest: str = ""


def take_dumps(op, root: Path) -> tuple[Dump, ...]:
    """Summarise ``op``'s trajectory dumps and remove them, so that the next
    operation must write its own."""
    indices = op.option("--dump-trajectories")
    dumps = []
    for i in indices.split(",") if indices else ():
        path = root / op.option("--dump-dir") / f"trajectory_{i}.csv"
        if not path.is_file():
            dumps.append(Dump(path.name))
            continue
        data = path.read_bytes()
        path.unlink()
        lines = data.decode().splitlines()
        dumps.append(Dump(path.name, len(lines), tuple(lines[:2]), lines[-1],
                          hashlib.sha256(data).hexdigest()))
    return tuple(dumps)


def check_simulate(op, stdout: str, dumps: tuple[Dump, ...]) -> str | None:
    from erlab import spinsim

    try:
        doc = strict_json(stdout)
    except ValueError as exc:
        return f"simulate output is not strict JSON: {exc}"
    for key in ("variance", "std_error", "mean", "config_echo"):
        if key not in doc:
            return f"simulate output lacks {key!r}"
    cfg = sim_config(op)
    atoms = float(op.option("--atoms"))
    echo = {
        "atom_count": int(atoms) if atoms.is_integer() else atoms,
        "relaxation_time_s": cfg.relaxation_time,
        "trajectory_count": cfg.trajectory_count,
        "steps_per_tau": cfg.steps_per_tau,
        "horizon_in_tau": cfg.horizon,
        "seed": cfg.seed,
    }
    for key, value in echo.items():
        if doc["config_echo"].get(key) != value:
            return f"config_echo[{key!r}] = {doc['config_echo'].get(key)!r}, expected {value!r}"
    variance = doc["variance"]
    m = cfg.trajectory_count
    reference = spinsim.scheme_variance(cfg)
    tolerance = VARIANCE_SIGMAS * variance * math.sqrt(2.0 / (m - 1))
    if not abs(variance - reference) <= tolerance:
        return f"variance {variance!r} is more than {VARIANCE_SIGMAS} standard errors " \
               f"from the scheme variance {reference!r}"
    steps = cfg.step_count
    for dump in dumps:
        if not dump.lines:
            return f"missing trajectory dump {dump.name}"
        if dump.head[0] != "t_over_tau,value" or dump.lines - 1 != steps + 1:
            return f"{dump.name}: expected a header and {steps + 1} rows, got {dump.lines - 1}"
        if dump.head[1] != "0.0,0.0" or not math.isclose(float(dump.last.split(",")[0]),
                                                         cfg.horizon):
            return f"{dump.name}: trajectory does not span [0, {cfg.horizon}]"
    return None


# ---------------------------------------------------------------------------
# one outcome
# ---------------------------------------------------------------------------

def check_error(returncode, stdout: str, stderr: str) -> str | None:
    lines = stderr.splitlines()
    if returncode != 2:
        if "Traceback (most recent call last)" in stderr:
            kind = "a traceback"
        elif returncode == 0 and stdout.lstrip().startswith("{"):
            kind = "strict JSON" if is_strict(stdout) else "NaN or Infinity in its JSON"
        else:
            kind = "no traceback"
        return f"exit {returncode} with {kind}, expected exit 2"
    if stdout or len(lines) != 1 or not lines[0].startswith("erlab: error: validation: "):
        return "expected empty stdout and one 'erlab: error: validation:' line on stderr"
    return None


def check(op, returncode, stdout: str, stderr: str, dumps: tuple[Dump, ...] = ()) -> str | None:
    """Reason ``op``'s outcome is wrong, or ``None``.  ``returncode`` is
    ``None`` when the call raised instead of returning; ``dumps`` comes
    from ``take_dumps`` right after the call."""
    if op.expect == "error":
        return check_error(returncode, stdout, stderr)
    if returncode != 0 or stderr:
        first = stderr.strip().splitlines()[-1:] or [""]
        return f"exit {returncode}, expected 0: {first[0][:120]}"
    if op.command == "simulate":
        return check_simulate(op, stdout, dumps)
    return check_analytic(op, stdout)


class Determinism:
    """Repeated inputs within a run must give byte-identical output."""

    def __init__(self):
        self._first: dict[tuple[str, ...], str] = {}

    def check(self, op, stdout: str, dumps: tuple[Dump, ...] = ()) -> str | None:
        digest = hashlib.sha256(stdout.encode())
        for dump in dumps:
            digest.update(dump.digest.encode())
        digest = digest.hexdigest()
        first = self._first.setdefault(op.argv, digest)
        return None if first == digest else "output differs from the first run of the same input"

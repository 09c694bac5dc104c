"""Technology-specific energy-resolution predictors.

Three sensor families are modeled:

* **Alkali vapor** — the spin-destruction collision floor.  The field
  sensitivity of an N-atom cell relaxing at rate 1/tau = n sigma_sd v_bar
  is  dB = (pi / 2 ln 2) hbar sigma_sd v_bar sqrt(N) / (mu V),  and the
  corresponding energy resolution (dB)^2 V tau / (2 mu_0 hbar) collapses to
  a volume- and density-independent number,
  (pi^2 / 8 ln^2 2) hbar sigma_sd v_bar / (mu_0 mu^2).
* **SQUID** — one readout at flux noise p Phi_0 gains -p ln p nats, so the
  predicted resolution is (-p ln p) k_B T tau / hbar.
* **Diamond (NV)** — a projective readout gains ln 2 nats:
  k_B T ln 2 tau / hbar, plus a measured-value route from the white-noise
  spectral density.

The vapor model also exposes the correlation picture: the number of atoms
N_c = (hbar v_bar / mu_0 mu^2)^2 sigma_sd n^(-2/3) that a dipolar-strength
argument groups into one correlated block, the block volume V_c = N_c / n,
the collision time T_coll = n^(-1/3) / v_bar and the per-collision phase
phi = sqrt(T_coll / tau).  The bare amplification factor
kappa_bare = hbar sigma_sd v_bar / (mu_0 mu^2) satisfies
kappa_bare = sqrt(N_c) phi identically.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .bounds import THEORETICAL_FLOOR_HBAR, erl_quantum, spin_temperature
from .species import Species
from .units import brief, constants, require

__all__ = [
    "VaporCell",
    "AtomicErlReport",
    "atomic_floor",
    "invert_sigma_v",
    "atomic_psd",
    "SquidSpec",
    "squid_erl",
    "diamond_erl",
    "measured_erl_from_psd",
    "erl_ratio",
    "ComparisonRow",
    "compare_published",
    "load_published_records",
    "default_published_records",
]

_LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# atomic vapor
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VaporCell:
    """A vapor cell: species plus density [m^-3], volume [m^3], temperature [K].

    ``cell_temperature = None`` means "at the species' calibration
    temperature", which reproduces the calibrated rate coefficient exactly.
    """

    species: Species
    number_density: float
    volume: float
    cell_temperature: float | None = None

    def __post_init__(self):
        require(self.number_density, "number density")
        require(self.volume, "volume")
        if not math.isfinite(self.atom_count):
            raise ValueError(
                f"atom count N = density * volume must be finite, got N = {self.atom_count}"
            )
        if self.atom_count < 1:
            raise ValueError(
                f"cell must contain at least one atom, got N = {self.atom_count}"
            )
        if self.cell_temperature is not None:
            require(self.cell_temperature, "cell temperature")

    @property
    def atom_count(self) -> float:
        return self.number_density * self.volume

    @property
    def temperature(self) -> float:
        if self.cell_temperature is not None:
            return self.cell_temperature
        return self.species.reference_temperature_K


@dataclass(frozen=True)
class AtomicErlReport:
    """Everything the vapor floor model derives for one cell (SI units)."""

    atom_count: float
    relaxation_time: float              # s
    delta_B_floor: float                # T
    erl_hbar: float                     # units of hbar
    kappa: float                        # with the 3 pi / (4 ln 2) prefactor
    kappa_bare: float                   # hbar sigma_sd v_bar / (mu_0 mu^2)
    spin_temperature: float             # K, evaluated at B = delta_B_floor
    correlation_atoms: float            # N_c
    correlation_volume: float           # m^3
    collision_time: float               # s
    sd_phase: float                     # phi
    delta_B_uncertainty_check: float    # T, collective-spin uncertainty route
    psd: float                          # T/sqrt(Hz)


def invert_sigma_v(delta_B: float, mu: float, volume: float, atom_count: float) -> float:
    """Rate coefficient sigma_sd * v_bar implied by a sensitivity floor  [m^3/s].

    Exact inverse of the floor formula:
    sigma_sd v_bar = dB mu V 2 ln 2 / (pi hbar sqrt(N)).  This is the
    calibration oracle that fixes the effective cross sections shipped in
    the species catalog from published sensitivity numbers.
    """
    require(delta_B, "delta_B")
    require(mu, "mu")
    require(volume, "volume")
    require(atom_count, "atom_count")
    return (
        delta_B * mu * volume * 2.0 * _LN2 / (math.pi * constants().hbar * math.sqrt(atom_count))
    )


def atomic_psd(delta_B: float, tau: float) -> float:
    """White-noise spectral density dB * sqrt(tau)  [T/sqrt(Hz)].

    The floor dB is resolved over a bandwidth 1/tau, so the equivalent
    density is dB spread over sqrt(1/tau).
    """
    require(tau, "relaxation time")
    require(delta_B, "field floor", "non-negative")
    return delta_B * math.sqrt(tau)


def atomic_floor(cell: VaporCell) -> AtomicErlReport:
    """Full spin-destruction-floor report for a vapor cell.

    Uses the calibrated cross section of ``cell.species``; two independent
    algebraic routes to the field floor are evaluated and cross-checked.
    Raises ValueError where finite inputs take a result out of the float range.
    """
    sp = cell.species
    sigma_v = sp.sigma_v(cell.temperature)  # rejects an uncalibrated species
    c = constants()
    n = cell.number_density
    N = cell.atom_count
    V = cell.volume
    mu = sp.magnetic_moment
    v_bar = sp.mean_relative_velocity(cell.temperature)

    kappa_bare = c.hbar * sigma_v / (c.mu_0 * mu * mu)
    kappa = 3.0 * math.pi / (4.0 * _LN2) * kappa_bare
    erl_hbar = math.pi**2 / (8.0 * _LN2**2) * kappa_bare
    if erl_hbar < THEORETICAL_FLOOR_HBAR:
        raise ValueError(
            f"collision floor {erl_hbar:.3g} hbar falls below the universal pi/2 floor; "
            "inputs are outside the regime where spin-destruction noise dominates"
        )

    try:
        tau = 1.0 / (n * sigma_v)
        sqrt_N = math.sqrt(N)

        delta_B = math.pi / (2.0 * _LN2) * c.hbar * sigma_v * sqrt_N / (mu * V)
        via_tau_denominator = 2.0 * _LN2 * mu * sqrt_N * tau
        # the two routes agree in real arithmetic; in floats, only while these are normal
        for value in (mu * V, via_tau_denominator, delta_B):
            require(value, "an intermediate of the field floor", "a normal float")
        delta_B_via_tau = math.pi * c.hbar / via_tau_denominator
        if abs(delta_B - delta_B_via_tau) > 1e-9 * delta_B:
            raise RuntimeError(
                f"internal inconsistency in field-floor routes: {delta_B} vs {delta_B_via_tau}"
            )

        correlation_atoms = (
            (c.hbar * v_bar / (c.mu_0 * mu * mu)) ** 2 * sp.sd_cross_section_m2 * n ** (-2.0 / 3.0)
        )
        correlation_volume = correlation_atoms / n
        collision_time = n ** (-1.0 / 3.0) / v_bar
        sd_phase = math.sqrt(collision_time / tau)

        report = AtomicErlReport(
            atom_count=N,
            relaxation_time=tau,
            delta_B_floor=delta_B,
            erl_hbar=erl_hbar,
            kappa=kappa,
            kappa_bare=kappa_bare,
            spin_temperature=spin_temperature(N, delta_B, mu),
            correlation_atoms=correlation_atoms,
            correlation_volume=correlation_volume,
            collision_time=collision_time,
            sd_phase=sd_phase,
            delta_B_uncertainty_check=c.hbar / (mu * tau * sqrt_N),
            psd=atomic_psd(delta_B, tau),
        )
    except (OverflowError, ZeroDivisionError):  # finite inputs, out-of-range arithmetic
        raise ValueError("the vapor-floor arithmetic leaves the float range") from None
    for name, value in vars(report).items():
        require(value, name, "a normal float")
    return report


# ---------------------------------------------------------------------------
# SQUID
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SquidSpec:
    """SQUID readout: flux noise as a fraction p of the flux quantum in a
    1 Hz bandwidth, bath temperature [K], measurement time [s]."""

    flux_noise_fraction: float
    bath_temperature: float
    measurement_time: float
    measured_erl_hbar: float | None = None

    def __post_init__(self):
        p = self.flux_noise_fraction
        if not 0.0 < p < 1.0:
            raise ValueError(f"flux noise fraction must lie in (0, 1), got {p}")
        require(self.bath_temperature, "bath temperature")
        require(self.measurement_time, "measurement time")
        if self.measured_erl_hbar is not None:
            require(self.measured_erl_hbar, "measured energy resolution")

    @property
    def info_nats(self) -> float:
        """Information one flux readout acquires, -p ln p  [nat]."""
        return -self.flux_noise_fraction * math.log(self.flux_noise_fraction)


def squid_erl(spec: SquidSpec) -> float:
    """Predicted SQUID energy resolution (-p ln p) k_B T tau / hbar  [hbar].

    One flux readout at noise level p Phi_0 acquires -p ln p nats about the
    field; charging the thermodynamic cost of that information over the
    measurement time gives the bound.
    """
    c = constants()
    erl = spec.info_nats * c.k_B * spec.bath_temperature * spec.measurement_time / c.hbar
    return require(erl, "predicted energy resolution", "a normal float")


# ---------------------------------------------------------------------------
# diamond
# ---------------------------------------------------------------------------

def diamond_erl(temperature_K: float, tau_s: float) -> float:
    """Optimal projective-readout resolution k_B T ln2 tau / hbar  [hbar].

    A binary spin readout extracts at most one bit (ln 2 nats) per
    relaxation time.
    """
    require(temperature_K, "temperature")
    require(tau_s, "relaxation time", "non-negative")
    c = constants()
    erl = c.k_B * temperature_K * _LN2 * tau_s / c.hbar
    return require(erl, "optimal energy resolution", "a normal float" if tau_s else "finite")


def measured_erl_from_psd(psd: float, volume: float) -> float:
    """Per-unit-bandwidth energy resolution psd^2 V / (2 mu_0 hbar)  [hbar].

    For a white-noise-limited sensor psd^2 = (dB)^2 tau, so the tau of the
    resolution product is already inside the square.
    """
    require(psd, "noise density", "non-negative")
    return erl_quantum(psd, volume, 1.0)


def erl_ratio(measured: float, predicted: float) -> float:
    """Measured over predicted energy resolution  [dimensionless]."""
    ratio = measured / predicted if predicted else math.inf
    return require(ratio, "measured-to-predicted ratio", "a normal float" if measured else "finite")


# ---------------------------------------------------------------------------
# published-record comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComparisonRow:
    label: str
    p: float
    T_K: float
    tau_s: float
    predicted_erl_hbar: float
    measured_erl_hbar: float
    ratio: float        # measured / predicted
    flagged: bool       # ratio < 1 would undercut the thermodynamic bound


@dataclass(frozen=True)
class PublishedRecord:
    label: str
    spec: SquidSpec


def compare_published(records: list[PublishedRecord]) -> list[ComparisonRow]:
    """Predicted-vs-measured table, in input order.

    A ratio below 1 (measurement better than the thermodynamic prediction)
    is flagged as a warning, not an error.
    """
    rows = []
    for rec in records:
        if rec.spec.measured_erl_hbar is None:
            raise ValueError(f"record {rec.label!r} has no measured ERL to compare against")
        predicted = squid_erl(rec.spec)
        measured = rec.spec.measured_erl_hbar
        ratio = erl_ratio(measured, predicted)
        rows.append(
            ComparisonRow(
                label=rec.label,
                p=rec.spec.flux_noise_fraction,
                T_K=rec.spec.bath_temperature,
                tau_s=rec.spec.measurement_time,
                predicted_erl_hbar=predicted,
                measured_erl_hbar=measured,
                ratio=ratio,
                flagged=ratio < 1.0,
            )
        )
    return rows


def load_published_records(path: str | Path) -> list[PublishedRecord]:
    """Load comparison records from a JSON array of
    ``{"label", "p", "T_K", "tau_s", "measured_erl_hbar"}`` objects."""
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, bytes not UTF-8, an integer past the digit limit
            raise ValueError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(doc, list):
        raise ValueError(f"{path}: expected a JSON array of records")
    records = []
    for idx, rec in enumerate(doc):
        where = f"{path}: record {idx}"
        if not isinstance(rec, dict):
            raise ValueError(f"{where}: expected an object")
        label = rec.get("label")
        if not isinstance(label, str) or not label:
            raise ValueError(f"{where}: missing or empty 'label'")
        values = []  # in SquidSpec's field order
        for key in ("p", "T_K", "tau_s", "measured_erl_hbar"):
            value = rec.get(key)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"{where}: field {key!r} must be a number, got {brief(repr(value))}")
            values.append(float(require(value, f"{where}: field {key!r}", "finite")))
        try:
            spec = SquidSpec(*values)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        records.append(PublishedRecord(label=label, spec=spec))
    return records


def default_published_records() -> list[PublishedRecord]:
    """The five bundled SQUID comparison records."""
    return load_published_records(Path(__file__).parent / "data" / "squid_records.json")

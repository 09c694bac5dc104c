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

The inputs and the comparison rows are NamedTuples, whose constructor, ``_make``
and ``_replace`` check the fields; the vapor report is ``erlab.atomic_report``'s.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from .bounds import THEORETICAL_FLOOR_HBAR, erl_quantum, spin_temperature
from .units import _checked, _scaled, brief, constants, read_json, require

if TYPE_CHECKING:  # annotations only: squid and diamond load neither species nor dataclasses
    from .atomic_report import AtomicErlReport
    from .species import Species

__all__ = [
    "VaporCell",
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

class _VaporCellFields(NamedTuple):
    species: Species
    number_density: float
    volume: float
    cell_temperature: float | None


class VaporCell(_VaporCellFields):
    """A vapor cell: species plus density [m^-3], volume [m^3], temperature [K].

    ``cell_temperature = None`` means "at the species' calibration
    temperature", which reproduces the calibrated rate coefficient exactly.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace checks too

    def __new__(cls, species, number_density, volume, cell_temperature=None):
        self = super().__new__(cls, species, number_density, volume, cell_temperature)
        require(self.number_density, "number density")
        require(self.volume, "volume")
        require(self.atom_count, "atom count N = density * volume", "finite")
        if self.atom_count < 1:
            raise ValueError(f"cell must contain at least one atom, got N = {self.atom_count}")
        if self.cell_temperature is not None:
            require(self.cell_temperature, "cell temperature")
        return self

    @property
    def atom_count(self) -> float:
        return self.number_density * self.volume

    @property
    def temperature(self) -> float:
        if self.cell_temperature is not None:
            return self.cell_temperature
        return self.species.reference_temperature_K


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
    divisors = (math.pi, constants().hbar, math.sqrt(atom_count))
    return _checked("rate coefficient sigma_v", (delta_B, mu, volume, 2.0, _LN2), divisors)


def atomic_psd(delta_B: float, tau: float) -> float:
    """White-noise spectral density dB * sqrt(tau)  [T/sqrt(Hz)].

    The floor dB is resolved over a bandwidth 1/tau, so the equivalent
    density is dB spread over sqrt(1/tau).
    """
    require(tau, "relaxation time")
    require(delta_B, "field floor", "non-negative")
    return _checked("psd", (delta_B, math.sqrt(tau)))


def atomic_floor(cell: VaporCell) -> AtomicErlReport:
    """Full spin-destruction-floor report for a vapor cell.

    Uses the calibrated cross section of ``cell.species`` and evaluates each
    field once, by the formula of the module docstring, with ``_scaled``, so
    no intermediate leaves the float range.  Raises ValueError for a floor
    below pi/2 hbar, and for the first field that is not a normal float.
    """
    from .atomic_report import AtomicErlReport

    sp = cell.species
    sigma = sp.calibrated_cross_section  # rejects an uncalibrated species
    v_bar = sp.mean_relative_velocity(cell.temperature)
    c = constants()
    n = cell.number_density
    N = cell.atom_count
    mu = sp.magnetic_moment
    sqrt_N = math.sqrt(N)

    # sigma v_bar first, as Species.sigma_v forms it, so the same bits
    kappa_bare = _scaled((sigma, v_bar, c.hbar), (c.mu_0, mu, mu))
    erl_hbar = math.pi**2 / (8.0 * _LN2**2) * kappa_bare
    if erl_hbar < THEORETICAL_FLOOR_HBAR:
        raise ValueError(
            f"collision floor {erl_hbar:.3g} hbar falls below the universal pi/2 floor; "
            "inputs are outside the regime where spin-destruction noise dominates"
        )

    tau = _scaled((1.0,), (sigma, v_bar, n))  # may underflow to 0, a divisor that then gives inf
    delta_B = _scaled((sigma, v_bar, math.pi / (2.0 * _LN2) * c.hbar, sqrt_N), (mu, cell.volume))
    r = _scaled((c.hbar, v_bar), (c.mu_0, mu, mu))  # normal or inf: v_bar is normal, mu_0 mu^2 < 1.1e-52
    correlation_atoms = _scaled((r, r, sigma, n ** (-2.0 / 3.0)))
    collision_time = n ** (-1.0 / 3.0) / v_bar
    derived = dict(
        relaxation_time=tau,
        delta_B_floor=delta_B,
        erl_hbar=erl_hbar,
        kappa=3.0 * math.pi / (4.0 * _LN2) * kappa_bare,
        kappa_bare=kappa_bare,
        correlation_atoms=correlation_atoms,
        correlation_volume=correlation_atoms / n,
        collision_time=collision_time,
        sd_phase=_scaled((collision_time,), (tau,), root=True),
        delta_B_uncertainty_check=_scaled((c.hbar,), (mu, tau, sqrt_N)),
    )
    for name, value in derived.items():
        require(value, name, "a normal float")
    # N is checked by the cell, and spin_temperature and atomic_psd check their own results
    return AtomicErlReport(
        atom_count=N, spin_temperature=spin_temperature(N, delta_B, mu), psd=atomic_psd(delta_B, tau), **derived
    )


# ---------------------------------------------------------------------------
# SQUID
# ---------------------------------------------------------------------------

class _SquidSpecFields(NamedTuple):
    flux_noise_fraction: float
    bath_temperature: float
    measurement_time: float
    measured_erl_hbar: float | None


class SquidSpec(_SquidSpecFields):
    """SQUID readout: flux noise as a fraction p of the flux quantum in a
    1 Hz bandwidth, bath temperature [K], measurement time [s]."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace checks too

    def __new__(cls, flux_noise_fraction, bath_temperature, measurement_time, measured_erl_hbar=None):
        self = super().__new__(cls, flux_noise_fraction, bath_temperature, measurement_time, measured_erl_hbar)
        p = self.flux_noise_fraction
        if not 0.0 < require(p, "flux noise fraction", "finite") < 1.0:
            raise ValueError(f"flux noise fraction must lie in (0, 1), got {brief(p)}")
        require(self.bath_temperature, "bath temperature")
        require(self.measurement_time, "measurement time")
        if self.measured_erl_hbar is not None:
            require(self.measured_erl_hbar, "measured energy resolution")
        return self

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
    # the info_gained row prints -p ln p itself, so it must be a normal float too
    info = require(spec.info_nats, "-p ln p", "a normal float")
    factors = (info, c.k_B, spec.bath_temperature, spec.measurement_time)
    return _checked("predicted energy resolution", factors, (c.hbar,))


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
    return _checked("optimal energy resolution", (c.k_B, temperature_K, _LN2, tau_s), (c.hbar,))


def measured_erl_from_psd(psd: float, volume: float) -> float:
    """Per-unit-bandwidth energy resolution psd^2 V / (2 mu_0 hbar)  [hbar].

    For a white-noise-limited sensor psd^2 = (dB)^2 tau, so the tau of the
    resolution product is already inside the square.
    """
    require(psd, "noise density", "non-negative")
    return erl_quantum(psd, volume, 1.0)


def erl_ratio(measured: float, predicted: float) -> float:
    """Measured over predicted energy resolution  [dimensionless]."""
    require(measured, "measured energy resolution", "finite")
    if predicted not in (math.inf, -math.inf):  # allowed, as 0 / inf is a valid ratio of 0
        require(predicted, "predicted energy resolution", "finite")
    return _checked("measured-to-predicted ratio", (measured,), (predicted,))  # x / 0 is +-inf


# ---------------------------------------------------------------------------
# published-record comparison
# ---------------------------------------------------------------------------

class ComparisonRow(NamedTuple):
    label: str
    p: float
    T_K: float
    tau_s: float
    predicted_erl_hbar: float
    measured_erl_hbar: float
    ratio: float        # measured / predicted
    flagged: bool       # ratio < 1 would undercut the thermodynamic bound


def compare_published(records: list[tuple[str, SquidSpec]]) -> list[ComparisonRow]:
    """Predicted-vs-measured table of ``(label, spec)`` records, in input order.

    A ratio below 1 (measurement better than the thermodynamic prediction)
    is flagged as a warning, not an error.
    """
    rows = []
    for label, spec in records:
        measured = spec.measured_erl_hbar
        if measured is None:
            raise ValueError(f"record {brief(label, repr)} has no measured ERL to compare against")
        predicted = squid_erl(spec)
        ratio = erl_ratio(measured, predicted)
        rows.append(
            ComparisonRow(
                label=label,
                p=spec.flux_noise_fraction,
                T_K=spec.bath_temperature,
                tau_s=spec.measurement_time,
                predicted_erl_hbar=predicted,
                measured_erl_hbar=measured,
                ratio=ratio,
                flagged=ratio < 1.0,
            )
        )
    return rows


def load_published_records(path: str | Path) -> list[tuple[str, SquidSpec]]:
    """Load comparison records from a JSON array of
    ``{"label", "p", "T_K", "tau_s", "measured_erl_hbar"}`` objects, as
    ``(label, spec)`` pairs in file order."""
    path = Path(path)
    doc = read_json(path)
    quoted = brief(path)
    if not isinstance(doc, list):
        raise ValueError(f"{quoted}: expected a JSON array of records")
    records = []
    for idx, rec in enumerate(doc):
        where = f"{quoted}: record {idx}"
        if not isinstance(rec, dict):
            raise ValueError(f"{where}: expected an object")
        label = rec.get("label")
        if not isinstance(label, str) or not label:
            raise ValueError(f"{where}: missing or empty 'label'")
        values = [  # in SquidSpec's field order
            float(require(rec.get(key), f"{where}: field {key!r}", "finite"))
            for key in ("p", "T_K", "tau_s", "measured_erl_hbar")
        ]
        try:
            records.append((label, SquidSpec(*values)))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    return records


def default_published_records() -> list[tuple[str, SquidSpec]]:
    """The five bundled SQUID comparison records, as ``(label, spec)`` pairs."""
    return load_published_records(Path(__file__).parent / "data" / "squid_records.json")

"""Alkali-atom catalog and hyperfine/kinetic helpers.

The catalog maps isotope names to the four numbers the vapor-floor model
needs: nuclear spin, atomic mass, an effective spin-destruction cross
section, and the reference cell temperature at which that cross section
was calibrated.  Cross sections here are *calibrated* quantities: they are
obtained by inverting the published sensitivity floor of each species at a
reference cell (see ``erlab.sensors.invert_sigma_v``), so they absorb the
unknown split between the true cross section and the thermal velocity at
the unstated calibration temperature.  They are effective parameters of
the model, not literature collision data.

Electron spin is S = 1/2 throughout (alkali ground state).  As in
``erlab.bounds``, v_bar is formed and checked by ``units._checked``.
"""

from __future__ import annotations

import math
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from .units import _checked, brief, constants, read_json, require

__all__ = [
    "slowing_factor",
    "magnetic_moment",
    "mean_relative_velocity",
    "Species",
    "SpeciesCatalog",
    "load_catalog",
    "default_catalog",
]


def slowing_factor(nuclear_spin) -> float:
    """Hyperfine slowing-down factor q = [S(S+1) + I(I+1)] / [S(S+1)].

    ``nuclear_spin`` must be a non-negative half-integer (int, float or
    Fraction).  For I = 3/2 this gives q = 6; for I = 7/2, q = 22.
    """
    require(nuclear_spin, "nuclear spin", "finite")
    n, d = Fraction(nuclear_spin).as_integer_ratio()  # in lowest terms, d > 0
    if d > 2:
        raise ValueError(f"nuclear spin must be a half-integer, got {brief(nuclear_spin, repr)}")
    if n < 0:
        raise ValueError(f"nuclear spin must be non-negative, got {brief(nuclear_spin, repr)}")
    k = 2 * n // d  # 2I
    try:
        # S(S+1) = 3/4 and I(I+1) = k(k+2)/4; one correctly rounded division
        q = (3 + k * (k + 2)) / 3
    except OverflowError:  # a finite spin whose q is past the float range
        q = math.inf
    return require(q, "slowing factor", ">= 1")


def magnetic_moment(q: float) -> float:
    """Effective moment per atom, mu = mu_B / q  [J/T].

    The hyperfine coupling dilutes the electron moment by the slowing
    factor q >= 1.
    """
    require(q, "slowing factor", ">= 1")
    return require(constants().mu_B / q, "magnetic moment", "a normal float")


def mean_relative_velocity(mass_kg: float, temperature_K: float) -> float:
    """Mean relative speed of two identical atoms, sqrt(8 k_B T / (pi m/2))  [m/s].

    Kinetic theory for a thermal gas of identical collision partners: the
    reduced mass is half the atomic mass.  T = 0 is allowed and gives 0.
    """
    require(mass_kg, "mass")
    require(temperature_K, "temperature", "non-negative")
    # m/2 as m times the exact 0.5, so a subnormal mass does not halve to 0
    factors = (8.0, constants().k_B, temperature_K)
    return _checked("mean relative velocity", factors, (math.pi, mass_kg, 0.5), root=True)


class Species(NamedTuple):
    """One catalog entry, SI except where the name says otherwise.

    ``sd_cross_section_m2`` may be ``None`` for a species that has not been
    calibrated yet; the vapor-floor model rejects such species until a
    cross section is fixed (see ``erlab.sensors.invert_sigma_v``).
    """

    name: str
    nuclear_spin: Fraction
    mass_kg: float
    sd_cross_section_m2: float | None
    reference_temperature_K: float

    @property
    def slowing_factor(self) -> float:
        return slowing_factor(self.nuclear_spin)

    @property
    def magnetic_moment(self) -> float:
        """Effective moment mu_B/q  [J/T]."""
        return magnetic_moment(self.slowing_factor)

    def mean_relative_velocity(self, temperature_K: float | None = None) -> float:
        """v_bar at the given cell temperature (reference temperature if omitted)."""
        T = self.reference_temperature_K if temperature_K is None else temperature_K
        return mean_relative_velocity(self.mass_kg, T)

    @property
    def calibrated_cross_section(self) -> float:
        """sigma_sd  [m^2]; ValueError for a species not calibrated yet."""
        if self.sd_cross_section_m2 is None:
            raise ValueError(
                f"species {brief(self.name, repr)} has no spin-destruction cross section; "
                "calibrate one with invert_sigma_v first"
            )
        return require(self.sd_cross_section_m2, "spin-destruction cross section")

    def sigma_v(self, temperature_K: float | None = None) -> float:
        """Rate coefficient sigma_sd * v_bar  [m^3/s] at the cell temperature."""
        return self.calibrated_cross_section * self.mean_relative_velocity(temperature_K)


class SpeciesCatalog:
    """Immutable name -> Species mapping with bare-element aliases."""

    def __init__(self, species: list[Species]):
        self._by_name: dict[str, Species] = {}
        for sp in species:
            if sp.name in self._by_name:
                raise ValueError(f"duplicate species name {brief(sp.name, repr)}")
            self._by_name[sp.name] = sp
        # '41K' is also reachable as 'K' when unambiguous
        self._aliases: dict[str, str] = {}
        stems: dict[str, list[str]] = {}
        for name in self._by_name:
            stem = name.lstrip("0123456789")
            stems.setdefault(stem, []).append(name)
        for stem, names in stems.items():
            if stem and len(names) == 1:
                self._aliases[stem] = names[0]

    def __iter__(self):
        return iter(self._by_name.values())

    def get(self, name: str) -> Species:
        """The species named ``name``, or by the alias ``name``; ValueError for
        any other name, one that is not a str too."""
        if isinstance(name, str):
            key = name.strip()
            species = self._by_name.get(self._aliases.get(key, key))
            if species is not None:
                return species
        known = brief(", ".join(self._by_name))
        raise ValueError(f"unknown species {brief(name, repr)} (catalog has: {known})")


def _parse_spin(text, where: str) -> Fraction:
    text = str(text)
    prefix = f"{where}: nuclear_spin {brief(text, repr)}"
    try:
        exponent = Decimal(text).adjusted()
    except InvalidOperation:  # a ratio such as "3/2", or not a number
        exponent = 0
    # Fraction would build 10**exponent exactly; past 1e400 no spin has a
    # finite slowing factor, and below 1e-400 no nonzero number is a half-integer
    if abs(exponent) > 400:
        raise ValueError(f"{prefix}: exponent {exponent} is outside -400..400")
    try:
        spin = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{prefix} is not a fraction") from None
    try:
        magnetic_moment(slowing_factor(spin))
    except ValueError as exc:  # it quotes the spin, or the factor or moment, itself
        raise ValueError(f"{where}: nuclear_spin: {exc}") from None
    return spin


def load_catalog(path: str | Path) -> SpeciesCatalog:
    """Load a species catalog from a JSON file.

    Schema: ``{"species": [{"name", "nuclear_spin", "mass_amu",
    "sd_cross_section_cm2", "reference_temperature_K"}, ...]}``.
    Spins are exact fractions like ``"3/2"``; cross sections are given in
    cm^2 in the file and converted to SI on load.
    """
    path = Path(path)
    doc = read_json(path)
    quoted = brief(path)
    if not isinstance(doc, dict) or not isinstance(doc.get("species"), list):
        raise ValueError(f"{quoted}: expected an object with a 'species' list")
    amu = constants().atomic_mass
    out = []
    for idx, record in enumerate(doc["species"]):
        where = f"{quoted}: species[{idx}]"
        if not isinstance(record, dict):
            raise ValueError(f"{where}: expected an object")
        name = record.get("name")
        if not isinstance(name, str) or not name:
            raise ValueError(f"{where}: missing or empty 'name'")

        def positive(key):
            return float(require(record.get(key), f"{where}: field {key!r}", "positive"))

        sigma_cm2 = record.get("sd_cross_section_cm2")  # None marks a species awaiting calibration
        sigma_m2 = None if sigma_cm2 is None else positive("sd_cross_section_cm2") * 1e-4
        out.append(
            Species(
                name=name,
                nuclear_spin=_parse_spin(record.get("nuclear_spin"), where),
                mass_kg=positive("mass_amu") * amu,
                sd_cross_section_m2=sigma_m2,
                reference_temperature_K=positive("reference_temperature_K"),
            )
        )
    return SpeciesCatalog(out)


def default_catalog() -> SpeciesCatalog:
    """The bundled catalog, ``data/species.json``."""
    return load_catalog(Path(__file__).parent / "data" / "species.json")

"""SI constants, the unit-suffix parser for inputs and the domain check.

All model code in this package computes with plain SI floats.  This module
owns three things:

* the frozen table of physical constants (CODATA 2018),
* the boundary parser that turns unit-tagged inputs (``1e14/cm3``,
  ``10cm3``, ``300pT/rtHz``, ...) into finite SI values while checking
  their dimension, and
* ``require``, the domain check of every float value, and ``brief``, which
  keeps the value quoted in an error message short.

Dimensions are exponent vectors over the SI base (kg, m, s, A, K) with
``fractions.Fraction`` entries so that square roots of dimensioned
quantities (e.g. field noise densities, T*sqrt(s)) stay exact.  Unit
scales are exact powers of ten; the only non-metric unit, the gauss, is an
exact power of ten in tesla as well (1 G = 1e-4 T).
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "DimensionError",
    "Dimension",
    "Quantity",
    "PhysicalConstants",
    "constants",
    "parse_quantity",
    "require",
    "brief",
    "DIMENSIONLESS",
    "LENGTH",
    "TIME",
    "TEMPERATURE",
    "MAGNETIC_FIELD",
    "ENERGY",
    "ACTION",
    "VOLUME",
    "AREA",
    "NUMBER_DENSITY",
    "VELOCITY",
    "MAGNETIC_MOMENT",
    "PERMEABILITY",
    "FIELD_NOISE_DENSITY",
]

_BASE_SYMBOLS = ("kg", "m", "s", "A", "K")


class DimensionError(ValueError):
    """Raised when an input has an unknown unit or the wrong dimension."""


@dataclass(frozen=True)
class Dimension:
    """Exponent vector over the SI base (kg, m, s, A, K)."""

    exponents: tuple[Fraction, Fraction, Fraction, Fraction, Fraction]

    @staticmethod
    def of(kg=0, m=0, s=0, A=0, K=0) -> "Dimension":
        return Dimension((Fraction(kg), Fraction(m), Fraction(s), Fraction(A), Fraction(K)))

    def __mul__(self, other: "Dimension") -> "Dimension":
        return Dimension(tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def __truediv__(self, other: "Dimension") -> "Dimension":
        return Dimension(tuple(a - b for a, b in zip(self.exponents, other.exponents)))

    def __pow__(self, power) -> "Dimension":
        p = Fraction(power)
        return Dimension(tuple(a * p for a in self.exponents))

    def root(self, n: int) -> "Dimension":
        return self ** Fraction(1, n)

    def __str__(self) -> str:
        if not any(self.exponents):
            return "dimensionless"
        parts = []
        for sym, e in zip(_BASE_SYMBOLS, self.exponents):
            if e == 0:
                continue
            parts.append(sym if e == 1 else f"{sym}^{e}")
        return "*".join(parts)


DIMENSIONLESS = Dimension.of()
LENGTH = Dimension.of(m=1)
TIME = Dimension.of(s=1)
TEMPERATURE = Dimension.of(K=1)
MAGNETIC_FIELD = Dimension.of(kg=1, s=-2, A=-1)          # tesla
ENERGY = Dimension.of(kg=1, m=2, s=-2)                   # joule
ACTION = Dimension.of(kg=1, m=2, s=-1)                   # J*s
VOLUME = Dimension.of(m=3)
AREA = Dimension.of(m=2)
NUMBER_DENSITY = Dimension.of(m=-3)
VELOCITY = Dimension.of(m=1, s=-1)
MAGNETIC_MOMENT = Dimension.of(m=2, A=1)                 # J/T
PERMEABILITY = Dimension.of(kg=1, m=1, s=-2, A=-2)       # N/A^2
FIELD_NOISE_DENSITY = MAGNETIC_FIELD * (TIME ** Fraction(1, 2))  # T/sqrt(Hz)


# ---------------------------------------------------------------------------
# unit table and parser
# ---------------------------------------------------------------------------

_PREFIXES = {"m": 1e-3, "u": 1e-6, "n": 1e-9, "p": 1e-12, "f": 1e-15}


def _prefixed(base: str, dimension: Dimension, base_scale: float) -> dict:
    # each scale is base_scale * factor, never a folded literal: 1e-4 * 1e-12
    # is not the float 1e-16, and parsed values must keep their bits
    units = {base: (dimension, base_scale)}
    for prefix, factor in _PREFIXES.items():
        units[prefix + base] = (dimension, base_scale * factor)
    return units


# unit name -> (dimension, SI scale)
_UNITS: dict[str, tuple[Dimension, float]] = {
    **_prefixed("T", MAGNETIC_FIELD, 1.0),
    **_prefixed("G", MAGNETIC_FIELD, 1e-4),  # 1 G = 1e-4 T exactly
    **_prefixed("s", TIME, 1.0),
    **_prefixed("T/rtHz", FIELD_NOISE_DENSITY, 1.0),
    **_prefixed("G/rtHz", FIELD_NOISE_DENSITY, 1e-4),
    "m": (LENGTH, 1.0),
    "cm": (LENGTH, 1e-2),
    "mm": (LENGTH, 1e-3),
    "um": (LENGTH, 1e-6),
    "K": (TEMPERATURE, 1.0),
    "J": (ENERGY, 1.0),
    "m3": (VOLUME, 1.0),
    "cm3": (VOLUME, 1e-6),
    "mm3": (VOLUME, 1e-9),
    "m2": (AREA, 1.0),
    "cm2": (AREA, 1e-4),
    "m^-3": (NUMBER_DENSITY, 1.0),
    "cm^-3": (NUMBER_DENSITY, 1e6),
    "mm^-3": (NUMBER_DENSITY, 1e9),
    "m/s": (VELOCITY, 1.0),
    "J/T": (MAGNETIC_MOMENT, 1.0),
    "": (DIMENSIONLESS, 1.0),
}

# accepted spellings for the same unit (CLI convenience); spellings that
# start with a digit (like "1/cm3") are deliberately absent — after a
# number in scientific notation they are ambiguous ("1e141/cm3")
_ALIASES = {
    "/m3": "m^-3",
    "m-3": "m^-3",
    "/cm3": "cm^-3",
    "cm-3": "cm^-3",
    "/mm3": "mm^-3",
    "m^3": "m3",
    "cm^3": "cm3",
    "mm^3": "mm3",
    "m^2": "m2",
    "cm^2": "cm2",
    "T/sqrtHz": "T/rtHz",
    "pT/sqrtHz": "pT/rtHz",
    "fT/sqrtHz": "fT/rtHz",
    "G/sqrtHz": "G/rtHz",
    "pG/sqrtHz": "pG/rtHz",
}

_QUANTITY_RE = re.compile(
    r"^\s*(?P<num>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*(?P<unit>\S*)\s*$"
)


@dataclass(frozen=True)
class Quantity:
    """A parsed input: its magnitude in SI base units and its dimension."""

    si: float
    dimension: Dimension


def parse_quantity(text: str, expect: Dimension | None = None) -> Quantity:
    """Parse ``<number><unit>`` (e.g. ``2e13/cm3``, ``0.5e-5s``, ``300pT/rtHz``).

    A bare number parses as dimensionless.  If ``expect`` is given, the
    parsed dimension must match it (so a bare number is rejected for any
    dimensioned target).  A value whose SI magnitude overflows to infinity
    (``1e400K``) is rejected.
    """
    m = _QUANTITY_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse quantity from '{text}'")
    value = float(m.group("num"))
    unit = m.group("unit")
    try:
        dimension, scale = _UNITS[_ALIASES.get(unit, unit)]
    except KeyError:
        known = ", ".join(sorted(k for k in _UNITS if k))
        raise DimensionError(f"unknown unit '{unit}' (known units: {known})") from None
    if expect is not None and dimension != expect:
        if unit == "":
            raise DimensionError(
                f"'{text}' has no unit; expected a value of dimension [{expect}] "
                f"(e.g. unit suffixes like 'cm3', 'us', 'pT/rtHz')"
            )
        raise DimensionError(
            f"'{text}' has dimension [{dimension}] but a value of dimension "
            f"[{expect}] is required"
        )
    si = value * scale
    if not math.isfinite(si):
        raise ValueError(f"'{text}' is out of range: its SI value is not finite")
    return Quantity(si, dimension)


# domain -> test of a finite value; the key is also the error's wording.  "a normal
# float" is for results, which finite inputs can underflow to 0 or to a subnormal.
_DOMAINS = {
    "finite": lambda x: True,
    "positive": lambda x: x > 0,
    "a positive number": lambda x: x > 0,
    "non-negative": lambda x: x >= 0,
    ">= 1": lambda x: x >= 1,
    "a normal float": lambda x: abs(x) >= sys.float_info.min,
}


# longest value text an error message quotes whole; a float's repr is at most 24
_BRIEF_CHARS = 40


def brief(text: str) -> str:
    """``text``, or if it is longer than ``_BRIEF_CHARS`` its head and its
    length, so that a message quoting a value (a 4000-digit integer, say)
    stays one short line."""
    if len(text) <= _BRIEF_CHARS:
        return text
    return f"{text[:_BRIEF_CHARS]}... ({len(text)} characters)"


def require(value: float, name: str, domain: str = "positive") -> float:
    """``value`` if it is finite and in ``domain``, else ValueError:
    "<name> must be finite, got nan" for NaN and +-inf, and
    "<name> must be <domain>, got <value>" for a finite value, with the
    value shortened by ``brief``."""
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int past the float range
        finite = False
    if not finite:
        raise ValueError(f"{name} must be finite, got {brief(str(value))}")
    if not _DOMAINS[domain](value):
        raise ValueError(f"{name} must be {domain}, got {brief(str(value))}")
    return value


# ---------------------------------------------------------------------------
# physical constants (CODATA 2018)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhysicalConstants:
    """CODATA 2018 values, SI.  Frozen in source so results are reproducible
    independent of any constants library shipped with the environment."""

    hbar: float = 1.0545718176461565e-34   # J*s, h/(2*pi) with h exact
    k_B: float = 1.380649e-23              # J/K, exact
    mu_0: float = 1.25663706212e-06        # N/A^2
    mu_B: float = 9.2740100783e-24         # J/T, Bohr magneton
    Phi_0: float = 2.0678338484619295e-15  # Wb, h/(2e) with h, e exact
    atomic_mass: float = 1.66053906660e-27  # kg, unified atomic mass unit


_CONSTANTS = PhysicalConstants()


def constants() -> PhysicalConstants:
    return _CONSTANTS

"""SI constants, the unit-suffix parser for inputs and the domain check.

All model code in this package computes with plain SI floats.  This module
owns five things:

* the frozen table of physical constants (CODATA 2018),
* the boundary parser that turns unit-tagged inputs (``1e14/cm3``,
  ``10cm3``, ``300pT/rtHz``, ...) into finite SI values while checking
  their dimension,
* ``require``, the one check of every number, and ``brief``, which keeps
  the value quoted in a library error message short (the CLI bounds its
  whole error line in ``cli._fail``),
* ``_scaled``, the product and quotient of the closed forms, whose
  intermediates cannot leave the float range, with ``_checked``, their
  one result rule, and
* ``read_json``, the bounded read of the JSON input files.

A dimension is the string a message prints for it, one for each of the
five dimensioned inputs the CLI reads; every refused input raises
ValueError.  Unit scales are exact powers of ten; the only non-metric
unit, the gauss of ``G/rtHz``, is an exact power of ten in tesla as well
(1 G = 1e-4 T).
"""

from __future__ import annotations

import math
import re
import sys
from typing import NamedTuple

__all__ = [
    "Quantity",
    "PhysicalConstants",
    "constants",
    "parse_quantity",
    "require",
    "brief",
    "read_json",
    "TIME",
    "TEMPERATURE",
    "VOLUME",
    "NUMBER_DENSITY",
    "FIELD_NOISE_DENSITY",
]


# each dimension in SI base units (kg, m, s, A, K), as a message prints it
TIME = "s"
TEMPERATURE = "K"
VOLUME = "m^3"
NUMBER_DENSITY = "m^-3"
FIELD_NOISE_DENSITY = "kg*s^-3/2*A^-1"  # T/sqrt(Hz)


# ---------------------------------------------------------------------------
# unit table and parser
# ---------------------------------------------------------------------------

_PREFIXES = {"m": 1e-3, "u": 1e-6, "n": 1e-9, "p": 1e-12, "f": 1e-15}


# unit name -> (dimension, SI scale): the units that also take a prefix, and the others
_PREFIXABLE: dict[str, tuple[str, float]] = {
    "s": (TIME, 1.0),
    "T/rtHz": (FIELD_NOISE_DENSITY, 1.0),
    "G/rtHz": (FIELD_NOISE_DENSITY, 1e-4),  # 1 G = 1e-4 T exactly
}
_PLAIN: dict[str, tuple[str, float]] = {
    "K": (TEMPERATURE, 1.0),
    "m3": (VOLUME, 1.0),
    "cm3": (VOLUME, 1e-6),
    "mm3": (VOLUME, 1e-9),
    "m^-3": (NUMBER_DENSITY, 1.0),
    "cm^-3": (NUMBER_DENSITY, 1e6),
    "mm^-3": (NUMBER_DENSITY, 1e9),
}
# each scale is base_scale * factor, never a folded literal: 1e-4 * 1e-12
# is not the float 1e-16, and parsed values must keep their bits
_PREFIXED = {
    prefix + base: (dimension, base_scale * factor)
    for base, (dimension, base_scale) in _PREFIXABLE.items()
    for prefix, factor in _PREFIXES.items()
}
_UNITS = {**_PREFIXABLE, **_PREFIXED, **_PLAIN}

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
    "T/sqrtHz": "T/rtHz",
    "pT/sqrtHz": "pT/rtHz",
    "fT/sqrtHz": "fT/rtHz",
    "G/sqrtHz": "G/rtHz",
    "pG/sqrtHz": "pG/rtHz",
}

_QUANTITY_RE = re.compile(
    r"^\s*(?P<num>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*(?P<unit>\S*)\s*$"
)


class Quantity(NamedTuple):
    """A parsed input: its magnitude in SI base units."""

    si: float


def parse_quantity(text: str, expect: str) -> Quantity:
    """Parse ``<number><unit>`` (e.g. ``2e13/cm3``, ``0.5e-5s``, ``300pT/rtHz``)
    as a value of dimension ``expect``.

    A bare number, an unknown unit, a unit of another dimension and a value
    whose SI magnitude overflows to infinity (``1e400K``) each raise
    ValueError.
    """
    m = _QUANTITY_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse quantity from '{brief(text)}'")
    value = float(m.group("num"))
    unit = m.group("unit")
    if not unit:
        raise ValueError(
            f"'{brief(text)}' has no unit; expected a value of dimension [{expect}] "
            f"(e.g. unit suffixes like 'cm3', 'us', 'pT/rtHz')"
        )
    try:
        dimension, scale = _UNITS[_ALIASES.get(unit, unit)]
    except KeyError:
        known = _known_units(expect)
        raise ValueError(f"unknown unit '{brief(unit)}' (known units: {known})") from None
    if dimension != expect:
        raise ValueError(
            f"'{brief(text)}' has dimension [{dimension}] but a value of dimension "
            f"[{expect}] is required"
        )
    si = value * scale
    if not math.isfinite(si):
        raise ValueError(f"'{brief(text)}' is out of range: its SI value is not finite")
    return Quantity(si)


def _known_units(expect: str) -> str:
    """The units of dimension ``expect``, a prefixed unit by its base."""
    prefixable, plain = (
        ", ".join(u for u, (dimension, _) in table.items() if dimension == expect)
        for table in (_PREFIXABLE, _PLAIN)
    )
    if prefixable:
        prefixable += f", also prefixed by {', '.join(_PREFIXES)}"
    return "; ".join(part for part in (prefixable, plain) if part)


# domain -> test of a finite value; the key is also the error's wording.  "a normal
# float" is for results, which finite inputs can underflow to 0 or to a subnormal.
_DOMAINS = {
    "finite": lambda x: True,
    "positive": lambda x: x > 0,
    "non-negative": lambda x: x >= 0,
    ">= 1": lambda x: x >= 1,
    "a normal float": lambda x: abs(x) >= sys.float_info.min,
}


# longest value text, in UTF-8 bytes, a message quotes whole; a float's repr is at most 24
_BRIEF_BYTES = 40
# longest JSON input file read, in characters; the bundled ones are about 1 KiB
_JSON_CHARS = 2**20


def brief(value, text=str) -> str:
    """``text(value)``, or if it is over _BRIEF_BYTES bytes in UTF-8 its head,
    cut between characters, and its length, so that a message quoting a value
    (a 4000-digit integer, say) stays short.  An integer past Python's
    digit limit (``sys.get_int_max_str_digits()``) is quoted by its size
    (``<integer of 5001 digits>``, ``<negative fraction of 1/5001 digits>`` for
    a Fraction's terms), and a value that holds one by its type."""
    try:
        quoted = text(value)
    except ValueError:  # such an integer, alone or inside ``value``
        from fractions import Fraction

        if not isinstance(value, (int, Fraction)):
            return f"<{type(value).__name__} too long to print>"
        sign = "negative " if value < 0 else ""
        if isinstance(value, int):
            return f"<{sign}integer of {_digits(value)} digits>"
        return f"<{sign}fraction of {_digits(value.numerator)}/{_digits(value.denominator)} digits>"
    encoded = quoted.encode(errors="surrogatepass")
    if len(encoded) <= _BRIEF_BYTES:
        return quoted
    return f"{encoded[:_BRIEF_BYTES].decode(errors='ignore')}... ({len(quoted)} characters)"


def _digits(n: int) -> int:
    """Decimal digits of ``n``, without converting it to text."""
    n = abs(n)
    d = int(n.bit_length() * 0.30102999566398120)  # log10(2): d or d + 1 digits
    return max(1, d + (n >= 10**d))


def read_json(path) -> object:
    """The JSON document in the UTF-8 file at ``path``, of which at most
    _JSON_CHARS characters are read, so a longer file (``/dev/zero``, say) is
    refused before it fills memory.  A file that is longer, not UTF-8, not
    JSON, nested past the recursion limit, or holding a string UTF-8 cannot
    encode (a lone surrogate escape such as ``"\\ud800"``; a pair such as
    ``"\\ud83d\\ude00"`` is one character) raises
    ValueError("<path>: not valid JSON: <reason>"), the path shortened by
    ``brief`` and the reason whole, which is short whatever the file holds."""
    import json

    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read(_JSON_CHARS + 1)
            if len(text) > _JSON_CHARS:
                raise ValueError(f"longer than {_JSON_CHARS} characters")
            doc = json.loads(text)
            try:
                json.dumps(doc, ensure_ascii=False).encode()
            except UnicodeEncodeError as exc:
                raise ValueError(f"a string holds the lone surrogate {exc.object[exc.start]!r}") from None
            return doc
        # too long, not UTF-8, JSONDecodeError, an integer past the digit limit, nested too deep
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{brief(path)}: not valid JSON: {exc}") from None


def require(value: float, name: str, domain: str = "positive") -> float:
    """``value`` if it is a finite number in ``domain``, else ValueError:
    "<name> must be a number, got 'a'" for a bool, str, None, list, Decimal
    or the like, "<name> must be finite, got nan" for NaN and +-inf, and
    "<name> must be <domain>, got <value>" for a finite value, shortened by
    ``brief``."""
    if isinstance(value, bool):
        raise ValueError(f"{name} must be a number, got {value}")
    try:
        # + 0.0, as a value the formulas cannot multiply by a float (a Decimal) is not a number here
        finite = math.isfinite(value + 0.0)
    except OverflowError:  # an int past the float range
        finite = False
    except TypeError:  # not a real number
        raise ValueError(f"{name} must be a number, got {brief(value, repr)}") from None
    if not finite:
        raise ValueError(f"{name} must be finite, got {brief(value)}")
    if not _DOMAINS[domain](value):
        raise ValueError(f"{name} must be {domain}, got {brief(value)}")
    return value


def _scaled(factors, divisors=(), root=False) -> float:
    """The product of ``factors`` over that of ``divisors``, or its square
    root if ``root``, with no intermediate underflow or overflow: the
    ``math.frexp`` mantissas are multiplied in order, the binary exponent is
    kept apart, and ``math.ldexp`` applies it once.  Where the plain
    left-to-right products, the quotient and its root are normal floats, the
    bits are theirs.  A result past the float range is +-inf, or 0 or a
    subnormal below it, and x / 0 is +-inf; ``require`` refuses them."""
    numerator, denominator, exponent = 1.0, 1.0, 0
    for x in factors:
        mantissa, e = math.frexp(x)
        numerator, exponent = numerator * mantissa, exponent + e
    for x in divisors:
        mantissa, e = math.frexp(x)
        denominator, exponent = denominator * mantissa, exponent - e
    quotient = numerator / denominator if denominator else math.copysign(math.inf, numerator)
    if root:
        if exponent % 2:
            quotient, exponent = 2.0 * quotient, exponent - 1
        quotient, exponent = math.sqrt(quotient), exponent // 2
    try:
        return math.ldexp(quotient, exponent)
    except OverflowError:
        return math.copysign(math.inf, quotient)


def _checked(name: str, factors, divisors=(), root=False) -> float:
    """``_scaled(factors, divisors, root)`` if it is a normal float, or exactly
    0 where a zero factor made it 0; else ValueError, "<name> must be finite,
    got inf" past the float range and "<name> must be a normal float, got
    0.0" below it.  The closed forms' result rule, stated once."""
    return require(_scaled(factors, divisors, root), name, "a normal float" if all(factors) else "finite")


# ---------------------------------------------------------------------------
# physical constants (CODATA 2018)
# ---------------------------------------------------------------------------

class PhysicalConstants(NamedTuple):
    """CODATA 2018 values, SI.  Frozen in source so results are reproducible
    independent of any constants library installed alongside."""

    hbar: float = 1.0545718176461565e-34   # J*s, h/(2*pi) with h exact
    k_B: float = 1.380649e-23              # J/K, exact
    mu_0: float = 1.25663706212e-06        # N/A^2
    mu_B: float = 9.2740100783e-24         # J/T, Bohr magneton
    Phi_0: float = 2.0678338484619295e-15  # Wb, h/(2e) with h, e exact
    atomic_mass: float = 1.66053906660e-27  # kg, unified atomic mass unit


_CONSTANTS = PhysicalConstants()


def constants() -> PhysicalConstants:
    return _CONSTANTS

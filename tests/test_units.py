"""Units layer: constants against an independent reference, dimension algebra,
parsing, and the exactness of parsed SI values."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from erlab.units import (
    ACTION,
    DIMENSIONLESS,
    ENERGY,
    FIELD_NOISE_DENSITY,
    LENGTH,
    MAGNETIC_FIELD,
    MAGNETIC_MOMENT,
    NUMBER_DENSITY,
    PERMEABILITY,
    TEMPERATURE,
    TIME,
    VELOCITY,
    VOLUME,
    Dimension,
    DimensionError,
    brief,
    constants,
    parse_quantity,
    require,
)

C = constants()


# ---------------------------------------------------------------------------
# constants: cross-check the frozen table against scipy's CODATA database.
# k_B and hbar are fixed by the 2019 SI redefinition (h and k_B are exact),
# so those must agree bit-for-bit; measured constants get a loose tolerance
# that covers CODATA revisions between scipy releases.
# ---------------------------------------------------------------------------

scipy_constants = pytest.importorskip("scipy.constants")


def test_defined_constants_match_reference_exactly():
    assert C.k_B == scipy_constants.k
    assert C.hbar == scipy_constants.hbar
    assert C.hbar == scipy_constants.h / (2.0 * math.pi)


@pytest.mark.parametrize(
    "ours,name",
    [
        (constants().mu_0, "vacuum mag. permeability"),
        (constants().mu_B, "Bohr magneton"),
        (constants().Phi_0, "mag. flux quantum"),
        (constants().atomic_mass, "atomic mass constant"),
    ],
)
def test_measured_constants_match_reference(ours, name):
    ref = scipy_constants.physical_constants[name][0]
    assert ours == pytest.approx(ref, rel=2e-8)


def test_flux_quantum_is_h_over_2e():
    assert C.Phi_0 == scipy_constants.h / (2.0 * scipy_constants.e)


# ---------------------------------------------------------------------------
# dimension algebra
# ---------------------------------------------------------------------------

def test_energy_resolution_has_action_dimension():
    # the quantity (field^2 * volume * time / permeability) is the package's
    # central object; it must carry units of action
    assert MAGNETIC_FIELD**2 * VOLUME * TIME / PERMEABILITY == ACTION


def test_noise_density_squared_is_field_squared_time():
    assert FIELD_NOISE_DENSITY**2 == MAGNETIC_FIELD**2 * TIME
    assert (MAGNETIC_FIELD**2 * TIME) ** Fraction(1, 2) == FIELD_NOISE_DENSITY


def test_dimension_str_forms():
    assert str(DIMENSIONLESS) == "dimensionless"
    assert str(VOLUME) == "m^3"
    assert str(MAGNETIC_FIELD) == "kg*s^-2*A^-1"
    assert str(FIELD_NOISE_DENSITY) == "kg*s^-3/2*A^-1"


_exponents = st.tuples(*(st.integers(-4, 4) for _ in range(5)))


@given(_exponents, _exponents)
def test_dimension_product_commutes(a, b):
    da, db = Dimension(tuple(map(Fraction, a))), Dimension(tuple(map(Fraction, b)))
    assert da * db == db * da
    assert (da * db) / db == da


@given(_exponents)
def test_dimension_power_roundtrip(a):
    d = Dimension(tuple(map(Fraction, a)))
    assert (d**2) ** Fraction(1, 2) == d
    assert d**2 == d * d
    assert d / d == DIMENSIONLESS


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_density_is_exact():
    # 1e14 /cm3 -> 1e20 /m3 with no rounding (powers of ten whose product
    # is again a representable power of ten)
    assert parse_quantity("1e14/cm3", NUMBER_DENSITY).si == 1e20
    assert parse_quantity("2e13/cm3", NUMBER_DENSITY).si == 2e19


def test_parse_common_suffixes():
    assert parse_quantity("1us", TIME).si == 1e-6
    assert parse_quantity("1cm3", VOLUME).si == 1e-6
    assert parse_quantity("300pT/rtHz", FIELD_NOISE_DENSITY).si == 3e-10
    assert parse_quantity("1G", MAGNETIC_FIELD).si == 1e-4
    assert parse_quantity("400K", TEMPERATURE).si == 400.0
    assert parse_quantity("0.5e-5s", TIME).si == 0.5e-5
    # prefixed scales keep the bits of base_scale * prefix_factor
    assert parse_quantity("1pG", MAGNETIC_FIELD).si == 1e-4 * 1e-12
    assert parse_quantity("1fG/rtHz", FIELD_NOISE_DENSITY).si == 1e-4 * 1e-15


def test_parse_alias_spellings():
    for text in ("1e14/cm3", "1e14cm^-3", "1e14cm-3"):
        assert parse_quantity(text, NUMBER_DENSITY).si == pytest.approx(1e20)
    assert parse_quantity("10pT/sqrtHz", FIELD_NOISE_DENSITY).si == parse_quantity(
        "10pT/rtHz", FIELD_NOISE_DENSITY
    ).si


def test_no_unit_spelling_starts_with_a_digit():
    # a digit-leading spelling like "1/cm3" would make "1e141/cm3" ambiguous
    # (1e141 per m3 vs 1e14 times 1/cm3), so the registry must not have any
    from erlab.units import _ALIASES, _UNITS

    for name in list(_UNITS) + list(_ALIASES):
        assert not name[:1].isdigit(), name


def test_parse_rejects_bare_number_for_dimensioned_target():
    with pytest.raises(DimensionError, match="has no unit"):
        parse_quantity("1e14", NUMBER_DENSITY)
    with pytest.raises(DimensionError, match="has no unit"):
        parse_quantity("10", VOLUME)


def test_parse_rejects_wrong_dimension():
    with pytest.raises(DimensionError):
        parse_quantity("10cm3", TIME)
    with pytest.raises(DimensionError):
        parse_quantity("4.2K", MAGNETIC_FIELD)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_quantity("abc")
    with pytest.raises(ValueError):
        parse_quantity("")
    with pytest.raises(DimensionError, match="unknown unit"):
        parse_quantity("3furlongs")


def test_parse_bare_number_dimensionless_ok():
    q = parse_quantity("42")
    assert q.dimension == DIMENSIONLESS
    assert q.si == 42.0


def test_parse_rejects_nonfinite_si_value():
    with pytest.raises(ValueError, match="not finite"):
        parse_quantity("1e400K", TEMPERATURE)
    # finite as written, but the unit scale overflows it
    with pytest.raises(ValueError, match="not finite"):
        parse_quantity("1e305cm^-3", NUMBER_DENSITY)


def test_require_quotes_an_integer_too_long_to_print_by_its_size():
    # past Python's 4300-digit limit, str() itself raises ValueError
    for value, domain, message in (
        (10**5000, "positive", "x must be finite, got <integer of 5001 digits>"),
        (-(10**5000), "finite", "x must be finite, got <negative integer of 5001 digits>"),
        (Fraction(-1, 10**5000), "positive", "x must be positive, got <negative fraction of 1/5001 digits>"),
        # ... and inside a value that is not a number
        ([10**5000], "positive", "x must be a number, got <list too long to print>"),
        # values that are not numbers, quoted by repr
        ("1", "positive", "x must be a number, got '1'"),
        (None, "finite", "x must be a number, got None"),
        ([1.0], "finite", "x must be a number, got [1.0]"),
        ("9" * 500, "finite", "x must be a number, got '%s... (502 characters)" % ("9" * 39)),
    ):
        with pytest.raises(ValueError) as info:
            require(value, "x", domain)
        text = str(info.value)
        assert text == message
        assert len(text.encode()) < 200 and "\n" not in text


def test_brief_counts_the_digits_at_powers_of_ten():
    for exponent in (4301, 4302, 5000, 12345):  # past the 4300-digit limit
        assert brief(10**exponent) == f"<integer of {exponent + 1} digits>"
        assert brief(10**exponent - 1) == f"<integer of {exponent} digits>"
    assert brief(10**40) == f"{10**40 // 10}... (41 characters)"
    assert brief("abc", repr) == "'abc'"


def test_gauss_conversion_power_of_ten():
    assert parse_quantity("5G", MAGNETIC_FIELD).si == 5e-4
    assert parse_quantity("0.5mT", MAGNETIC_FIELD).si == 5e-4
    assert parse_quantity("5G").si / parse_quantity("1G").si == 5.0


def test_conversion_roundtrip():
    si = parse_quantity("13.4pG/rtHz", FIELD_NOISE_DENSITY).si
    assert si == pytest.approx(parse_quantity("1.34e-15T/rtHz").si, rel=1e-15)
    assert si / parse_quantity("1pG/rtHz").si == pytest.approx(13.4, rel=1e-15)


def test_to_rejects_other_dimension():
    # a volume cannot be read where a time is expected
    with pytest.raises(DimensionError, match=r"dimension \[m\^3\]"):
        parse_quantity("1cm3", TIME)


# ---------------------------------------------------------------------------
# dimensional analysis of the package's formulas, over exponent vectors
# ---------------------------------------------------------------------------

def test_add_mismatched_dimensions_raises():
    # only equal dimensions may be added: a field and a time never are
    assert parse_quantity("1T").dimension != parse_quantity("1s").dimension
    with pytest.raises(DimensionError, match="but a value of dimension"):
        parse_quantity("1T", TIME)


def test_float_of_dimensioned_quantity_raises():
    # a dimensioned value is never accepted where a bare number is expected
    with pytest.raises(DimensionError):
        parse_quantity("1T", DIMENSIONLESS)
    assert MAGNETIC_FIELD != DIMENSIONLESS


def test_quantity_algebra_tracks_dimensions():
    # erl = dB^2 V tau / (2 mu_0 hbar) is a pure number
    dB, V = parse_quantity("2fT"), parse_quantity("10cm3")
    assert dB.dimension**2 * V.dimension * TIME / PERMEABILITY / ACTION == DIMENSIONLESS
    erl = dB.si * dB.si * V.si * 0.24 / (2.0 * C.mu_0) / C.hbar
    assert erl > 0


def test_quantity_sqrt_dimension():
    assert (MAGNETIC_FIELD**2 * TIME) ** Fraction(1, 2) == FIELD_NOISE_DENSITY
    assert math.sqrt(9e-20) == pytest.approx(
        parse_quantity("300pT/rtHz", FIELD_NOISE_DENSITY).si
    )


def test_velocity_from_length_over_time():
    assert LENGTH / TIME == VELOCITY
    assert parse_quantity("100cm").si / 2.0 == pytest.approx(
        parse_quantity("0.5m/s", VELOCITY).si
    )


def test_constant_quantity_dimensions():
    # hbar [J s], k_B [J/K], mu_0 [N/A^2], mu_B [J/T] make each bound dimensionless
    k_B = ENERGY / TEMPERATURE
    assert k_B * TEMPERATURE * TIME / ACTION == DIMENSIONLESS  # squid_erl, diamond_erl
    kappa_bare = ACTION * (LENGTH**2 * VELOCITY) / (PERMEABILITY * MAGNETIC_MOMENT**2)
    assert kappa_bare == DIMENSIONLESS  # hbar sigma v / (mu_0 mu^2)
    assert FIELD_NOISE_DENSITY**2 * VOLUME / (PERMEABILITY * ACTION) == DIMENSIONLESS


def test_length_cubing_gives_volume():
    assert LENGTH**3 == VOLUME
    assert parse_quantity("1mm").si ** 3 == pytest.approx(parse_quantity("1mm3", VOLUME).si)
    assert parse_quantity("1mm", LENGTH).si ** 3 == pytest.approx(1e-9)

"""Units layer: constants against an independent reference, the dimensions
and unit table, parsing, and the exactness of parsed SI values."""

import math
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from erlab import units
from erlab.units import (
    FIELD_NOISE_DENSITY,
    NUMBER_DENSITY,
    TEMPERATURE,
    TIME,
    VOLUME,
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
# dimensions and the unit table
# ---------------------------------------------------------------------------

_DIMENSIONS = (TIME, TEMPERATURE, VOLUME, NUMBER_DENSITY, FIELD_NOISE_DENSITY)


def test_dimension_str_forms():
    # each dimension is the string its messages print, in SI base units
    assert _DIMENSIONS == ("s", "K", "m^3", "m^-3", "kg*s^-3/2*A^-1")


def test_every_spelling_is_of_a_dimension_the_cli_reads():
    assert {dimension for dimension, _ in units._UNITS.values()} == set(_DIMENSIONS)
    assert set(units._ALIASES.values()) <= set(units._UNITS)
    assert set(units.__all__) == {
        "Quantity", "PhysicalConstants", "constants", "parse_quantity", "require", "brief",
        "read_json", "TIME", "TEMPERATURE", "VOLUME", "NUMBER_DENSITY", "FIELD_NOISE_DENSITY",
    }


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
    assert parse_quantity("1G/rtHz", FIELD_NOISE_DENSITY).si == 1e-4
    assert parse_quantity("400K", TEMPERATURE).si == 400.0
    assert parse_quantity("0.5e-5s", TIME).si == 0.5e-5
    # prefixed scales keep the bits of base_scale * prefix_factor
    assert parse_quantity("1pG/rtHz", FIELD_NOISE_DENSITY).si == 1e-4 * 1e-12
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
    for name in list(units._UNITS) + list(units._ALIASES):
        assert not name[:1].isdigit(), name


def test_parse_rejects_bare_number_for_dimensioned_target():
    with pytest.raises(ValueError, match="has no unit"):
        parse_quantity("1e14", NUMBER_DENSITY)
    with pytest.raises(ValueError, match="has no unit"):
        parse_quantity("10", VOLUME)


def test_parse_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        parse_quantity("10cm3", TIME)
    with pytest.raises(ValueError):
        parse_quantity("4.2K", TIME)


def test_a_unit_of_a_dimension_no_input_has_is_unknown():
    # a length or a field is not a dimension the CLI reads, so its units are unknown
    for text, dimension, known in (
        ("10cm", VOLUME, "m3, cm3, mm3"),
        ("300pT", FIELD_NOISE_DENSITY, "T/rtHz, G/rtHz, also prefixed by m, u, n, p, f"),
        ("1m2", VOLUME, "m3, cm3, mm3"),
    ):
        unit = text.lstrip("0123456789")
        with pytest.raises(ValueError) as info:
            parse_quantity(text, dimension)
        assert str(info.value) == f"unknown unit '{unit}' (known units: {known})"


def test_parse_rejects_garbage():
    with pytest.raises(ValueError, match="cannot parse"):
        parse_quantity("abc", TIME)
    with pytest.raises(ValueError, match="cannot parse"):
        parse_quantity("", TIME)
    with pytest.raises(ValueError, match="unknown unit"):
        parse_quantity("3furlongs", TIME)


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
        # float arithmetic cannot take a Decimal, so it is not a number either
        (Decimal("1"), "positive", "x must be a number, got Decimal('1')"),
        ("9" * 500, "finite", "x must be a number, got '%s... (502 characters)" % ("9" * 39)),
    ):
        with pytest.raises(ValueError) as info:
            require(value, "x", domain)
        text = str(info.value)
        assert text == message
        assert len(text.encode()) < 200 and "\n" not in text


# a float of either sign anywhere from the subnormals to near the top of the range
_ANY_FLOAT = st.builds(lambda m, e, sign: math.ldexp(sign * m, e), st.floats(0.5, 1, exclude_max=True),
                       st.integers(-1070, 1024), st.sampled_from((1, -1)))


@settings(max_examples=200, deadline=None)
@example(factors=[1e-300, 1e-300], divisors=[1e-300], root=False, zero_at=1)  # plain, 0.0 on the way
@example(factors=[1e300, -1e300], divisors=[], root=False, zero_at=0)  # -inf
@example(factors=[1e300, 1e300, 1e300], divisors=[1e-300], root=True, zero_at=3)  # past the range in the root too
@given(factors=st.lists(_ANY_FLOAT, min_size=1, max_size=4), divisors=st.lists(_ANY_FLOAT, max_size=3),
       root=st.booleans(), zero_at=st.integers(0, 4))
def test_scaled_is_plain_arithmetic_without_its_intermediate_range(factors, divisors, root, zero_at):
    if root:
        factors, divisors = [abs(x) for x in factors], [abs(x) for x in divisors]
    scaled = units._scaled(factors, divisors, root)
    # plain left-to-right arithmetic, and its true value
    products = [math.prod(xs[:i]) for xs in (factors, divisors) for i in range(2, len(xs) + 1)]
    denominator = math.prod(divisors)
    quotient = math.prod(factors) / denominator if denominator else math.inf
    if all(sys.float_info.min <= abs(x) <= sys.float_info.max for x in (*products, quotient)):
        assert scaled.hex() == (math.sqrt(quotient) if root else quotient).hex()
    # far past the range, +-inf; far below it, +-0; in it, each of the
    # len(factors) + len(divisors) roundings at most half an ulp, 2**-53 relative
    exact = math.prod(map(Fraction, factors)) / math.prod(map(Fraction, divisors))
    sign, power = (1 if exact > 0 else -1), (2 if root else 1)
    if abs(exact) >= Fraction(2) ** (1025 * power):
        assert scaled == sign * math.inf
    elif abs(exact) <= Fraction(2) ** (-1077 * power):
        assert scaled == 0 and math.copysign(1, scaled) == sign
    elif Fraction(2) ** (-1022 * power) <= abs(exact) <= Fraction(2) ** (1023 * power):
        error = abs(Fraction(scaled) ** power - exact) / abs(exact)
        assert error <= power * (len(factors) + len(divisors)) * Fraction(1, 2**53)
    # an exact 0 in the factors gives 0, and one in the divisors +-inf, with the factors' sign
    assert units._scaled([*factors[:zero_at], 0.0, *factors[zero_at:]], divisors, root) == 0
    zero_divisor = units._scaled(factors, [*divisors[:zero_at], 0.0, *divisors[zero_at:]], root)
    assert zero_divisor == math.copysign(math.inf, math.prod(factors))


def test_checked_is_the_result_rule_of_the_closed_forms():
    # an exact 0 from a zero factor is valid; a root is checked as it is returned
    assert units._checked("x", (1e-300, 0.0), (1e-300,)) == 0.0
    assert units._checked("x", (1e-300,), (1e300,), root=True) == 1e-300
    for factors, divisors, message in (
        ((1e-300, 1e-300), (), "x must be a normal float, got 0.0"),  # a nonzero product below the normal floats
        ((1e-300, 1e-10), (), "x must be a normal float, got 1e-310"),
        ((1e300, 1e300), (), "x must be finite, got inf"),  # past the range
        ((-1.0,), (0.0,), "x must be finite, got -inf"),
    ):
        with pytest.raises(ValueError) as info:
            units._checked("x", factors, divisors)
        assert str(info.value) == message


def test_brief_counts_the_digits_at_powers_of_ten():
    for exponent in (4301, 4302, 5000, 12345):  # past the 4300-digit limit
        assert brief(10**exponent) == f"<integer of {exponent + 1} digits>"
        assert brief(10**exponent - 1) == f"<integer of {exponent} digits>"
    assert brief(10**40) == f"{10**40 // 10}... (41 characters)"
    assert brief("abc", repr) == "'abc'"


def test_read_json_refuses_a_lone_surrogate(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(r'["A\ud83d\ude00"]')  # a surrogate pair is one character
    assert units.read_json(path) == ["A😀"]
    for text, surrogate in ((r'["A\ud800"]', r"\ud800"), (r'{"\udc00": 1}', r"\udc00")):
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            units.read_json(path)
        assert str(info.value) == f"{brief(path)}: not valid JSON: a string holds the lone surrogate '{surrogate}'"


def test_read_json_quotes_its_path_briefly_and_its_reason_whole(tmp_path):
    directory = tmp_path.joinpath(*["d" * 100] * 3)
    directory.mkdir(parents=True)
    with pytest.raises(ValueError) as digit_limit:
        int("1" + "0" * 5000)
    for path in (tmp_path / "doc.json", directory / "doc.json"):
        for text, reason in (
            ("", "Expecting value: line 1 column 1 (char 0)"),
            ("[1%s]" % ("0" * 5000), str(digit_limit.value)),  # about 140 characters
        ):
            path.write_text(text)
            with pytest.raises(ValueError) as info:
                units.read_json(path)
            assert str(info.value) == f"{brief(path)}: not valid JSON: {reason}"


def test_gauss_conversion_power_of_ten():
    assert parse_quantity("5G/rtHz", FIELD_NOISE_DENSITY).si == 5e-4
    assert parse_quantity("0.5mT/rtHz", FIELD_NOISE_DENSITY).si == 5e-4
    five, one = (parse_quantity(text, FIELD_NOISE_DENSITY).si for text in ("5G/rtHz", "1G/sqrtHz"))
    assert five / one == 5.0


def test_conversion_roundtrip():
    si = parse_quantity("13.4pG/rtHz", FIELD_NOISE_DENSITY).si
    assert si == pytest.approx(parse_quantity("1.34e-15T/rtHz", FIELD_NOISE_DENSITY).si, rel=1e-15)
    assert si / parse_quantity("1pG/rtHz", FIELD_NOISE_DENSITY).si == pytest.approx(13.4, rel=1e-15)


# ---------------------------------------------------------------------------
# dimension checks
# ---------------------------------------------------------------------------

def test_a_wrong_dimension_is_named_in_the_message():
    # a volume cannot be read where a time is expected
    with pytest.raises(ValueError) as info:
        parse_quantity("1cm3", TIME)
    assert str(info.value) == "'1cm3' has dimension [m^3] but a value of dimension [s] is required"


def test_each_spelling_parses_as_its_own_dimension_only():
    # a temperature is never read as a time, nor any unit as another dimension
    for spelling in {*units._UNITS, *units._ALIASES}:
        own = units._UNITS[units._ALIASES.get(spelling, spelling)][0]
        for dimension in _DIMENSIONS:
            if dimension == own:
                assert parse_quantity(f"1{spelling}", dimension).si > 0
            else:
                with pytest.raises(ValueError, match="but a value of dimension"):
                    parse_quantity(f"1{spelling}", dimension)


def test_a_bare_number_is_refused_for_every_dimension():
    # every input the parser reads is dimensioned, so a bare number never is one
    for dimension in _DIMENSIONS:
        with pytest.raises(ValueError) as info:
            parse_quantity("42", dimension)
        assert str(info.value) == (
            f"'42' has no unit; expected a value of dimension [{dimension}] "
            "(e.g. unit suffixes like 'cm3', 'us', 'pT/rtHz')"
        )


def test_noise_density_is_read_in_tesla_per_root_hertz():
    # a noise density is a field times the square root of a time
    q = parse_quantity("300pT/rtHz", FIELD_NOISE_DENSITY)
    assert math.sqrt(9e-20) == pytest.approx(q.si)


def test_volume_unit_scales_are_cubes_of_their_lengths():
    # each volume unit is the cube of its length unit, with or without the caret
    for length, scale in (("m", 1.0), ("cm", 1e-2), ("mm", 1e-3)):
        assert parse_quantity(f"1{length}3", VOLUME).si == pytest.approx(scale**3)
        assert parse_quantity(f"1{length}^3", VOLUME).si == parse_quantity(f"1{length}3", VOLUME).si

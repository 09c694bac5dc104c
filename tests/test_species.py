"""Species data and kinetic helpers."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from erlab.species import (
    SPECIES_FILE_ENV_VAR,
    Species,
    default_catalog,
    load_catalog,
    magnetic_moment,
    mean_relative_velocity,
    slowing_factor,
)
from erlab.units import constants

C = constants()
AMU = C.atomic_mass


def test_slowing_factor_known_values():
    # q = [S(S+1) + I(I+1)] / [S(S+1)] with S = 1/2
    assert slowing_factor(Fraction(3, 2)) == 6
    assert slowing_factor(Fraction(7, 2)) == 22
    assert slowing_factor(Fraction(1, 2)) == 2
    assert slowing_factor(0) == 1


def test_slowing_factor_accepts_float_spelling():
    assert slowing_factor(1.5) == 6
    assert slowing_factor(3.5) == 22


def test_slowing_factor_rejects_non_half_integer():
    with pytest.raises(ValueError):
        slowing_factor(Fraction(1, 3))
    with pytest.raises(ValueError):
        slowing_factor(-0.5)


def test_magnetic_moment_scales_bohr_magneton():
    assert magnetic_moment(6) == C.mu_B / 6
    assert magnetic_moment(1) == C.mu_B
    with pytest.raises(ValueError):
        magnetic_moment(0.5)


def test_mean_relative_velocity_reduced_mass():
    # identical collision partners: v = sqrt(8 kT / (pi m/2)); frozen value
    # for the heaviest catalog species at 373 K
    cs = default_catalog().get("133Cs")
    assert cs.mean_relative_velocity(373.0) == pytest.approx(344.734830758984, rel=1e-12)


def test_mean_relative_velocity_against_maxwell_integral():
    # independent route: <v_rel> as the first moment of the Maxwell speed
    # distribution at reduced mass m/2
    integrate = pytest.importorskip("scipy.integrate")
    m, T = 132.90545196 * AMU, 373.0
    mu = m / 2.0
    a = mu / (2.0 * C.k_B * T)

    def pdf(v):
        return 4.0 * math.pi * (a / math.pi) ** 1.5 * v * v * math.exp(-a * v * v)

    mean, _ = integrate.quad(lambda v: v * pdf(v), 0, math.inf)
    assert mean_relative_velocity(m, T) == pytest.approx(mean, rel=1e-9)


@given(st.floats(1.0, 2000.0), st.floats(1e-27, 1e-24))
def test_mean_relative_velocity_temperature_scaling(T, m):
    assert mean_relative_velocity(m, 4.0 * T) == pytest.approx(
        2.0 * mean_relative_velocity(m, T), rel=1e-12
    )


def test_mean_relative_velocity_zero_temperature():
    assert mean_relative_velocity(1e-25, 0.0) == 0.0


def test_helpers_reject_non_finite_and_out_of_range():
    for bad in (math.nan, math.inf, -math.inf):
        for call in (
            lambda: mean_relative_velocity(bad, 373.0),
            lambda: mean_relative_velocity(1e-25, bad),
            lambda: magnetic_moment(bad),
            lambda: slowing_factor(bad),
        ):
            with pytest.raises(ValueError, match="must be finite"):
                call()
    # finite inputs whose result overflows or underflows the float range
    for call in (
        lambda: mean_relative_velocity(1e-320, 1e300),
        lambda: mean_relative_velocity(1e300, 1e-300),
        lambda: magnetic_moment(1e300),
        lambda: slowing_factor(1e200),
    ):
        with pytest.raises(ValueError, match="must be (finite|a normal float)"):
            call()


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def test_default_catalog_contents():
    cat = default_catalog()
    names = [sp.name for sp in cat]
    assert names == ["41K", "87Rb", "133Cs"]
    assert cat.get("41K").slowing_factor == 6
    assert cat.get("87Rb").slowing_factor == 6
    assert cat.get("133Cs").slowing_factor == 22


def test_catalog_aliases_strip_mass_number():
    cat = default_catalog()
    assert cat.get("K") is cat.get("41K")
    assert cat.get("Rb") is cat.get("87Rb")
    assert cat.get("Cs") is cat.get("133Cs")
    assert cat.get(" Cs ") is cat.get("133Cs")


def test_catalog_unknown_species_lists_known():
    with pytest.raises(KeyError, match="41K"):
        default_catalog().get("Xe")


def test_shipped_calibration_sigma_v_values():
    # effective sigma_sd * v_rel at each species' calibration temperature;
    # these are the quantities the floor actually depends on
    cat = default_catalog()
    expected = {
        "41K": 4.090493734126494e-20,
        "87Rb": 2.771708169013542e-19,
        "133Cs": 5.5779460010815815e-18,
    }
    for name, sv in expected.items():
        assert cat.get(name).sigma_v() == pytest.approx(sv, rel=1e-12)


def test_species_without_cross_section_raises_actionably():
    sp = Species(
        name="23Na",
        nuclear_spin=Fraction(3, 2),
        mass_kg=22.989 * AMU,
        sd_cross_section_m2=None,
        reference_temperature_K=450.0,
    )
    with pytest.raises(ValueError, match="invert_sigma_v"):
        sp.sigma_v()


def test_species_default_temperature_is_reference():
    sp = default_catalog().get("K")
    assert sp.mean_relative_velocity() == sp.mean_relative_velocity(sp.reference_temperature_K)
    assert sp.sigma_v() == sp.sigma_v(sp.reference_temperature_K)


# ---------------------------------------------------------------------------
# file loading
# ---------------------------------------------------------------------------

def _write(tmp_path, doc):
    path = tmp_path / "species.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


_GOOD_ROW = {
    "name": "41K",
    "nuclear_spin": "3/2",
    "mass_amu": 40.96182526,
    "sd_cross_section_cm2": 6e-19,
    "reference_temperature_K": 457.0,
}


def test_load_catalog_roundtrip(tmp_path):
    path = _write(tmp_path, {"species": [_GOOD_ROW]})
    cat = load_catalog(path)
    sp = cat.get("K")
    assert sp.mass_kg == pytest.approx(40.96182526 * AMU)
    assert sp.sd_cross_section_m2 == pytest.approx(6e-23)
    assert sp.nuclear_spin == Fraction(3, 2)


def test_load_catalog_rejects_duplicate_names(tmp_path):
    path = _write(tmp_path, {"species": [_GOOD_ROW, _GOOD_ROW]})
    with pytest.raises(ValueError, match="duplicate"):
        load_catalog(path)


@pytest.mark.parametrize(
    "patch",
    [
        {"nuclear_spin": "2/3"},
        {"nuclear_spin": "fast"},
        {"mass_amu": -1.0},
        {"mass_amu": "heavy"},
        {"reference_temperature_K": 0.0},
        {"name": ""},
        {"mass_amu": math.inf},
        {"mass_amu": 10**400},  # an integer past the float range
        {"sd_cross_section_cm2": math.inf},
        {"reference_temperature_K": math.nan},
        {"nuclear_spin": "1e200"},  # slowing factor past the float range
        {"nuclear_spin": "1e150"},  # moment mu_B/q below the normal floats
        # exponents refused before Fraction builds 10**exponent exactly
        {"nuclear_spin": "1e5000"},
        {"nuclear_spin": "1e10000000"},
        {"nuclear_spin": "1e-10000000"},
        # values whose text is thousands of characters long, quoted by their head only
        {"mass_amu": 10**4000},
        {"nuclear_spin": "1e-400"},  # Fraction(1, 10**400)
        {"nuclear_spin": "0.5" + "0" * 4000 + "1"},
        {"mass_amu": "9" * 4000},
    ],
)
def test_load_catalog_rejects_bad_rows(tmp_path, patch):
    row = dict(_GOOD_ROW)
    row.update(patch)
    path = _write(tmp_path, {"species": [row]})
    with pytest.raises(ValueError, match=r"species\[0\]") as info:
        load_catalog(path)
    message = str(info.value)
    assert next(iter(patch)) in message  # names the bad field
    assert "\n" not in message and "set_int_max_str_digits" not in message
    assert len(message.encode()) < 200 + len(str(path).encode())  # a long value is cut


def test_load_catalog_names_the_file_for_unparseable_json(tmp_path):
    path = tmp_path / "species.json"
    for content in (
        b"{",
        b'{"species": [{"mass_amu": 1%s}]}' % (b"0" * 5000),  # past Python's digit limit
        b"\xff\xfe",  # not UTF-8
    ):
        path.write_bytes(content)
        with pytest.raises(ValueError) as info:
            load_catalog(path)
        assert str(info.value).startswith(f"{path}: not valid JSON: ")


def test_load_catalog_accepts_a_large_spin_with_a_normal_moment(tmp_path):
    # the moment mu_B/q of spin 1e100 is still a normal float
    path = _write(tmp_path, {"species": [dict(_GOOD_ROW, nuclear_spin="1e100")]})
    assert load_catalog(path).get("K").magnetic_moment > 0


def test_load_catalog_rejects_non_object_document(tmp_path):
    path = _write(tmp_path, [1, 2, 3])
    with pytest.raises(ValueError):
        load_catalog(path)


def test_load_catalog_missing_file_is_oserror(tmp_path):
    with pytest.raises(OSError):
        load_catalog(tmp_path / "nope.json")


def test_null_cross_section_loads_as_uncalibrated(tmp_path):
    row = dict(_GOOD_ROW)
    row["sd_cross_section_cm2"] = None
    path = _write(tmp_path, {"species": [row]})
    sp = load_catalog(path).get("K")
    assert sp.sd_cross_section_m2 is None


def test_env_var_overrides_default_catalog(tmp_path, monkeypatch):
    row = dict(_GOOD_ROW)
    row["name"] = "39K"
    path = _write(tmp_path, {"species": [row]})
    monkeypatch.setenv(SPECIES_FILE_ENV_VAR, str(path))
    cat = default_catalog()
    assert [sp.name for sp in cat] == ["39K"]


def test_env_var_unset_gives_bundled_catalog(monkeypatch):
    monkeypatch.delenv(SPECIES_FILE_ENV_VAR, raising=False)
    assert [sp.name for sp in default_catalog()] == ["41K", "87Rb", "133Cs"]

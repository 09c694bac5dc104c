"""Per-technology sensor evaluations.

Golden numbers were frozen from independent hand calculations (plain float
arithmetic from the constants table) before wiring them to the library.
"""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from erlab.cli import main as cli_main
from erlab.sensors import (
    SquidSpec,
    VaporCell,
    atomic_floor,
    atomic_psd,
    compare_published,
    default_published_records,
    diamond_erl,
    erl_ratio,
    invert_sigma_v,
    load_published_records,
    measured_erl_from_psd,
    squid_erl,
)
from erlab.species import Species, default_catalog
from erlab.units import brief, constants

C = constants()
LN2 = math.log(2)

# the reference vapor cell used for the bundled floor table:
# n = 1e14 cm^-3, V = 10 cm^3  ->  N = 1e15 atoms
N_REF, V_REF = 1e20, 1e-5

# values that are not numbers, and the one-line ValueError each public function gives for them
NOT_NUMBERS = ("1", None, [1.0])
NOT_A_NUMBER = r"^[^\n]* must be a number, got [^\n]*$"


def _report(name, density=N_REF, volume=V_REF, temperature=None):
    sp = default_catalog().get(name)
    return atomic_floor(VaporCell(sp, density, volume, temperature))


# ---------------------------------------------------------------------------
# vapor cell: frozen goldens
# ---------------------------------------------------------------------------

def test_potassium_report_golden():
    r = _report("41K")
    assert r.atom_count == pytest.approx(1e15)
    assert r.relaxation_time == pytest.approx(0.24446926581432482, rel=1e-12)
    assert r.delta_B_floor == pytest.approx(2e-17, rel=1e-12)
    assert r.erl_hbar == pytest.approx(3.689506149904583, rel=1e-12)
    assert r.kappa == pytest.approx(4.884218421906579, rel=1e-12)
    assert r.kappa_bare == pytest.approx(1.4368432837253267, rel=1e-12)
    assert r.spin_temperature == pytest.approx(7.080485310600185e-11, rel=1e-12)
    assert r.correlation_atoms == pytest.approx(1610201907.675535, rel=1e-12)
    assert r.correlation_volume == pytest.approx(1.610201907675535e-11, rel=1e-12)
    assert r.collision_time == pytest.approx(3.134460028715631e-10, rel=1e-12)
    assert r.sd_phase == pytest.approx(3.580710698636688e-05, rel=1e-12)
    assert r.delta_B_uncertainty_check == pytest.approx(8.825424006106067e-18, rel=1e-12)
    assert r.psd == pytest.approx(9.888766673641865e-18, rel=1e-12)


def test_rubidium_report_golden():
    r = _report("87Rb")
    # the rubidium calibration is anchored to the energy-resolution column
    # (its published floor is quoted to one significant figure only)
    assert r.erl_hbar == pytest.approx(25.0, rel=1e-12)
    assert r.delta_B_floor == pytest.approx(1.3551949222606147e-16, rel=1e-12)
    assert r.relaxation_time == pytest.approx(0.03607883438738439, rel=1e-12)


def test_cesium_report_golden():
    r = _report("133Cs")
    assert r.delta_B_floor == pytest.approx(1e-14, rel=1e-12)
    assert r.erl_hbar == pytest.approx(6764.094608158401, rel=1e-12)
    assert r.relaxation_time == pytest.approx(0.0017927746159717157, rel=1e-12)
    assert r.correlation_atoms == pytest.approx(20613644408977.52, rel=1e-12)
    assert r.correlation_volume == pytest.approx(2.061364440897752e-07, rel=1e-12)
    assert r.psd == pytest.approx(4.2341169279694155e-16, rel=1e-12)


def test_small_cesium_cell_noise_density():
    # n = 2e13 cm^-3 in a 1 cm^3 cell: the floor sits at ~13 pG/rtHz
    r = _report("133Cs", density=2e19, volume=1e-6)
    assert r.delta_B_floor == pytest.approx(1.4142135623730955e-14, rel=1e-12)
    assert r.relaxation_time == pytest.approx(0.008963873079858579, rel=1e-12)
    assert r.psd / 1e-16 == pytest.approx(13.389453371858453, rel=1e-12)  # pG/rtHz


def test_rubidium_floor_matches_published_at_printed_precision():
    # the anchored floor rounds to the single printed digit, 1e-16 T
    r = _report("87Rb")
    printed = float(f"{r.delta_B_floor:.0e}")
    assert printed == 1e-16


def test_rubidium_row_is_internally_inconsistent_as_printed():
    # calibrating on the one-digit floor 1e-16 T instead lands 26% below the
    # published resolution of 25 hbar; documented here, resolved by anchoring
    rb = default_catalog().get("87Rb")
    sv = invert_sigma_v(1e-16, rb.magnetic_moment, V_REF, 1e15)
    erl = (math.pi**2 / (8.0 * LN2**2)) * C.hbar * sv / (C.mu_0 * rb.magnetic_moment**2)
    assert erl == pytest.approx(18.44753074952291, rel=1e-9)
    assert (erl - 25.0) / 25.0 == pytest.approx(-0.262, abs=5e-3)


# ---------------------------------------------------------------------------
# vapor cell: structural invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["41K", "87Rb", "133Cs"])
def test_report_internal_identities(name):
    r = _report(name)
    # definition route: erl = dB^2 V tau / (2 mu0 hbar)
    direct = r.delta_B_floor**2 * V_REF * r.relaxation_time / (2.0 * C.mu_0 * C.hbar)
    assert r.erl_hbar == pytest.approx(direct, rel=1e-12)
    # uncertainty route differs from the floor by exactly pi/(2 ln 2)
    assert r.delta_B_floor == pytest.approx(
        (math.pi / (2.0 * LN2)) * r.delta_B_uncertainty_check, rel=1e-12
    )
    # correlation factor equals sqrt(N_c) * phase
    assert r.kappa_bare == pytest.approx(
        math.sqrt(r.correlation_atoms) * r.sd_phase, rel=1e-9
    )
    # the enhanced factor carries the 3 pi / (4 ln 2) prefactor
    assert r.kappa == pytest.approx(
        (3.0 * math.pi / (4.0 * LN2)) * r.kappa_bare, rel=1e-12
    )
    assert r.correlation_volume == pytest.approx(r.correlation_atoms / N_REF, rel=1e-12)
    assert r.psd == pytest.approx(
        r.delta_B_floor * math.sqrt(r.relaxation_time), rel=1e-12
    )
    assert r.erl_hbar > math.pi / 2


def test_floor_scales_as_sqrt_density_over_volume():
    base = _report("133Cs")
    denser = _report("133Cs", density=4.0 * N_REF)
    bigger = _report("133Cs", volume=4.0 * V_REF)
    assert denser.delta_B_floor == pytest.approx(2.0 * base.delta_B_floor, rel=1e-12)
    assert bigger.delta_B_floor == pytest.approx(base.delta_B_floor / 2.0, rel=1e-12)


def test_erl_is_intensive_in_cell_size():
    # the resolution depends on the collision rate alone: changing cell
    # volume or density cancels between dB^2 and tau
    base = _report("133Cs")
    bigger = _report("133Cs", volume=7.0 * V_REF)
    denser = _report("133Cs", density=5.0 * N_REF)
    assert bigger.erl_hbar == pytest.approx(base.erl_hbar, rel=1e-12)
    assert denser.erl_hbar == pytest.approx(base.erl_hbar, rel=1e-12)


def test_atomic_psd_definition():
    assert atomic_psd(2e-17, 0.25) == pytest.approx(1e-17, rel=1e-15)
    with pytest.raises(ValueError):
        atomic_psd(2e-17, 0.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="must be finite"):
            atomic_psd(bad, 0.25)
        with pytest.raises(ValueError, match="must be finite"):
            atomic_psd(2e-17, bad)
    with pytest.raises(ValueError, match=r"^psd must be finite, got inf$"):  # finite inputs
        atomic_psd(1e308, 2**63)
    with pytest.raises(ValueError, match=r"^psd must be a normal float, got 0\.0$"):
        atomic_psd(1e-300, 1e-300)
    # a zero floor gives an exact 0, a negative one is refused
    assert atomic_psd(0.0, 1.0) == 0.0
    with pytest.raises(ValueError, match=r"^field floor must be non-negative, got -1e-15$"):
        atomic_psd(-1e-15, 1.0)


# ---------------------------------------------------------------------------
# calibration inversion
# ---------------------------------------------------------------------------

def test_invert_sigma_v_round_trip_formula():
    mu, V, N = C.mu_B / 6.0, 1e-5, 1e15
    for dB in (2e-17, 1e-16, 1e-14):
        sv = invert_sigma_v(dB, mu, V, N)
        forward = (math.pi / (2.0 * LN2)) * C.hbar * sv * math.sqrt(N) / (mu * V)
        assert forward == pytest.approx(dB, rel=1e-12)


def test_invert_sigma_v_round_trip_through_report():
    # build a species whose cross section comes from the inversion and check
    # the full pipeline lands back on the target floor
    target = 5e-16
    mu = C.mu_B / 6.0
    sv = invert_sigma_v(target, mu, V_REF, 1e15)
    temperature = 457.0
    from erlab.species import mean_relative_velocity

    mass = 40.96182526 * C.atomic_mass
    sp = Species(
        name="41K",
        nuclear_spin=Fraction(3, 2),
        mass_kg=mass,
        sd_cross_section_m2=sv / mean_relative_velocity(mass, temperature),
        reference_temperature_K=temperature,
    )
    r = atomic_floor(VaporCell(sp, N_REF, V_REF))
    assert r.delta_B_floor == pytest.approx(target, rel=1e-12)


def test_invert_sigma_v_rejects_nonpositive():
    with pytest.raises(ValueError):
        invert_sigma_v(0.0, 1e-24, 1e-5, 1e15)
    with pytest.raises(ValueError, match=r"^rate coefficient sigma_v must be finite, got inf$"):
        invert_sigma_v(1e300, 1e300, 1e300, 1.0)  # finite inputs
    valid = (1e-15, 1e-24, 1e-5, 1e15)
    for i, name in enumerate(("delta_B", "mu", "volume", "atom_count")):
        for bad in (0.0, -valid[i]):
            with pytest.raises(ValueError, match=rf"^{name} must be positive, got "):
                invert_sigma_v(*valid[:i], bad, *valid[i + 1:])
    for i in range(4):
        for bad in (math.nan, math.inf, -math.inf):
            args = list(valid)
            args[i] = bad
            with pytest.raises(ValueError, match="must be finite"):
                invert_sigma_v(*args)
    for i in range(4):
        for bad in NOT_NUMBERS:
            with pytest.raises(ValueError, match=NOT_A_NUMBER):
                invert_sigma_v(*valid[:i], bad, *valid[i + 1:])


def test_uncalibrated_species_gets_actionable_error():
    sp = Species(
        name="85Rb",
        nuclear_spin=Fraction(5, 2),
        mass_kg=84.9 * C.atomic_mass,
        sd_cross_section_m2=None,
        reference_temperature_K=400.0,
    )
    with pytest.raises(ValueError, match="invert_sigma_v"):
        atomic_floor(VaporCell(sp, N_REF, V_REF))


def test_vapor_cell_validation():
    sp = default_catalog().get("K")
    with pytest.raises(ValueError):
        VaporCell(sp, 0.0, V_REF)
    with pytest.raises(ValueError):
        VaporCell(sp, N_REF, 0.0)
    with pytest.raises(ValueError):
        VaporCell(sp, N_REF, V_REF, -10.0)
    with pytest.raises(ValueError):
        VaporCell(sp, 1.0, 1e-30)  # fewer than one atom
    with pytest.raises(ValueError):
        VaporCell(sp, 1e300, 1e300)  # N overflows to infinity
    with pytest.raises(ValueError):
        VaporCell(sp, math.nan, V_REF)
    with pytest.raises(ValueError):
        VaporCell(sp, N_REF, math.nan)
    for bad in (math.nan, math.inf, -math.inf):
        for args in ((bad, V_REF), (N_REF, bad), (N_REF, V_REF, bad)):
            with pytest.raises(ValueError, match="must be finite"):
                VaporCell(sp, *args)
    with pytest.raises(ValueError):
        VaporCell(sp, N_REF, V_REF, math.nan)
    for bad in NOT_NUMBERS:
        calls = [(bad, V_REF), (N_REF, bad)]
        if bad is not None:  # a None temperature is the species' calibration temperature
            calls.append((N_REF, V_REF, bad))
        for args in calls:
            with pytest.raises(ValueError, match=NOT_A_NUMBER):
                VaporCell(sp, *args)


def test_vapor_cell_default_temperature():
    sp = default_catalog().get("K")
    assert VaporCell(sp, N_REF, V_REF).temperature == sp.reference_temperature_K
    assert VaporCell(sp, N_REF, V_REF, 500.0).temperature == 500.0


def test_a_relaxation_time_that_underflows_is_named():
    # n sigma v_bar is past the float range, so tau underflows to 0, which
    # then divides the phase and the uncertainty-route floor
    sp = Species("X", Fraction(739359196633814016), 4.14e-101, 7.77e132, 5.19e126)
    with pytest.raises(ValueError, match=r"^relaxation_time must be a normal float, got 0\.0$"):
        atomic_floor(VaporCell(sp, 7.32e261, 1.84e-47))


def test_out_of_regime_cell_is_rejected():
    # the resolution depends on the collision rate alone, so cooling the
    # vapor far enough pushes it below the pi/2 floor, where the collision
    # model no longer applies; the call must refuse rather than report it
    sp = default_catalog().get("K")
    with pytest.raises(ValueError, match="floor|regime"):
        atomic_floor(VaporCell(sp, N_REF, V_REF, 50.0))


def test_a_cell_at_the_pi_2_floor_is_reported_and_one_below_is_rejected():
    # this Cs cross section puts the collision floor at pi/2 hbar to the bit,
    # which is in the regime; one ulp smaller puts it below
    sigma = 3.6284719021240265e-24
    sp = default_catalog().get("Cs")._replace(sd_cross_section_m2=sigma)
    assert atomic_floor(VaporCell(sp, N_REF, V_REF)).erl_hbar == math.pi / 2
    below = sp._replace(sd_cross_section_m2=math.nextafter(sigma, 0.0))
    with pytest.raises(ValueError, match=r"^collision floor 1\.57 hbar falls below the universal pi/2 floor;"):
        atomic_floor(VaporCell(below, N_REF, V_REF))


# ---------------------------------------------------------------------------
# SQUID records
# ---------------------------------------------------------------------------

_EXPECTED_SQUID = {
    "Schmelz2017": (2.0929174374991533, 3.0101521861884475, False),
    "Wakai1988": (1.7004971509589322, 0.9409013117709368, True),
    "Awschalom1988": (2.5980097770921695, 0.6543470371011191, True),
    "Schmelz2016": (23.63267077112818, 1.4810006172793295, False),
    "Schmelz2011": (48.4406424952166, 2.497902458910376, False),
}


def test_bundled_squid_comparison_goldens():
    rows = compare_published(default_published_records())
    assert [r.label for r in rows] == list(_EXPECTED_SQUID)
    for row in rows:
        predicted, ratio, flagged = _EXPECTED_SQUID[row.label]
        assert row.predicted_erl_hbar == pytest.approx(predicted, rel=1e-12)
        assert row.ratio == pytest.approx(ratio, rel=1e-12)
        assert row.flagged is flagged


def test_squid_erl_formula():
    spec = SquidSpec(4.5e-8, 4.2, 0.5e-5)
    p = spec.flux_noise_fraction
    expected = (-p * math.log(p)) * C.k_B * 4.2 * 0.5e-5 / C.hbar
    assert squid_erl(spec) == pytest.approx(expected, rel=1e-15)


def test_squid_erl_monotone_in_temperature_and_time():
    base = squid_erl(SquidSpec(1e-6, 4.2, 5e-6))
    assert squid_erl(SquidSpec(1e-6, 8.4, 5e-6)) == pytest.approx(2.0 * base, rel=1e-12)
    assert squid_erl(SquidSpec(1e-6, 4.2, 1e-5)) == pytest.approx(2.0 * base, rel=1e-12)


@given(st.floats(1e-10, 0.99))
def test_squid_info_term_positive(p):
    assert squid_erl(SquidSpec(p, 4.2, 5e-6)) > 0


def test_squid_spec_validation():
    with pytest.raises(ValueError):
        SquidSpec(0.0, 4.2, 5e-6)
    with pytest.raises(ValueError):
        SquidSpec(1.0, 4.2, 5e-6)
    with pytest.raises(ValueError):
        SquidSpec(1e-6, 0.0, 5e-6)
    with pytest.raises(ValueError):
        SquidSpec(1e-6, 4.2, 0.0)
    for measured in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="measured energy resolution"):
            SquidSpec(1e-6, 4.2, 5e-6, measured)
    for bad in (math.nan, math.inf, -math.inf):
        for args in ((bad, 4.2, 5e-6), (1e-6, bad, 5e-6), (1e-6, 4.2, bad)):
            with pytest.raises(ValueError):
                SquidSpec(*args)
        with pytest.raises(ValueError, match="must be finite"):
            SquidSpec(1e-6, 4.2, 5e-6, bad)
    for bad in NOT_NUMBERS:
        calls = [(bad, 4.2, 5e-6), (1e-6, bad, 5e-6), (1e-6, 4.2, bad)]
        if bad is not None:  # a None measured resolution is no measurement
            calls.append((1e-6, 4.2, 5e-6, bad))
        for args in calls:
            with pytest.raises(ValueError, match=NOT_A_NUMBER):
                SquidSpec(*args)


def test_flagged_rows_are_warnings_not_errors():
    # ratios below one must survive the comparison (they flag, not raise)
    rows = compare_published(default_published_records())
    assert any(r.flagged for r in rows)
    assert all(r.ratio > 0 for r in rows)


def test_a_record_that_meets_its_prediction_is_not_flagged():
    # a ratio of exactly 1 is no better than the prediction; one from the
    # next float below the prediction is
    spec = SquidSpec(1e-6, 4.2, 5e-6)
    predicted = squid_erl(spec)
    rows = compare_published([(label, spec._replace(measured_erl_hbar=measured)) for label, measured in
                              (("at", predicted), ("below", math.nextafter(predicted, 0.0)))])
    assert rows[0].ratio == 1.0 > rows[1].ratio
    assert [row.flagged for row in rows] == [False, True]


def test_compare_requires_measured_value():
    spec = SquidSpec(1e-6, 4.2, 5e-6, None)
    with pytest.raises(ValueError, match="^record 'X2020' has no measured ERL to compare against$"):
        compare_published([("X2020", spec)])
    # a long label is quoted by its head and length
    with pytest.raises(ValueError, match=r"^record 'X{39}\.\.\. \(302 characters\) has no measured ERL"):
        compare_published([("X" * 300, spec)])


def _table2_csv(capsys, digits):
    assert cli_main(["table2", "--format", "csv", "--digits", str(digits)]) == 0
    return capsys.readouterr().out


def test_comparison_csv_schema(capsys):
    rows = compare_published(default_published_records())
    lines = _table2_csv(capsys, 6).strip().split("\n")
    assert lines[0] == "label,p,T_K,tau_s,predicted_erl_hbar,measured_erl_hbar,ratio"
    assert len(lines) == 1 + len(rows)
    first = lines[1].split(",")
    assert first[0] == "Schmelz2017"
    assert float(first[4]) == pytest.approx(2.09292, rel=1e-5)


def test_comparison_csv_full_precision_roundtrips(capsys):
    rows = compare_published(default_published_records())
    line = _table2_csv(capsys, 17).strip().split("\n")[1].split(",")
    assert float(line[4]) == rows[0].predicted_erl_hbar


def test_load_published_records(tmp_path):
    path = tmp_path / "records.json"
    doc = [{"label": "A", "p": 1e-6, "T_K": 4.2, "tau_s": 5e-6, "measured_erl_hbar": 10.0}]
    path.write_text(json.dumps(doc), encoding="utf-8")
    records = load_published_records(path)
    assert records == [("A", SquidSpec(1e-6, 4.2, 5e-6, 10.0))]
    assert compare_published(records)[0].ratio == pytest.approx(
        10.0 / squid_erl(records[0][1]), rel=1e-12
    )


@pytest.mark.parametrize(
    "doc",
    [
        {"not": "a list"},
        [{"p": 1e-6, "T_K": 4.2, "tau_s": 5e-6, "measured_erl_hbar": 1.0}],  # no label
        [{"label": "A", "p": "tiny", "T_K": 4.2, "tau_s": 5e-6, "measured_erl_hbar": 1.0}],
        [{"label": "A", "p": 2.0, "T_K": 4.2, "tau_s": 5e-6, "measured_erl_hbar": 1.0}],
        ["A"],  # a record that is not an object
        [None],
    ],
)
def test_load_published_records_rejects_bad_docs(tmp_path, doc):
    path = tmp_path / "records.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError):
        load_published_records(path)


def test_load_published_records_names_what_is_wrong(tmp_path):
    path = tmp_path / "records.json"
    values = {"p": 1e-6, "T_K": 4.2, "tau_s": 5e-6, "measured_erl_hbar": 1.0}
    for doc, message in (
        ({"not": "a list"}, "expected a JSON array of records"),
        (5, "expected a JSON array of records"),
        (None, "expected a JSON array of records"),
        ([dict(values, label=5)], "record 0: missing or empty 'label'"),
        ([dict(values, label="")], "record 0: missing or empty 'label'"),
    ):
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ValueError) as info:
            load_published_records(path)
        assert str(info.value) == f"{brief(path)}: {message}"


def test_load_published_records_empty_is_fine(tmp_path):
    path = tmp_path / "records.json"
    path.write_text("[]", encoding="utf-8")
    assert compare_published(load_published_records(path)) == []


# ---------------------------------------------------------------------------
# diamond
# ---------------------------------------------------------------------------

def test_diamond_golden():
    assert diamond_erl(300.0, 1e-6) == pytest.approx(27224119.183147293, rel=1e-12)
    assert measured_erl_from_psd(3e-10, 2.79e-12) == pytest.approx(
        947394134.7546226, rel=1e-12
    )


def test_diamond_erl_formula():
    assert diamond_erl(300.0, 1e-6) == pytest.approx(
        C.k_B * 300.0 * LN2 * 1e-6 / C.hbar, rel=1e-15
    )


def test_measured_erl_from_psd_definition():
    # psd^2 V / (2 mu0 hbar): squared noise density times volume as action
    psd, V = 3e-10, 2.79e-12
    assert measured_erl_from_psd(psd, V) == pytest.approx(
        psd * psd * V / (2.0 * C.mu_0 * C.hbar), rel=1e-15
    )


def test_diamond_validation():
    with pytest.raises(ValueError):
        diamond_erl(0.0, 1e-6)
    with pytest.raises(ValueError):
        measured_erl_from_psd(3e-10, 0.0)
    with pytest.raises(ValueError):
        measured_erl_from_psd(-1e-10, 1e-12)
    # named as the CLI's --psd, not as erl_quantum's field uncertainty
    with pytest.raises(ValueError, match=r"^noise density must be non-negative, got -1\.0$"):
        measured_erl_from_psd(-1.0, 1.0)
    for bad in (math.nan, math.inf, -math.inf):
        for call in (
            lambda: diamond_erl(bad, 1e-6),
            lambda: diamond_erl(300.0, bad),
            lambda: measured_erl_from_psd(bad, 1e-12),
            lambda: measured_erl_from_psd(3e-10, bad),
        ):
            with pytest.raises(ValueError, match="must be finite"):
                call()
    for bad in NOT_NUMBERS:
        for call in (
            lambda: diamond_erl(bad, 1e-6),
            lambda: diamond_erl(300.0, bad),
            lambda: measured_erl_from_psd(bad, 1e-12),
            lambda: measured_erl_from_psd(3e-10, bad),
            lambda: erl_ratio(bad, 2.0),
            lambda: erl_ratio(1.0, bad),
        ):
            with pytest.raises(ValueError, match=NOT_A_NUMBER):
                call()
    # finite inputs whose result leaves the float range; an exact 0 stays
    for call in (
        lambda: diamond_erl(300.0, 1e300),
        lambda: diamond_erl(1e-300, 1e-300),
        lambda: measured_erl_from_psd(1e200, 1.0),
        lambda: measured_erl_from_psd(1e-200, 1e-12),
        lambda: squid_erl(SquidSpec(0.5, 1e200, 1e200)),
        lambda: squid_erl(SquidSpec(0.5, 1e-200, 1e-200)),
        lambda: erl_ratio(1e300, 1e-300),
        lambda: erl_ratio(1e-300, 1e300),
        lambda: erl_ratio(1.0, 0.0),
    ):
        with pytest.raises(ValueError, match="must be (finite|a normal float)"):
            call()
    # a subnormal -p ln p, which the info_gained row prints, though the result is in range
    with pytest.raises(ValueError, match=r"^-p ln p must be a normal float, got 7\.36819e-318$"):
        squid_erl(SquidSpec(1e-320, 1e300, 1e300))
    assert diamond_erl(300.0, 0.0) == 0.0
    assert measured_erl_from_psd(0.0, 1e-12) == 0.0
    assert erl_ratio(0.0, 2.0) == 0.0
    assert erl_ratio(0.0, math.inf) == 0.0
    # x / 0 is +-inf, of the sign of x
    with pytest.raises(ValueError, match=r"^measured-to-predicted ratio must be finite, got -inf$"):
        erl_ratio(-1.0, 0.0)


# ---------------------------------------------------------------------------
# cross-technology picture
# ---------------------------------------------------------------------------

def test_technologies_span_seven_decades():
    squid_values = [r.predicted_erl_hbar for r in compare_published(default_published_records())]
    vapor = _report("41K").erl_hbar
    diamond = diamond_erl(300.0, 1e-6)
    lo = min(squid_values + [vapor])
    assert 1.0 < lo < 10.0
    assert 1e7 < diamond < 1e8

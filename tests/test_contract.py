"""The library's contract, over every public callable of ``atomic_report``,
``bounds``, ``species``, ``sensors`` and ``spinsim``: whatever the arguments,
a call returns a finite result (for a record, every float field) or raises a
ValueError of one line under 200 bytes, and does nothing else.  Arguments
come from a strategy table keyed by parameter name; a public callable that
it cannot call, and that is not an explicit skip, fails the test.  A record
that checks its fields checks them on ``_replace`` and ``_make`` too."""

import dataclasses
import inspect
import math
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from erlab import atomic_report, bounds, sensors, species, spinsim
from erlab.units import constants

# values at and past the edges of every domain, and values that are not real numbers
_EDGES = (0, -0.0, 1, -1, 1.5, 5e-324, 1e-320, 1e-300, 1e-30, 1e30, 1e300, 1e308, -1e308,
          math.inf, -math.inf, math.nan, 10**400, -10**400, 2**63, True, "1", None, [1.0], Fraction(3, 2),
          Decimal("1"))
_NUMBERS = st.one_of(st.sampled_from(_EDGES), st.floats())
_INTS = st.one_of(_NUMBERS, st.integers(-2, 10))


def _valid(build, *fields):
    """What ``build`` makes of the drawn ``fields``, where it accepts them."""

    @st.composite
    def draw_valid(draw):
        try:
            return build(*(draw(field) for field in fields))
        except ValueError:
            assume(False)

    return draw_valid()


_AMU = constants().atomic_mass
# two species of a --species-file, as load_catalog builds them: a spin of 8e137,
# whose collision floor overflows, and a cross section of 1e-281 cm^2, whose
# floor is in range though the plain product hbar sigma_v is subnormal
_HUGE_SPIN = species.Species("X", Fraction(8 * 10**137), 87.0 * _AMU, 1e-14 * 1e-4, 300.0)
_FAINT = species.Species("X", Fraction(10**66), 86.72 * _AMU, 1e-281 * 1e-4, 300.0)
_SPECIES = st.one_of(
    st.sampled_from(list(species.default_catalog())),
    # a subnormal mass, whose half is 0 as a float, and a species not calibrated yet
    st.just(species.Species("Sb", Fraction(3, 2), 5e-324, 1e-19, 400.0)),
    st.just(species.Species("U", Fraction(3, 2), 2e-25, None, 400.0)),
    # what load_catalog accepts out at its edges: half-integer spins up to 9.5e140,
    # cross sections down to 1e-300 cm^2
    st.builds(
        species.Species,
        st.just("X"),
        st.tuples(st.integers(1, 9), st.integers(0, 140)).map(lambda me: Fraction(2 * me[0] * 10 ** me[1] + 1, 2)),
        st.floats(1, 300).map(lambda amu: amu * _AMU),
        st.floats(-300, -10).map(lambda e: 10.0**e * 1e-4),
        st.floats(1, 1e4),
    ),
)
_SPEC = _valid(sensors.SquidSpec, st.one_of(st.floats(0, 1), _NUMBERS), _NUMBERS, _NUMBERS, _NUMBERS)


def _small_config(*fields):
    """A SimConfig of at most 1e5 steps, so that a drawn path stays cheap."""
    config = spinsim.SimConfig(*fields)
    assume(config.step_count <= 10**5)
    return config


# the strategy of each parameter of a public callable, by its name
_ARGS = {
    **dict.fromkeys(
        ("temperature_K", "info_nats", "energy_J", "delta_B_T", "volume_m3", "tau_s", "work_J",
         "atom_count", "field_T", "moment_J_per_T", "T_s_K", "nuclear_spin", "q", "mass_kg",
         "number_density", "volume", "cell_temperature", "delta_B", "mu", "tau", "flux_noise_fraction",
         "bath_temperature", "measurement_time", "measured_erl_hbar", "psd", "measured", "predicted",
         "relaxation_time", "horizon", "horizon_in_tau"),
        _NUMBERS,
    ),
    **dict.fromkeys(("trajectory_count", "steps_per_tau", "seed", "index"), _INTS),
    "species": _SPECIES,
    "cell": _valid(sensors.VaporCell, _SPECIES, st.one_of(st.floats(1e10, 1e30), _NUMBERS),
                   st.one_of(st.floats(1e-12, 1.0), _NUMBERS), _NUMBERS),
    "spec": _SPEC,
    "records": st.lists(st.tuples(st.sampled_from(("lab", "X" * 300, "A\ud800")), _SPEC), max_size=3),
    "config": _valid(_small_config, st.one_of(st.floats(1, 1e12), _NUMBERS), _NUMBERS,
                     st.one_of(st.integers(1, 4), _INTS), st.one_of(st.sampled_from((10, 1000)), _INTS),
                     st.one_of(st.floats(0, 100), _NUMBERS), st.one_of(st.integers(0, 2**64 - 1), _INTS)),
    "result": st.builds(spinsim.SimResult, st.floats(), st.floats(), st.floats(), st.floats()),
}

# public callables this test does not call, each with what covers it instead
_SKIPS = {
    "erlab.species.Species": "a record load_catalog checks: test_species.py::test_load_catalog_rejects_bad_rows",
    "erlab.species.SpeciesCatalog": "test_species.py::test_load_catalog_rejects_duplicate_names",
    "erlab.species.load_catalog": "reads a file: test_species.py::test_load_catalog_rejects_bad_rows",
    "erlab.species.default_catalog": "reads the bundled file: test_species.py::test_default_catalog_contents",
    "erlab.atomic_report.AtomicErlReport": "atomic_floor's result, checked here through atomic_floor",
    "erlab.sensors.ComparisonRow": "compare_published's result, checked here through compare_published",
    "erlab.sensors.load_published_records":
        "reads a file: test_sensors.py::test_load_published_records_rejects_bad_docs",
    "erlab.sensors.default_published_records":
        "reads the bundled file: test_sensors.py::test_bundled_squid_comparison_goldens",
    "erlab.spinsim.SimResult": "simulate_transient's result; result_to_json is called here with any floats in it",
    "erlab.spinsim.simulate_transient": "a whole run: test_spinsim.py::test_the_determinism_contract",
    "erlab.spinsim.write_trajectory_csv": "writes a file: test_spinsim.py::test_sample_index_bounds",
}

_PUBLIC = {
    f"{module.__name__}.{name}": getattr(module, name)
    for module in (atomic_report, bounds, species, sensors, spinsim)
    for name in module.__all__
    if callable(getattr(module, name))
}
_CALLED = {name: fn for name, fn in _PUBLIC.items() if name not in _SKIPS}
_UNCOVERED = {name for name, fn in _CALLED.items() if not set(inspect.signature(fn).parameters) <= set(_ARGS)}


def _calls():
    def call(fn):
        parameters = inspect.signature(fn).parameters
        return st.tuples(*(_ARGS.get(p, st.nothing()) for p in parameters)).map(lambda args: (fn, args))

    return st.sampled_from(list(_CALLED.values())).flatmap(call)


def _assert_finite(value, where):
    if isinstance(value, float):
        assert math.isfinite(value), where
    elif isinstance(value, np.ndarray):
        assert np.isfinite(value).all(), where
    elif isinstance(value, (list, tuple)):
        for item in value:
            _assert_finite(item, where)
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            _assert_finite(getattr(value, field.name), f"{where}.{field.name}")


@settings(max_examples=500, deadline=None)
@given(call=_calls())
@example(call=(bounds.spin_temp_polarization, (1e-320, 1e-30, 1.5)))
@example(call=(species.mean_relative_velocity, (5e-324, 0.5)))
@example(call=(sensors.invert_sigma_v, (1e300, 1e300, 1e300, 1.0)))
@example(call=(sensors.atomic_psd, (1e308, 2**63)))
@example(call=(sensors.atomic_floor, (sensors.VaporCell(_HUGE_SPIN, 1e14 * 1e6, 10 * 1e-6),)))
@example(call=(sensors.atomic_floor, (sensors.VaporCell(_FAINT, 1e10, 1e-10),)))
@example(call=(spinsim.result_to_json,
               (spinsim.SimResult(0.0, 0.0, 0.0, 0.0), spinsim.SimConfig(1, Fraction(3, 2), 1))))
@example(call=(spinsim.trajectory_path, (spinsim.SimConfig(1.0, 1.0, 1, 10, Fraction(3, 2), 0), 0)))
def test_every_public_callable_keeps_the_contract(call):
    assert not _UNCOVERED, f"public callables with no strategy for a parameter and no skip: {_UNCOVERED}"
    assert set(_SKIPS) <= set(_PUBLIC), f"skips of no public callable: {set(_SKIPS) - set(_PUBLIC)}"
    fn, args = call
    try:
        result = fn(*args)
    except ValueError as exc:
        message = str(exc)
        assert len(message.splitlines()) == 1, message
        assert len(message.encode(errors="surrogatepass")) < 200, message
        return
    _assert_finite(result, fn.__qualname__)


@pytest.mark.parametrize("record, field, value, message", [
    (sensors.VaporCell(species.default_catalog().get("133Cs"), 1e20, 1e-5), "volume", 0.0,
     "volume must be positive, got 0.0"),
    (sensors.SquidSpec(0.01, 4.2, 1e-6), "flux_noise_fraction", 1.5,
     "flux noise fraction must lie in (0, 1), got 1.5"),
    # refused before a run could allocate its horizon values
    (spinsim.SimConfig(1e4, 1.0, 10), "trajectory_count", 2**30,
     "trajectory count must be at most 16777216 (memory budget), got 1073741824"),
])
def test_a_replaced_field_is_checked_as_the_constructor_checks_it(record, field, value, message):
    fields = {**record._asdict(), field: value}
    for build in (lambda: type(record)(**fields), lambda: record._replace(**{field: value}),
                  lambda: type(record)._make(fields.values())):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()


def test_a_checked_record_holds_no_instance_dict():
    # a subclass of a NamedTuple gets a __dict__ unless it declares empty __slots__
    for record in (sensors.VaporCell(species.default_catalog().get("133Cs"), 1e20, 1e-5),
                   sensors.SquidSpec(0.01, 4.2, 1e-6), spinsim.SimConfig(1e4, 1.0, 10)):
        assert not hasattr(record, "__dict__"), type(record).__name__

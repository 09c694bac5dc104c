"""Sensor-independent bounds: work cost, speed limit, the pi/2 floor, and
spin-temperature relations.

Frozen reference numbers in this file were computed independently (by hand
and with scipy) before the implementation existed, then pinned.
"""

import functools
import math

import pytest
from hypothesis import given, strategies as st

from erlab.bounds import (
    THEORETICAL_FLOOR_HBAR,
    erl_quantum,
    field_fluctuation_from_work,
    measurement_work_bound,
    ml_min_time,
    spin_temp_polarization,
    spin_temperature,
)
from erlab.units import constants

C = constants()

finite = st.floats(allow_nan=False, allow_infinity=False)


def test_floor_is_half_pi():
    assert THEORETICAL_FLOOR_HBAR == math.pi / 2


def test_work_bound_one_bit_room_temperature():
    # erasing one bit (ln 2 nats) at 300 K
    W = measurement_work_bound(300.0, math.log(2))
    assert W == pytest.approx(2.870978885078724e-21, rel=1e-12)


def test_work_bound_is_linear_in_information():
    assert measurement_work_bound(300.0, 2.0) == pytest.approx(
        2.0 * measurement_work_bound(300.0, 1.0), rel=1e-15
    )
    assert measurement_work_bound(600.0, 1.0) == pytest.approx(
        2.0 * measurement_work_bound(300.0, 1.0), rel=1e-15
    )
    assert measurement_work_bound(300.0, 0.0) == 0.0  # an exact 0 is a valid result


def test_min_evolution_time_value():
    W = measurement_work_bound(300.0, math.log(2))
    assert ml_min_time(W) == pytest.approx(5.769870151638462e-14, rel=1e-12)


def test_min_evolution_time_shrinks_with_energy():
    assert ml_min_time(2e-21) == pytest.approx(ml_min_time(1e-21) / 2.0, rel=1e-15)


def test_erl_quantum_dimensionless_form():
    # (dB)^2 V tau / (2 mu0 hbar) for round numbers
    val = erl_quantum(1e-15, 1e-6, 1.0)
    expected = 1e-30 * 1e-6 * 1.0 / (2.0 * C.mu_0 * C.hbar)
    assert val == pytest.approx(expected, rel=1e-15)


@given(
    st.floats(1e-3, 1e4),
    st.floats(1e-6, 1e3),
    st.floats(1e-12, 1.0),
)
def test_chain_saturation_equals_half_pi(T, info, V):
    """Work bound -> field fluctuation -> speed-limit time -> ERL closes at pi/2.

    This is the structural identity behind the floor: a measurement that
    gains I nats costs W = k_B T I, the matching field energy in volume V
    fixes dB, and the fastest orthogonalization time for W closes the loop.
    """
    W = measurement_work_bound(T, info)
    dB = field_fluctuation_from_work(W, V)
    tau = ml_min_time(W)
    assert erl_quantum(dB, V, tau) == pytest.approx(math.pi / 2, rel=1e-12)


def test_field_fluctuation_inverts_energy_density():
    B = 3.7e-12
    V = 2e-6
    W = B * B * V / (2.0 * C.mu_0)  # field energy B^2/(2 mu_0) in the volume
    assert field_fluctuation_from_work(W, V) == pytest.approx(B, rel=1e-15)
    assert field_fluctuation_from_work(0.0, V) == 0.0


def test_erl_scales_quadratically_in_field():
    assert erl_quantum(2e-15, 1e-6, 0.1) == pytest.approx(
        4.0 * erl_quantum(1e-15, 1e-6, 0.1), rel=1e-15
    )
    assert erl_quantum(0.0, 1e-6, 0.1) == 0.0


# ---------------------------------------------------------------------------
# spin temperature
# ---------------------------------------------------------------------------

def test_spin_temperature_potassium_floor_example():
    # N = 1e15 atoms with mu = mu_B/6 sitting at a 2e-17 T field floor
    T_s = spin_temperature(1e15, 2e-17, C.mu_B / 6.0)
    assert T_s == pytest.approx(7.080485310600185e-11, rel=1e-12)


def test_spin_temperature_linear_in_field():
    mu = C.mu_B / 6.0
    assert spin_temperature(1e10, 2e-12, mu) == pytest.approx(
        2.0 * spin_temperature(1e10, 1e-12, mu), rel=1e-15
    )


def test_polarization_value():
    # arguments arranged so mu B / (2 k_B T_s) = 0.01
    mu, B = C.mu_B, 1e-9
    T_s = mu * B / (2.0 * C.k_B * 0.01)
    assert spin_temp_polarization(T_s, B, mu) == pytest.approx(
        math.tanh(0.01), rel=1e-14
    )
    assert math.tanh(0.01) == pytest.approx(0.009999666679999287, rel=1e-12)
    assert spin_temp_polarization(T_s, 0.0, mu) == spin_temp_polarization(T_s, B, 0.0) == 0.0


@given(st.floats(1e-12, 1e-3))
def test_polarization_antisymmetric_in_field(B):
    T_s, mu = 1e-6, C.mu_B / 6.0
    assert spin_temp_polarization(T_s, -B, mu) == -spin_temp_polarization(T_s, B, mu)


@given(st.floats(1e-15, 1e-3), st.floats(1e-9, 1e3))
def test_polarization_bounded_by_one(B, T_s):
    # saturates to exactly 1.0 in floats once the argument is large
    assert abs(spin_temp_polarization(T_s, B, C.mu_B)) <= 1.0


def test_polarization_small_argument_cubic_error():
    # |tanh x - x| <= x^3/3; with x = 1/sqrt(N) this is the ensemble form.
    # N stays below ~1e7: past that the inequality's slack is thinner than
    # one ulp of the argument and the strict comparison becomes rounding luck
    for N in (1e2, 1e3, 1e4, 1e5, 1e6):
        x = 1.0 / math.sqrt(N)
        mu, B = C.mu_B / 6.0, 1e-12
        T_s = mu * B * math.sqrt(N) / (2.0 * C.k_B)  # makes the argument x
        pol = spin_temp_polarization(T_s, B, mu)
        assert abs(pol - x) <= x**3 / 3.0


# ---------------------------------------------------------------------------
# domain validation
# ---------------------------------------------------------------------------

# each function with valid arguments
_VALID_CALLS = (
    (measurement_work_bound, (300.0, 1.0)),
    (ml_min_time, (1e-21,)),
    (erl_quantum, (1e-15, 1e-6, 1.0)),
    (field_fluctuation_from_work, (1e-21, 1e-6)),
    (spin_temperature, (1e10, 1e-12, 1e-24)),
    (spin_temp_polarization, (1.0, 1e-12, 1e-24)),
)


def _calls_with(*values):
    """One call per (function and valid args of _VALID_CALLS, position, one of ``values``)."""
    return [
        functools.partial(fn, *args[:i], bad, *args[i + 1:])
        for fn, args in _VALID_CALLS
        for i in range(len(args))
        for bad in values
    ]


def _negated_calls(fn, args, *positions):
    """One call per position, with that argument of the valid ``args`` negated."""
    return [functools.partial(fn, *args[:i], -args[i], *args[i + 1:]) for i in positions]


@pytest.mark.parametrize(
    "call",
    [
        lambda: measurement_work_bound(0.0, 1.0),
        lambda: measurement_work_bound(-1.0, 1.0),
        lambda: measurement_work_bound(300.0, -0.1),
        lambda: ml_min_time(0.0),
        lambda: ml_min_time(-1e-21),
        lambda: erl_quantum(1e-15, 0.0, 1.0),
        lambda: erl_quantum(1e-15, 1e-6, 0.0),
        lambda: erl_quantum(-1e-15, 1e-6, 1.0),
        lambda: field_fluctuation_from_work(-1e-21, 1e-6),
        lambda: field_fluctuation_from_work(1e-21, 0.0),
        lambda: spin_temperature(0.5, 1e-12, 1e-24),
        lambda: spin_temperature(1e10, 0.0, 1e-24),
        lambda: spin_temperature(1e10, 1e-12, 0.0),
        lambda: spin_temp_polarization(0.0, 1e-12, 1e-24),
        # NaN and +-inf in every float parameter, the others valid
        *_calls_with(math.nan, math.inf, -math.inf),
        # a negative value in each positive parameter that the first block
        # tries only at 0 (or, for the atom count, at 0.5)
        *_negated_calls(erl_quantum, (1e-15, 1e-6, 1.0), 1, 2),
        *_negated_calls(field_fluctuation_from_work, (1e-21, 1e-6), 1),
        *_negated_calls(spin_temperature, (1e10, 1e-12, 1e-24), 0, 1, 2),
        *_negated_calls(spin_temp_polarization, (1.0, 1e-12, 1e-24), 0),
        # finite inputs whose result overflows the float range
        lambda: erl_quantum(1e200, 1.0, 1.0),
        lambda: erl_quantum(1.0, 1e300, 1e300),  # in the product, not the square
        lambda: measurement_work_bound(1e300, 1e300),
        lambda: field_fluctuation_from_work(1e308, 1e-320),
        lambda: spin_temperature(1e300, 1e300, 1.0),
        # ... or underflows it to 0 or a subnormal
        lambda: ml_min_time(1e300),
        lambda: erl_quantum(1e-200, 1.0, 1.0),
        lambda: measurement_work_bound(1e-300, 1e-300),
        lambda: field_fluctuation_from_work(1e-320, 1e300),
        lambda: spin_temperature(1.0, 1e-300, 1e-300),
        lambda: spin_temp_polarization(1e300, 1e-300, 1e-300),
        lambda: spin_temp_polarization(1e300, -1e-300, 1e-300),  # to -0.0
        lambda: erl_quantum(1e-15, 1e-300, 1e-300),  # in the product, not the square
        lambda: measurement_work_bound(1e-280, 1e-10),  # subnormal, not 0
        lambda: spin_temp_polarization(1e20, 1e-290, 1e-24),  # subnormal, not 0
        # values that are not numbers in every parameter, the others valid
        *_calls_with("1", None, [1.0]),
    ],
)
def test_rejects_out_of_domain(call):
    with pytest.raises(ValueError, match=r"^[^\n]*$"):  # one line
        call()

"""Quantum-thermodynamic bounds behind the energy resolution limit.

The chain is: measuring a field acquires information, acquiring and
erasing information costs work (Landauer), and delivering that work takes
a minimum time (Margolus-Levitin).  Pushing the three together bounds the
product (dB)^2 V tau / (2 mu_0) — field variance times sensed volume times
measurement time, in units of action — from below by (pi/2) hbar.

Everything here is plain SI floats; see ``erlab.units`` for the boundary
layer that checks dimensions on the way in and the domain of every value.
Each product is formed by ``units._scaled``, which carries the binary
exponent apart from the mantissas, so no intermediate product underflows
or overflows, and only the result is checked, by ``units._checked``.
"""

from __future__ import annotations

import math

from .units import _checked, _scaled, constants, require

__all__ = [
    "THEORETICAL_FLOOR_HBAR",
    "measurement_work_bound",
    "ml_min_time",
    "erl_quantum",
    "field_fluctuation_from_work",
    "spin_temperature",
    "spin_temp_polarization",
]

# universal floor of the energy resolution limit, in units of hbar
THEORETICAL_FLOOR_HBAR = math.pi / 2.0


def measurement_work_bound(temperature_K: float, info_nats: float) -> float:
    """Minimum work to acquire and erase ``info_nats`` of information  [J].

    W >= k_B T * I with the information measured in nats.  Linear in both
    arguments; I = ln 2 is one bit.
    """
    require(temperature_K, "temperature")
    require(info_nats, "information", "non-negative")
    return _checked("work bound", (constants().k_B, temperature_K, info_nats))


def ml_min_time(energy_J: float) -> float:
    """Margolus-Levitin minimum evolution time, tau >= pi hbar / (2 E)  [s]."""
    require(energy_J, "energy")
    return require(math.pi * constants().hbar / (2.0 * energy_J), "minimum time", "a normal float")


def erl_quantum(delta_B_T: float, volume_m3: float, tau_s: float) -> float:
    """Energy resolution of a field estimate, (dB)^2 V tau / (2 mu_0 hbar)  [hbar].

    This is the action-like figure of merit the pi/2 floor applies to.
    ``delta_B_T`` is the standard deviation of the field estimate.
    """
    require(delta_B_T, "field uncertainty", "non-negative")
    require(volume_m3, "volume")
    require(tau_s, "measurement time")
    c = constants()
    return _checked("energy resolution", (delta_B_T, delta_B_T, volume_m3, tau_s), (2.0, c.mu_0, c.hbar))


def field_fluctuation_from_work(work_J: float, volume_m3: float) -> float:
    """Field scale whose energy in ``volume_m3`` equals ``work_J``:  sqrt(2 mu_0 W / V)  [T]."""
    require(work_J, "work", "non-negative")
    require(volume_m3, "volume")
    return _checked("field fluctuation", (2.0, constants().mu_0, work_J), (volume_m3,), root=True)


def spin_temperature(atom_count: float, field_T: float, moment_J_per_T: float) -> float:
    """Effective spin temperature of an N-atom ensemble in field B  [K].

    k_B T_s = mu sqrt(N) B: the thermal energy scale matching the Zeeman
    energy spread of sqrt(N) uncorrelated moments.
    """
    require(atom_count, "atom count", ">= 1")
    require(field_T, "field")
    require(moment_J_per_T, "moment")
    return _checked("spin temperature", (moment_J_per_T, math.sqrt(atom_count), field_T), (constants().k_B,))


def spin_temp_polarization(T_s_K: float, field_T: float, moment_J_per_T: float) -> float:
    """Two-level Boltzmann polarization tanh(mu B / (2 k_B T_s))  [dimensionless].

    Exact for H = -(mu B / 2) sigma_z at temperature T_s; antisymmetric in
    B.  With a spin temperature chosen so that 2 k_B T_s = mu sqrt(N) B the
    argument collapses to 1/sqrt(N): a large ensemble at its own spin
    temperature is barely polarized.
    """
    require(T_s_K, "spin temperature")
    require(field_T, "field", "finite")
    require(moment_J_per_T, "moment", "finite")
    polarization = math.tanh(_scaled((moment_J_per_T, field_T), (2.0, constants().k_B, T_s_K)))
    return require(polarization, "polarization", "a normal float" if field_T and moment_J_per_T else "finite")

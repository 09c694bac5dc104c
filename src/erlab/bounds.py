"""Quantum-thermodynamic bounds behind the energy resolution limit.

The chain is: measuring a field acquires information, acquiring and
erasing information costs work (Landauer), and delivering that work takes
a minimum time (Margolus-Levitin).  Pushing the three together bounds the
product (dB)^2 V tau / (2 mu_0) — field variance times sensed volume times
measurement time, in units of action — from below by (pi/2) hbar.

Everything here is plain SI floats; see ``erlab.units`` for the boundary
layer that checks dimensions on the way in and the domain of every value.
A result that finite inputs overflow or underflow raises ValueError, and
so does a nonzero result reached through a subnormal intermediate product,
which carries fewer than 53 bits for a later factor to scale back up; an
exact 0 from a zero input is valid.  Those products are checked after the
result, so a result out of range keeps its own message.
"""

from __future__ import annotations

import math

from .units import constants, require

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
    thermal_energy = constants().k_B * temperature_K
    work = require(thermal_energy * info_nats, "work bound", "a normal float" if info_nats else "finite")
    if work:  # not an exact 0 from a zero input
        require(thermal_energy, "k_B T", "a normal float")
    return work


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
    try:
        square = delta_B_T**2
    except OverflowError:  # float ** raises where * would give inf
        square = math.inf
    square_V = square * volume_m3
    square_V_tau = square_V * tau_s
    erl = require(square_V_tau / (2.0 * c.mu_0 * c.hbar), "energy resolution",
                  "a normal float" if delta_B_T else "finite")
    if erl:
        for value, name in ((square, "dB^2"), (square_V, "dB^2 V"), (square_V_tau, "dB^2 V tau")):
            require(value, name, "a normal float")
    return erl


def field_fluctuation_from_work(work_J: float, volume_m3: float) -> float:
    """Field scale whose energy in ``volume_m3`` equals ``work_J``:  sqrt(2 mu_0 W / V)  [T]."""
    require(work_J, "work", "non-negative")
    require(volume_m3, "volume")
    numerator = 2.0 * constants().mu_0 * work_J
    square = numerator / volume_m3
    field = require(math.sqrt(square), "field fluctuation", "a normal float" if work_J else "finite")
    if field:
        for value, name in ((numerator, "2 mu_0 W"), (square, "2 mu_0 W / V")):
            require(value, name, "a normal float")
    return field


def spin_temperature(atom_count: float, field_T: float, moment_J_per_T: float) -> float:
    """Effective spin temperature of an N-atom ensemble in field B  [K].

    k_B T_s = mu sqrt(N) B: the thermal energy scale matching the Zeeman
    energy spread of sqrt(N) uncorrelated moments.
    """
    require(atom_count, "atom count", ">= 1")
    require(field_T, "field")
    require(moment_J_per_T, "moment")
    collective = moment_J_per_T * math.sqrt(atom_count)
    energy = collective * field_T
    T_s = require(energy / constants().k_B, "spin temperature", "a normal float")
    for value, name in ((collective, "mu sqrt(N)"), (energy, "mu sqrt(N) B")):
        require(value, name, "a normal float")
    return T_s


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
    thermal_energy = require(2.0 * constants().k_B * T_s_K, "thermal energy 2 k_B T_s")
    zeeman = moment_J_per_T * field_T
    polarization = math.tanh(zeeman / thermal_energy)
    require(polarization, "polarization", "a normal float" if field_T and moment_J_per_T else "finite")
    if polarization:
        require(thermal_energy, "thermal energy 2 k_B T_s", "a normal float")
        if zeeman not in (math.inf, -math.inf):  # an infinite mu B gives exactly +-1
            require(zeeman, "mu B", "a normal float")
    return polarization

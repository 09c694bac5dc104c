"""Energy-resolution limits for magnetometers, with a spin-noise Monte Carlo.

The package computes the quantum-thermodynamic floor on magnetic-field
sensing — the smallest field-energy-per-relaxation-time, in units of
``hbar``, that a sensor of a given physical type can reach — and checks
it against published device performance.  Submodules:

``units``
    The frozen physical constants and the unit-suffix parser for inputs.
``species``
    Alkali-atom data (nuclear spin, mass, spin-destruction cross section)
    and the kinetic helpers built on them.
``bounds``
    Sensor-independent bounds: work cost of information, minimum
    evolution time, the ``pi/2`` floor, and spin-temperature relations.
``sensors``
    Per-technology evaluations (vapor cell, SQUID, diamond) and the
    published-record comparison.
``spinsim``
    Monte Carlo simulator for the transient spin-noise variance, with a
    closed-form reference solution.
``report`` / ``cli``
    Rendering and the ``erlab`` command-line tool.
"""

from .bounds import (
    THEORETICAL_FLOOR_HBAR,
    energy_exchange_std,
    erl_quantum,
    field_fluctuation_from_work,
    magnetic_energy_density,
    measurement_work_bound,
    ml_min_time,
    spin_temp_polarization,
    spin_temperature,
    squeezed_erl,
)
from .sensors import (
    AtomicErlReport,
    ComparisonRow,
    PublishedRecord,
    SquidSpec,
    VaporCell,
    atomic_floor,
    atomic_psd,
    compare_published,
    default_published_records,
    diamond_erl,
    invert_sigma_v,
    load_published_records,
    measured_erl_from_psd,
    squid_erl,
)
from .species import (
    Species,
    SpeciesCatalog,
    default_catalog,
    load_catalog,
    magnetic_moment,
    mean_relative_velocity,
    sd_relaxation_time,
    slowing_factor,
)
from .spinsim import (
    SimConfig,
    SimResult,
    analytic_variance,
    simulate_transient,
    uncertainty_estimate,
)
from .units import DimensionError, Quantity, constants, parse_quantity

__version__ = "0.1.0"

__all__ = [
    "AtomicErlReport",
    "ComparisonRow",
    "DimensionError",
    "PublishedRecord",
    "Quantity",
    "SimConfig",
    "SimResult",
    "Species",
    "SpeciesCatalog",
    "SquidSpec",
    "THEORETICAL_FLOOR_HBAR",
    "VaporCell",
    "analytic_variance",
    "atomic_floor",
    "atomic_psd",
    "compare_published",
    "constants",
    "default_catalog",
    "default_published_records",
    "diamond_erl",
    "energy_exchange_std",
    "erl_quantum",
    "field_fluctuation_from_work",
    "invert_sigma_v",
    "load_catalog",
    "load_published_records",
    "magnetic_energy_density",
    "magnetic_moment",
    "mean_relative_velocity",
    "measured_erl_from_psd",
    "measurement_work_bound",
    "ml_min_time",
    "parse_quantity",
    "sd_relaxation_time",
    "simulate_transient",
    "slowing_factor",
    "spin_temp_polarization",
    "spin_temperature",
    "squeezed_erl",
    "squid_erl",
    "uncertainty_estimate",
]

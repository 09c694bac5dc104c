"""Energy-resolution limits for magnetometers, with a spin-noise Monte Carlo.

The package computes the quantum-thermodynamic floor on magnetic-field
sensing — the smallest field-energy-per-relaxation-time, in units of
``hbar``, that a sensor of a given physical type can reach — and checks
it against published device performance.  Each public name is imported
from its submodule (``from erlab.sensors import atomic_floor``); the
package itself exports only ``__version__``.  Submodules:

``units``
    The frozen physical constants and the unit-suffix parser for inputs.
``species``
    Alkali-atom data (nuclear spin, mass, spin-destruction cross section)
    and the kinetic helpers built on them.
``bounds``
    Sensor-independent bounds: work cost of information, minimum
    evolution time, the ``pi/2`` floor, and spin-temperature relations.
``sensors`` / ``atomic_report``
    Per-technology evaluations (vapor cell, SQUID, diamond), the
    published-record comparison, and the vapor floor's report.
``spinsim``
    Monte Carlo simulator for the transient spin-noise variance, with a
    closed-form reference solution; the only submodule that needs numpy.
``report`` / ``cli``
    Rendering and the ``erlab`` command-line tool.
"""

__version__ = "0.1.0"

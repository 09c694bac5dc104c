"""``sensors.atomic_floor``'s result, erlab's one dataclass (``perfbench/oracles.py`` reads it with
``dataclasses.asdict``), in a module of its own: ``atomic_floor`` imports it in its body, so only
``atomic`` and ``table1`` load ``dataclasses`` and the ``inspect``, ``ast`` and ``dis`` it imports."""

from dataclasses import dataclass

__all__ = ["AtomicErlReport"]


@dataclass(frozen=True)
class AtomicErlReport:
    """Everything the vapor floor model derives for one cell (SI units)."""

    atom_count: float
    relaxation_time: float              # s
    delta_B_floor: float                # T
    erl_hbar: float                     # units of hbar
    kappa: float                        # with the 3 pi / (4 ln 2) prefactor
    kappa_bare: float                   # hbar sigma_sd v_bar / (mu_0 mu^2)
    spin_temperature: float             # K, evaluated at B = delta_B_floor
    correlation_atoms: float            # N_c
    correlation_volume: float           # m^3
    collision_time: float               # s
    sd_phase: float                     # phi
    delta_B_uncertainty_check: float    # T, collective-spin uncertainty route
    psd: float                          # T/sqrt(Hz)

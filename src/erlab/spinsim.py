"""Monte Carlo simulation of the relaxation-transient spin-noise process.

The collective longitudinal spin of an N-atom ensemble, rescaled to
X = <sigma_z>, obeys the driftless Ito process

    dX_t = (1 - e^(-t/tau)) dxi_t,      X_0 = 0,

where dxi is Gaussian white noise of variance dt / (N tau): the noise is
fully developed only once the transverse coherence envelope e^(-t/tau) has
decayed.  Because the diffusion coefficient is state-independent, X_t is
exactly Gaussian with variance

    Var X_t = (1/N) * [h - a - a^2/2],   a = 1 - e^(-h),  h = t/tau,

(equivalently (1/N)[h + 2 e^(-h) - e^(-2h)/2 - 3/2]), which is the
analytic oracle the simulator is verified against.  At h = 1 the variance
is 0.168091/N, i.e. an uncertainty of 0.410/sqrt(N).

Determinism contract: trajectory i draws from a Philox counter block that
depends only on (seed, i) -- the stream of Philox(key=seed,
counter=i * 2^128) -- so results are bit-identical across runs, worker
counts, block and buffer sizes, and trajectory-count extensions (a longer
run reproduces a shorter run's trajectories exactly).

Each block of trajectories builds one Philox generator keyed by the seed
and reaches trajectory i's substream by resetting its state.  The state is
a dict of plain ints, because numpy's setter reads those about twice as
fast as the ndarrays that ``bitgen.state`` returns: a reset took 0.75 us
instead of 1.5-1.8 us (Intel Xeon, Python 3.11, numpy 2.4).  Draws fill
the rows of a buffer of at most _ROW_BUFFER float64 values, which is
weighted and reduced row by row in one call.  Threads run blocks only for
trajectories of at least _THREAD_MIN_STEPS steps, since each reset holds
the GIL and shorter trajectories ran slower on two threads than on one;
the pool is capped at the usable CPU count.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .report import csv_text
from .units import require

__all__ = [
    "SimConfig",
    "SimResult",
    "TrajectorySample",
    "simulate_transient",
    "analytic_variance",
    "scheme_variance",
    "uncertainty_estimate",
    "result_to_json",
    "write_trajectory_csv",
    "MAX_ARRAY_LENGTH",
]

_MAX_SEED = 2**64
_CHUNK = 4096  # trajectories per work unit; results do not depend on this
_ROW_BUFFER = 2**14  # float64 draws buffered per fill (128 KiB); nor on this
# below this step count blocks run serially whatever ``workers`` is: each
# trajectory's state reset holds the GIL, and on 2 cores two threads ran
# slower than one up to about 550 steps and 1.2-1.3x faster at 600
_THREAD_MIN_STEPS = 600
# memory budget, checked before allocating: float64 values (128 MiB) in any one
# array, of trajectory count, step count or sample count x step count values
MAX_ARRAY_LENGTH = 2**24


def _within_budget(what: str, count) -> None:
    if count > MAX_ARRAY_LENGTH:
        raise ValueError(f"{what} must be at most {MAX_ARRAY_LENGTH} (memory budget), got {count}")


@dataclass(frozen=True)
class SimConfig:
    """Simulation parameters.

    ``horizon`` is the integration endpoint in units of tau; ``steps_per_tau``
    sets the finest time step dt = tau / steps_per_tau (the actual step is
    shrunk so the horizon is hit exactly).  ``trajectory_count`` and
    ``step_count`` are each at most MAX_ARRAY_LENGTH, the memory budget.
    """

    atom_count: float
    relaxation_time: float
    trajectory_count: int
    steps_per_tau: int = 100
    horizon: float = 1.0
    seed: int = 0

    def __post_init__(self):
        require(self.atom_count, "atom count", ">= 1")
        require(self.relaxation_time, "relaxation time")
        if not isinstance(self.trajectory_count, int) or self.trajectory_count < 1:
            raise ValueError(f"trajectory count must be an integer >= 1, got {self.trajectory_count}")
        if not isinstance(self.steps_per_tau, int) or self.steps_per_tau < 10:
            raise ValueError(f"steps_per_tau must be an integer >= 10, got {self.steps_per_tau}")
        require(self.horizon, "horizon", "non-negative")
        if not isinstance(self.seed, int) or not 0 <= self.seed < _MAX_SEED:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        _within_budget("trajectory count", self.trajectory_count)
        try:
            _within_budget("step count", self.step_count)
        except OverflowError:  # horizon * steps_per_tau is past the float range
            _within_budget("step count", math.inf)

    @property
    def step_count(self) -> int:
        if self.horizon == 0:
            return 0
        return math.ceil(self.horizon * self.steps_per_tau - 1e-12)

    def config_echo(self) -> dict:
        return {
            "atom_count": self.atom_count,
            "relaxation_time_s": self.relaxation_time,
            "trajectory_count": self.trajectory_count,
            "steps_per_tau": self.steps_per_tau,
            "horizon_in_tau": self.horizon,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class TrajectorySample:
    index: int
    t_over_tau: np.ndarray  # includes t = 0
    values: np.ndarray


@dataclass(frozen=True)
class SimResult:
    variance_at_horizon: float
    mean_over_trajectories: float
    standard_error: float           # of the mean: sample std / sqrt(M)
    variance_standard_error: float  # of the variance: var * sqrt(2/(M-1))
    trajectory_sample: tuple[TrajectorySample, ...] = ()


def analytic_variance(atom_count: float, horizon_in_tau: float) -> float:
    """Exact ensemble variance of X at t = horizon * tau.

    Closed form (1/N)[h + 2 e^(-h) - e^(-2h)/2 - 3/2], evaluated in the
    cancellation-free arrangement h - a - a^2/2 with a = 1 - e^(-h).
    """
    require(atom_count, "atom count", ">= 1")
    require(horizon_in_tau, "horizon", "non-negative")
    a = -math.expm1(-horizon_in_tau)
    return (horizon_in_tau - a - a * a / 2.0) / atom_count


def uncertainty_estimate(atom_count: float) -> float:
    """One-relaxation-time spin-noise uncertainty sqrt(Var X_tau) = 0.410/sqrt(N)."""
    return math.sqrt(analytic_variance(atom_count, 1.0))


def _envelope(config: SimConfig) -> tuple[np.ndarray, float]:
    """Midpoint-sampled noise coefficients and per-step scale factor.

    The increment over step k is c_k * sqrt(dt/(N tau)) * g_k with the
    coefficient c = 1 - e^(-t/tau) evaluated at the step midpoint
    (midpoint quadrature of the variance integrand; tau cancels once time
    is measured in units of tau).
    """
    steps = config.step_count
    if steps == 0:
        return np.empty(0), 0.0
    du = config.horizon / steps
    midpoints = (np.arange(steps) + 0.5) * du
    coeff = -np.expm1(-midpoints)
    scale = math.sqrt(du / config.atom_count)
    return coeff, scale


def scheme_variance(config: SimConfig) -> float:
    """Exact ensemble variance of the discretized scheme.

    The scheme is a weighted sum of independent Gaussians, so its variance
    is the midpoint-quadrature approximation of the analytic integral:
    sum_k c_k^2 dt/(N tau).  Useful for checking that step refinement does
    not drift.
    """
    coeff, scale = _envelope(config)
    return float(np.sum(coeff * coeff)) * scale * scale


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # sched_getaffinity is not on every platform
        return os.cpu_count() or 1


def simulate_transient(
    config: SimConfig,
    workers: int = 1,
    sample_indices: tuple[int, ...] = (),
) -> SimResult:
    """Run the ensemble and return variance/mean statistics at the horizon.

    ``workers`` parallelizes trajectory batches without changing any
    output bit; it is capped at the usable CPU count and the number of
    batches, and trajectories of fewer than _THREAD_MIN_STEPS steps run on
    one thread.  ``sample_indices`` selects trajectories whose full time
    series is attached to the result (for dumping/plotting), up to
    MAX_ARRAY_LENGTH values in all.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    M = config.trajectory_count
    for idx in sample_indices:
        if not 0 <= idx < M:
            raise ValueError(f"sample index {idx} outside [0, {M})")
    steps = config.step_count
    _within_budget("sample count x step count", len(sample_indices) * steps)

    coeff, scale = _envelope(config)
    horizon_values = np.zeros(M)
    samples: dict[int, TrajectorySample] = {}
    sample_set = frozenset(sample_indices)

    def run_block(start: int, stop: int) -> None:
        if steps == 0:
            for i in sample_set.intersection(range(start, stop)):
                samples[i] = TrajectorySample(i, np.zeros(1), np.zeros(1))
            return
        # Trajectory i owns the Philox counter block [i * 2^128, (i+1) * 2^128)
        # under the master seed as key.  Resetting one generator's state to
        # that counter with an empty output buffer yields exactly the stream
        # of a fresh Philox(key=seed, counter=i << 128).  The state is
        # bitgen.state with each array as a list of plain ints, which the
        # setter reads faster (see the module docstring); the key is
        # [seed, 0] as seed < 2^64.
        bitgen = np.random.Philox(key=config.seed)
        gen = np.random.Generator(bitgen)
        counter = [0, 0, 0, 0]
        state = {
            "bit_generator": "Philox",
            "state": {"counter": counter, "key": [config.seed, 0]},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,  # output buffer empty
            "has_uint32": 0,
            "uinteger": 0,
        }
        fill = max(1, _ROW_BUFFER // steps)
        buf = np.empty((min(fill, stop - start), steps))
        for lo in range(start, stop, fill):
            hi = min(lo + fill, stop)
            rows = buf[: hi - lo]
            for j, i in enumerate(range(lo, hi)):
                # i < MAX_ARRAY_LENGTH = 2^24, so i fits counter word 2 and word 3 stays 0
                counter[2] = i
                bitgen.state = state
                gen.standard_normal(out=rows[j])
            np.multiply(rows, coeff, out=rows)
            # a row-wise sum is the same pairwise summation as np.sum of each
            # row alone, so the bits do not depend on how rows are grouped
            horizon_values[lo:hi] = scale * np.sum(rows, axis=1)
            for i in sample_set.intersection(range(lo, hi)):
                du = config.horizon / steps
                t = np.concatenate([[0.0], (np.arange(steps) + 1.0) * du])
                path = np.concatenate([[0.0], scale * np.cumsum(rows[i - lo])])
                samples[i] = TrajectorySample(i, t, path)

    blocks = [(lo, min(lo + _CHUNK, M)) for lo in range(0, M, _CHUNK)]
    # the reset holds the GIL, so threads beyond the usable cores only contend
    workers = min(workers, _usable_cpus(), len(blocks))
    if workers == 1 or steps < _THREAD_MIN_STEPS:
        for lo, hi in blocks:
            run_block(lo, hi)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(lambda b: run_block(*b), blocks))

    mean = float(horizon_values.mean())
    if M > 1:
        variance = float(horizon_values.var(ddof=1))
        std_error = math.sqrt(variance / M)
        variance_std_error = variance * math.sqrt(2.0 / (M - 1))
    else:
        variance = 0.0
        std_error = 0.0
        variance_std_error = 0.0

    return SimResult(
        variance_at_horizon=variance,
        mean_over_trajectories=mean,
        standard_error=std_error,
        variance_standard_error=variance_std_error,
        trajectory_sample=tuple(samples[i] for i in sorted(sample_set)),
    )


def result_to_json(result: SimResult, config: SimConfig) -> str:
    """Canonical JSON emission (sorted keys, no whitespace, newline-terminated).

    The canonical form makes determinism testable byte-for-byte; trajectory
    samples are dumped separately as CSV, not embedded here.
    """
    doc = {
        "variance": result.variance_at_horizon,
        "std_error": result.standard_error,
        "mean": result.mean_over_trajectories,
        "config_echo": config.config_echo(),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def write_trajectory_csv(sample: TrajectorySample, path: str | Path) -> None:
    """One trajectory as CSV with columns t_over_tau,value."""
    # Python floats, so csv writes their repr; lazily, as lists would raise peak memory
    rows = zip(map(float, sample.t_over_tau), map(float, sample.values))
    Path(path).write_text(csv_text(("t_over_tau", "value"), rows), encoding="utf-8")

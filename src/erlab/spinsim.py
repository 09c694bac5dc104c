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
counts, buffer sizes, a missing ``os.fork``, and trajectory-count
extensions (a longer run reproduces a shorter run's trajectories exactly).
Its executable statement is the property test
``test_the_determinism_contract`` in ``tests/test_spinsim.py``: whatever
those are, the mean and variance at the horizon, and every path that
``trajectory_path`` draws, equal bit for bit those of a fresh
Philox(key=seed, counter=i << 128) per trajectory.

``_drawer`` builds one Philox generator keyed by the seed, a run's before it
forks, and resets its state per trajectory.  The state is a dict of plain
ints, because numpy's setter reads those about twice as fast as the ndarrays
that ``bitgen.state`` returns: a reset took 0.75 us instead of 1.5-1.8 us
(Intel Xeon, Python 3.11, numpy 2.4).  Draws fill the rows of a buffer of at
most _ROW_BUFFER float64 values, which is weighted and reduced row by row in
one call; the trajectories of one fill are the work unit.
With ``workers`` > 1 the units are dealt round-robin to forked worker
processes, which write their horizon values into one anonymous mapping
shared with this process; processes, not threads, because each reset holds
the GIL.  The statistics are computed in that mapping in place, so a run's
peak memory is one array of horizon values plus the 128 KiB row buffer.
The run keeps no path: ``trajectory_path`` draws one trajectory's path
alone from its own counter block, and ``write_trajectory_csv`` streams it
row by row to its file, so a dump needs a constant amount of memory beyond
that one path.
"""

from __future__ import annotations

import math
import mmap
import operator
import os
import signal
import threading
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .units import brief, require

__all__ = [
    "SimConfig",
    "SimResult",
    "simulate_transient",
    "trajectory_path",
    "analytic_variance",
    "scheme_variance",
    "uncertainty_estimate",
    "result_to_json",
    "write_trajectory_csv",
    "usable_cpus",
    "MAX_ARRAY_LENGTH",
]

_MAX_SEED = 2**64
_ROW_BUFFER = 2**14  # float64 draws per fill (128 KiB), one work unit; results do not depend on it
# memory budget, checked before allocating: float64 values (128 MiB) in any one
# array, of trajectory count or step count values; the peak of a run is one array
# of horizon values plus the 128 KiB row buffer
MAX_ARRAY_LENGTH = 2**24
# a cgroup CPU quota caps usable_cpus: each entry is the files whose text, joined,
# reads "<quota> <period>"; cgroup v2 has one file, v1 two
_CPU_QUOTA_FILES = (
    ("/sys/fs/cgroup/cpu.max",),
    ("/sys/fs/cgroup/cpu/cpu.cfs_quota_us", "/sys/fs/cgroup/cpu/cpu.cfs_period_us"),
)


def _within_budget(what: str, count) -> None:
    if count > MAX_ARRAY_LENGTH:
        raise ValueError(f"{what} must be at most {MAX_ARRAY_LENGTH} (memory budget), got {brief(count)}")


class _SimConfigFields(NamedTuple):
    atom_count: float
    relaxation_time: float
    trajectory_count: int
    steps_per_tau: int
    horizon: float
    seed: int


class SimConfig(_SimConfigFields):
    """Simulation parameters, a tuple whose constructor, ``_make`` and ``_replace`` check them.

    ``horizon`` is the integration endpoint in units of tau; ``steps_per_tau``
    sets the finest time step dt = tau / steps_per_tau (the actual step is
    shrunk so the horizon is hit exactly).  ``trajectory_count`` and
    ``step_count`` are each at most MAX_ARRAY_LENGTH, the memory budget.
    The integer fields take a numpy integer too, and store it as an int.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace checks too

    def __new__(cls, atom_count, relaxation_time, trajectory_count, steps_per_tau=100, horizon=1.0, seed=0):
        require(atom_count, "atom count", ">= 1")
        require(relaxation_time, "relaxation time")
        trajectory_count = _as_int(trajectory_count, lambda n: n >= 1,
                                   f"trajectory count must be an integer >= 1, got {brief(trajectory_count)}")
        steps_per_tau = _as_int(steps_per_tau, lambda n: n >= 10,
                                f"steps_per_tau must be an integer >= 10, got {brief(steps_per_tau)}")
        require(horizon, "horizon", "non-negative")
        seed = _as_int(seed, lambda n: 0 <= n < _MAX_SEED,
                       f"seed must be a 64-bit unsigned integer, got {brief(seed)}")
        self = super().__new__(cls, atom_count, relaxation_time, trajectory_count, steps_per_tau, horizon, seed)
        _within_budget("trajectory count", self.trajectory_count)
        try:
            _within_budget("step count", self.step_count)
        except OverflowError:  # horizon * steps_per_tau is past the float range
            _within_budget("step count", math.inf)
        return self

    @property
    def step_count(self) -> int:
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


class SimResult(NamedTuple):
    variance_at_horizon: float
    mean_over_trajectories: float
    standard_error: float           # of the mean: sample std / sqrt(M)
    variance_standard_error: float  # of the variance: var * sqrt(2/(M-1))


# the Taylor coefficients (-1)^n (2^n - 2) / (n+1)! of N Var, n = 19 down to 2
_VARIANCE_SERIES = tuple((-1) ** n * (2**n - 2) / math.factorial(n + 1) for n in range(19, 1, -1))


def analytic_variance(atom_count: float, horizon_in_tau: float) -> float:
    """Exact ensemble variance of X at t = horizon * tau.

    Closed form (1/N)[h + 2 e^(-h) - e^(-2h)/2 - 3/2].  From h = 1/2 it is
    evaluated as h - a - a^2/2 with a = 1 - e^(-h).  Below, where h - a and
    a^2/2 cancel to h^3/3 and the relative error of that form grows like
    eps/h^2, it is the Taylor series sum_{n>=2} (-1)^n (2^n - 2) h^(n+1) / (n+1)!
    = h^3/3 - h^4/4 + 7h^5/60 - ..., summed to n = 19 by Horner's rule.
    """
    require(atom_count, "atom count", ">= 1")
    h = require(horizon_in_tau, "horizon", "non-negative")
    if h < 0.5:
        total = 0.0
        for coefficient in _VARIANCE_SERIES:
            total = total * h + coefficient
        return total * h**3 / atom_count
    a = -math.expm1(-h)
    return (h - a - a * a / 2.0) / atom_count


def uncertainty_estimate(atom_count: float) -> float:
    """One-relaxation-time spin-noise uncertainty sqrt(Var X_tau) = 0.410/sqrt(N)."""
    return math.sqrt(analytic_variance(atom_count, 1.0))


def _envelope(config: SimConfig) -> tuple[np.ndarray, float, float]:
    """Midpoint-sampled noise coefficients, per-step scale factor and step du.

    The increment over step k is c_k * sqrt(du/N) * g_k with the coefficient
    c = 1 - e^(-u) evaluated at the step midpoint u (midpoint quadrature of
    the variance integrand), where u = t/tau and du = dt/tau, a float
    whatever number the horizon is.
    """
    steps = config.step_count
    du = float(config.horizon) / steps if steps else 0.0
    midpoints = (np.arange(steps) + 0.5) * du
    coeff = -np.expm1(-midpoints)
    scale = math.sqrt(du / config.atom_count)
    return coeff, scale, du


def scheme_variance(config: SimConfig) -> float:
    """Exact ensemble variance of the discretized scheme.

    The scheme is a weighted sum of independent Gaussians, so its variance
    is the midpoint-quadrature approximation of the analytic integral:
    sum_k c_k^2 dt/(N tau).  Useful for checking that step refinement does
    not drift.
    """
    coeff, scale, _ = _envelope(config)
    return float(np.sum(coeff * coeff)) * scale * scale


def _cpu_quota() -> int | None:
    """This process's cgroup CPU quota in whole CPUs, ceil(quota / period),
    or None where none is set ("max", -1), or no file is there or parses."""
    for files in _CPU_QUOTA_FILES:
        try:
            text = " ".join(Path(f).read_text() for f in files)
            quota, period = (int(field) for field in text.split())
        except (OSError, ValueError):  # no such file, "max", or not two integers
            continue
        if quota > 0 and period > 0:
            return -(-quota // period)
    return None


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform has
    one, capped at its cgroup CPU quota where one is set."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # sched_getaffinity is not on every platform
        cpus = os.cpu_count() or 1
    quota = _cpu_quota()
    return cpus if quota is None else min(cpus, quota)


def _as_int(value, valid, message: str) -> int:
    """``value`` as a plain int (numpy integers too, not a bool) if
    ``valid`` holds for it; otherwise ValueError(message)."""
    if isinstance(value, bool):
        raise ValueError(message)
    try:
        n = operator.index(value)
    except TypeError:
        raise ValueError(message) from None
    if not valid(n):
        raise ValueError(message)
    return n


def _worker_count(workers) -> int:
    """``workers`` as a plain int if it is an integer >= 1, else ValueError."""
    return _as_int(workers, lambda n: n >= 1, f"workers must be an integer >= 1, got {brief(workers, repr)}")


def _sample_index(config: SimConfig, index) -> int:
    """``index`` as a plain int if it is an integer in [0, trajectory_count),
    else ValueError."""
    M = config.trajectory_count
    message = f"sample index {brief(index, repr)} is not an integer in [0, {M})"
    return _as_int(index, lambda n: 0 <= n < M, message)


def _drawer(config: SimConfig):
    """``draw(lo, rows)``, which fills row j of ``rows`` with trajectory lo + j's
    draws weighted by the envelope, and the per-step ``scale``."""
    coeff, scale, _ = _envelope(config)
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

    def draw(lo: int, rows: np.ndarray) -> None:
        for j, row in enumerate(rows):
            counter[2] = lo + j  # < MAX_ARRAY_LENGTH = 2^24, so it fits word 2 and word 3 stays 0
            bitgen.state = state
            gen.standard_normal(out=row)
        np.multiply(rows, coeff, out=rows)

    return draw, scale


def simulate_transient(config: SimConfig, workers: int = 1) -> SimResult:
    """Run the ensemble and return variance/mean statistics at the horizon.

    ``workers`` runs the work units, the trajectories of one row-buffer
    fill, on that many processes, this one and ``workers`` - 1 forked from
    it, without changing any output bit; it is capped at the usable CPU count
    and the number of units.  Units run serially where ``os.fork`` is
    missing or this process runs another thread, as a fork copies only the
    calling thread.  A worker that fails raises ChildProcessError, and no
    worker outlives the call.  The run keeps no trajectory's path;
    ``trajectory_path`` draws one.
    """
    M = config.trajectory_count
    workers = _worker_count(workers)
    steps = config.step_count

    # one zero-filled anonymous mapping, shared with the workers forked below,
    # which write their units' values straight into it
    horizon_values = np.frombuffer(mmap.mmap(-1, 8 * M), dtype=np.float64)

    if steps:  # with no steps every horizon value is 0
        # a work unit is the trajectories that fill the row buffer once
        fill = max(1, _ROW_BUFFER // steps)
        units = range(0, M, fill)
        # beyond the usable cores, worker processes only contend
        can_fork = hasattr(os, "fork") and threading.active_count() == 1  # see the docstring
        workers = min(workers, usable_cpus(), len(units)) if can_fork else 1
        draw, scale = _drawer(config)
        buf = np.empty((min(fill, M), steps))

        def work(w: int) -> None:
            for lo in units[w::workers]:
                hi = min(lo + fill, M)
                rows = buf[: hi - lo]
                draw(lo, rows)
                # a row-wise sum is the same pairwise summation as np.sum of each
                # row alone, so the bits do not depend on how rows are grouped
                horizon_values[lo:hi] = scale * np.sum(rows, axis=1)

        _run_workers(workers, work)

    mean = float(horizon_values.mean())
    if M > 1:
        # np.var(ddof=1)'s own operations, so the same bits, but on the horizon
        # values themselves: nothing reads them again, and no second array of
        # M values is allocated
        np.subtract(horizon_values, mean, out=horizon_values)
        np.square(horizon_values, out=horizon_values)
        variance = float(np.add.reduce(horizon_values) / (M - 1))
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
    )


def trajectory_path(config: SimConfig, index: int) -> np.ndarray:
    """Trajectory ``index``'s values at t/tau = 0, du, ..., horizon: 0.0, then
    the running sum of its weighted draws, which ``_drawer`` draws as
    ``simulate_transient`` does.  ``index`` is an integer in
    [0, trajectory_count), a numpy integer too."""
    i = _sample_index(config, index)
    draw, scale = _drawer(config)
    weighted = np.empty((1, config.step_count))
    draw(i, weighted)
    return np.concatenate([[0.0], scale * np.cumsum(weighted[0])])


def _run_workers(workers: int, work) -> None:
    """Call ``work(w)`` in worker w for each w in range(``workers``): this
    process is worker 0 and forks the others; one worker forks nothing.
    ``work`` writes into memory shared with the forked workers, so a worker
    sends nothing back and the parent learns its outcome from its exit status
    alone.  A forked worker leaves by ``os._exit``, with status 0 once ``work``
    returns and 1 on an exception, never returning to the caller (nor flushing
    the parent's buffers a second time).  Every forked worker is reaped before
    this returns or raises."""
    children: list[int] = []
    done = False
    try:
        for w in range(1, workers):
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    work(w)
                    code = 0
                finally:
                    os._exit(code)
            children.append(pid)
        work(0)
        done = True
    finally:
        if not done:  # stop the other workers rather than wait for them
            for pid in children:
                os.kill(pid, signal.SIGKILL)
        statuses = [os.waitpid(pid, 0) for pid in children]
    for pid, status in statuses:
        if status:
            code = os.waitstatus_to_exitcode(status)
            raise ChildProcessError(f"worker process {pid} ended with exit status {code}")


def result_to_json(result: SimResult, config: SimConfig) -> str:
    """Canonical JSON emission (sorted keys, no whitespace, newline-terminated).

    The canonical form makes determinism testable byte-for-byte; trajectory
    paths are dumped separately as CSV, not embedded here.  A config number
    JSON has no type for (a Fraction, say) is written as its float.
    """
    import json

    doc = {
        "variance": result.variance_at_horizon,
        "std_error": result.standard_error,
        "mean": result.mean_over_trajectories,
        "config_echo": config.config_echo(),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False, default=float) + "\n"


def write_trajectory_csv(config: SimConfig, index: int, path: str | Path) -> None:
    """Trajectory ``index`` of ``config`` as CSV with columns t_over_tau,value,
    streamed to ``path`` row by row, so the memory beyond the trajectory's own
    path does not grow with the step count.  An invalid ``index`` raises
    ValueError before ``path`` is opened."""
    from .report import write_csv

    du = _envelope(config)[2]  # first, so its coefficients are freed before the path is drawn
    values = trajectory_path(config, index)
    t = np.arange(values.size) * du
    # Python floats, so csv writes their repr; lazily, as lists would raise peak
    # memory.  Text mode with the default newline handling, as for every output.
    rows = zip(map(float, t), map(float, values))
    with open(path, "w", encoding="utf-8") as stream:
        write_csv(stream, ("t_over_tau", "value"), rows)

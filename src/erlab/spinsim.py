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
counts, block and buffer sizes, a missing ``os.fork``, and trajectory-count
extensions (a longer run reproduces a shorter run's trajectories exactly).
Its executable statement is the property test
``test_the_determinism_contract`` in ``tests/test_spinsim.py``: whatever
those are, the mean and variance at the horizon, and every sampled path,
equal bit for bit those of a fresh Philox(key=seed, counter=i << 128) per
trajectory.

Each block of trajectories builds one Philox generator keyed by the seed
and reaches trajectory i's substream by resetting its state.  The state is
a dict of plain ints, because numpy's setter reads those about twice as
fast as the ndarrays that ``bitgen.state`` returns: a reset took 0.75 us
instead of 1.5-1.8 us (Intel Xeon, Python 3.11, numpy 2.4).  Draws fill
the rows of a buffer of at most _ROW_BUFFER float64 values, which is
weighted and reduced row by row in one call.  With ``workers`` > 1 the
blocks are shared out among forked worker processes, which pipe their
horizon values back; processes, not threads, because each reset holds
the GIL.  Sampled paths are redrawn afterwards from their own counters.
A dump streams its rows straight to its file, so writing one needs a
constant amount of memory beyond the sampled path itself.
"""

from __future__ import annotations

import json
import math
import operator
import os
import signal
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .report import write_csv
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
    "usable_cpus",
    "MAX_ARRAY_LENGTH",
]

_MAX_SEED = 2**64
_CHUNK = 4096  # trajectories per work unit; results do not depend on this
_ROW_BUFFER = 2**14  # float64 draws buffered per fill (128 KiB); nor on this
# memory budget, checked before allocating: float64 values (128 MiB) in any one
# array, of trajectory count, step count or sample count x step count values
MAX_ARRAY_LENGTH = 2**24
# a cgroup CPU quota caps usable_cpus: each entry is the files whose text, joined,
# reads "<quota> <period>"; cgroup v2 has one file, v1 two
_CPU_QUOTA_FILES = (
    ("/sys/fs/cgroup/cpu.max",),
    ("/sys/fs/cgroup/cpu/cpu.cfs_quota_us", "/sys/fs/cgroup/cpu/cpu.cfs_period_us"),
)


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
        if type(self.trajectory_count) is not int or self.trajectory_count < 1:
            raise ValueError(f"trajectory count must be an integer >= 1, got {self.trajectory_count}")
        if type(self.steps_per_tau) is not int or self.steps_per_tau < 10:
            raise ValueError(f"steps_per_tau must be an integer >= 10, got {self.steps_per_tau}")
        require(self.horizon, "horizon", "non-negative")
        if type(self.seed) is not int or not 0 <= self.seed < _MAX_SEED:
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


def simulate_transient(
    config: SimConfig,
    workers: int = 1,
    sample_indices: tuple[int, ...] = (),
) -> SimResult:
    """Run the ensemble and return variance/mean statistics at the horizon.

    ``workers`` runs trajectory blocks on that many processes, this one and
    ``workers`` - 1 forked from it, without changing any output bit; it is
    capped at the usable CPU count and the number of blocks, and blocks run
    serially where ``os.fork`` is missing.  A worker that fails raises
    ChildProcessError, and no worker outlives the call.  The default of 1
    forks nothing, as a fork copies only the calling thread; ask for more
    where no other thread of this process holds a lock.  ``sample_indices``
    selects trajectories whose full time series is attached to the result
    (for dumping/plotting), up to MAX_ARRAY_LENGTH values in all.
    """
    M = config.trajectory_count
    workers = _as_int(workers, lambda n: n >= 1, f"workers must be an integer >= 1, got {workers!r}")
    # plain ints, as the counter i << 128 below needs one
    sample_indices = [
        _as_int(idx, lambda i: 0 <= i < M, f"sample index {idx!r} is not an integer in [0, {M})")
        for idx in sample_indices
    ]
    steps = config.step_count
    _within_budget("sample count x step count", len(sample_indices) * steps)

    coeff, scale = _envelope(config)
    horizon_values = np.zeros(M)

    def run_block(start: int, stop: int) -> None:
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

    if steps:  # with no steps every horizon value is 0
        blocks = [(lo, min(lo + _CHUNK, M)) for lo in range(0, M, _CHUNK)]
        # each reset holds the GIL, so workers are processes, and beyond the
        # usable cores they only contend
        workers = min(workers, usable_cpus(), len(blocks)) if hasattr(os, "fork") else 1
        _run_blocks(blocks, workers, run_block, horizon_values)

    mean = float(horizon_values.mean())
    if M > 1:
        variance = float(horizon_values.var(ddof=1))
        std_error = math.sqrt(variance / M)
        variance_std_error = variance * math.sqrt(2.0 / (M - 1))
    else:
        variance = 0.0
        std_error = 0.0
        variance_std_error = 0.0

    # each sampled path is redrawn here from its own counter block, the
    # draws weighted and summed in the same order as in run_block
    t = np.arange(steps + 1) * (config.horizon / steps) if steps else np.zeros(1)
    samples = []
    for i in sorted(set(sample_indices)):
        draws = np.random.Generator(np.random.Philox(key=config.seed, counter=i << 128))
        path = scale * np.cumsum(draws.standard_normal(steps) * coeff)
        samples.append(TrajectorySample(i, t, np.concatenate([[0.0], path])))

    return SimResult(
        variance_at_horizon=variance,
        mean_over_trajectories=mean,
        standard_error=std_error,
        variance_standard_error=variance_std_error,
        trajectory_sample=tuple(samples),
    )


def _run_blocks(blocks, workers: int, run_block, out: np.ndarray) -> None:
    """Run block k on worker k mod ``workers``: this process is worker 0 and
    forks the others, which send their blocks' slices of ``out`` back
    through a pipe each; one worker forks nothing.  Every forked worker is
    reaped before this returns or raises."""
    children: list[tuple[int, int]] = []  # (pid, read end of its pipe)
    done = False
    try:
        for w in range(1, workers):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                os.close(read_fd)
                _serve(blocks[w::workers], run_block, out, write_fd)
            os.close(write_fd)
            children.append((pid, read_fd))
        for block in blocks[::workers]:
            run_block(*block)
        for w, (pid, read_fd) in enumerate(children, 1):
            # a buffered readinto fills its whole slice unless the pipe ends
            with open(read_fd, "rb", closefd=False) as pipe:
                for lo, hi in blocks[w::workers]:
                    if pipe.readinto(out[lo:hi]) != (hi - lo) * out.itemsize:
                        raise ChildProcessError(f"worker process {pid} ended before sending its results")
        done = True
    finally:
        for pid, read_fd in children:
            os.close(read_fd)
            if not done:  # stop the other workers rather than wait for them
                os.kill(pid, signal.SIGKILL)
        statuses = [os.waitpid(pid, 0) for pid, _ in children]
    for pid, status in statuses:
        if status:
            code = os.waitstatus_to_exitcode(status)
            raise ChildProcessError(f"worker process {pid} ended with exit status {code}")


def _serve(blocks, run_block, out: np.ndarray, write_fd: int) -> None:
    """Body of a forked worker: run ``blocks``, write their slices of ``out``
    to ``write_fd`` and leave by ``os._exit``, never returning to the caller
    (nor flushing the parent's buffers a second time)."""
    code = 1
    try:
        with open(write_fd, "wb") as pipe:
            # every block before any write: a pipe holds 64 KiB, and the
            # parent reads it only once its own share is done
            for block in blocks:
                run_block(*block)
            for lo, hi in blocks:
                pipe.write(out[lo:hi])
        code = 0
    finally:
        os._exit(code)


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
    """One trajectory as CSV with columns t_over_tau,value, streamed to
    ``path`` row by row, so the extra memory does not grow with the step count."""
    # Python floats, so csv writes their repr; lazily, as lists would raise peak
    # memory.  Text mode with the default newline handling, as for every output.
    rows = zip(map(float, sample.t_over_tau), map(float, sample.values))
    with open(path, "w", encoding="utf-8") as stream:
        write_csv(stream, ("t_over_tau", "value"), rows)

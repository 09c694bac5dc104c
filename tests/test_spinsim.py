"""Monte Carlo spin-noise transient and its closed-form oracle."""

import errno
import json
import math
import os
import signal
import threading
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from erlab import spinsim
from erlab.spinsim import (
    SimConfig,
    analytic_variance,
    result_to_json,
    scheme_variance,
    simulate_transient,
    trajectory_path,
    uncertainty_estimate,
    write_trajectory_csv,
)


# ---------------------------------------------------------------------------
# closed form
# ---------------------------------------------------------------------------

def test_analytic_variance_frozen_values():
    # (1/N)[h + 2e^-h - e^-2h/2 - 3/2], frozen at N = 1
    assert analytic_variance(1.0, 0.5) == pytest.approx(0.02912159883954568, rel=1e-12)
    assert analytic_variance(1.0, 1.0) == pytest.approx(0.16809124072457832, rel=1e-12)
    assert analytic_variance(1.0, 3.0) == pytest.approx(1.5983347606473948, rel=1e-12)


def test_analytic_variance_matches_direct_formula():
    for h in (0.1, 0.7, 2.0, 10.0):
        direct = h + 2.0 * math.exp(-h) - math.exp(-2.0 * h) / 2.0 - 1.5
        assert analytic_variance(1.0, h) == pytest.approx(direct, rel=1e-12)


def test_analytic_variance_matches_quadrature():
    integrate = pytest.importorskip("scipy.integrate")
    for h in (0.25, 1.0, 4.0):
        val, _ = integrate.quad(lambda u: (1.0 - math.exp(-u)) ** 2, 0.0, h)
        assert analytic_variance(1.0, h) == pytest.approx(val, rel=1e-10)


@given(st.floats(1.0, 1e12), st.floats(0.0, 50.0))
def test_analytic_variance_scales_inversely_with_atoms(N, h):
    assert analytic_variance(N, h) == pytest.approx(analytic_variance(1.0, h) / N, rel=1e-12)


def test_analytic_variance_monotone_in_horizon():
    grid = [analytic_variance(1.0, h) for h in np.linspace(0.0, 5.0, 51)]
    assert grid[0] == 0.0
    assert all(b > a for a, b in zip(grid, grid[1:]))


def test_analytic_variance_small_horizon_cubic():
    # integrand ~ u^2 for small u, so Var ~ h^3/3
    h = 1e-4
    assert analytic_variance(1.0, h) == pytest.approx(h**3 / 3.0, rel=1e-3)


def test_uncertainty_estimate_value():
    # sqrt(G(1))/sqrt(N) with sqrt(G(1)) = 0.40999 — the often-quoted 0.5/sqrt(N)
    # is a one-digit rounding of this number
    assert uncertainty_estimate(1e6) == pytest.approx(4.099893178176455e-04, rel=1e-12)
    assert uncertainty_estimate(1.0) == pytest.approx(0.40998931781764547, rel=1e-12)


def test_analytic_variance_domain():
    with pytest.raises(ValueError):
        analytic_variance(0.5, 1.0)
    with pytest.raises(ValueError):
        analytic_variance(1e6, -0.1)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="must be finite"):
            analytic_variance(bad, 1.0)
        with pytest.raises(ValueError, match="must be finite"):
            analytic_variance(1e6, bad)
    for bad in ("1", None, [1.0]):
        for args in ((bad, 1.0), (1e6, bad)):
            with pytest.raises(ValueError, match=r"^[^\n]* must be a number, got [^\n]*$"):
                analytic_variance(*args)


# ---------------------------------------------------------------------------
# discretization
# ---------------------------------------------------------------------------

def test_scheme_variance_converges_quadratically():
    # midpoint quadrature: halving the step divides the defect by ~4
    errors = []
    for spt in (10, 20, 40):
        cfg = SimConfig(atom_count=1e4, relaxation_time=1.0, trajectory_count=1, steps_per_tau=spt)
        errors.append(abs(scheme_variance(cfg) - analytic_variance(1e4, 1.0)))
    assert errors[1] < errors[0] and errors[2] < errors[1]
    assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.4)
    assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.4)


def test_step_refinement_drift_below_monte_carlo_error():
    # the bias moved by halving the step must be invisible next to the
    # statistical error of a 1e5-trajectory run
    M = 100_000
    for h in (0.5, 1.0, 3.0):
        coarse = SimConfig(1e4, 1.0, 1, steps_per_tau=100, horizon=h)
        fine = SimConfig(1e4, 1.0, 1, steps_per_tau=200, horizon=h)
        drift = abs(scheme_variance(coarse) - scheme_variance(fine))
        mc_std_error = analytic_variance(1e4, h) * math.sqrt(2.0 / (M - 1))
        assert drift < mc_std_error


def test_step_count_covers_horizon_exactly():
    assert SimConfig(1e4, 1.0, 1, steps_per_tau=100, horizon=1.0).step_count == 100
    assert SimConfig(1e4, 1.0, 1, steps_per_tau=100, horizon=3.0).step_count == 300
    assert SimConfig(1e4, 1.0, 1, steps_per_tau=100, horizon=0.505).step_count == 51
    assert SimConfig(1e4, 1.0, 1, steps_per_tau=100, horizon=0.0).step_count == 0


# ---------------------------------------------------------------------------
# Monte Carlo statistics
# ---------------------------------------------------------------------------

def test_simulation_matches_oracle():
    cfg = SimConfig(atom_count=1e4, relaxation_time=1.0, trajectory_count=20_000, seed=11)
    res = simulate_transient(cfg)
    target = analytic_variance(1e4, 1.0)
    assert abs(res.variance_at_horizon - target) < 4.0 * res.variance_standard_error
    assert abs(res.mean_over_trajectories) < 4.0 * res.standard_error


def test_simulation_mean_is_centered_and_errors_scale():
    cfg = SimConfig(1e2, 2.0, 4_000, seed=3, horizon=0.5)
    res = simulate_transient(cfg)
    assert res.standard_error == pytest.approx(
        math.sqrt(res.variance_at_horizon / cfg.trajectory_count), rel=1e-12
    )
    assert res.variance_standard_error == pytest.approx(
        res.variance_at_horizon * math.sqrt(2.0 / (cfg.trajectory_count - 1)), rel=1e-12
    )


def test_relaxation_time_only_sets_the_clock():
    # measured in units of tau the process is parameter free, so tau must
    # not affect the dimensionless statistics
    a = simulate_transient(SimConfig(1e4, 1.0, 500, seed=5))
    b = simulate_transient(SimConfig(1e4, 3.7e-3, 500, seed=5))
    assert a.variance_at_horizon == b.variance_at_horizon
    assert a.mean_over_trajectories == b.mean_over_trajectories


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_different_seed_different_result():
    a = simulate_transient(SimConfig(1e6, 1.0, 1_000, seed=1))
    b = simulate_transient(SimConfig(1e6, 1.0, 1_000, seed=2))
    assert a.variance_at_horizon != b.variance_at_horizon


def _reference_path(config, index):
    # the determinism contract written out independently of the simulator:
    # trajectory i draws S standard normals from a fresh Philox generator
    # keyed by the seed with its counter at i * 2^128, weighted by the
    # midpoint envelope 1 - e^(-u) and scaled by sqrt(du / N)
    S = config.step_count
    du = config.horizon / S
    coeff = -np.expm1(-(np.arange(S) + 0.5) * du)
    scale = math.sqrt(du / config.atom_count)
    bitgen = np.random.Philox(key=config.seed, counter=index << 128)
    weighted = coeff * np.random.Generator(bitgen).standard_normal(S)
    return np.concatenate([[0.0], scale * np.cumsum(weighted)]), scale * float(np.sum(weighted))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    m=st.integers(1, 600),
    growth=st.integers(0, 400),
    steps_per_tau=st.integers(10, 40),
    horizon=st.sampled_from((0.3, 1.0, 1.3)),
    seed=st.one_of(st.sampled_from((0, 2**63 + 12345, 2**64 - 1)), st.integers(0, 2**64 - 1)),
    workers=st.integers(1, 3),
    row_buffer=st.sampled_from((1, 3, 7, 2**14)),
    fork=st.booleans(),
    picks=st.lists(st.integers(0, 5000), max_size=4),
)
# unit edges at 1260 (2^14 buffered draws over 13 steps) at both ends of the
# seed range, without os.fork at one
@example(m=5000, growth=0, steps_per_tau=10, horizon=1.3, seed=0, workers=2,
         row_buffer=2**14, fork=True, picks=[0, 1259, 1260, 4999])
@example(m=5000, growth=0, steps_per_tau=10, horizon=1.3, seed=2**64 - 1, workers=3,
         row_buffer=2**14, fork=False, picks=[4999, 1260, 1259, 0])
# trajectory 7 of 10 is trajectory 7 of 1000
@example(m=10, growth=990, steps_per_tau=10, horizon=1.0, seed=9, workers=3,
         row_buffer=7, fork=True, picks=[7])
@example(m=1, growth=0, steps_per_tau=10, horizon=1.0, seed=13, workers=1,
         row_buffer=2**14, fork=True, picks=[0])
def test_the_determinism_contract(monkeypatch, fake_cpus, m, growth, steps_per_tau, horizon, seed,
                                  workers, row_buffer, fork, picks):
    _check_contract(monkeypatch, fake_cpus, m, growth, steps_per_tau=steps_per_tau, horizon=horizon,
                    seed=seed, workers=workers, row_buffer=row_buffer, fork=fork, picks=picks)


def _check_contract(monkeypatch, fake_cpus, m, growth=0, *, steps_per_tau=10, horizon=1.0, seed,
                    workers=1, row_buffer=2**14, fork=True, picks=()):
    # no run, worker count, buffer size, missing os.fork or
    # ensemble growth changes a bit: the M and M + growth runs both give the
    # reference's statistics, trajectory_path gives the reference's paths, and
    # no worker is left behind
    fake_cpus(3)
    big = SimConfig(1e4, 1.0, m + growth, steps_per_tau=steps_per_tau, horizon=horizon, seed=seed)
    reference = [_reference_path(big, i) for i in range(m + growth)]
    indices = [p % m for p in picks]
    with monkeypatch.context() as patch:
        patch.setattr(spinsim, "_ROW_BUFFER", row_buffer)
        if not fork:
            patch.delattr(os, "fork")
        for count in (m, m + growth):
            config = big._replace(trajectory_count=count)
            res = simulate_transient(config, workers=workers)
            endpoints = np.array([end for _, end in reference[:count]])
            assert res.mean_over_trajectories == float(np.mean(endpoints))
            assert res.variance_at_horizon == (float(np.var(endpoints, ddof=1)) if count > 1 else 0.0)
            for i in indices:
                path, end = reference[i]
                values = trajectory_path(config, i)
                assert values.tobytes() == path.tobytes()
                assert values[-1] == pytest.approx(end, rel=1e-12)
    with pytest.raises(ChildProcessError):  # every worker was reaped
        os.waitpid(-1, os.WNOHANG)


# named cases of the contract, each checked by the same oracle
def test_same_seed_same_bytes(monkeypatch, fake_cpus):
    _check_contract(monkeypatch, fake_cpus, 3_000, steps_per_tau=100, seed=123)  # run twice


def test_workers_do_not_change_output(monkeypatch, fake_cpus):
    _check_contract(monkeypatch, fake_cpus, 10_000, seed=77, workers=3)  # seven units on three workers


def test_trajectories_are_stable_under_ensemble_growth(monkeypatch, fake_cpus):
    _check_contract(monkeypatch, fake_cpus, 10, 9_990, seed=9, picks=(7,))


_UNIT_EDGES = (0, 1259, 1260, 4999)  # units of 1260 trajectories at 13 steps


def test_sampled_paths_follow_the_counter_contract(monkeypatch, fake_cpus):
    _check_contract(monkeypatch, fake_cpus, 5_000, horizon=1.3, seed=2**63 + 12345, workers=2, picks=_UNIT_EDGES)
    _check_contract(monkeypatch, fake_cpus, 1, horizon=1.3, seed=2**63 + 12345, picks=(0,))


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_counter_contract_at_the_seed_extremes(monkeypatch, fake_cpus, seed):
    _check_contract(monkeypatch, fake_cpus, 5_000, horizon=1.3, seed=seed, workers=2, picks=_UNIT_EDGES)


@pytest.mark.parametrize("row_buffer", [3, 7])
@pytest.mark.parametrize("steps_per_tau, horizon", [(10, 0.3), (10, 1.3)])
def test_block_and_buffer_sizes_do_not_change_output(monkeypatch, fake_cpus, row_buffer, steps_per_tau, horizon):
    _check_contract(monkeypatch, fake_cpus, 500, steps_per_tau=steps_per_tau, horizon=horizon, seed=31,
                    workers=2, row_buffer=row_buffer, picks=(0, 2, 3, 6, 7, 499))


def test_without_fork_blocks_run_serially(monkeypatch, fake_cpus):
    _check_contract(monkeypatch, fake_cpus, 12_000, seed=7, workers=3, fork=False)  # eight units


def test_sampled_trajectory_endpoint_consistency(monkeypatch, fake_cpus):
    _check_contract(monkeypatch, fake_cpus, 1, steps_per_tau=100, seed=13, picks=(0,))


def test_forks_capped_at_usable_cpus_and_blocks(monkeypatch, tmp_path, fake_cpus, record_forks):
    forks = record_forks()
    monkeypatch.setattr(spinsim, "_ROW_BUFFER", 1000)  # units of 100 trajectories at 10 steps
    cfg = SimConfig(1e4, 1.0, 300, steps_per_tau=10, seed=4)  # three units
    serial = result_to_json(simulate_transient(cfg), cfg)
    assert forks == []
    fake_cpus(1)
    assert result_to_json(simulate_transient(cfg, workers=4), cfg) == serial
    assert forks == []
    fake_cpus(8)
    one_unit = cfg._replace(trajectory_count=100)
    assert simulate_transient(one_unit, workers=4) == simulate_transient(one_unit)
    assert forks == []  # one worker, capped by the unit count
    assert result_to_json(simulate_transient(cfg, workers=4), cfg) == serial
    assert len(forks) == 2  # three workers, capped by the unit count
    fake_cpus(2)
    assert result_to_json(simulate_transient(cfg, workers=4), cfg) == serial
    assert len(forks) == 3  # two workers, capped by the CPU count
    fake_cpus(8)
    _quota_files(monkeypatch, tmp_path, {"cpu.max": "200000 100000\n"})
    assert result_to_json(simulate_transient(cfg, workers=4), cfg) == serial
    assert len(forks) == 4  # two workers, capped by the CPU quota


def test_a_large_affinity_set_starts_at_most_one_process_per_block(monkeypatch, fake_cpus, record_forks):
    forks = record_forks()
    fake_cpus(1024)
    monkeypatch.setattr(spinsim, "_ROW_BUFFER", 1000)  # units of 100 trajectories at 10 steps
    cfg = SimConfig(1e4, 1.0, 200, steps_per_tau=10, seed=5)  # two units
    serial = result_to_json(simulate_transient(cfg), cfg)
    assert result_to_json(simulate_transient(cfg, workers=1024), cfg) == serial
    assert len(forks) == 1  # two processes in all


def test_a_process_that_runs_another_thread_forks_nothing(monkeypatch, fake_cpus):
    # a fork copies only the calling thread, and a lock another thread holds
    # would stay locked in the child, so the units run serially, with the same bits
    fake_cpus(4)
    monkeypatch.setattr(spinsim, "_ROW_BUFFER", 1000)  # units of 100 trajectories at 10 steps
    cfg = SimConfig(1e4, 1.0, 300, steps_per_tau=10, seed=4)  # three units
    serial = result_to_json(simulate_transient(cfg), cfg)

    def no_fork():
        raise AssertionError("forked from a process that runs another thread")

    monkeypatch.setattr(os, "fork", no_fork)
    release = threading.Event()
    waiting = threading.Thread(target=release.wait)
    waiting.start()
    try:
        assert result_to_json(simulate_transient(cfg, workers=4), cfg) == serial
    finally:
        release.set()
        waiting.join(timeout=10)
    assert not waiting.is_alive()


_REAL_EXIT = os._exit


@pytest.mark.parametrize(
    "fail, status",
    [
        (lambda: _REAL_EXIT(1), 1),  # ends at once, having run no unit
        # runs every unit, but its exit status is forced to 3
        (lambda: setattr(os, "_exit", lambda code: _REAL_EXIT(3)), 3),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), -signal.SIGKILL),
    ],
    ids=["at_once", "after_its_blocks", "by_a_signal"],
)
def test_a_failed_worker_raises_and_leaves_no_child(monkeypatch, fake_cpus, record_forks, fail, status):
    # a worker sends nothing back, so its exit status is all that shows it failed
    forks = record_forks(child=fail)
    fake_cpus(4)
    monkeypatch.setattr(spinsim, "_ROW_BUFFER", 1000)  # units of 100 trajectories at 10 steps
    cfg = SimConfig(1e4, 1.0, 300, steps_per_tau=10, seed=6)  # three units
    with pytest.raises(ChildProcessError, match=rf"ended with exit status {status}$"):
        simulate_transient(cfg, workers=4)
    assert len(forks) == 2
    with pytest.raises(ChildProcessError):  # every worker was reaped
        os.waitpid(-1, os.WNOHANG)


def test_a_failed_fork_kills_and_reaps_the_forked_workers(fake_cpus, record_forks):
    # the first worker would sleep for a minute before its units
    forks = record_forks(child=lambda: time.sleep(60), fail_at=2)
    fake_cpus(4)
    cfg = SimConfig(1e4, 1.0, 12_000, steps_per_tau=10, seed=6)  # eight units
    start = time.monotonic()
    with pytest.raises(OSError) as failure:
        simulate_transient(cfg, workers=3)
    assert failure.value.errno == errno.EAGAIN
    assert time.monotonic() - start < 30  # the sleeping worker was killed
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):  # and reaped
        os.waitpid(-1, os.WNOHANG)


def _quota_files(monkeypatch, tmp_path, files: dict) -> None:
    """Point the cgroup v2 file (``cpu.max``) and the v1 pair (``quota``,
    ``period``) at ``tmp_path``, holding ``files``; the rest are missing."""
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    paths = ((tmp_path / "cpu.max",), (tmp_path / "quota", tmp_path / "period"))
    monkeypatch.setattr(spinsim, "_CPU_QUOTA_FILES", paths)


@pytest.mark.parametrize("files, cpus", [
    ({"cpu.max": "200000 100000\n"}, 2),
    ({"cpu.max": "150000 100000\n"}, 2),  # 1.5 CPUs round up
    ({"cpu.max": "1600000 100000\n"}, 8),  # a quota above the affinity set
    ({"cpu.max": "max 100000\n"}, 8),
    ({"cpu.max": "garbage\n"}, 8),
    ({"cpu.max": "0 100000\n"}, 8),
    ({"cpu.max": "100000 0\n"}, 8),
    ({"quota": "50000\n", "period": "100000\n"}, 1),
    ({"quota": "-1\n", "period": "100000\n"}, 8),
    ({"quota": "300000\n"}, 8),  # no period file
    ({}, 8),
], ids=["v2", "v2-round-up", "v2-above-affinity", "v2-max", "v2-garbage", "v2-zero", "v2-zero-period",
        "v1", "v1-unlimited", "v1-no-period", "no-files"])
def test_usable_cpus_honours_a_cgroup_cpu_quota(monkeypatch, tmp_path, fake_cpus, files, cpus):
    fake_cpus(8)
    _quota_files(monkeypatch, tmp_path, files)
    assert spinsim.usable_cpus() == cpus


@pytest.mark.parametrize("count, cpus", [(None, 1), (4, 4)])
def test_usable_cpus_falls_back_to_the_cpu_count_or_one(monkeypatch, tmp_path, count, cpus):
    # no affinity set (macOS, say): os.cpu_count() counts the CPUs, or cannot tell
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    _quota_files(monkeypatch, tmp_path, {})
    assert spinsim.usable_cpus() == cpus


def test_a_worker_whose_units_raise_exits_1_and_never_returns(tmp_path):
    # a worker that returned into the caller would run the rest of the caller's
    # program, here pytest, whose own exit status could be 1 too; so a worker
    # that gets back here leaves a mark for the parent and exits 0
    parent, escaped = os.getpid(), tmp_path / "escaped"

    def work(w):
        if w:
            raise RuntimeError("a unit failed")

    try:
        with pytest.raises(ChildProcessError, match=r"ended with exit status 1$"):
            spinsim._run_workers(2, work)
    finally:
        if os.getpid() != parent:
            escaped.touch()
            _REAL_EXIT(0)
    assert not escaped.exists()


def test_result_json_is_canonical():
    cfg = SimConfig(1e4, 1.0, 100, seed=21)
    text = result_to_json(simulate_transient(cfg), cfg)
    assert text.endswith("\n")
    doc = json.loads(text)
    assert set(doc) == {"variance", "std_error", "mean", "config_echo"}
    assert doc["config_echo"]["seed"] == 21
    # canonical form: sorted keys, no whitespace
    assert text == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    # numpy integers are stored as ints, so they echo as the same JSON
    numpy_cfg = SimConfig(1e4, 1.0, np.int64(100), steps_per_tau=np.int32(100), seed=np.uint64(21))
    assert result_to_json(simulate_transient(numpy_cfg), numpy_cfg) == text
    assert cfg._replace(seed=np.uint64(21)) == cfg and type(cfg._replace(seed=np.uint64(21)).seed) is int


# ---------------------------------------------------------------------------
# edge cases and validation
# ---------------------------------------------------------------------------

def test_zero_horizon():
    cfg = SimConfig(1e4, 1.0, 50, horizon=0.0, seed=2)
    res = simulate_transient(cfg)
    assert res.variance_at_horizon == 0.0
    assert res.mean_over_trajectories == 0.0
    assert list(trajectory_path(cfg, 4)) == [0.0]
    assert analytic_variance(1e4, 0.0) == 0.0


def test_a_fraction_horizon_gives_the_bits_of_its_float(tmp_path):
    # the grid is worked out in floats: Fraction(3, 2) / steps is a Fraction,
    # which numpy would put in an object array that expm1 refuses
    exact, rounded = (SimConfig(1.0, 1.0, 3, 10, horizon, 0) for horizon in (Fraction(3, 2), 1.5))
    assert scheme_variance(exact) == scheme_variance(rounded)
    assert simulate_transient(exact) == simulate_transient(rounded)
    assert trajectory_path(exact, 2).tobytes() == trajectory_path(rounded, 2).tobytes()
    write_trajectory_csv(exact, 2, tmp_path / "exact.csv")
    write_trajectory_csv(rounded, 2, tmp_path / "rounded.csv")
    assert (tmp_path / "exact.csv").read_bytes() == (tmp_path / "rounded.csv").read_bytes()


def test_single_trajectory_has_no_spread_estimate():
    res = simulate_transient(SimConfig(1e4, 1.0, 1, seed=5))
    assert res.variance_at_horizon == 0.0
    assert res.standard_error == 0.0


def test_trajectory_sample_time_axis(tmp_path):
    cfg = SimConfig(1e4, 1.0, 3, steps_per_tau=10, horizon=1.0, seed=1)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(cfg, 1, path)
    t = [float(line.split(",")[0]) for line in path.read_text().splitlines()[1:]]
    assert t[0] == 0.0
    assert t[-1] == pytest.approx(1.0)
    assert len(t) == cfg.step_count + 1 == len(trajectory_path(cfg, 1))


@pytest.mark.parametrize("horizon", [0.0, 1e-20])  # 1e-20 tau is no step at 100 steps per tau
def test_a_path_of_no_step_dumps_its_one_row(tmp_path, horizon):
    cfg = SimConfig(1e4, 1.0, 1, horizon=horizon)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(cfg, 0, path)
    assert path.read_bytes() == b"t_over_tau,value\n0.0,0.0\n"


def test_trajectory_csv_format(tmp_path):
    cfg = SimConfig(1e4, 1.0, 2, steps_per_tau=10, seed=6)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(cfg, 0, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t_over_tau,value"
    assert len(lines) == 12
    t, v = lines[1].split(",")
    assert float(t) == 0.0 and float(v) == 0.0
    # full-precision round trip
    assert [float(line.split(",")[1]) for line in lines[1:]] == list(trajectory_path(cfg, 0))


def test_a_dump_streams_to_its_file_in_constant_memory(tmp_path):
    # traced peaks at two step counts: the path grows with the step count,
    # but writing it takes at most a constant 0.13 MiB more than drawing it,
    # the file's buffers, as the rows stream to the file; building the whole
    # text first took 8.4 MiB more at 2^16 steps.  2^20 steps is left out, as
    # it takes about 10 s under tracemalloc.
    for steps in (2**12, 2**16):
        cfg = SimConfig(1e4, 1.0, 1, steps_per_tau=steps)
        path = tmp_path / f"traj_{steps}.csv"
        peaks = []
        for call in (lambda: trajectory_path(cfg, 0), lambda: write_trajectory_csv(cfg, 0, path)):
            tracemalloc.start()
            try:
                call()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert path.stat().st_size > 30 * steps
        assert peaks[1] - peaks[0] < 2**18


def test_the_statistics_need_no_memory_that_grows_with_the_ensemble():
    # traced peaks at two ensemble sizes: np.var's copy of the horizon values
    # grew with them (195 KiB at 2^12, 514 KiB at 2^16); computed in place,
    # the peak is the row buffer's 128 KiB and a little more at both.  Each
    # run is traced the second time, so numpy's one-time set-up is not counted.
    peaks = []
    for trajectories in (2**12, 2**16):
        config = SimConfig(atom_count=1e6, relaxation_time=1.0, trajectory_count=trajectories, steps_per_tau=10)
        simulate_transient(config)
        tracemalloc.start()
        try:
            simulate_transient(config)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 2**18
    assert abs(peaks[1] - peaks[0]) < 2**16


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(atom_count=0.5),
        dict(relaxation_time=0.0),
        dict(trajectory_count=0),
        dict(trajectory_count=1.5),
        dict(steps_per_tau=5),
        dict(horizon=-1.0),
        dict(seed=-1),
        dict(seed=2**64),
        dict(atom_count=math.nan),
        dict(horizon=math.inf),
        dict(horizon=math.nan),
        dict(atom_count=math.inf),
        dict(relaxation_time=math.nan),
        dict(relaxation_time=math.inf),
        dict(atom_count=-math.inf),
        dict(relaxation_time=-math.inf),
        dict(horizon=-math.inf),
        # over the memory budget, checked before anything is allocated
        dict(trajectory_count=spinsim.MAX_ARRAY_LENGTH + 1),
        dict(steps_per_tau=10**12),
        dict(steps_per_tau=10**400),
        dict(horizon=1e307),
        dict(steps_per_tau=spinsim.MAX_ARRAY_LENGTH, horizon=1.5),
        # True is an int to Python, but a valid value of no field
        *({field: True} for field in ("atom_count", "relaxation_time", "trajectory_count",
                                       "steps_per_tau", "horizon", "seed")),
        # values that are not numbers, and numpy integers out of range
        *({field: bad} for field in ("atom_count", "relaxation_time", "trajectory_count",
                                      "steps_per_tau", "horizon", "seed") for bad in ("1", None, [1.0])),
        dict(trajectory_count=np.int64(0)),
        dict(steps_per_tau=np.int32(5)),
        dict(seed=np.int64(-1)),
    ],
)
def test_config_validation(kwargs):
    base = dict(atom_count=1e4, relaxation_time=1.0, trajectory_count=10)
    base.update(kwargs)
    with pytest.raises(ValueError, match=r"^[^\n]*$"):  # one line
        SimConfig(**base)


def test_memory_budget_is_checked_before_allocating(monkeypatch):
    budget = spinsim.MAX_ARRAY_LENGTH
    # a configuration at the budget is accepted; constructing it allocates nothing
    assert SimConfig(1e4, 1.0, budget, steps_per_tau=budget).step_count == budget
    # the benchmark runs (1e5 x 100, 8192 x 1e4) and the acceptance runs (at
    # most 1e5 trajectories) sit 100x inside it
    for trajectories, steps in ((100_000, 100), (8192, 10_000)):
        assert 100 * max(trajectories, steps) <= budget
    # the budget is read at each check; a small one keeps this cheap
    monkeypatch.setattr(spinsim, "MAX_ARRAY_LENGTH", 100)
    with pytest.raises(ValueError, match="memory budget"):
        SimConfig(1e4, 1.0, 101)


def test_sample_index_bounds(tmp_path):
    cfg = SimConfig(1e4, 1.0, 10, seed=0)
    path = tmp_path / "traj.csv"
    for index in (10, -1, 1.5, "1", None, 1.0, True):
        for call in (lambda: trajectory_path(cfg, index), lambda: write_trajectory_csv(cfg, index, path)):
            with pytest.raises(ValueError, match=r"^sample index .* is not an integer in \[0, 10\)$"):
                call()
    assert not path.exists()  # refused before the file is opened
    # numpy integers are integers
    assert trajectory_path(cfg, np.int64(1)).tobytes() == trajectory_path(cfg, 1).tobytes()


def test_worker_count_validated():
    for workers in (0, -1, 2.5, "2", None, 2.0, True):
        with pytest.raises(ValueError, match=r"^workers must be an integer >= 1, got [^\n]*$"):
            simulate_transient(SimConfig(1e4, 1.0, 10), workers=workers)
    cfg = SimConfig(1e4, 1.0, 10)
    assert simulate_transient(cfg, workers=np.int64(2)) == simulate_transient(cfg)

"""erlab benchmark: CLI latency and Monte Carlo cost, end to end and per layer.

    python3 perfbench/run.py --workload cli-analytic --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the repository root.  ``--trace 0`` measures end to end: a closed
loop with one client runs the workload's operations, each one
``python -m erlab ...`` process with ``PYTHONPATH=src``, for ``--seconds``
seconds, and checks every output (see ``oracles``).  ``--trace 1`` replays
the same inputs in-process with spans around each layer (see
``tracing``).  ``--workload all`` runs both modes on every workload and
prints each per-layer number beside the end-to-end metric it should move.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Every run also writes a
results file under ``perfbench/out/`` that records the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import oracles
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# set-up is repeated and its median reported as setup_s, so one slow start
# does not decide the figure; the time to the first operation is about
# SETUP_REPS times setup_s
SETUP_REPS = 11
IMPORT_REPS = 7   # fresh interpreters per import measurement
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples beyond it

END_TO_END = {  # name -> unit; BENCHMARK.json lists the first four, the rest are printed
    "setup_s": "s",
    "wall_p50_s": "s",
    "cpu_p50_s": "s",
    "peak_rss_mb": "MiB",
    "wall_tail_s": "s",
    "failed_ratio": "1",
}
LISTED_METRICS = ("setup_s", "wall_p50_s", "cpu_p50_s", "peak_rss_mb")


class SetupError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# machine and child processes
# ---------------------------------------------------------------------------

def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError:
        return ""


def machine_info() -> dict:
    import numpy

    model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), "unknown")
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(f"{index}/level").strip()
        if level in ("2", "3"):
            caches[f"L{level}"] = _read(f"{index}/size").strip()
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, text=True,
                                capture_output=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l2": caches.get("L2", "unknown"),
        "l3": caches.get("L3", "unknown"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit or "unknown (not a git checkout)",
        "child_env": CHILD_ENV,
    }


# numpy's BLAS pool, which erlab never calls, spins a second core for about
# 0.1 s after import; on two shared cores that made cli-analytic wall time
# flip between 0.25 and 0.33 s with the neighbours' load
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1"}


def child_env(pinned: bool = True) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **(CHILD_ENV if pinned else {}))
    env.pop("ERLAB_SPECIES_FILE", None)
    return env


@dataclass
class Proc:
    wall: float
    cpu: float
    rss_mib: float
    code: int
    stdout: str
    stderr: str


def run_process(args, scratch: Path, pinned: bool = True) -> Proc:
    """One child interpreter: wall, user+sys CPU and peak RSS from its own rusage.

    Linux counts the parent's peak RSS at ``vfork`` into the child's
    ``ru_maxrss``, so end-to-end runs spawn children before this process
    imports numpy: the children's own peak is then the larger.
    """
    with tempfile.TemporaryFile(dir=scratch) as out, tempfile.TemporaryFile(dir=scratch) as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=child_env(pinned),
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Proc(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                    proc.returncode, out.read().decode(), err.read().decode())


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def set_up(workload: str, seed: int):
    """Generate the inputs, write their files and warm up one interpreter."""
    workdir = OUT / f"work-{workload}-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    inputs = workloads.generate(workload, seed, workdir.relative_to(ROOT).as_posix())
    inputs.write_files(ROOT)
    warm = run_process(["-m", "erlab", "--version"], workdir)
    if warm.code != 0 or not warm.stdout.startswith("erlab "):
        raise SetupError(f"`python -m erlab --version` failed: {warm.stderr.strip()[-300:]}")
    return inputs, workdir


def timed_set_up(workload: str, seed: int):
    times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        inputs, workdir = set_up(workload, seed)
        times.append(time.perf_counter() - start)
    return inputs, workdir, statistics.median(times)


def tail(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least TAIL_BEYOND samples beyond it."""
    n = len(values)
    if n <= TAIL_BEYOND:
        return None
    return 100.0 * (n - TAIL_BEYOND) / n, sorted(values)[n - TAIL_BEYOND - 1]


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    inputs, workdir, setup_s = timed_set_up(workload, seed)
    runs = []
    deadline = time.perf_counter() + seconds
    while not runs or time.perf_counter() < deadline:
        op = inputs.ops[len(runs) % len(inputs.ops)]
        p = run_process(["-m", "erlab", *op.argv], workdir)
        runs.append((op, p, oracles.take_dumps(op, ROOT)))
    probes = [(op, run_process(["-m", "erlab", *op.argv], workdir))
              for op in inputs.defect_probes]

    # checked only now: the oracles import numpy, see run_process
    determinism = oracles.Determinism()
    samples = [{"argv": op.argv, "wall": p.wall, "cpu": p.cpu, "rss_mib": p.rss_mib,
                "failure": oracles.check(op, p.code, p.stdout, p.stderr, dumps)
                or determinism.check(op, p.stdout, dumps)}
               for op, p, dumps in runs]
    defects = [{"argv": op.argv, "defect": op.defect,
                "outcome": oracles.check(op, p.code, p.stdout, p.stderr)} for op, p in probes]
    shutil.rmtree(workdir, ignore_errors=True)

    walls = [s["wall"] for s in samples]
    failed = sum(s["failure"] is not None for s in samples)
    metrics = {
        "setup_s": setup_s,
        "wall_p50_s": statistics.median(walls),
        "cpu_p50_s": statistics.median(s["cpu"] for s in samples),
        "peak_rss_mb": statistics.median(s["rss_mib"] for s in samples),
        "failed_ratio": failed / len(samples),
    }
    wall_tail = tail(walls)
    if wall_tail:
        metrics["wall_tail_s"] = wall_tail[1]
    return {
        "workload": workload, "trace": 0, "metrics": metrics, "n": len(samples),
        "setup_reps": SETUP_REPS, "tail_percentile": wall_tail and wall_tail[0],
        "attempted": len(samples), "failed": failed, "correct": failed == 0,
        "failures": [s for s in samples if s["failure"]][:20],
        "defect_probes": defects, "samples": samples,
    }


def import_layer(workdir: Path) -> dict:
    code = "import sys, erlab.cli; sys.stdout.write(str(int('numpy' in sys.modules)))"
    bare, cli, default_cpu, loaded = [], [], [], set()
    for _ in range(IMPORT_REPS):
        bare.append(run_process(["-c", "pass"], workdir).wall)
        for pinned in (True, False):
            p = run_process(["-c", code], workdir, pinned)
            if p.code != 0:
                raise SetupError(f"`import erlab.cli` failed: {p.stderr.strip()[-300:]}")
            if pinned:
                cli.append(p.wall)
            else:
                default_cpu.append(p.cpu)
            loaded.add(int(p.stdout))
    return {"import.python_s": statistics.median(bare),
            "import.erlab_cli_s": statistics.median(cli),
            "import.erlab_cli_default_cpu_s": statistics.median(default_cpu),
            "import.numpy_loaded": max(loaded)}


class Replay:
    """Checks and counts outcomes of in-process replays across rounds."""

    def __init__(self, own: int, defects: int):
        self.own = set(range(own))
        self.defects = set(range(own, own + defects))
        self.determinism = oracles.Determinism()
        self.attempted = self.tracebacks = self.nonfinite = 0
        self.failures: list[dict] = []

    def run(self, ops, tracer=None, count: bool = False) -> tuple[float, list[float]]:
        """Replay ``ops``; return the total seconds and each own op's seconds."""
        total, own_times = 0.0, []
        for i, op, dt, code, out, err in tracing.replay(ops, tracer):
            total += dt
            if i in self.own:
                own_times.append(dt)
            if count and (i in self.own or i in self.defects):
                self.tracebacks += code is None
                self.nonfinite += code == 0 and op.format == "json" and not oracles.is_strict(out)
            dumps = oracles.take_dumps(op, ROOT)
            if i not in self.defects:
                self.attempted += 1
                reason = (oracles.check(op, code, out, err, dumps)
                          or self.determinism.check(op, out, dumps))
                if reason:
                    self.failures.append({"argv": op.argv, "failure": reason})
        return total, own_times


def traced(workload: str, seed: int, seconds: float) -> dict:
    inputs, workdir = set_up(workload, seed)
    metrics = import_layer(workdir)
    ops = inputs.ops + inputs.defect_probes + inputs.probe_ops
    replay = Replay(len(inputs.ops), len(inputs.defect_probes))
    probe_idx = set(range(len(ops))) - replay.own - replay.defects
    cfg = oracles.sim_config(next(op for op in inputs.ops + inputs.probe_ops
                                  if op.command == "simulate"))
    simulate = sys.modules["erlab.spinsim"].simulate_transient

    rounds: dict[str, list[float]] = defaultdict(list)
    replay_diffs: list[float] = []
    start, round_s = time.perf_counter(), 0.0
    # a round starts only if one more of the same length ends within --seconds
    while not rounds or time.perf_counter() - start + round_s <= seconds:
        round_start = time.perf_counter()
        # the order alternates, so warm-up favours neither replay
        first_traced = len(replay_diffs) % 2 == 1
        totals = {}
        for traced_replay in (first_traced, not first_traced):
            if traced_replay:
                tracer = tracing.Tracer()
                tracer.install()
                try:
                    totals[True], _ = replay.run(ops, tracer)
                finally:
                    tracer.uninstall()
            else:
                totals[False], own_times = replay.run(ops, count=not rounds)
                rounds["cli.main_ms"] += [t * 1e3 for t in own_times]
        replay_diffs.append(totals[True] - totals[False])
        rounds["trace.overhead_s"].append(tracing.wrapper_cost() * len(tracer.spans))
        means, sources = tracing.span_means(tracer, replay.own, probe_idx)
        for metric, value in means.items():
            rounds[metric].append(value)
        per_traj, per_step = tracing.spinsim_fit(seed)
        rounds["spinsim.per_traj_us"].append(per_traj * 1e6)
        rounds["spinsim.per_step_ns"].append(per_step * 1e9)
        order = (2, 1) if first_traced else (1, 2)
        t = {w: tracing.time_call(simulate, cfg, workers=w) for w in order}
        rounds["spinsim.speedup_w2"].append(t[1] / t[2])
        round_s = time.perf_counter() - round_start
    shutil.rmtree(workdir, ignore_errors=True)

    metrics.update({name: statistics.median(values) for name, values in rounds.items()})
    metrics.update({"cli.tracebacks": replay.tracebacks, "cli.nonfinite_json": replay.nonfinite,
                    "spinsim.normals": cfg.trajectory_count * cfg.step_count})
    failures = replay.failures
    missing = sorted(set(tracing.PER_LAYER) - set(metrics))
    if missing:
        failures.append({"argv": (), "failure": f"no measurement for {missing}"})
    if not metrics["trace.overhead_s"] > 0:
        failures.append({"argv": (), "failure": "span-wrapper cost is not positive: "
                         f"{metrics['trace.overhead_s']!r} s"})
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{workload}-seed{seed}.json"
    spans_file.write_text(json.dumps(tracer.dump()), encoding="utf-8")
    return {
        "workload": workload, "trace": 1, "metrics": metrics,
        "sources": sources, "rounds": len(replay_diffs),
        "replay_diff_s": statistics.median(replay_diffs), "spans": len(tracer.spans),
        "self_time_s": tracer.self_times(), "call_counts": dict(tracer.counts),
        "sim_config": {"trajectories": cfg.trajectory_count, "steps": cfg.step_count},
        "spans_file": spans_file.relative_to(ROOT).as_posix(),
        "attempted": replay.attempted, "failed": len(failures), "correct": not failures,
        "failures": failures[:20],
    }


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def print_end_to_end(r: dict) -> None:
    print(f"{r['workload']}: end to end, {r['n']} operations, one client, closed loop")
    m = r["metrics"]
    for name, unit in END_TO_END.items():
        if name == "setup_s":
            note = f"median of {r['setup_reps']} set-ups"
        elif name == "wall_tail_s":
            note = (f"p{r['tail_percentile']:.1f}, n={r['n']}" if name in m
                    else f"not reported: n={r['n']} leaves fewer than {TAIL_BEYOND} beyond any percentile")
        elif name == "failed_ratio":
            note = f"{r['failed']}/{r['attempted']}"
        else:
            note = f"median, n={r['n']}"
        value = f"{m[name]:.6g}" if name in m else "-"
        print(f"  {name:<14} {value:>12} {unit:<4} {note}")
    for f in r["failures"][:5]:
        print(f"  FAILED {' '.join(f['argv'])}: {f['failure']}")
    for d in r["defect_probes"]:
        state = f"reproduces: {d['outcome']}" if d["outcome"] else "fixed"
        print(f"  known defect, {d['defect']}: {state}")


def print_traced(r: dict) -> None:
    m, cfg = r["metrics"], r["sim_config"]
    print(f"{r['workload']}: per layer, {r['rounds']} traced/untraced replay rounds")
    for name, (unit, moves) in tracing.PER_LAYER.items():
        source = r["sources"].get(name, "")
        source = f"[{source}]" if source == "probe" else ""
        print(f"  {name:<38} {m.get(name, float('nan')):>12.6g} {unit:<5} -> {moves} {source}")
    traj = m["spinsim.per_traj_us"] * 1e-6 * cfg["trajectories"]
    step = m["spinsim.per_step_ns"] * 1e-9 * cfg["trajectories"] * cfg["steps"]
    print(f"  simulate cost model at M={cfg['trajectories']}, S={cfg['steps']}: "
          f"per-trajectory {traj:.3g} s ({traj / (traj + step):.0%}), "
          f"per-step {step:.3g} s ({step / (traj + step):.0%})")
    total = sum(r["self_time_s"].values())
    shares = ", ".join(f"{k} {v / total:.1%}" for k, v in
                       sorted(r["self_time_s"].items(), key=lambda kv: -kv[1]))
    print(f"  self time in the traced replay: {shares}")
    print(f"  traced minus untraced replay: {r['replay_diff_s']:.3g} s, median of {r['rounds']} "
          f"rounds in alternating order; trace.overhead_s is {r['spans']} spans x "
          f"{m['trace.overhead_s'] / r['spans'] * 1e6:.2g} us")


def print_shares(results: dict) -> None:
    """Each per-layer time as a share of the end-to-end metric it should move."""
    e2e = {w: results[w, 0]["metrics"] for w in workloads.WORKLOADS}
    layer = {w: results[w, 1] for w in workloads.WORKLOADS}
    cli = e2e["cli-analytic"]["wall_p50_s"]
    lm = layer["cli-analytic"]["metrics"]
    print("shares of end-to-end wall_p50_s")
    print(f"  cli-analytic: import.python_s {lm['import.python_s'] / cli:.0%}, "
          f"import.erlab_cli_s {lm['import.erlab_cli_s'] / cli:.0%}, "
          f"cli.main_ms {lm['cli.main_ms'] / 1e3 / cli:.1%}")
    for w in ("sim-wide", "sim-deep"):
        m, cfg = layer[w]["metrics"], layer[w]["sim_config"]
        wall = e2e[w]["wall_p50_s"]
        traj = m["spinsim.per_traj_us"] * 1e-6 * cfg["trajectories"]
        step = m["spinsim.per_step_ns"] * 1e-9 * cfg["trajectories"] * cfg["steps"]
        print(f"  {w}: per-trajectory {traj / wall:.0%}, per-step {step / wall:.0%}, "
              f"simulate_transient {m['spinsim.simulate_transient_s'] / wall:.0%}, "
              f"import.erlab_cli_s {m['import.erlab_cli_s'] / wall:.0%}")


def results_path(workload: str, seed: int, trace: int) -> Path:
    return OUT / f"results-{workload}-seed{seed}-trace{trace}.json"


def result_line(r: dict) -> dict:
    if r["trace"]:
        metrics = {n: {"value": r["metrics"][n], "unit": u} for n, (u, _) in tracing.PER_LAYER.items()
                   if n in r["metrics"]}
    else:
        metrics = {n: {"value": r["metrics"][n], "unit": END_TO_END[n]} for n in LISTED_METRICS}
    return {"correct": r["correct"], "attempted": r["attempted"], "failed": r["failed"],
            "metrics": metrics}


def run_all(seed: int, seconds: float) -> dict:
    """Both modes on every workload, each in its own process, then the shares."""
    results, lines = {}, {}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                raise SetupError(f"{workload} --trace {trace}: {proc.stderr.strip()[-300:]}")
            out = proc.stdout.splitlines()
            print("\n".join(out[:-2]))   # the machine line is printed once, below
            lines[workload, trace] = json.loads(out[-1])
            results[workload, trace] = json.loads(results_path(workload, seed, trace).read_text())
    machine = results[workloads.WORKLOADS[0], 0]["machine"]
    print("machine: " + ", ".join(f"{k}={v}" for k, v in machine.items()))
    print_shares(results)
    return {
        "correct": all(x["correct"] for x in lines.values()),
        "attempted": sum(x["attempted"] for x in lines.values()),
        "failed": sum(x["failed"] for x in lines.values()),
        "metrics": {f"{w}/{n}": v for (w, _), x in lines.items() for n, v in x["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64 or not args.seconds > 0:
        parser.error("--seed must be a 64-bit unsigned integer and --seconds positive")

    if args.workload == "all":
        print(json.dumps(run_all(args.seed, args.seconds)))
        return 0
    r = (traced if args.trace else end_to_end)(args.workload, args.seed, args.seconds)
    machine = machine_info()
    OUT.mkdir(exist_ok=True)
    results_path(args.workload, args.seed, args.trace).write_text(
        json.dumps({"machine": machine, "seed": args.seed, "seconds": args.seconds, **r},
                   indent=1) + "\n", encoding="utf-8")
    (print_traced if args.trace else print_end_to_end)(r)
    print("machine: " + ", ".join(f"{k}={v}" for k, v in machine.items()))
    print(json.dumps(result_line(r)))
    return 0


if __name__ == "__main__":
    if not (ROOT / "src" / "erlab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no erlab package under {ROOT / 'src'}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)  # generated paths are relative to the repository root
    try:
        sys.exit(main())
    except SetupError as exc:
        sys.exit(f"perfbench: set-up failed: {exc}")

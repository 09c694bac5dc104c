"""Traced replay: per-layer numbers measured from outside the program.

The replay runs the workload's generated inputs in-process through
``erlab.cli.main``.  Spans are recorded around calls into each module's
public functions by rebinding them, in every ``erlab`` module namespace,
to a timing wrapper; nothing inside ``src/`` changes.  Spans stay in memory
(name, start, end, parent, op) with per-function call counts and are
written out when the run ends.

Layers a workload's own inputs never reach are measured on its probe ops
(see ``workloads``), so every layer has a number on every workload; the
report marks which came from a probe.  The ``import`` layer is timed in
fresh interpreters and the ``spinsim`` cost model comes from a two-point
fit over the step count.

``trace.overhead_s`` is the cost of one span wrapper, calibrated on a no-op,
times the number of spans in the traced replay.  The plain difference of the
traced and untraced replays is also reported, but it is a few hundred spans'
worth of microseconds against replays whose run-to-run noise is milliseconds
to seconds, so it reads negative as often as not.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict

LAYER_MODULES = ("units", "species", "sensors", "report", "cli", "spinsim")

# two-point fit of simulate_transient over the step count, at fixed M
FIT_TRAJECTORIES = 8192
FIT_STEPS = (100, 2000)

# per-layer metric -> (unit, the end-to-end metric it should move)
PER_LAYER = {
    "import.python_s": ("s", "floor of every wall_p50_s; no erlab change removes it"),
    "import.erlab_cli_s": ("s", "cli-analytic/wall_p50_s"),
    "import.erlab_cli_default_cpu_s": ("s", "none end to end: CPU with numpy's default BLAS pool,"
                                            " which the pinned cpu_p50_s does not show"),
    "import.numpy_loaded": ("count", "cli-analytic/wall_p50_s (not sim-*)"),
    "cli.main_ms": ("ms", "cli-analytic/wall_p50_s"),
    "cli.tracebacks": ("count", "cli-analytic failed_ratio"),
    "cli.nonfinite_json": ("count", "cli-analytic failed_ratio"),
    "units.parse_quantity_us": ("us", "cli-analytic/wall_p50_s"),
    "species.default_catalog_us": ("us", "cli-analytic/wall_p50_s"),
    "sensors.atomic_floor_us": ("us", "cli-analytic/wall_p50_s"),
    "sensors.squid_erl_us": ("us", "cli-analytic/wall_p50_s"),
    "sensors.diamond_erl_us": ("us", "cli-analytic/wall_p50_s"),
    "sensors.compare_published_us": ("us", "cli-analytic/wall_p50_s"),
    "sensors.default_published_records_us": ("us", "cli-analytic/wall_p50_s"),
    "report.render_text_us": ("us", "cli-analytic/wall_p50_s"),
    "report.render_json_us": ("us", "cli-analytic/wall_p50_s"),
    "report.render_csv_us": ("us", "cli-analytic/wall_p50_s"),
    "spinsim.simulate_transient_s": ("s", "sim-*/wall_p50_s"),
    "spinsim.per_traj_us": ("us", "sim-wide/wall_p50_s"),
    "spinsim.per_step_ns": ("ns", "sim-deep/wall_p50_s"),
    "spinsim.speedup_w2": ("x", "thread scaling; sim-deep runs one worker, so none end to end"),
    "spinsim.result_to_json_us": ("us", "sim-deep/wall_p50_s (small)"),
    "spinsim.write_trajectory_csv_ms": ("ms", "sim-deep/wall_p50_s (small)"),
    "spinsim.normals": ("count", "computed as M*S, not measured"),
    "trace.overhead_s": ("s", "none: span-wrapper cost summed over the traced replay"),
}

# per-layer metrics that are the mean duration of one function's spans
_SPAN_METRICS = tuple(
    name for name in PER_LAYER
    if name.split(".")[0] in ("units", "species", "sensors", "report", "spinsim")
    and PER_LAYER[name][0] in ("us", "ms", "s")
    and name not in ("spinsim.per_traj_us", "spinsim.per_step_ns")
)
_SECONDS_TO = {"us": 1e6, "ms": 1e3, "s": 1.0}


class Tracer:
    """In-memory spans around calls into erlab's public functions.

    Only the thread that runs the replay enters the wrappers: the
    simulator's worker threads call private functions alone.
    """

    def __init__(self):
        self.spans: list[tuple[str, int, int, int | None, int]] = []
        self.counts: Counter[str] = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.op)
                counts[name] += 1

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [importlib.import_module(f"erlab.{layer}") for layer in LAYER_MODULES]
        namespaces = [m for n, m in sys.modules.items() if n == "erlab" or n.startswith("erlab.")]
        for layer, module in zip(LAYER_MODULES, modules):
            for name, fn in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != module.__name__:
                    continue
                wrapped = self._wrap(f"{layer}.{name}", fn)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, attr, wrapped)
                            self._restore.append((ns, attr, fn))

    def uninstall(self) -> None:
        for ns, attr, fn in reversed(self._restore):
            setattr(ns, attr, fn)
        self._restore.clear()

    def self_times(self) -> dict[str, float]:
        """Seconds per layer, each span's duration minus its children's."""
        child = defaultdict(int)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            out[name.split(".")[0]] += (end - start - child[sid]) / 1e9
        return dict(out)

    def dump(self) -> dict:
        return {
            "fields": ["name", "start_ns", "end_ns", "parent", "op"],
            "spans": self.spans,
            "counts": dict(self.counts),
        }


def replay(ops, tracer: Tracer | None = None):
    """Run each op through ``erlab.cli.main`` in-process.

    Yields ``(index, op, seconds, returncode, stdout, stderr)``; the return
    code is ``None`` when ``main`` raised.
    """
    cli = importlib.import_module("erlab.cli")
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(op.argv))
        except Exception:  # a traceback is an outcome to count, not to stop on
            code = None
            err.write(traceback.format_exc())
        yield index, op, time.perf_counter() - start, code, out.getvalue(), err.getvalue()


def span_means(tracer: Tracer, own: set[int], probes: set[int]
               ) -> tuple[dict[str, float], dict[str, str]]:
    """Mean duration per call of each span metric, and whether it came from
    the workload's own ops or, where they never reach it, from a probe."""
    durations: dict[tuple[str, bool], list[int]] = defaultdict(list)
    for name, start, end, _, op in tracer.spans:
        if op in own or op in probes:
            durations[name, op in own].append(end - start)
    values, sources = {}, {}
    for metric in _SPAN_METRICS:
        name = metric.rsplit("_", 1)[0]
        source = "own" if durations.get((name, True)) else "probe"
        samples = durations.get((name, source == "own"))
        if samples:
            values[metric] = statistics.fmean(samples) / 1e9 * _SECONDS_TO[PER_LAYER[metric][0]]
            sources[metric] = source
    return values, sources


def wrapper_cost() -> float:
    """Seconds one span wrapper adds to a call: a no-op timed bare and
    wrapped, in alternating order, median over batches."""
    calls, batches = 20000, 5
    def noop():
        pass

    wrapped = Tracer()._wrap("calibrate", noop)
    diffs = []
    for batch in range(batches):
        order = (noop, wrapped) if batch % 2 else (wrapped, noop)
        t = {}
        for fn in order:
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            t[fn] = time.perf_counter() - start
        diffs.append((t[wrapped] - t[noop]) / calls)
    return statistics.median(diffs)


def time_call(fn, *args, **kwargs) -> float:
    start = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - start


def spinsim_fit(seed: int) -> tuple[float, float]:
    """Per-trajectory and per-step seconds from two step counts at one M."""
    spinsim = sys.modules["erlab.spinsim"]
    (s1, s2), m = FIT_STEPS, FIT_TRAJECTORIES
    t1, t2 = (
        time_call(spinsim.simulate_transient,
                  spinsim.SimConfig(1e6, 1.0, m, steps_per_tau=s, seed=seed))
        for s in (s1, s2)
    )
    per_step = (t2 - t1) / (m * (s2 - s1))
    return t1 / m - per_step * s1, per_step

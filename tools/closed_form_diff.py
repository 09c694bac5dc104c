"""Differential of erlab's closed forms: a parent tree against this one.

    python3 tools/closed_form_diff.py PARENT_SRC [--draws N] [--seed S]

``PARENT_SRC`` is the ``src`` directory of another checkout (for example
one made with ``git archive``).  Each function below is called on the same
``--draws`` seeded inputs, every argument log-uniform over 1e-300 to
1e300 within its domain, once in a child interpreter per tree.  Per
function it prints how many inputs both trees accept with the same bits
("kept") and with other bits ("changed"), how many only this tree accepts
("accepted") and how many only the parent accepts ("refused"), and after
"changed" and "accepted" the largest error of those results of this tree,
in ulps of the true value at 60 mpmath digits, beside the function's
budget.  The formulas and budgets are those of ``tests/test_accuracy.py``.

Exits 1 if this tree refuses an input the parent accepts, or if a changed
or newly accepted result is over its budget.  Needs mpmath, pytest and
hypothesis, as the accuracy test does.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import test_accuracy  # noqa: E402  (this tree's erlab, and the formulas and budgets of its closed forms)
from erlab.sensors import SquidSpec  # noqa: E402

# function -> the (low, high) range of each argument; squid_erl's are those of SquidSpec(p, T, tau)
RANGES = {
    "bounds.measurement_work_bound": ((1e-300, 1e300),) * 2,
    "bounds.erl_quantum": ((1e-300, 1e300),) * 3,
    "bounds.field_fluctuation_from_work": ((1e-300, 1e300),) * 2,
    "bounds.spin_temperature": ((1, 1e300), (1e-300, 1e300), (1e-300, 1e300)),
    "bounds.spin_temp_polarization": ((1e-300, 1e300),) * 3,
    "sensors.squid_erl": ((1e-300, 0.999), (1e-300, 1e300), (1e-300, 1e300)),
    "sensors.diamond_erl": ((1e-300, 1e300),) * 2,
    "sensors.measured_erl_from_psd": ((1e-300, 1e300),) * 2,
    "species.mean_relative_velocity": ((1e-300, 1e300),) * 2,
}

# run in each tree's child: reads {name: [args as float.hex]}, writes {name: [hex or null]}
_CHILD = """
import importlib, json, sys
from erlab.sensors import SquidSpec
out = {}
for name, draws in json.load(sys.stdin).items():
    module, function = name.split(".")
    fn = getattr(importlib.import_module("erlab." + module), function)
    results = out[name] = []
    for args in draws:
        args = [float.fromhex(a) for a in args]
        try:
            results.append((fn(SquidSpec(*args)) if function == "squid_erl" else fn(*args)).hex())
        except ValueError:
            results.append(None)
json.dump(out, sys.stdout)
"""


def draws(count: int, seed: int) -> dict[str, list[list[float]]]:
    rng = random.Random(seed)
    out = {}
    for name, ranges in RANGES.items():
        logs = [(math.log10(low), math.log10(high)) for low, high in ranges]
        out[name] = [[10.0 ** rng.uniform(*log) for log in logs] for _ in range(count)]
    return out


def run(src: Path, inputs: dict) -> dict[str, list[float | None]]:
    payload = json.dumps({name: [[a.hex() for a in args] for args in rows] for name, rows in inputs.items()})
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", _CHILD], input=payload, capture_output=True, text=True,
                          env=env, check=True)
    return {name: [None if r is None else float.fromhex(r) for r in rows]
            for name, rows in json.loads(done.stdout).items()}


def error(fn, xs: list[float], value: float) -> float:
    """ulps of ``value`` from the true value of ``fn`` at ``xs``, by the accuracy test's formula."""
    _, formula, _ = test_accuracy._CLOSED_FORMS[fn]
    args = (SquidSpec(*xs),) if fn.__name__ == "squid_erl" else map(test_accuracy.mpf, xs)
    with test_accuracy.mpmath.workdps(60):
        return test_accuracy._ulps(value, formula(test_accuracy._mp_constants(), *args))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path, help="the src directory of the parent tree")
    parser.add_argument("--draws", type=int, default=20_000, help="inputs per function (default: 20000)")
    parser.add_argument("--seed", type=int, default=1, help="seed of the draws (default: 1)")
    args = parser.parse_args(argv)
    inputs = draws(args.draws, args.seed)
    parent, change = run(args.parent_src, inputs), run(ROOT / "src", inputs)
    print(f"{'function':30} {'kept':>6} {'changed':>7} {'(ulp)':>5} {'accepted':>8} {'(ulp)':>5} {'budget':>6} "
          f"{'refused':>7}")
    failed = False
    for name in RANGES:
        module, function = name.split(".")
        fn = getattr(importlib.import_module("erlab." + module), function)
        budget = test_accuracy._CLOSED_FORMS[fn][2]
        kept = changed = new = refused = 0
        worst_changed = worst_new = 0.0
        for xs, old, now in zip(inputs[name], parent[name], change[name]):
            if now is None:
                refused += old is not None
            elif old is not None and old.hex() == now.hex():
                kept += 1
            elif old is None:
                new, worst_new = new + 1, max(worst_new, error(fn, xs, now))
            else:
                changed, worst_changed = changed + 1, max(worst_changed, error(fn, xs, now))
        failed |= bool(refused) or max(worst_changed, worst_new) > budget
        print(f"{function:30} {kept:6} {changed:7} {worst_changed:5.2f} {new:8} {worst_new:5.2f} {budget:6} "
              f"{refused:7}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

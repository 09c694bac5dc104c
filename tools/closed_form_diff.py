"""Differential of erlab's closed forms: a parent tree against this one.

    python3 tools/closed_form_diff.py PARENT_SRC [--draws N] [--seed S]

``PARENT_SRC`` is the ``src`` directory of another checkout (for example
one made with ``git archive``).  Each function below is called on the same
``--draws`` seeded inputs, every argument log-uniform over 1e-300 to
1e300 within its domain, once in a child interpreter per tree;
``atomic_floor`` is called on a cell of a drawn species, of spin 0.5 to
1e150, with its density within 1 to 1e30, where the accuracy test's budgets
of its report hold, and is compared field by field.  Per function or field
it prints how many inputs both trees accept with the same bits ("kept") and
with other bits ("changed"), how many only this tree accepts ("accepted")
and how many only the parent accepts ("refused"), and after "kept",
"changed" and "accepted" the largest error of those results of this tree,
in ulps of the true value at 60 mpmath digits, beside the budget; and how
many inputs both trees refuse with other messages ("messages"), the first
of which it prints after the table.  The formulas and budgets are those of
``tests/test_accuracy.py``.

Exits 1 if this tree refuses an input the parent accepts, or if a changed
or newly accepted result is over its budget (a kept one is the parent's); a
changed message alone does not fail the run.  A call that raises anything
but ValueError stops the run.  Needs mpmath, pytest and hypothesis, as the
accuracy test does.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import test_accuracy  # noqa: E402  (this tree's erlab, and the formulas and budgets of its closed forms)
from erlab.atomic_report import AtomicErlReport  # noqa: E402
from erlab.sensors import SquidSpec  # noqa: E402
from erlab.species import Species  # noqa: E402

# function -> the (low, high) range of each argument; squid_erl's are those of SquidSpec(p, T, tau),
# atomic_floor's those of Species(spin, mass, sigma, T) and of the cell's density and volume
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
    "sensors.invert_sigma_v": ((1e-300, 1e300),) * 4,
    "sensors.atomic_psd": ((1e-300, 1e300),) * 2,
    "sensors.erl_ratio": ((1e-300, 1e300),) * 2,
    "sensors.atomic_floor": ((0.5, 1e150), *((1e-300, 1e300),) * 3, (1, 1e30), (1e-300, 1e300)),
}
REPORT_FIELDS = [field.name for field in dataclasses.fields(AtomicErlReport)]

# run in each tree's child: reads {name: [args as float.hex]}, writes {name: [[hex of each value] or message]}
_CHILD = """
import importlib, json, sys
from fractions import Fraction
from erlab.sensors import SquidSpec, VaporCell
from erlab.species import Species

def call(function, fn, args):
    if function == "squid_erl":
        return [fn(SquidSpec(*args))]
    if function == "atomic_floor":
        spin, mass, sigma, temperature, n, V = args
        species = Species("X", Fraction(round(2 * spin), 2), mass, sigma, temperature)
        return list(vars(fn(VaporCell(species, n, V))).values())
    return [fn(*args)]

out = {}
for name, draws in json.load(sys.stdin).items():
    module, function = name.split(".")
    fn = getattr(importlib.import_module("erlab." + module), function)
    results = out[name] = []
    for args in draws:
        try:
            results.append([value.hex() for value in call(function, fn, [float.fromhex(a) for a in args])])
        except ValueError as exc:
            results.append(str(exc))
json.dump(out, sys.stdout)
"""


def draws(count: int, seed: int) -> dict[str, list[list[float]]]:
    rng = random.Random(seed)
    out = {}
    for name, ranges in RANGES.items():
        logs = [(math.log10(low), math.log10(high)) for low, high in ranges]
        out[name] = [[10.0 ** rng.uniform(*log) for log in logs] for _ in range(count)]
    return out


def run(src: Path, inputs: dict) -> dict[str, list[list[str] | str]]:
    payload = json.dumps({name: [[a.hex() for a in args] for args in rows] for name, rows in inputs.items()})
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", _CHILD], input=payload, capture_output=True, text=True,
                          env=env, check=True)
    return json.loads(done.stdout)


def function(name: str):
    module, attribute = name.split(".")
    return getattr(importlib.import_module("erlab." + module), attribute)


def fields(name: str) -> list[tuple[str, float]]:
    """The label and budget of each value a call of ``name`` returns."""
    if name == "sensors.atomic_floor":
        return [(f"atomic_floor.{field}", test_accuracy._REPORT_BUDGETS[field]) for field in REPORT_FIELDS]
    return [(name.split(".")[1], test_accuracy._CLOSED_FORMS[function(name)][2])]


def errors(name: str, xs: list[float], values: list[str]) -> list[float]:
    """ulps of each of ``values`` from its true value at ``xs``, by the accuracy test's formulas."""
    with test_accuracy.mpmath.workdps(60):
        if name == "sensors.atomic_floor":
            spin, mass, sigma, temperature, n, V = xs
            sp = Species("X", Fraction(round(2 * spin), 2), mass, sigma, temperature)
            report = test_accuracy._exact_report(sp, n, V)
            exact = [report[field] for field in REPORT_FIELDS]
        else:
            fn = function(name)
            args = (SquidSpec(*xs),) if name == "sensors.squid_erl" else map(test_accuracy.mpf, xs)
            exact = [test_accuracy._CLOSED_FORMS[fn][1](test_accuracy._mp_constants(), *args)]
        return [test_accuracy._ulps(float.fromhex(v), e) for v, e in zip(values, exact)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path, help="the src directory of the parent tree")
    parser.add_argument("--draws", type=int, default=20_000, help="inputs per function (default: 20000)")
    parser.add_argument("--seed", type=int, default=1, help="seed of the draws (default: 1)")
    args = parser.parse_args(argv)
    inputs = draws(args.draws, args.seed)
    parent, change = run(args.parent_src, inputs), run(ROOT / "src", inputs)
    print(f"{'function':40} {'kept':>6} {'(ulp)':>5} {'changed':>7} {'(ulp)':>5} {'accepted':>8} {'(ulp)':>5} "
          f"{'budget':>6} {'refused':>7} {'messages':>8}")
    failed = False
    first_messages = []
    for name in RANGES:
        labels = fields(name)
        kept, changed = [0] * len(labels), [0] * len(labels)
        worst_kept, worst_changed, worst_new = ([0.0] * len(labels) for _ in range(3))
        new = refused = messages = 0
        for xs, old, now in zip(inputs[name], parent[name], change[name]):
            if isinstance(now, str):  # refused, with this message
                refused += not isinstance(old, str)
                if isinstance(old, str) and old != now:
                    messages += 1
                    if messages == 1:
                        first_messages.append(f"{name}{tuple(xs)}: {old!r} -> {now!r}")
                continue
            new += isinstance(old, str)
            for i, (value, ulps) in enumerate(zip(now, errors(name, xs, now))):
                if isinstance(old, str):
                    worst_new[i] = max(worst_new[i], ulps)
                elif old[i] == value:
                    kept[i], worst_kept[i] = kept[i] + 1, max(worst_kept[i], ulps)
                else:
                    changed[i], worst_changed[i] = changed[i] + 1, max(worst_changed[i], ulps)
        failed |= bool(refused)
        for i, (label, budget) in enumerate(labels):
            failed |= max(worst_changed[i], worst_new[i]) > budget
            print(f"{label:40} {kept[i]:6} {worst_kept[i]:5.2f} {changed[i]:7} {worst_changed[i]:5.2f} {new:8} "
                  f"{worst_new[i]:5.2f} {budget:6} {refused:7} {messages:8}")
    for line in first_messages:
        print(line)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""Mutation sweep of erlab's source against the Tier-1 suite.

    python3 tools/mutants.py --kind operand
    python3 tools/mutants.py --kind require
    python3 tools/mutants.py --kind compare

``operand`` makes one mutant per operand of each ``and`` or ``or`` in
``src/erlab``, with that operand dropped; ``require`` makes one per call
``require(x, ...)``, replaced by ``x``; ``compare`` makes one per ``<``,
``<=``, ``>`` or ``>=``, with its strictness flipped (``<`` to ``<=`` and
back), one operator of a chained comparison at a time.  The sweep copies
``src``, ``tests``, ``pyproject.toml`` (the suite's warning filters) and
``README.md`` (its examples are a test) into one temporary directory, and
for each mutant writes the mutated module there, runs the Tier-1 suite
with ``-x`` on that copy, and restores the module.  It prints each mutant
with "killed" or "survived" and exits 1 if any survived.  A run that takes
longer than ``TIMEOUT_S`` counts as killed.

Not part of the Tier-1 suite: each mutant is one run of it, so a sweep
takes minutes (on 2 cores, about 5 for the 18 operand mutants, 14 for the
52 ``require`` mutants and 8 for the 31 ``compare`` mutants).  A survivor
that ``EXPECTED`` names, with the reason why no test can tell it apart, is
printed as "expected" and does not count.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "erlab"
TIMEOUT_S = 900
# the survivors no test can kill, each with the reason, by label without its
# line number
EXPECTED = {
    "units.py 'value < 0' -> 'value <= 0'":
        "brief's sign of an integer or Fraction too long to print, which is never 0",
}
# < <-> <=, > <-> >=
_FLIPPED = {ast.Lt: "<=", ast.LtE: "<", ast.Gt: ">=", ast.GtE: ">"}
_SYMBOL = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
           ast.In: "in", ast.NotIn: "not in", ast.Is: "is", ast.IsNot: "is not"}
TIER1 = ("-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors")


def _replacements(node: ast.AST, kind: str, segment):
    """(description, replacement source) of each mutant of ``node``."""
    if kind == "operand" and isinstance(node, ast.BoolOp):
        op = " and " if isinstance(node.op, ast.And) else " or "
        for k, dropped in enumerate(node.values):
            rest = node.values[:k] + node.values[k + 1:]
            yield f"drop {segment(dropped)!r} from {op.strip()}", "(" + op.join(f"({segment(v)})" for v in rest) + ")"
    elif (kind == "require" and isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
          and node.func.id == "require"):
        yield f"{segment(node)!r} -> its value", f"({segment(node.args[0])})"
    elif kind == "compare" and isinstance(node, ast.Compare):
        operands = [segment(v) for v in (node.left, *node.comparators)]
        for k, op in enumerate(node.ops):
            if type(op) in _FLIPPED:
                ops = [_SYMBOL[type(o)] for o in node.ops]
                ops[k] = _FLIPPED[type(op)]

                def chain(wrap):
                    return wrap(operands[0]) + "".join(f" {o} {wrap(v)}" for o, v in zip(ops, operands[1:]))

                yield f"{segment(node)!r} -> {chain(str)!r}", f"({chain('({})'.format)})"


def mutants(kind: str):
    """(label, module path, mutated source bytes) of each mutant of ``kind``,
    file by file in name order and in source order within a file."""
    for path in sorted(SRC.glob("*.py")):
        data = path.read_bytes()
        # ast's column offsets count UTF-8 bytes, so the module is spliced as bytes
        starts = [0]
        for line in data.splitlines(keepends=True):
            starts.append(starts[-1] + len(line))

        def span(node):
            return starts[node.lineno - 1] + node.col_offset, starts[node.end_lineno - 1] + node.end_col_offset

        def segment(node):
            lo, hi = span(node)
            return data[lo:hi].decode()

        nodes = sorted(ast.walk(ast.parse(data)), key=lambda n: (getattr(n, "lineno", 0), getattr(n, "col_offset", 0)))
        for node in nodes:
            for what, replacement in _replacements(node, kind, segment):
                lo, hi = span(node)
                yield f"{path.name}:{node.lineno} {what}", path, data[:lo] + replacement.encode() + data[hi:]


def killed(copy: Path) -> bool:
    """Whether the Tier-1 suite fails (or times out) on the tree at ``copy``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(copy / "src"), os.environ.get("PYTHONPATH"))))}
    try:
        run = subprocess.run([sys.executable, *TIER1], cwd=copy, env=env, stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return True
    return run.returncode != 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kind", choices=("operand", "require", "compare"), required=True)
    kind = parser.parse_args(argv).kind
    survivors = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
        for name in ("pyproject.toml", "README.md"):
            shutil.copy(ROOT / name, copy / name)
        for label, path, source in list(mutants(kind)):  # all listed first: a later edit of the tree changes none
            target = copy / path.relative_to(ROOT)
            original = target.read_bytes()
            target.write_bytes(source)
            try:
                verdict = "killed" if killed(copy) else "survived"
            finally:
                target.write_bytes(original)
            reason = EXPECTED.get(re.sub(r":\d+ ", " ", label, count=1))
            if verdict == "survived" and reason:
                verdict = "expected"
                label += f" ({reason})"
            survivors += verdict == "survived"
            print(f"{verdict:8}  {label}", flush=True)
    print(f"{survivors} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())

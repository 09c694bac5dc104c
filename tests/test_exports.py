"""Every name in an erlab module's ``__all__`` exists, so a deleted function
cannot leave a stale export behind, the package's one export,
``__version__``, is the version ``pyproject.toml`` declares, and every
exception erlab raises is one the CLI maps to its exit code."""

import ast
import builtins
import importlib
import pkgutil
from pathlib import Path

import pytest

import erlab


def test_every_export_resolves():
    checked = 0
    for info in pkgutil.iter_modules(erlab.__path__):
        module = importlib.import_module(f"erlab.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"erlab.{info.name}.__all__ lists missing {name!r}"
            checked += 1
    assert checked > 0


def test_version_is_the_one_pyproject_declares():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    assert tomllib.loads(pyproject.read_text())["project"]["version"] == erlab.__version__


# a _UsageError exits 1 and a ValueError 2; a ChildProcessError, a failed
# simulator worker, is an OSError and exits 3
_RAISED = {"ValueError", "ChildProcessError", "_UsageError"}


def test_every_raise_is_of_the_exit_code_taxonomy():
    checked = 0
    for path in sorted(Path(erlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exceptions = {name for name, obj in vars(builtins).items()
                      if isinstance(obj, type) and issubclass(obj, BaseException)}
        for node in sorted((n for n in ast.walk(tree) if isinstance(n, (ast.Raise, ast.ClassDef))),
                           key=lambda n: n.lineno):
            where = f"{path.name}:{node.lineno}"
            if isinstance(node, ast.ClassDef):
                if any(getattr(base, "id", None) in exceptions for base in node.bases):
                    assert node.name == "_UsageError", f"{where} defines the exception class {node.name}"
                    exceptions.add(node.name)
            elif node.exc is not None:  # a bare raise re-raises what was caught
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                assert getattr(exc, "id", None) in _RAISED, f"{where} raises {ast.unparse(node.exc)}"
                checked += 1
    assert checked > 0

"""Every name in an erlab module's ``__all__`` exists, so a deleted function
cannot leave a stale export behind, and the package's one export,
``__version__``, is the version ``pyproject.toml`` declares."""

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

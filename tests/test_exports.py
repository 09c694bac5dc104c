"""Every name in an erlab module's ``__all__`` exists, so a deleted function
cannot leave a stale export behind."""

import importlib
import pkgutil

import erlab


def test_every_export_resolves():
    checked = 0
    for info in pkgutil.iter_modules(erlab.__path__):
        module = importlib.import_module(f"erlab.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"erlab.{info.name}.__all__ lists missing {name!r}"
            checked += 1
    assert checked > 0

"""Every public name the package lists resolves.

``perfbench/traced_child.py`` walks ``fileio.__all__`` with ``getattr``, so
a stale entry in any ``__all__`` would break every traced run, and
``import radcal`` re-exports names from the modules.
"""

import importlib
import inspect
import pkgutil

import pytest

import radcal

MODULES = sorted(info.name for info in pkgutil.iter_modules(radcal.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(f"radcal.{name}")
    listed = getattr(module, "__all__", [])
    assert len(set(listed)) == len(listed)
    assert [n for n in listed if not hasattr(module, n)] == []


def test_package_reexports_only_listed_names():
    listed = {}
    for name in MODULES:
        module = importlib.import_module(f"radcal.{name}")
        listed.update({n: getattr(module, n) for n in getattr(module, "__all__", [])})
    exported = {
        n: v for n, v in vars(radcal).items()
        if not n.startswith("_") and not inspect.ismodule(v)
    }
    assert sorted(exported.keys() - listed.keys()) == []
    assert all(listed[n] is v for n, v in exported.items())

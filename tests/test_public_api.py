"""Every exported name resolves, so a deletion cannot leave a stale export."""

import importlib
import pkgutil

import pytest

import textrap

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(textrap.__path__))


def test_package_exports_resolve_once():
    assert len(textrap.__all__) == len(set(textrap.__all__))
    missing = [name for name in textrap.__all__ if not hasattr(textrap, name)]
    assert missing == []


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve(name):
    module = importlib.import_module(f"textrap.{name}")
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == []

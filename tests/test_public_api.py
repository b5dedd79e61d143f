"""Every exported name resolves, so a deletion cannot leave a stale export."""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import textrap

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(textrap.__path__))
LAYERS = ("errors", "tensor_core", "tproduct_algebra", "stack_products", "tsvd",
          "extrapolation", "trre_tsvd_solver")


def test_package_exports_resolve_once():
    # the package exports each layer's own list, in layer order, and the
    # objects its modules define (tracing rebinds them by identity)
    assert set(LAYERS) == set(SUBMODULES) - {"__main__", "cli"}
    modules = [importlib.import_module(f"textrap.{name}") for name in LAYERS]
    assert textrap.__all__ == [name for module in modules for name in module.__all__]
    assert len(textrap.__all__) == len(set(textrap.__all__))
    strangers = [(module.__name__, name) for module in modules for name in module.__all__
                 if getattr(textrap, name) is not getattr(module, name)]
    assert strangers == []
    assert inspect.isfunction(textrap.tsvd)


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve(name):
    module = importlib.import_module(f"textrap.{name}")
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == []


def test_checks_take_no_tolerance():
    # rank and definiteness use INVERTIBILITY_THRESHOLD, identity checks
    # IDENTITY_TOL; neither is an option
    checks = (textrap.tubal_rank, textrap.is_positive_definite, textrap.left_inverse,
              textrap.verify_left_inverse, textrap.gamma_to_alpha, textrap.is_orthogonal,
              textrap.check_moore_penrose)
    assert [f.__name__ for f in checks if "tol" in inspect.signature(f).parameters] == []
    assert [f.name for f in dataclasses.fields(textrap.PenroseReport)] == ["residuals"]

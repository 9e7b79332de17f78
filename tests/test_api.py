"""The package's public names: every submodule's __all__ is importable."""

import importlib
import pkgutil

import pytest

import pxdg

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(pxdg.__path__))

# the console entry point, not library API
NOT_REEXPORTED = {"cli"}


@pytest.mark.parametrize("name", SUBMODULES)
def test_all_names_resolve_and_are_reexported(name):
    module = importlib.import_module(f"pxdg.{name}")
    assert module.__all__
    for attr in module.__all__:
        assert hasattr(module, attr), f"pxdg.{name}.__all__ lists {attr}"
        if name not in NOT_REEXPORTED:
            assert getattr(pxdg, attr, None) is getattr(module, attr), \
                f"pxdg does not re-export pxdg.{name}.{attr}"

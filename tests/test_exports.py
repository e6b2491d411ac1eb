"""Every name the package and its modules export resolves, once."""

import importlib
import pkgutil

import pytest

import convstab

MODULES = sorted(info.name for info in pkgutil.iter_modules(convstab.__path__))


def test_the_package_exports_resolve_without_duplicates():
    missing = [name for name in convstab.__all__ if not hasattr(convstab, name)]
    assert not missing, f"convstab.__all__ names missing attributes: {missing}"
    assert len(set(convstab.__all__)) == len(convstab.__all__)


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve_without_duplicates(name):
    module = importlib.import_module(f"convstab.{name}")
    exported = getattr(module, "__all__", None)
    assert exported is not None, f"convstab.{name} declares no __all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"convstab.{name}.__all__ names missing attributes: {missing}"
    assert len(set(exported)) == len(exported), f"convstab.{name}.__all__ repeats a name"

"""Meta-test: every public item in the library carries a docstring.

"Public" means: any module under ``repro``, and any class, function
or method whose name does not start with an underscore, defined in
this package (not re-exported from elsewhere).
"""

import importlib
import inspect
import pkgutil

import pytest

import repro


try:  # repro.ilp needs the optional "ilp" extra (numpy and scipy)
    import numpy  # noqa: F401
    import scipy  # noqa: F401

    HAVE_ILP_EXTRA = True
except ImportError:
    HAVE_ILP_EXTRA = False


def _walk_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.startswith("repro.ilp") and not HAVE_ILP_EXTRA:
            yield pytest.param(
                info.name, id=info.name,
                marks=pytest.mark.skip(reason="needs the ilp extra"),
            )
            continue
        yield importlib.import_module(info.name)


MODULES = list(_walk_modules())


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_has_docstring(module):
    assert module.__doc__ and module.__doc__.strip(), (
        f"module {module.__name__} lacks a docstring"
    )


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_public_items_have_docstrings(module):
    missing = []
    for name, item in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(item) or inspect.isfunction(item)):
            continue
        if getattr(item, "__module__", None) != module.__name__:
            continue  # re-export; documented at its definition site
        if not (item.__doc__ and item.__doc__.strip()):
            missing.append(name)
            continue
        if inspect.isclass(item):
            for member_name, member in vars(item).items():
                if member_name.startswith("_"):
                    continue
                if not inspect.isfunction(member):
                    continue
                if not (member.__doc__ and member.__doc__.strip()):
                    missing.append(f"{name}.{member_name}")
    assert not missing, (
        f"{module.__name__}: public items without docstrings: {missing}"
    )

"""Meta-tests on API quality: docstrings and export hygiene."""

import importlib
import inspect
import pkgutil

import pytest

import repro

_MODULES = [
    name
    for _, name, _ in pkgutil.walk_packages(
        repro.__path__, prefix="repro."
    )
    if not name.startswith("repro.experiments.")  # covered separately
]


def _public_members(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [
            name for name in vars(module) if not name.startswith("_")
        ]
    for name in names:
        member = getattr(module, name, None)
        if member is None:
            continue
        if getattr(member, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(member) or inspect.isfunction(member):
            yield name, member


@pytest.mark.parametrize("module_name", _MODULES)
def test_module_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} lacks a module docstring"


@pytest.mark.parametrize("module_name", _MODULES)
def test_public_items_have_docstrings(module_name):
    module = importlib.import_module(module_name)
    undocumented = [
        name
        for name, member in _public_members(module)
        if not inspect.getdoc(member)
    ]
    assert not undocumented, (
        f"{module_name}: missing docstrings on {undocumented}"
    )


@pytest.mark.parametrize("module_name", _MODULES)
def test_dunder_all_entries_exist(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", ()):
        assert hasattr(module, name), (
            f"{module_name}.__all__ references missing {name!r}"
        )


def test_experiment_modules_define_run_and_render():
    import repro.experiments as experiments_package

    for _, name, _ in pkgutil.walk_packages(
        experiments_package.__path__, prefix="repro.experiments."
    ):
        module = importlib.import_module(name)
        if name.endswith(".context"):
            continue
        assert hasattr(module, "run"), f"{name} lacks run()"
        assert hasattr(module, "render"), f"{name} lacks render()"
        assert module.__doc__

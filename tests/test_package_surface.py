"""The lazily re-exported package surfaces behave like eager imports.

Each package ``__init__`` declares its names under ``TYPE_CHECKING`` and
resolves them on first read (``repro._lazy``); these tests pin that the
public surface is still complete, listable and star-importable.
"""

import importlib
import pkgutil

import pytest

PACKAGES = (
    "repro",
    "repro.clusters",
    "repro.core",
    "repro.faults",
    "repro.frontend",
    "repro.harness",
    "repro.interconnect",
    "repro.memory",
    "repro.operands",
    "repro.power",
    "repro.telemetry",
    "repro.wires",
    "repro.workloads",
)


@pytest.fixture(params=PACKAGES)
def package(request):
    return importlib.import_module(request.param)


def test_every_export_resolves_and_is_listed(package):
    listed = dir(package)
    for name in package.__all__:
        assert getattr(package, name) is not None, name
        assert name in listed, name


def test_star_import_binds_exactly_all(package):
    namespace = {}
    exec(f"from {package.__name__} import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(package.__all__)


def test_no_submodule_shadows_an_export(package):
    submodules = {info.name for info in pkgutil.iter_modules(package.__path__)}
    assert submodules.isdisjoint(package.__all__)


def test_misspelt_attribute_raises(package):
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(package, "no_such_name")
    assert not hasattr(package, "simulate_benchmarks")


def test_exports_are_the_defining_objects():
    from repro import __version__, model, simulate_benchmark
    from repro._version import package_version
    from repro.core.models import model as defined_model
    from repro.core.simulation import simulate_benchmark as defined_sim

    assert model is defined_model
    assert simulate_benchmark is defined_sim
    assert __version__ == package_version()

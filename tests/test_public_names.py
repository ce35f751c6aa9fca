"""Every public name resolves: each module's __all__, and every function the
benchmark's tracer wraps (TARGETS in perfbench/tracing.py), so removing a
name something still lists fails here rather than in a benchmark run."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import swarmfl

MODULES = ["swarmfl"] + [
    f"swarmfl.{info.name}" for info in pkgutil.iter_modules(swarmfl.__path__) if info.name != "__main__"
]


def tracer_targets() -> list[tuple[str, str]]:
    """(module, function) of every TARGETS entry, read from the tracer's source file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, function) for module, function, _, _ in tracing.TARGETS]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


@pytest.mark.parametrize("module, function", tracer_targets())
def test_traced_functions_resolve(module, function):
    assert callable(getattr(importlib.import_module(f"swarmfl.{module}"), function, None))

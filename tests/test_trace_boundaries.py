"""Every function the benchmark's tracer wraps still exists.

perfbench/tracing.py times the engine's layers by swapping each
(module, attribute path) in its BOUNDARIES table for a wrapper, and
looks each one up with getattr.  A refactor that removes or moves one
of them breaks every traced benchmark run with AttributeError; this
test fails first.
"""

import importlib
import importlib.util
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _boundaries() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BOUNDARIES


PLACES = [place for places in _boundaries().values() for place in places]


def test_boundaries_are_listed():
    assert len(PLACES) >= 20


@pytest.mark.parametrize("module_name, attr", PLACES, ids=[f"{m}.{a}" for m, a in PLACES])
def test_boundary_resolves(module_name, attr):
    target = importlib.import_module(module_name)
    for part in attr.split("."):  # "Class.method" paths too
        target = getattr(target, part)
    assert callable(target)

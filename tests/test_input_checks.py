"""Input checks at the library's edges, each with its typed error and
message, the overflow fallback of ComplexityModel.value, and the
consistency of the public names."""

import ast
import importlib
import math
import re

import pytest

import qea
from qea import (
    ComplexityModel,
    DomainError,
    ScenarioError,
    SurfaceCodeParams,
    available_logical_qubits,
    calibrate,
    classical_runtime,
    deadline_limited_size,
    default_scenario,
    parse_molecule,
    quantum_logical_throughput,
    quantum_runtime,
    robustness_table,
    scenario_from_dict,
)

from helpers import make_scenario

SURFACE = make_scenario(mode="surface-code")
SIMPLE = default_scenario()

CHECKS = {
    "throughput-t-count-0": (
        lambda: quantum_logical_throughput(SURFACE.quantum, 2030.0, 0.0),
        DomainError,
        "t_count must be > 0, got 0.0",
    ),
    "supply-t-count-negative": (
        lambda: available_logical_qubits(SURFACE.quantum, 2030.0, -1.0),
        DomainError,
        "t_count must be > 0, got -1.0",
    ),
    "classical-runtime-n-0": (
        lambda: classical_runtime(SIMPLE.algorithm("CCSD"), 0, 2030.0, SIMPLE),
        DomainError,
        "n must be >= 1, got 0",
    ),
    "quantum-runtime-n-0": (
        lambda: quantum_runtime(SIMPLE.algorithm("qpe-n3"), 0, 2030.0, SIMPLE),
        DomainError,
        "n must be >= 1, got 0",
    ),
    "threshold-error-above-1": (
        lambda: SurfaceCodeParams(threshold_error=1.5),
        DomainError,
        "threshold_error must be in (0, 1)",
    ),
    "failure-budget-0": (
        lambda: SurfaceCodeParams(failure_budget=0.0),
        DomainError,
        "failure_budget must be in (0, 1)",
    ),
    "molecule-zero-atoms": (lambda: parse_molecule("C:0"), DomainError, "atom counts must be >= 1 (C)"),
    "robustness-no-methods": (
        lambda: robustness_table(SIMPLE, [], "qpe-n3", []),
        DomainError,
        "method lists must be nonempty",
    ),
    "classical-not-an-object": (
        lambda: scenario_from_dict({"classical": 5}),
        ScenarioError,
        "'classical' must be an object",
    ),
    "calibrate-prefer-length": (
        lambda: calibrate(
            SIMPLE,
            ["quantum.logical_tgate_trend.annual_factor"],
            [("FCI", "qpe-n3", 2032)],
            prefer=["low", "high"],
        ),
        DomainError,
        "prefer must match free_params in length",
    ),
    # The scenario's own check, run by the replace that applies the deadline.
    **{
        f"deadline-{label}": (
            lambda d=deadline_s: deadline_limited_size(SIMPLE.algorithm("qpe-n3"), 2030.0, d, SIMPLE),
            DomainError,
            "deadline_s must be > 0",
        )
        for label, deadline_s in (("zero", 0.0), ("negative", -1.0), ("nan", math.nan))
    },
}


@pytest.mark.parametrize("name", list(CHECKS))
def test_input_check(name):
    call, error, message = CHECKS[name]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_value_overflow_falls_back_to_the_log():
    """1e10 ** 35 overflows a float, though the law's value, about
    1e250, does not."""
    model = ComplexityModel(constant=1e-100, size_exponent=35.0)
    with pytest.raises(OverflowError):
        1e10**35.0
    value = model.value(1e10)
    assert value == math.exp(model.log_value(1e10))
    assert 0.99e250 < value < 1.01e250


def test_public_names_are_consistent():
    """Every name qea re-exports from a submodule is in that submodule's
    __all__, and every __all__ entry resolves.  A submodule without
    __all__ (errors) exports the public names it defines."""
    with open(qea.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    reexports = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert len(reexports) > 50
    modules = {}
    for module_name, name in reexports:
        module = modules.setdefault(module_name, importlib.import_module(f"qea.{module_name}"))
        if hasattr(module, "__all__"):
            assert name in module.__all__, f"qea.{module_name}.__all__ lacks {name}"
        else:
            assert not name.startswith("_") and getattr(module, name).__module__ == module.__name__
    for module_name, module in modules.items():
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"qea.{module_name}.__all__ names a missing {name}"

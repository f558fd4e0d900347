"""Shared scenario builders and counters for the test suite."""

from __future__ import annotations

import collections
import dataclasses
import math

from qea import (
    ClassicalPlatform,
    ExponentialTrend,
    QuantumPlatform,
    Scenario,
    SurfaceCodeParams,
)


def make_scenario(
    classical=(2025, 1.0e18, 1.4),
    tgate=(2025, 1.0e5, 1.0),
    physical=(2024, 1.1e3, 1.0),
    ratio=(2025, 1.0e3, 1.0),
    error=(2025, 1.0e-3, 0.9),
    mode="simple",
    epsilon=1e-3,
    deadline_s=2_592_000.0,
    start_year=2025,
    horizon=2050,
    sc_params=None,
    **scenario_fields,
):
    """A scenario with explicit trend tuples (base_year, base_value, factor)."""
    s = Scenario(
        epsilon=epsilon,
        deadline_s=deadline_s,
        start_year=start_year,
        horizon=horizon,
        classical=ClassicalPlatform(ExponentialTrend(*classical)),
        quantum=QuantumPlatform(
            mode=mode,
            logical_tgates_per_dollar_second=ExponentialTrend(*tgate),
            physical_qubits=ExponentialTrend(*physical),
            physical_to_logical_ratio=ExponentialTrend(*ratio),
            physical_error_rate=ExponentialTrend(*error),
            sc_params=sc_params or SurfaceCodeParams(),
        ),
    )
    if scenario_fields:
        s = dataclasses.replace(s, **scenario_fields)
    return s


def with_tuning(scenario, name, **fields):
    """Scenario with one algorithm's tuning fields replaced."""
    from qea.catalog import canonical_name

    key = canonical_name(name)
    algorithms = dict(scenario.algorithms)
    algorithms[key] = dataclasses.replace(algorithms[key], **fields)
    return dataclasses.replace(scenario, algorithms=algorithms)


def fused_log_seconds(quantum, scenario, classical, year):
    """n -> the fused log-runtime gap of the pair in one year (the quantum
    log-runtime alone when classical is None), each n at its own hardware
    level."""
    from qea.cost import _log_seconds_builder
    from qea.hardware import classical_throughput

    log_t, log_seconds = _log_seconds_builder(quantum, scenario, classical)
    hardware = scenario.quantum.at(year)
    rates = () if classical is None else (math.log(classical_throughput(scenario.classical, year)),)
    return lambda n: log_seconds(n, hardware.log_rate(hardware.level(log_t(n))), *rates)


def count_envelopes(monkeypatch):
    """Counter of the envelopes built per (quantum spec, year), through the
    envelope builder that the year scan, the curve, feasibility_envelope
    and its two size wrappers share."""
    import qea.advantage as advantage

    counts = collections.Counter()
    original = advantage._envelope_builder

    def counting(quantum, scenario):
        build = original(quantum, scenario)

        def envelope(year, hardware):
            counts[(quantum, year)] += 1
            return build(year, hardware)

        return envelope

    monkeypatch.setattr(advantage, "_envelope_builder", counting)
    return counts


def count_piece_walks(monkeypatch):
    """Counter of the code-distance piece walks started per (quantum cost
    law, year), through advantage._pieces."""
    import qea.advantage as advantage

    counts = collections.Counter()
    original = advantage._pieces

    def counting(hardware, log_t, law, cap):
        counts[(law, hardware.year)] += 1
        return original(hardware, log_t, law, cap)

    monkeypatch.setattr(advantage, "_pieces", counting)
    return counts

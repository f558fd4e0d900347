"""Property tests of the scenario file format: any valid scenario dumps,
reloads to an equal scenario, and dumps again to the same bytes."""

import dataclasses
import json

from hypothesis import given, settings, strategies as st

from qea import (
    ClassicalPlatform,
    ExponentialTrend,
    QuantumPlatform,
    Scenario,
    SurfaceCodeParams,
    builtin_catalog,
    default_scenario,
    dump_scenario,
    scenario_digest,
    scenario_from_dict,
)
from qea.scenario import MAX_SCAN_YEARS

# Ints as well as floats: the file keeps an int an int, and the dump
# bytes show the difference.
positive = st.one_of(
    st.floats(min_value=1e-300, max_value=1e300),
    st.integers(min_value=1, max_value=10**6),
)
unit_open = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
trends = st.builds(
    ExponentialTrend,
    base_year=st.one_of(st.integers(min_value=1900, max_value=2200), st.floats(min_value=1900, max_value=2200)),
    base_value=positive,
    annual_factor=positive,
)
surface_codes = st.builds(
    SurfaceCodeParams,
    prefactor_a=positive,
    threshold_error=unit_open,
    cycle_time_s=positive,
    cycles_per_t_gate=positive,
    failure_budget=unit_open,
)
CATALOG = builtin_catalog()


@st.composite
def tunings(draw):
    """Catalog tunings with some fields of some methods overridden;
    qubit_constant only on quantum methods."""
    algorithms = default_scenario().algorithms
    for name in draw(st.lists(st.sampled_from(sorted(CATALOG)), unique=True)):
        optional = {
            "constant": positive,
            "exponent": st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=8.0)),
            "fidelity": st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
        }
        if CATALOG[name].kind == "quantum":
            optional["qubit_constant"] = positive
        changes = draw(st.fixed_dictionaries({}, optional=optional))
        algorithms[name] = dataclasses.replace(algorithms[name], **changes)
    return algorithms


@st.composite
def scenarios(draw):
    start = draw(st.integers(min_value=1900, max_value=2200))
    return Scenario(
        epsilon=draw(st.floats(min_value=0.0, max_value=1.0, exclude_min=True)),
        deadline_s=draw(positive),
        start_year=start,
        horizon=draw(st.integers(min_value=start, max_value=start + MAX_SCAN_YEARS)),
        classical=ClassicalPlatform(draw(trends)),
        quantum=QuantumPlatform(
            mode=draw(st.sampled_from(["simple", "surface-code"])),
            logical_tgates_per_dollar_second=draw(trends),
            physical_qubits=draw(trends),
            physical_to_logical_ratio=draw(trends),
            physical_error_rate=draw(trends),
            sc_params=draw(surface_codes),
        ),
        algorithms=draw(tunings()),
    )


@settings(max_examples=200, deadline=None)
@given(scenarios())
def test_dump_load_round_trip(scenario):
    text = dump_scenario(scenario)
    reloaded = scenario_from_dict(json.loads(text))
    assert reloaded == scenario
    assert dump_scenario(reloaded) == text
    assert scenario_digest(reloaded) == scenario_digest(scenario)

"""Monotonicity properties in both hardware modes: the envelope's size
limits in the deadline and in the physical-qubit base, and the verdict
in each robustness multiplier.  They pin what the solvers promise, so
code that the engine drops can be checked against them."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from qea import Variation, apply_variation, feasibility_envelope, first_advantage_year, verdict_key
from qea.catalog import CLASSICAL_TABLE_METHODS, QUANTUM_TABLE_METHODS

from helpers import make_scenario

MODES = ["simple", "surface-code"]

# Trend factors around the shipped ones, and years across the scan window.
SCENARIOS = dict(
    tgate=st.floats(min_value=1.5, max_value=3.5),
    physical=st.floats(min_value=1.5, max_value=3.0),
    flops=st.floats(min_value=1.2, max_value=1.6),
)
YEARS = st.floats(min_value=2025.0, max_value=2060.0)
QUANTUM = st.sampled_from(QUANTUM_TABLE_METHODS)
CLASSICAL = st.sampled_from(CLASSICAL_TABLE_METHODS)


def _ordered(values):
    return st.tuples(values, values).map(sorted)


def _scenario(mode, tgate, physical, flops, physical_base=1.1e3):
    return make_scenario(
        mode=mode,
        classical=(2025, 1.0e18, flops),
        tgate=(2025, 1.0e5, tgate),
        physical=(2024, physical_base, physical),
    )


@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=30, deadline=None)
@given(**SCENARIOS, quantum=QUANTUM, year=YEARS, deadlines=_ordered(st.floats(min_value=0.0, max_value=12.0)))
def test_deadline_limit_does_not_fall_as_the_deadline_grows(mode, tgate, physical, flops, quantum, year, deadlines):
    s = _scenario(mode, tgate, physical, flops)
    spec = s.algorithm(quantum)
    short, long = (dataclasses.replace(s, deadline_s=10.0**d) for d in deadlines)
    assert (
        feasibility_envelope(spec, year, short).deadline_limited_n
        <= feasibility_envelope(spec, year, long).deadline_limited_n
    )


@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=30, deadline=None)
@given(**SCENARIOS, quantum=QUANTUM, year=YEARS, bases=_ordered(st.floats(min_value=1.0, max_value=9.0)))
def test_qubit_limit_does_not_fall_as_the_physical_base_grows(mode, tgate, physical, flops, quantum, year, bases):
    small, large = (_scenario(mode, tgate, physical, flops, physical_base=10.0**b) for b in bases)
    spec = small.algorithm(quantum)
    assert (
        feasibility_envelope(spec, year, small).qubit_limited_n
        <= feasibility_envelope(spec, year, large).qubit_limited_n
    )


# Each knob, and the direction in which it makes quantum advantage no
# easier: a costlier quantum run, more logical qubits, a cheaper
# classical run.
KNOBS = {"quantum_time": 1, "logical_qubits": 1, "classical_time": -1}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("knob", list(KNOBS))
@settings(max_examples=30, deadline=None)
@given(
    **SCENARIOS,
    classical=CLASSICAL,
    quantum=QUANTUM,
    exponents=_ordered(st.floats(min_value=-3.0, max_value=3.0)),
)
def test_verdict_does_not_come_earlier_as_a_knob_favours_classical(
    mode, knob, tgate, physical, flops, classical, quantum, exponents
):
    s = _scenario(mode, tgate, physical, flops)
    keys = []
    for e in exponents:
        varied = apply_variation(s, Variation(name=knob, **{knob: 10.0 ** (KNOBS[knob] * e)}))
        result = first_advantage_year(varied.algorithm(classical), varied.algorithm(quantum), varied)
        keys.append(verdict_key(result, s.horizon))
    assert keys[0] <= keys[1]

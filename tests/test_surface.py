"""Surface-code thresholds and disruption years against integer scans.

In surface-code mode the code distance steps up with the workload's
T-count, and each step lifts the log-runtime gap, so the gap can fall
below 0, rise above it at a step and fall again.  The threshold must be
the first crossing and the year scan must see it.  The references here
scan integer sizes with the unfused log_quantum_seconds and
log_classical_seconds.
"""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from qea import (
    disruption_table,
    feasibility_envelope,
    first_advantage_year,
    qea_threshold,
    scenario_from_dict,
)
from qea.advantage import BEYOND_HORIZON, NEVER, SIZE_CAP, DisruptionResult, _pieces
from qea.cost import log_classical_seconds, log_quantum_seconds

# A seeded surface-code scenario where CCSD(T) against qpe-n2 in 2037 is
# advantageous at N = 2962-2975 (distance 11), not at the distance-13
# sizes just past them, and again from about N = 3062.  The qubit limit
# that year is 2975.
FAULT_DOC = {
    "epsilon": 0.0019200143680528415,
    "deadline_s": 4088462.287291561,
    "classical": {"flops_trend": {"annual_factor": 1.4339763291558516}},
    "quantum": {
        "mode": "surface-code",
        "logical_tgate_trend": {"annual_factor": 2.348200118798923},
        "physical_qubit_trend": {"annual_factor": 2.016876429815139},
        "ratio_trend": {"base_value": 2834.2145208831316},
        "physical_error_trend": {"base_value": 0.0006836676114122428, "annual_factor": 0.8891728467121001},
    },
    "overrides": {"qpe-n3": {"fidelity": 0.5181933512804597}},
}

# Largest size a year's integer scan reaches; it stops at the feasible
# size, or at 100 if that is smaller.
SCAN_BOUND = 4000


def _advantageous(classical, quantum, n: int, year: float, scenario) -> bool:
    return log_quantum_seconds(quantum, float(n), year, scenario) <= log_classical_seconds(
        classical, float(n), year, scenario
    )


def _first_advantageous(classical, quantum, year: float, scenario, bound: int) -> int | None:
    """Smallest integer N <= bound where quantum is at least as cheap, by a
    plain scan; None if there is none."""
    return next((n for n in range(1, bound + 1) if _advantageous(classical, quantum, n, year, scenario)), None)


def test_threshold_is_the_first_crossing_across_distance_steps():
    s = scenario_from_dict(FAULT_DOC)
    classical, quantum = s.algorithm("CCSD(T)"), s.algorithm("qpe-n2")
    threshold = qea_threshold(classical, quantum, 2037, s)
    assert math.ceil(threshold) == 2962
    assert _first_advantageous(classical, quantum, 2037, s, 2962) == 2962
    # Advantage lapses past the distance step and returns later.
    lapse = next(n for n in range(2962, 4000) if not _advantageous(classical, quantum, n, 2037, s))
    assert 2975 <= lapse < 3062 and _advantageous(classical, quantum, 3100, 2037, s)


def test_table_cell_sees_the_first_crossing():
    s = scenario_from_dict(FAULT_DOC)
    assert feasibility_envelope(s.algorithm("qpe-n2"), 2037, s).max_feasible_n == 2975
    table = disruption_table(s, ["qpe-n2"], ["CCSD(T)"])
    cell = table.cells[("CCSD(T)", "qpe-n2")]
    assert (cell.verdict, cell.binding_constraint) == (2037, "qubits")


def _blocking(exists: bool, envelope) -> str:
    if not exists:
        return "qea"
    return "qubits" if envelope.qubit_limited_n <= envelope.deadline_limited_n else "deadline"


@settings(max_examples=20, deadline=None)
@given(
    pair=st.sampled_from(
        [("FCI", "qpe-n2"), ("FCI", "qpe-n3"), ("FCI", "qpe-n5"), ("CCSD(T)", "qpe-n2"), ("CCSD", "qpe-n2")]
    ),
    classical_scale=st.floats(min_value=0.0, max_value=8.0),
    classical=st.floats(min_value=1.3, max_value=1.5),
    tgate=st.floats(min_value=2.3, max_value=2.9),
    physical=st.floats(min_value=1.9, max_value=2.5),
    error=st.tuples(st.floats(min_value=-3.3, max_value=-2.5), st.floats(min_value=0.85, max_value=0.95)),
    epsilon=st.floats(min_value=-4.0, max_value=-2.0),
    deadline=st.floats(min_value=0.0, max_value=2.0),
)
# FAULT_DOC's trends.
@example(pair=("CCSD(T)", "qpe-n2"), classical_scale=0.0, classical=1.4339763291558516, tgate=2.348200118798923,
         physical=2.016876429815139, error=(math.log10(0.0006836676114122428), 0.8891728467121001),
         epsilon=math.log10(0.0019200143680528415), deadline=math.log10(4088462.287291561 / 86400.0))
def test_thresholds_and_years_match_an_integer_scan(
    pair, classical_scale, classical, tgate, physical, error, epsilon, deadline
):
    c_name, q_name = pair
    doc = {
        "epsilon": 10**epsilon,
        "deadline_s": 86400.0 * 10**deadline,
        "start_year": 2030,
        "horizon": 2042,
        "classical": {"flops_trend": {"annual_factor": classical}},
        "quantum": {
            "mode": "surface-code",
            "logical_tgate_trend": {"annual_factor": tgate},
            "physical_qubit_trend": {"annual_factor": physical},
            "physical_error_trend": {"base_value": 10 ** error[0], "annual_factor": error[1]},
        },
        "overrides": {c_name: {"constant": 10**classical_scale}},
    }
    s = scenario_from_dict(doc)
    classical, quantum = s.algorithm(c_name), s.algorithm(q_name)
    expected, last_block, any_threshold = None, None, False
    for year in s.years():
        threshold = qea_threshold(classical, quantum, year, s)
        envelope = feasibility_envelope(quantum, year, s)
        bound = min(max(envelope.max_feasible_n, 100), SCAN_BOUND)
        first = _first_advantageous(classical, quantum, year, s, bound)
        if first is None:
            assert threshold is None or math.ceil(threshold) > bound, (year, threshold)
            # Past the scan the threshold, checked to lie past it, stands in.
            first = None if threshold is None else math.ceil(threshold)
        else:
            assert threshold is not None and math.ceil(threshold) == first, (year, threshold, first)
        any_threshold = any_threshold or threshold is not None
        if first is not None and first <= envelope.max_feasible_n:
            constraint = "none" if last_block is None else _blocking(*last_block)
            expected = DisruptionResult(verdict=year, binding_constraint=constraint)
            break
        last_block = (threshold is not None, envelope)
    if expected is None:
        expected = (
            DisruptionResult(BEYOND_HORIZON, _blocking(*last_block)) if any_threshold else DisruptionResult(NEVER, "qea")
        )
    assert first_advantage_year(classical, quantum, s) == expected


@pytest.mark.parametrize("q_name, year", [("qpe-n3", 2025), ("qpe-n3", 2050), ("qpe-n5", 2035), ("qpe-n2", 2040)])
def test_pieces_tile_the_sizes_with_exact_ends(q_name, year):
    """Each piece runs at one code distance, its end is the last size at
    that distance, and the pieces tile [1, SIZE_CAP] in order."""
    s = scenario_from_dict({"quantum": {"mode": "surface-code"}})
    quantum, hardware = s.algorithm(q_name), s.quantum.at(year)
    law = quantum.cost_law

    def level(n):
        return hardware.level(law.log_value(n, s.epsilon))

    pieces = list(_pieces(hardware, lambda n: law.log_value(n, s.epsilon), law, SIZE_CAP))
    assert pieces[0][0] == 1 and pieces[-1][1] == SIZE_CAP
    for (lo, hi, d), nxt in zip(pieces, pieces[1:] + [None]):
        assert level(lo) == level(hi) == d
        if nxt is not None:
            assert nxt[0] == hi + 1 and level(hi + 1) == nxt[2] > d
    assert 10 < len(pieces) < 100

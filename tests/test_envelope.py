"""Feasibility envelopes: the closed form on each code-distance piece
against a plain search of the per-N predicates, in both hardware modes,
and envelope and piece-walk sharing inside tables."""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from qea import (
    AlgorithmSpec,
    ComplexityModel,
    DomainError,
    Variation,
    apply_variation,
    available_logical_qubits,
    default_scenario,
    deadline_limited_size,
    disruption_table,
    feasibility_envelope,
    first_advantage_year,
    qubit_limited_size,
    robustness_table,
    scenario_from_dict,
    standard_variations,
)
from qea.advantage import SIZE_CAP, _envelope_builder, _pieces
from qea.cost import _log_seconds_builder, log_quantum_seconds
from qea.catalog import CLASSICAL_TABLE_METHODS, QUANTUM_TABLE_METHODS

from helpers import count_envelopes, count_piece_walks, make_scenario


def _largest_true(predicate) -> int:
    """Largest integer N in [1, SIZE_CAP] satisfying a monotone predicate,
    0 if even N = 1 fails: doubling from 1, then bisection.  The
    reference the engine's closed forms and piece walk are checked
    against."""
    if not predicate(1):
        return 0
    lo, hi = 1, 2
    while hi <= SIZE_CAP and predicate(hi):
        lo, hi = hi, hi * 2
    if hi > SIZE_CAP:
        if predicate(SIZE_CAP):
            return SIZE_CAP
        hi = SIZE_CAP
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if predicate(mid):
            lo = mid
        else:
            hi = mid
    return lo


log10 = st.floats(min_value=-12.0, max_value=25.0)
exponent = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=8.0))


def _case(qubit_c, qubit_a, cost_c, cost_a, physical, ratio, tgate, deadline, year, error=None):
    """A quantum method and a scenario; sizes are log10.  With an error
    rate (log10, flat) the hardware is surface-code, else simple."""
    spec = AlgorithmSpec(
        name="q",
        kind="quantum",
        cost_law=ComplexityModel(constant=10**cost_c, size_exponent=cost_a, inv_error_exponent=1.0),
        qubit_law=ComplexityModel(constant=10**qubit_c, size_exponent=qubit_a),
        initial_state_fidelity=0.5,
    )
    scenario = make_scenario(
        tgate=(2025, 10**tgate, 2.5),
        physical=(2024, 10**physical, 2.2),
        ratio=(2025, 10**ratio, 1.0),
        deadline_s=10**deadline,
        **({} if error is None else {"mode": "surface-code", "error": (2025, 10**error, 1.0)}),
    )
    return spec, scenario, year


CASES = dict(
    qubit_c=st.floats(min_value=-3.0, max_value=4.0),
    qubit_a=exponent,
    cost_c=st.floats(min_value=-3.0, max_value=6.0),
    cost_a=exponent,
    physical=st.floats(min_value=-2.0, max_value=12.0),
    ratio=st.floats(min_value=0.0, max_value=6.0),
    tgate=st.floats(min_value=0.0, max_value=10.0),
    deadline=log10,
    year=st.integers(min_value=2000, max_value=2080),
    error=st.one_of(st.none(), st.floats(min_value=-4.0, max_value=-2.2)),
)


@settings(max_examples=300, deadline=None)
@given(**CASES)
# Exponent 0: every size fits (SIZE_CAP) or none does.
@example(qubit_c=1.0, qubit_a=0.0, cost_c=0.0, cost_a=0.0, physical=5.0, ratio=3.0, tgate=5.0, deadline=6.0,
         year=2025, error=None)
@example(qubit_c=4.0, qubit_a=0.0, cost_c=6.0, cost_a=0.0, physical=3.0, ratio=3.0, tgate=0.0, deadline=-6.0,
         year=2025, error=None)
# Supply below one logical qubit.
@example(qubit_c=1.0, qubit_a=1.0, cost_c=0.0, cost_a=3.0, physical=-1.0, ratio=3.0, tgate=5.0, deadline=6.0,
         year=2025, error=None)
# Deadline shorter than the N = 1 runtime.
@example(qubit_c=1.0, qubit_a=1.0, cost_c=0.0, cost_a=3.0, physical=5.0, ratio=3.0, tgate=0.0, deadline=-12.0,
         year=2025, error=None)
# Both limits at SIZE_CAP, and just under it where float error is largest.
@example(qubit_c=-3.0, qubit_a=1.0, cost_c=0.0, cost_a=0.5, physical=12.0, ratio=0.0, tgate=10.0, deadline=25.0,
         year=2080, error=None)
@example(qubit_c=0.0, qubit_a=1.0, cost_c=0.0, cost_a=1.0, physical=14.9, ratio=0.0, tgate=0.0, deadline=17.9,
         year=2024, error=None)
# Surface code: a flat law is one piece; a steep one near the code
# threshold crosses hundreds of distance steps before SIZE_CAP.
@example(qubit_c=1.0, qubit_a=1.0, cost_c=0.0, cost_a=0.0, physical=9.0, ratio=3.0, tgate=5.0, deadline=6.0, year=2030,
         error=-3.0)
@example(qubit_c=-3.0, qubit_a=1.0, cost_c=0.0, cost_a=8.0, physical=12.0, ratio=3.0, tgate=10.0, deadline=25.0,
         year=2030, error=-2.2)
def test_closed_form_sizes_equal_search(qubit_c, qubit_a, cost_c, cost_a, physical, ratio, tgate, deadline, year, error):
    spec, scenario, year = _case(qubit_c, qubit_a, cost_c, cost_a, physical, ratio, tgate, deadline, year, error)
    log_deadline = math.log(scenario.deadline_s)

    def qubit_fits(n):
        # In surface-code mode the supply depends on this N's own T-count.
        t_count = spec.cost_law.value(n, scenario.epsilon)
        return spec.qubit_law.value(n, 1.0) <= available_logical_qubits(scenario.quantum, year, t_count)

    def deadline_fits(n):
        return log_quantum_seconds(spec, float(n), year, scenario) <= log_deadline

    assert qubit_limited_size(spec, year, scenario) == _largest_true(qubit_fits)
    assert deadline_limited_size(spec, year, scenario.deadline_s, scenario) == _largest_true(deadline_fits)


def test_closed_form_edge_cases_land_where_named():
    """The explicit examples above reach the cases they are there for."""
    flat = _case(1.0, 0.0, 0.0, 0.0, 5.0, 3.0, 5.0, 6.0, 2025)
    assert qubit_limited_size(flat[0], flat[2], flat[1]) == SIZE_CAP
    assert deadline_limited_size(flat[0], flat[2], flat[1].deadline_s, flat[1]) == SIZE_CAP
    blocked = _case(4.0, 0.0, 6.0, 0.0, 3.0, 3.0, 0.0, -6.0, 2025)
    assert qubit_limited_size(blocked[0], blocked[2], blocked[1]) == 0
    assert deadline_limited_size(blocked[0], blocked[2], blocked[1].deadline_s, blocked[1]) == 0
    starved = _case(1.0, 1.0, 0.0, 3.0, -1.0, 3.0, 5.0, 6.0, 2025)
    assert qubit_limited_size(starved[0], starved[2], starved[1]) == 0
    rushed = _case(1.0, 1.0, 0.0, 3.0, 5.0, 3.0, 0.0, -12.0, 2025)
    assert deadline_limited_size(rushed[0], rushed[2], rushed[1].deadline_s, rushed[1]) == 0
    near_cap = _case(0.0, 1.0, 0.0, 1.0, 14.9, 0.0, 0.0, 17.9, 2024)
    assert 10**14 < qubit_limited_size(near_cap[0], near_cap[2], near_cap[1]) < SIZE_CAP


@settings(max_examples=60, deadline=None)
@given(**CASES)
# A steep law near the code threshold: hundreds of pieces before SIZE_CAP.
@example(qubit_c=-3.0, qubit_a=1.0, cost_c=0.0, cost_a=8.0, physical=12.0, ratio=3.0, tgate=10.0, deadline=25.0,
         year=2030, error=-2.2)
def test_envelope_pieces_are_the_walk_up_to_its_size(
    qubit_c, qubit_a, cost_c, cost_a, physical, ratio, tgate, deadline, year, error
):
    """The pieces the envelope walked, clipped to [1, max_feasible_n], are
    those a walk capped there yields, so the year scan may read them."""
    spec, scenario, year = _case(qubit_c, qubit_a, cost_c, cost_a, physical, ratio, tgate, deadline, year, error)
    envelope, pieces = _envelope_builder(spec, scenario)(year, scenario.quantum.at(year))
    m = envelope.max_feasible_n
    log_t = _log_seconds_builder(spec, scenario)[0]
    walk = list(_pieces(scenario.quantum.at(year), log_t, spec.cost_law, m))
    assert [(lo, min(hi, m), level) for lo, hi, level in pieces if lo <= m] == walk


def test_surface_code_table_walks_each_year_once(monkeypatch):
    """Both limits and every classical row read one walk of the pieces
    per (quantum method, year)."""
    s = scenario_from_dict({"quantum": {"mode": "surface-code"}})
    walks = count_piece_walks(monkeypatch)
    disruption_table(s, list(QUANTUM_TABLE_METHODS), list(CLASSICAL_TABLE_METHODS))
    assert walks and max(walks.values()) == 1
    assert len(walks) <= len(QUANTUM_TABLE_METHODS) * len(s.years())


def test_size_wrappers_raise_what_the_envelope_raises():
    """Each wrapper reads the whole envelope: in 2800 the T-gate trend is
    past float range, so the qubit limit, which does not read it, fails
    too."""
    s = default_scenario()
    q = s.algorithm("qpe-n3")
    for size in (
        lambda: feasibility_envelope(q, 2800, s),
        lambda: qubit_limited_size(q, 2800, s),
        lambda: deadline_limited_size(q, 2800, s.deadline_s, s),
    ):
        with pytest.raises(DomainError, match=r"trend 100000 x .* passes float range in year 2800"):
            size()


def test_disruption_table_builds_each_envelope_once(monkeypatch):
    s = default_scenario()
    counts = count_envelopes(monkeypatch)
    table = disruption_table(s, list(QUANTUM_TABLE_METHODS), list(CLASSICAL_TABLE_METHODS))
    assert counts and max(counts.values()) == 1
    assert {q.name for q, _ in counts} == set(QUANTUM_TABLE_METHODS)
    for (c, q), cell in table.cells.items():
        assert cell == first_advantage_year(s.algorithm(c), s.algorithm(q), s)


def test_robustness_table_builds_each_envelope_once(monkeypatch):
    s = default_scenario()
    variations = standard_variations() + [Variation(name="same", classical_time=1.0)]
    counts = count_envelopes(monkeypatch)
    table = robustness_table(s, variations, "qpe-n3", ["HF", "CCSDT", "FCI"])
    assert counts and max(counts.values()) == 1
    for (c, column), cell in table.cells.items():
        v = next((v for v in variations if v.name == column), None)
        vs = s if v is None else apply_variation(s, v)
        assert cell == first_advantage_year(vs.algorithm(c), vs.algorithm("qpe-n3"), vs)

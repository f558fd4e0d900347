"""The year scan's root-free path in simple mode.

With a polynomial quantum law on simple-mode hardware the scan decides
each year from gap(1) and gap(M) and solves no threshold.  These tests
compare it with the scan written out the way it ran before, one
threshold solve per year and the test ceil(threshold) <= M, and count
the work the new path saves.
"""

import collections
import math
import random
import re
import types

import pytest
from hypothesis import example, given, settings, strategies as st

import qea.advantage as advantage
import qea.cost as cost
from qea import (
    QeaError,
    ScenarioError,
    advantage_region,
    default_scenario,
    disruption_table,
    feasibility_envelope,
    first_advantage_year,
    qea_threshold,
    robustness_table,
    scenario_from_dict,
    standard_variations,
)
from qea.advantage import BEYOND_HORIZON, NEVER, DisruptionResult
from qea.catalog import CLASSICAL_TABLE_METHODS, QUANTUM_TABLE_METHODS, builtin_catalog

from helpers import count_envelopes, fused_log_seconds, make_scenario, with_tuning

CLASSICAL = sorted(name for name, spec in builtin_catalog().items() if spec.kind == "classical")
QUANTUM = sorted(name for name, spec in builtin_catalog().items() if spec.kind == "quantum")
STOCK_ROBUSTNESS = ["HF", "MP2", "CCSD", "CCSD(T)", "FCI"]


def _blocking(threshold, envelope):
    if threshold is None:
        return "qea"
    return "qubits" if envelope.qubit_limited_n <= envelope.deadline_limited_n else "deadline"


def reference_scan(classical, quantum, scenario):
    """first_advantage_year with a threshold solve in every year."""
    last_block = None
    any_threshold = False
    for year in scenario.years():
        threshold = qea_threshold(classical, quantum, year, scenario)
        envelope = feasibility_envelope(quantum, year, scenario)
        if threshold is not None:
            any_threshold = True
            if math.ceil(threshold) <= envelope.max_feasible_n:
                constraint = "none" if last_block is None else _blocking(*last_block)
                return DisruptionResult(verdict=year, binding_constraint=constraint)
        last_block = (threshold, envelope)
    if any_threshold:
        return DisruptionResult(verdict=BEYOND_HORIZON, binding_constraint=_blocking(*last_block))
    return DisruptionResult(verdict=NEVER, binding_constraint="qea")


def _outcome(scan, classical, quantum, scenario):
    """The scan's result, or its typed error as (type, message)."""
    try:
        return scan(classical, quantum, scenario)
    except QeaError as exc:
        return type(exc), str(exc)


def _assert_scans_agree(scenario, classical_name, quantum_name):
    classical, quantum = scenario.algorithm(classical_name), scenario.algorithm(quantum_name)
    got = _outcome(first_advantage_year, classical, quantum, scenario)
    assert got == _outcome(reference_scan, classical, quantum, scenario), (classical_name, quantum_name)
    return got


def _trend(base_year, log10_value, factor):
    return {"base_year": base_year, "base_value": 10.0**log10_value, "annual_factor": factor}


def _doc(c_name, q_name, c_tuning, q_tuning, trends, epsilon, deadline, horizon):
    """A simple-mode scenario document with overrides on one pair."""
    classical, tgate, physical, ratio = trends
    return {
        "epsilon": epsilon,
        "deadline_s": deadline,
        "horizon": horizon,
        "classical": {"flops_trend": _trend(2025, 18.0, classical)},
        "quantum": {
            "logical_tgate_trend": _trend(2025, 5.0, tgate),
            "physical_qubit_trend": _trend(2024, physical[0], physical[1]),
            "ratio_trend": _trend(2025, ratio[0], ratio[1]),
        },
        "overrides": {c_name: c_tuning, q_name: q_tuning},
    }


def _seeded_doc(rng):
    def factor(growing):
        return rng.choice([1.0, rng.uniform(0.8, 1.0), rng.uniform(*growing)])

    def exponent(catalog):
        return rng.choice([0.0, catalog, rng.uniform(0.0, 8.0)])

    c_name, q_name = rng.choice(CLASSICAL), rng.choice(QUANTUM)
    c_spec, q_spec = builtin_catalog()[c_name], builtin_catalog()[q_name]
    c_tuning = {
        "constant": c_spec.cost_law.constant * 10 ** rng.uniform(-3.0, 12.0),
        "exponent": exponent(c_spec.cost_law.size_exponent),
    }
    q_tuning = {
        "constant": 10 ** rng.uniform(-3.0, 4.0),
        "exponent": exponent(q_spec.cost_law.size_exponent),
        "fidelity": rng.uniform(0.01, 1.0),
        "qubit_constant": 10 ** rng.uniform(-1.0, 3.0),
    }
    trends = (
        factor((1.1, 1.7)),
        factor((1.5, 3.5)),
        (rng.uniform(1.0, 8.0), factor((1.5, 2.6))),
        (rng.uniform(0.0, 4.0), factor((1.0, 1.2))),
    )
    epsilon = 10 ** rng.uniform(-6.0, 0.0)
    deadline = 10 ** rng.uniform(-3.0, 9.0)
    horizon = rng.choice([2050, 2050, rng.randint(2026, 2080)])
    return _doc(c_name, q_name, c_tuning, q_tuning, trends, epsilon, deadline, horizon)


def test_scan_matches_threshold_scan_on_seeded_draws():
    rng = random.Random(20261018)
    mismatches = []
    for i in range(3000):
        doc = _seeded_doc(rng)
        c_name, q_name = list(doc["overrides"])
        scenario = scenario_from_dict(doc)
        classical, quantum = scenario.algorithm(c_name), scenario.algorithm(q_name)
        got = _outcome(first_advantage_year, classical, quantum, scenario)
        want = _outcome(reference_scan, classical, quantum, scenario)
        if got != want:
            mismatches.append((i, doc, got, want))
    assert not mismatches, mismatches[:3]


log10 = st.floats(min_value=-3.0, max_value=9.0)
factor = st.one_of(st.just(1.0), st.floats(min_value=0.8, max_value=1.0), st.floats(min_value=1.0, max_value=3.5))
exponent = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=8.0))


@settings(max_examples=200, deadline=None)
@given(
    c_name=st.sampled_from(CLASSICAL),
    q_name=st.sampled_from(QUANTUM),
    c_constant=st.floats(min_value=-3.0, max_value=12.0),
    c_exponent=st.one_of(st.none(), exponent),
    q_constant=st.floats(min_value=-3.0, max_value=4.0),
    q_exponent=st.one_of(st.none(), exponent),
    fidelity=st.floats(min_value=0.01, max_value=1.0),
    qubit_constant=st.floats(min_value=-1.0, max_value=3.0),
    classical_factor=factor,
    tgate_factor=factor,
    physical=st.tuples(st.floats(min_value=1.0, max_value=8.0), factor),
    ratio=st.tuples(st.floats(min_value=0.0, max_value=4.0), factor),
    epsilon=st.floats(min_value=-6.0, max_value=0.0),
    deadline=log10,
)
# The default scenario's a_q > a_c pair and its exponential-law pair.
@example(c_name="DMRG", q_name="qpe-n5", c_constant=9.0, c_exponent=None, q_constant=0.0, q_exponent=None,
         fidelity=1.0, qubit_constant=1.0, classical_factor=1.4, tgate_factor=2.5, physical=(3.04, 2.4),
         ratio=(3.0, 1.0), epsilon=-3.0, deadline=6.41)
@example(c_name="FCI", q_name="qpe-n5", c_constant=0.0, c_exponent=None, q_constant=0.0, q_exponent=None,
         fidelity=1.0, qubit_constant=1.0, classical_factor=1.4, tgate_factor=2.5, physical=(3.04, 2.4),
         ratio=(3.0, 1.0), epsilon=-3.0, deadline=6.41)
def test_scan_matches_threshold_scan(
    c_name, q_name, c_constant, c_exponent, q_constant, q_exponent, fidelity, qubit_constant,
    classical_factor, tgate_factor, physical, ratio, epsilon, deadline,
):
    c_tuning = {"constant": 10**c_constant}
    q_tuning = {"constant": 10**q_constant, "fidelity": fidelity, "qubit_constant": 10**qubit_constant}
    if c_exponent is not None:
        c_tuning["exponent"] = c_exponent
    if q_exponent is not None:
        q_tuning["exponent"] = q_exponent
    trends = (classical_factor, tgate_factor, physical, ratio)
    doc = _doc(c_name, q_name, c_tuning, q_tuning, trends, 10**epsilon, 10**deadline, 2050)
    _assert_scans_agree(scenario_from_dict(doc), c_name, q_name)


@st.composite
def _pair_docs(draw, mode):
    """A scenario document over the same ranges as the scan comparison
    above, in one hardware mode, with the pair it tunes."""
    c_name, q_name = draw(st.sampled_from(CLASSICAL)), draw(st.sampled_from(QUANTUM))
    c_tuning = {"constant": 10 ** draw(st.floats(min_value=-3.0, max_value=12.0))}
    q_tuning = {
        "constant": 10 ** draw(st.floats(min_value=-3.0, max_value=4.0)),
        "fidelity": draw(st.floats(min_value=0.01, max_value=1.0)),
        "qubit_constant": 10 ** draw(st.floats(min_value=-1.0, max_value=3.0)),
    }
    for tuning in (c_tuning, q_tuning):
        if (value := draw(st.one_of(st.none(), exponent))) is not None:
            tuning["exponent"] = value
    trends = (
        draw(factor),
        draw(factor),
        draw(st.tuples(st.floats(min_value=1.0, max_value=8.0), factor)),
        draw(st.tuples(st.floats(min_value=0.0, max_value=4.0), factor)),
    )
    epsilon, deadline = 10 ** draw(st.floats(min_value=-6.0, max_value=0.0)), 10 ** draw(log10)
    doc = _doc(c_name, q_name, c_tuning, q_tuning, trends, epsilon, deadline, 2050)
    doc["quantum"]["mode"] = mode
    return c_name, q_name, doc


@pytest.mark.parametrize("mode", ["simple", "surface-code"])
@settings(max_examples=200, deadline=None)
@given(data=st.data(), year=st.floats(min_value=2020.0, max_value=2060.0))
def test_threshold_ceiling_is_the_smallest_advantageous_size(mode, data, year):
    """Below _SNAP_LIMIT, ceil(threshold) is the smallest integer size at
    which the unfused runtimes favour the quantum run, and advantage_region
    is nonempty iff that ceiling fits under feasibility_envelope."""
    c_name, q_name, doc = data.draw(_pair_docs(mode))
    s = scenario_from_dict(doc)
    classical, quantum = s.algorithm(c_name), s.algorithm(q_name)
    threshold = _outcome(lambda c, q, s: qea_threshold(c, q, year, s), classical, quantum, s)
    region = _outcome(lambda c, q, s: advantage_region(c, q, year, s), classical, quantum, s)
    if isinstance(threshold, tuple):  # the region solves first, so it raises the same error
        assert region == threshold
        return
    envelope = feasibility_envelope(quantum, year, s)
    assert region.nonempty == (threshold is not None and math.ceil(threshold) <= envelope.max_feasible_n)
    if threshold is None or threshold >= advantage._SNAP_LIMIT:
        return
    k = math.ceil(threshold)

    def gap(n):
        n = float(n)
        return cost.log_quantum_seconds(quantum, n, year, s) - cost.log_classical_seconds(classical, n, year, s)

    assert gap(k) <= 0
    below = {k - 1} | {2**i for i in range(k.bit_length())}
    assert all(gap(n) > 0 for n in below if 1 <= n < k)


def test_advantage_from_n_equals_one_when_gap_rises():
    """DMRG against qpe-n5 has a_q > a_c: with a raised DMRG constant the
    advantageous sizes are [1, N0], so gap(M) alone would miss the year."""
    s = with_tuning(make_scenario(physical=(2024, 1e9, 1.0)), "DMRG", constant=2e17)
    dmrg, qpe = s.algorithm("DMRG"), s.algorithm("qpe-n5")
    result = _assert_scans_agree(s, "DMRG", "qpe-n5")
    year = result.verdict
    assert year == s.start_year
    gap = fused_log_seconds(qpe, s, dmrg, year)
    m = feasibility_envelope(qpe, year, s).max_feasible_n
    assert gap(1.0) <= 0 < gap(float(m))


@pytest.mark.parametrize("quantum", QUANTUM_TABLE_METHODS + ("qpe-n5",))
def test_fci_pairs_match(quantum):
    s = default_scenario()
    assert _assert_scans_agree(s, "FCI", quantum).verdict == {"qpe-n5": 2032, "qpe-n3": 2032, "qpe-n2": 2031}[quantum]


@pytest.mark.parametrize("classical, classical_exponent", [("CCSD", None), ("HF", 0.5), ("FCI", None)])
def test_feasible_size_past_snap_limit_asks_the_solver(monkeypatch, classical, classical_exponent):
    """A flat quantum law and a vast qubit supply put M past 1e9, where
    thresholds are not snapped; the scan then solves as before."""
    s = with_tuning(make_scenario(physical=(2024, 1e15, 1.0)), "qpe-n3", exponent=0.0)
    if classical_exponent is not None:
        s = with_tuning(s, classical, exponent=classical_exponent, constant=1e-30)
    qpe = s.algorithm("qpe-n3")
    assert feasibility_envelope(qpe, s.start_year, s).max_feasible_n >= 1e9
    calls = collections.Counter()
    original = advantage._threshold

    def counting(*args):
        calls["solve"] += 1
        return original(*args)

    monkeypatch.setattr(advantage, "_threshold", counting)
    result = first_advantage_year(s.algorithm(classical), qpe, s)
    monkeypatch.undo()
    assert calls["solve"] >= 1
    assert result == reference_scan(s.algorithm(classical), qpe, s)


@pytest.mark.parametrize(
    "doc",
    [
        # Classical throughput overflows in 2037.
        {"classical": {"flops_trend": {"annual_factor": 1e25}}},
        # Classical throughput and the qubit supply both overflow in 2037;
        # the threshold's trends are read first.
        {"classical": {"flops_trend": {"annual_factor": 1e25}},
         "quantum": {"physical_qubit_trend": {"base_value": 1e3, "annual_factor": 1e25}}},
        # The T-gate rate underflows to 0 in 2041.
        {"quantum": {"logical_tgate_trend": {"annual_factor": 1e-20}}},
        # Only the envelope's qubit supply overflows.
        {"quantum": {"physical_qubit_trend": {"base_value": 1e3, "annual_factor": 1e30}}},
    ],
)
def test_trend_leaving_float_range_raises_like_the_solver(doc):
    s = scenario_from_dict(doc)
    for c_name, q_name in (("DFT", "qpe-n3"), ("HF", "qpe-n2")):
        got = _assert_scans_agree(s, c_name, q_name)
        assert isinstance(got, tuple) and "float range" in got[1]


@pytest.mark.parametrize("method", ["CCSD", "qpe-n3"])
def test_non_finite_exponent_is_rejected_at_load(method):
    """A NaN or infinite exponent override is a load error, so every law
    the scan reads is finite and gap(1) is never NaN."""
    for value in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ScenarioError, match=re.escape(f"overrides.{method}.exponent")):
            scenario_from_dict({"overrides": {method: {"exponent": value}}})


@pytest.mark.parametrize("pair", [("CCSD(T)", "qpe-n3"), ("FCI", "qpe-n2")])
def test_surface_code_scan_matches(pair):
    """Surface-code scans walk the code-distance pieces; solving every
    year gives the same verdicts."""
    _assert_scans_agree(make_scenario(mode="surface-code", tgate=(2025, 1e5, 2.5), physical=(2024, 1.1e3, 2.4)), *pair)


def test_default_tables_make_no_threshold_solve(monkeypatch):
    s = default_scenario()
    solves = collections.Counter()

    def no_solve(*args):
        solves["solve"] += 1
        raise AssertionError("the simple-mode scan solved a threshold")

    monkeypatch.setattr(advantage, "_threshold", no_solve)
    for build in (
        lambda: disruption_table(s, list(QUANTUM_TABLE_METHODS), list(CLASSICAL_TABLE_METHODS)),
        lambda: robustness_table(s, standard_variations(), "qpe-n3", STOCK_ROBUSTNESS),
    ):
        envelopes = count_envelopes(monkeypatch)
        build()
        assert envelopes and max(envelopes.values()) == 1
    assert not solves


def test_scan_takes_year_free_logs_once(monkeypatch):
    """One FCI/qpe-n3 scan takes each year-free log once per builder: the
    pair's gap builder and the envelope's runtime builder."""
    s = with_tuning(default_scenario(), "FCI", constant=0.37)
    s = with_tuning(s, "qpe-n3", constant=2.9)
    logs = collections.Counter()

    def counting_log(x, *base):
        logs[x] += 1
        return math.log(x, *base)

    monkeypatch.setattr(cost, "math", types.SimpleNamespace(**{**vars(math), "log": counting_log}))
    result = first_advantage_year(s.algorithm("FCI"), s.algorithm("qpe-n3"), s)
    monkeypatch.undo()
    assert result.verdict - s.start_year >= 4, "the scan covers several years"
    assert logs[0.37] == 1  # the classical constant: gap builder only
    assert logs[2.9] == 2  # the quantum constant: gap and runtime builders
    assert logs[s.epsilon] == 2

"""The fused log-runtime kernel: bit-identical to the unfused functions,
and the threshold solver reads each hardware trend once, not once per
bisection step."""

import collections
import random

from hypothesis import example, given, settings, strategies as st

import qea.hardware as hardware
from qea import AlgorithmSpec, ComplexityModel, default_scenario, qea_threshold
from qea.cost import log_classical_seconds, log_quantum_seconds

from helpers import fused_log_seconds, make_scenario

exponent = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=8.0))
exp_base = st.one_of(st.just(1.0), st.just(4.0), st.floats(min_value=1.0, max_value=5.0))


def _law(log_c, a, b, beta):
    return ComplexityModel(constant=10**log_c, size_exponent=a, inv_error_exponent=b, exp_base=beta)


@settings(max_examples=200, deadline=None)
@given(
    c_law=st.tuples(st.floats(-4.0, 6.0), exponent, st.just(0.0), exp_base),
    q_law=st.tuples(st.floats(-4.0, 6.0), exponent, st.floats(0.0, 2.0), exp_base),
    fidelity=st.floats(min_value=0.01, max_value=1.0),
    log_n=st.one_of(st.floats(min_value=0.0, max_value=12.0), st.integers(0, 12)),
    year=st.floats(min_value=2020.0, max_value=2080.0),
    epsilon=st.floats(min_value=1e-6, max_value=1.0),
    surface=st.booleans(),
)
# FCI against qpe-n3 (exponential classical law, exponent 0) at N = 1.
@example(c_law=(0.0, 0.0, 0.0, 4.0), q_law=(0.0, 3.0, 1.0, 1.0), fidelity=1.0, log_n=0,
         year=2031.5, epsilon=1e-3, surface=False)
@example(c_law=(0.0, 0.0, 0.0, 4.0), q_law=(0.0, 3.0, 1.0, 1.0), fidelity=0.3, log_n=12,
         year=2044.25, epsilon=1e-3, surface=True)
def test_gap_is_bit_identical_to_unfused_difference(c_law, q_law, fidelity, log_n, year, epsilon, surface):
    classical = AlgorithmSpec(name="c", kind="classical", cost_law=_law(*c_law))
    quantum = AlgorithmSpec(
        name="q",
        kind="quantum",
        cost_law=_law(*q_law),
        qubit_law=ComplexityModel(constant=10.0, size_exponent=1.0),
        initial_state_fidelity=fidelity,
    )
    scenario = make_scenario(
        tgate=(2025, 1e5, 2.6),
        mode="surface-code" if surface else "simple",
        epsilon=epsilon,
    )
    n = float(10**log_n)
    q_seconds = log_quantum_seconds(quantum, n, year, scenario)
    want = q_seconds - log_classical_seconds(classical, n, year, scenario)
    assert fused_log_seconds(quantum, scenario, classical, year)(n).hex() == want.hex()
    assert fused_log_seconds(quantum, scenario, None, year)(n).hex() == q_seconds.hex()


def test_gap_is_bit_identical_on_seeded_draws():
    """Many plain random draws as well: a reassociated sum differs from
    the unfused one in the last ulp on only a few inputs in a hundred."""
    rng = random.Random(0)
    mismatches = []
    for i in range(3000):
        surface = i % 3 == 0
        classical = AlgorithmSpec(
            name="c",
            kind="classical",
            cost_law=_law(rng.uniform(-4, 6), rng.choice([0.0, rng.uniform(0, 8)]), 0.0,
                          rng.choice([1.0, 4.0, rng.uniform(1, 5)])),
        )
        quantum = AlgorithmSpec(
            name="q",
            kind="quantum",
            cost_law=_law(rng.uniform(-4, 6), rng.choice([0.0, rng.uniform(0, 8)]), rng.uniform(0, 2),
                          rng.choice([1.0, 1.0, rng.uniform(1, 5)])),
            qubit_law=ComplexityModel(constant=10.0, size_exponent=1.0),
            initial_state_fidelity=rng.uniform(0.01, 1.0),
        )
        scenario = make_scenario(
            tgate=(2025, 10 ** rng.uniform(2, 8), rng.uniform(1, 4)),
            classical=(2025, 10 ** rng.uniform(14, 20), rng.uniform(1, 2)),
            mode="surface-code" if surface else "simple",
            epsilon=10 ** rng.uniform(-6, 0),
        )
        year = rng.uniform(2020, 2080)
        gap = fused_log_seconds(quantum, scenario, classical, year)
        for n in (1.0, float(rng.randint(2, 10**6)), 10 ** rng.uniform(0, 12)):
            want = log_quantum_seconds(quantum, n, year, scenario) - log_classical_seconds(
                classical, n, year, scenario
            )
            if gap(n).hex() != want.hex():
                mismatches.append((i, n))
    assert not mismatches


def test_threshold_reads_each_trend_once_per_solve(monkeypatch):
    """FCI against qpe-n3 takes the bisection in ln N (40-odd gap
    evaluations); the N-free trend values are read once for the solve."""
    reads = collections.Counter()
    original = hardware.ExponentialTrend.value

    def counting(trend, year):
        reads[id(trend)] += 1
        return original(trend, year)

    s = default_scenario()
    fci, qpe = s.algorithm("FCI"), s.algorithm("qpe-n3")
    monkeypatch.setattr(hardware.ExponentialTrend, "value", counting)
    threshold = qea_threshold(fci, qpe, 2031.5, s)
    assert threshold is not None and threshold > 1.0
    assert reads, "the solve reads the hardware trends"
    assert max(reads.values()) == 1, reads

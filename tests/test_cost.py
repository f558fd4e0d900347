"""Runtime quotes and the benchmark estimator arithmetic."""

import math

import pytest

from qea import (
    DomainError,
    available_logical_qubits,
    classical_runtime,
    classical_throughput,
    default_scenario,
    flop_adjusted_constant,
    naive_t_gate_estimate,
    overhead_ratio,
    quantum_logical_throughput,
    quantum_runtime,
    trend_value,
)
from qea.cost import log_classical_seconds, log_quantum_seconds

from helpers import make_scenario, with_tuning


@pytest.fixture
def flat():
    # 2025 defaults with no growth anywhere: R = 1e13 in every year.
    return make_scenario(classical=(2025, 1e18, 1.0))


class TestClassicalRuntime:
    def test_ccsd_small(self, flat):
        quote = classical_runtime(flat.algorithm("CCSD"), 10, 2025, flat)
        assert quote.resource_count == pytest.approx(1e6, rel=1e-12)
        assert quote.seconds == pytest.approx(1e-12, rel=1e-12)
        assert quote.repetitions == 1.0
        assert quote.logical_qubits is None

    def test_fci_exact_power(self, flat):
        quote = classical_runtime(flat.algorithm("FCI"), 35, 2025, flat)
        assert quote.resource_count == 4.0**35
        assert quote.seconds == pytest.approx(4.0**35 / 1e18, rel=1e-12)
        assert quote.seconds == pytest.approx(1.18e3, rel=1e-2)

    def test_moores_law_ratio(self):
        s = make_scenario()
        for alg in ("DFT", "CCSD", "FCI"):
            for year in (2025, 2031, 2044):
                now = classical_runtime(s.algorithm(alg), 20, year, s).seconds
                later = classical_runtime(s.algorithm(alg), 20, year + 1, s).seconds
                assert later / now == pytest.approx(1 / 1.4, rel=1e-12)

    def test_kind_mismatch(self, flat):
        with pytest.raises(DomainError):
            classical_runtime(flat.algorithm("qpe-n3"), 10, 2025, flat)


class TestQuantumRuntime:
    def test_qpe_n3_base(self, flat):
        quote = quantum_runtime(flat.algorithm("qpe-n3"), 100, 2025, flat)
        assert quote.resource_count == pytest.approx(1e9, rel=1e-12)
        assert quote.seconds == pytest.approx(1e4, rel=1e-12)
        assert quote.logical_qubits == 1000.0
        assert quote.repetitions == 1.0

    def test_fidelity_doubles_runtime(self, flat):
        half = with_tuning(flat, "qpe-n3", fidelity=0.5)
        quote = quantum_runtime(half.algorithm("qpe-n3"), 100, 2025, half)
        assert quote.repetitions == 2.0
        assert quote.seconds == pytest.approx(2e4, rel=1e-12)

    def test_qpe_n5_beta_amyloid_scale(self, flat):
        quote = quantum_runtime(flat.algorithm("qpe-n5"), 192, 2025, flat)
        assert quote.resource_count == pytest.approx(2.6e14, rel=0.02)

    def test_seconds_identity(self, flat):
        quote = quantum_runtime(flat.algorithm("qpe-n2"), 64, 2025, flat)
        assert quote.seconds == pytest.approx(
            quote.repetitions * quote.resource_count / 1e5, rel=1e-12
        )

    def test_linear_in_cost_constant(self, flat):
        base = quantum_runtime(flat.algorithm("qpe-n3"), 50, 2025, flat).seconds
        boosted = with_tuning(flat, "qpe-n3", constant=10.0)
        assert quantum_runtime(boosted.algorithm("qpe-n3"), 50, 2025, boosted).seconds == pytest.approx(
            10 * base, rel=1e-12
        )

    def test_kind_mismatch(self, flat):
        with pytest.raises(DomainError):
            quantum_runtime(flat.algorithm("CCSD"), 10, 2025, flat)

    def test_log_forms_agree_with_quotes(self, flat):
        for alg, log_fn, quote_fn in [
            ("CCSD", log_classical_seconds, classical_runtime),
            ("qpe-n3", log_quantum_seconds, quantum_runtime),
        ]:
            spec = flat.algorithm(alg)
            for n in (1, 7, 300):
                assert log_fn(spec, n, 2030, flat) == pytest.approx(
                    math.log(quote_fn(spec, n, 2030, flat).seconds), rel=1e-12
                )


class TestEstimators:
    def test_flop_adjusted_constant_ccsd_benchmark(self):
        assert flop_adjusted_constant(960, 9.8e13, 966, 6) == pytest.approx(0.12, abs=0.01)

    def test_flop_adjusted_constant_ccsdt_benchmark(self):
        assert flop_adjusted_constant(61200, 8.4e12, 315, 7) == pytest.approx(1.67, abs=0.02)

    def test_identity(self):
        assert flop_adjusted_constant(1, 1, 1, 6) == 1.0

    def test_round_trip_with_inverse(self):
        # inverse: runtime implied by a constant c is c * N^p / P.
        for c, peak, n, p in [(0.12, 9.8e13, 966, 6), (1.67, 8.4e12, 315, 7), (3.3, 1e15, 54, 3)]:
            runtime = c * float(n) ** p / peak
            assert flop_adjusted_constant(runtime, peak, n, p) == pytest.approx(c, rel=1e-12)

    def test_naive_t_gates_quintic(self):
        value = naive_t_gate_estimate(192, 5, 1e-3)
        assert value == pytest.approx(192**5 * 1e3, rel=1e-12)
        assert value == pytest.approx(2.6e14, rel=0.02)

    def test_naive_t_gates_identity(self):
        for p in (1, 3, 5.5):
            assert naive_t_gate_estimate(1, p, 1.0) == 1.0

    @pytest.mark.parametrize("call", [
        lambda: naive_t_gate_estimate(10, 1e308, 1e-3),  # N^p past float range
        lambda: naive_t_gate_estimate(10, 1, 1e-320),  # result past float range
        lambda: naive_t_gate_estimate(10**400, 0.5, 1e-3),  # N past float range
        lambda: naive_t_gate_estimate(10, math.inf, 1e-3),
        lambda: flop_adjusted_constant(1, 1, 2, 1e308),
        lambda: flop_adjusted_constant(math.inf, 1, 2, 3),
        lambda: flop_adjusted_constant(1, 1, 1, math.inf),  # 1^inf is 1, but the input is not finite
        lambda: flop_adjusted_constant(1e200, 1e200, 2, 1),
        lambda: flop_adjusted_constant(1e-200, 1e-200, 2, 1),  # result underflows to 0
    ])
    def test_non_finite_argument_or_result_rejected(self, call):
        with pytest.raises(DomainError, match="finite"):
            call()

    def test_naive_t_gates_cubic_54(self):
        # 54^3 * 1e3; the formula as written, documented against the
        # published 2.0e7 figure which matches 27^3 * 1e3 instead.
        assert naive_t_gate_estimate(54, 3, 1e-3) == pytest.approx(1.57464e8, rel=1e-6)

    def test_validation(self):
        with pytest.raises(DomainError):
            naive_t_gate_estimate(0, 3, 1e-3)
        with pytest.raises(DomainError):
            naive_t_gate_estimate(10, 3, 2.0)
        with pytest.raises(DomainError):
            flop_adjusted_constant(-1, 1, 1, 1)


class TestOverheadRatio:
    def test_default_2025_exact(self):
        assert overhead_ratio(default_scenario(), 2025) == 1e13

    def test_equal_growth_constant(self):
        s = make_scenario(classical=(2025, 1e18, 1.4), tgate=(2025, 1e5, 1.4))
        for year in (2025, 2030, 2040, 2050):
            assert overhead_ratio(s, year) == pytest.approx(1e13, rel=1e-12)

    def test_faster_quantum_decreasing(self):
        s = make_scenario(tgate=(2025, 1e5, 2.0))
        values = [overhead_ratio(s, y) for y in range(2025, 2040)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_runtime_ratio_depends_only_on_overhead(self):
        # Multiply both throughput curves by 7: every quantum/classical
        # seconds ratio must be unchanged.
        s = make_scenario()
        scaled = make_scenario(classical=(2025, 7e18, 1.4), tgate=(2025, 7e5, 1.0))
        for c_name, q_name in [("CCSD", "qpe-n3"), ("FCI", "qpe-n2"), ("MP2", "qpe-n5")]:
            for n in (3, 40, 500):
                ratio = (
                    quantum_runtime(s.algorithm(q_name), n, 2030, s).seconds
                    / classical_runtime(s.algorithm(c_name), n, 2030, s).seconds
                )
                ratio_scaled = (
                    quantum_runtime(scaled.algorithm(q_name), n, 2030, scaled).seconds
                    / classical_runtime(scaled.algorithm(c_name), n, 2030, scaled).seconds
                )
                assert ratio_scaled == pytest.approx(ratio, rel=1e-12)


# Every library function that reads a hardware trend at a year.
TREND_READERS = {
    "trend_value": lambda s, y: trend_value(s.classical.flops_per_dollar_second, y),
    "classical_throughput": lambda s, y: classical_throughput(s.classical, y),
    "quantum_logical_throughput": lambda s, y: quantum_logical_throughput(s.quantum, y, 1e10),
    "available_logical_qubits": lambda s, y: available_logical_qubits(s.quantum, y, 1e10),
    "overhead_ratio": lambda s, y: overhead_ratio(s, y),
    "classical_runtime": lambda s, y: classical_runtime(s.algorithm("CCSD"), 10, y, s),
    "quantum_runtime": lambda s, y: quantum_runtime(s.algorithm("qpe-n3"), 10, y, s),
    "log_classical_seconds": lambda s, y: log_classical_seconds(s.algorithm("CCSD"), 10.0, y, s),
    "log_quantum_seconds": lambda s, y: log_quantum_seconds(s.algorithm("qpe-n3"), 10.0, y, s),
}


@pytest.mark.parametrize("mode", ["simple", "surface-code"])
@pytest.mark.parametrize("flat", [False, True], ids=["growing", "flat"])
@pytest.mark.parametrize("reader", sorted(TREND_READERS))
def test_trend_readers_reject_a_non_finite_year(reader, flat, mode):
    """A NaN year once read as NaN, and a flat trend at inf as its base
    value (1.0 ** inf is 1.0).  An int year past float range once raised
    a bare OverflowError."""
    if flat:
        s = make_scenario(classical=(2025, 1e18, 1.0), tgate=(2025, 1e5, 1.0), physical=(2024, 1.1e3, 1.0),
                          error=(2025, 1e-3, 1.0), mode=mode)
    else:
        s = make_scenario(tgate=(2025, 1e5, 2.5), physical=(2024, 1.1e3, 2.4), mode=mode)
    for year in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match=f"year must be finite, got {year!r}"):
            TREND_READERS[reader](s, year)
    for year in (10**400, -(10**400)):
        with pytest.raises(DomainError, match="year must be finite, got an int past float range"):
            TREND_READERS[reader](s, year)

"""Trend extrapolation, surface-code distance, and derived throughputs."""

import math

import pytest

from qea import (
    ClassicalPlatform,
    DomainError,
    ExponentialTrend,
    SurfaceCodeParams,
    ThresholdError,
    available_logical_qubits,
    classical_throughput,
    quantum_logical_throughput,
    required_code_distance,
    trend_value,
)
from qea.hardware import REFERENCE_TCOUNT

from helpers import make_scenario


class TestTrend:
    def test_forward_two_years(self):
        trend = ExponentialTrend(2025, 1e18, 1.4)
        assert trend_value(trend, 2027) == pytest.approx(1.96e18, rel=1e-12)

    def test_flat_trend(self):
        trend = ExponentialTrend(2025, 1e3, 1.0)
        assert trend_value(trend, 2040) == 1e3

    @pytest.mark.parametrize("factor", [0.5, 1.0, 1.4, 3.7])
    def test_base_year_identity_exact(self, factor):
        assert trend_value(ExponentialTrend(2025, 1e5, factor), 2025) == 1e5

    def test_far_year_overflow_is_a_domain_error(self):
        trend = ExponentialTrend(2024, 1.1e3, 2.25)
        with pytest.raises(DomainError, match="float range in year 2900"):
            trend_value(trend, 2900)
        assert math.isfinite(trend_value(trend, 2030))

    def test_far_past_underflow_is_a_domain_error(self):
        # 2.591^-1025 is below the smallest float; the trend must not
        # read as 0 and reach math.log.
        trend = ExponentialTrend(2025, 1e5, 2.591)
        with pytest.raises(DomainError, match="float range in year 1000"):
            trend_value(trend, 1000)
        assert trend_value(trend, 1500) > 0

    @pytest.mark.parametrize(
        "base_year", [math.nan, math.inf, -math.inf, 10**400, -(10**400)], ids=["nan", "inf", "-inf", "1e400", "-1e400"]
    )
    def test_non_finite_base_year_is_a_domain_error(self, base_year):
        # A NaN base year would make every value NaN, and NaN compares
        # false against any bound downstream.  An int past float range
        # once raised a bare OverflowError in math.isfinite.
        with pytest.raises(DomainError, match="base_year must be finite"):
            ExponentialTrend(base_year, 1e18, 1.4)

    def test_backward_extrapolation(self):
        trend = ExponentialTrend(2025, 100.0, 2.0)
        assert trend_value(trend, 2024) == pytest.approx(50.0, rel=1e-12)

    def test_multiplicative_property(self):
        trend = ExponentialTrend(2025, 3.7e4, 1.17)
        for year in (2020.0, 2025.0, 2031.5, 2049.0):
            for delta in (0.5, 1.0, 7.0):
                lhs = trend_value(trend, year + delta)
                rhs = trend_value(trend, year) * 1.17**delta
                assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            ExponentialTrend(2025, 0.0, 1.4)
        with pytest.raises(DomainError):
            ExponentialTrend(2025, 1.0, 0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_or_factor_is_a_domain_error(self, value):
        # An infinite factor used to load and fail only at first use,
        # as "passes float range".
        with pytest.raises(DomainError, match="base_value must be finite"):
            ExponentialTrend(2025, value, 1.4)
        with pytest.raises(DomainError, match="annual_factor must be finite"):
            ExponentialTrend(2025, 1e18, value)


class TestClassicalThroughput:
    def test_default_2025(self):
        platform = ClassicalPlatform(ExponentialTrend(2025, 1e18, 1.4))
        assert classical_throughput(platform, 2025) == 1e18

    def test_default_2026(self):
        platform = ClassicalPlatform(ExponentialTrend(2025, 1e18, 1.4))
        assert classical_throughput(platform, 2026) == pytest.approx(1.4e18, rel=1e-12)

    def test_zero_growth(self):
        platform = ClassicalPlatform(ExponentialTrend(2025, 5e17, 1.0))
        for year in (2025, 2033, 2050):
            assert classical_throughput(platform, year) == 5e17


class TestCodeDistance:
    def test_worked_example_d21(self):
        params = SurfaceCodeParams(prefactor_a=0.1, threshold_error=1e-2, failure_budget=1e-2)
        assert required_code_distance(1e-3, 1e10, params) == 21

    def test_single_gate_within_budget(self):
        params = SurfaceCodeParams(prefactor_a=0.1, threshold_error=1e-2, failure_budget=0.1)
        assert required_code_distance(1e-3, 1.0, params) == 1

    def test_threshold_violation(self):
        params = SurfaceCodeParams(threshold_error=1e-2)
        with pytest.raises(ThresholdError):
            required_code_distance(1e-2, 1e10, params)
        with pytest.raises(ThresholdError):
            required_code_distance(5e-2, 1e10, params)

    def test_monotone_and_odd(self):
        params = SurfaceCodeParams()
        t_counts = [1.0, 1e4, 1e8, 1e12, 1e16]
        distances = [required_code_distance(1e-3, t, params) for t in t_counts]
        assert all(d % 2 == 1 for d in distances)
        assert all(b >= a for a, b in zip(distances, distances[1:]))
        budgets = [0.3, 0.1, 1e-2, 1e-4, 1e-6]
        by_budget = [
            required_code_distance(1e-3, 1e10, SurfaceCodeParams(failure_budget=b))
            for b in budgets
        ]
        assert all(b >= a for a, b in zip(by_budget, by_budget[1:]))

    def test_bad_inputs(self):
        with pytest.raises(DomainError):
            required_code_distance(1e-3, 0.0, SurfaceCodeParams())
        with pytest.raises(DomainError):
            required_code_distance(0.0, 1e10, SurfaceCodeParams())

    def test_t_count_past_float_range_is_a_domain_error(self):
        with pytest.raises(DomainError, match="T-count must be finite"):
            required_code_distance(1e-3, math.inf, SurfaceCodeParams())

    def test_distance_past_float_resolution_is_a_domain_error(self):
        # Past 2^52 rounds, m and m - 1 give the same float and the
        # search walked down one integer at a time: ln T = 1e30 never
        # returned.
        params = SurfaceCodeParams()
        hardware = make_scenario(mode="surface-code", error=(2025, 1e-3, 1.0)).quantum.at(2025)
        with pytest.raises(DomainError, match="code distance past"):
            hardware.level(1e30)
        # Just below the bound the distance is still solved.
        log_ratio = math.log(1e-3 / params.threshold_error)
        rhs_free = math.log(params.failure_budget) - math.log(params.prefactor_a)
        d = hardware.level(rhs_free - 2.0**51 * log_ratio)
        assert d == 2 * 2**51 - 1

    @pytest.mark.parametrize("field", ["prefactor_a", "cycle_time_s", "cycles_per_t_gate"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_params_are_a_domain_error(self, field, value):
        with pytest.raises(DomainError, match=f"{field} must be finite"):
            SurfaceCodeParams(**{field: value})


class TestQuantumThroughput:
    def test_simple_mode_base(self):
        s = make_scenario()
        for t_count in (1.0, 1e10, 1e20):
            assert quantum_logical_throughput(s.quantum, 2025, t_count) == 1e5

    def test_simple_mode_trend_law(self):
        s = make_scenario(tgate=(2025, 1e5, 1.5))
        for k in (1, 4, 10):
            expected = 1e5 * 1.5**k
            assert quantum_logical_throughput(s.quantum, 2025 + k, 1e10) == pytest.approx(
                expected, rel=1e-12
            )

    def test_surface_code_calibration_anchor(self):
        s = make_scenario(mode="surface-code")
        value = quantum_logical_throughput(s.quantum, 2025, REFERENCE_TCOUNT)
        assert value == pytest.approx(1e5, rel=1e-12)

    def test_surface_code_improves_with_error_rate(self):
        s = make_scenario(mode="surface-code")
        values = [quantum_logical_throughput(s.quantum, y, 1e10) for y in range(2025, 2046, 5)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_surface_code_slower_for_bigger_workloads(self):
        s = make_scenario(mode="surface-code")
        small = quantum_logical_throughput(s.quantum, 2030, 1e6)
        big = quantum_logical_throughput(s.quantum, 2030, 1e18)
        assert big < small


class TestLogicalQubits:
    def test_simple_division(self):
        s = make_scenario(physical=(2025, 1e6, 1.0), ratio=(2025, 1e3, 1.0))
        assert available_logical_qubits(s.quantum, 2025, 1e10) == 1e3

    def test_surface_code_ratio_2d2(self):
        s = make_scenario(mode="surface-code", physical=(2025, 8.82e5, 1.0))
        # At p=1e-3 and t_count=1e10 the distance is 21; 2*21^2 = 882.
        assert available_logical_qubits(s.quantum, 2025, 1e10) == pytest.approx(1e3, rel=1e-12)

    def test_monotone_when_supply_grows_and_errors_improve(self):
        s = make_scenario(mode="surface-code", physical=(2024, 1.1e3, 2.0), error=(2025, 1e-3, 0.9))
        values = [available_logical_qubits(s.quantum, y, 1e10) for y in range(2025, 2051)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        flat = make_scenario(physical=(2025, 1e6, 1.0), ratio=(2025, 1e3, 0.95))
        simple_values = [available_logical_qubits(flat.quantum, y, 1e10) for y in range(2025, 2051)]
        assert all(b >= a for a, b in zip(simple_values, simple_values[1:]))

    def test_supply_from_ln_t_count_past_float_range(self):
        """The qubit limit reads a T-count past float range by its log: the
        distance keeps growing with ln T, and where the T-count is finite
        the log form is the same function."""
        s = make_scenario(mode="surface-code", physical=(2025, 1e12, 1.0))
        hardware = s.quantum.at(2025)

        def supply(log_t):
            return hardware.supply(hardware.level(log_t))

        for t_count in (1.0, 1e10, 1e300):
            assert supply(math.log(t_count)) == available_logical_qubits(s.quantum, 2025, t_count)
        edge = supply(math.log(1e300))
        past = [supply(log_t) for log_t in (800.0, 1600.0)]
        assert edge > past[0] > past[1] > 0
        # 2 d^2 with d = 2m - 1 and m the smallest step that meets the budget.
        m = math.ceil((math.log(1e-2) - math.log(0.1) - 1600.0) / math.log(1e-3 / 1e-2))
        assert past[1] == 1e12 / (2.0 * (2 * m - 1) ** 2)

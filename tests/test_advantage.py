"""Threshold solving, feasibility limits, and disruption-year scans."""

import dataclasses
import math

import pytest

from qea import (
    BEYOND_HORIZON,
    NEVER,
    AlgorithmSpec,
    ComplexityModel,
    DomainError,
    advantage_region,
    apply_variation,
    deadline_limited_size,
    default_scenario,
    feasibility_envelope,
    first_advantage_year,
    qea_threshold,
    qubit_limited_size,
    verdict_key,
    Variation,
)

from qea.cost import log_classical_seconds, log_quantum_seconds

from helpers import make_scenario, with_tuning


@pytest.fixture
def flat():
    # No growth on either side: R = 1e13 at every year.
    return make_scenario(classical=(2025, 1e18, 1.0))


def integer_threshold_oracle_fci_vs_qpen3(overhead_exact: int, inv_eps_exact: int) -> int:
    """Exact-integer scan: smallest N with overhead * N^3 / eps <= 4^N."""
    for n in range(1, 61):
        if overhead_exact * inv_eps_exact * n**3 <= 4**n:
            return n
    raise AssertionError("no crossing below 60")


class TestThreshold:
    def test_polynomial_closed_form_no_epsilon(self, flat):
        s = dataclasses.replace(flat, epsilon=1.0)
        value = qea_threshold(s.algorithm("CCSD"), s.algorithm("qpe-n3"), 2025, s)
        assert value == pytest.approx(10 ** (13 / 3), rel=1e-9)

    def test_polynomial_closed_form_with_epsilon(self, flat):
        value = qea_threshold(flat.algorithm("CCSD"), flat.algorithm("qpe-n3"), 2025, flat)
        assert value == pytest.approx(10 ** (16 / 3), rel=1e-9)

    def test_fci_crossing_is_35(self, flat):
        oracle = integer_threshold_oracle_fci_vs_qpen3(10**13, 10**3)
        assert oracle == 35
        value = qea_threshold(flat.algorithm("FCI"), flat.algorithm("qpe-n3"), 2025, flat)
        assert math.ceil(value) == 35

    def test_dft_never(self, flat):
        assert qea_threshold(flat.algorithm("DFT"), flat.algorithm("qpe-n3"), 2025, flat) is None

    def test_equal_exponent_cheaper_quantum_threshold_one(self, flat):
        dearer_classical = AlgorithmSpec(
            name="slow3", kind="classical", cost_law=ComplexityModel(constant=1e20, size_exponent=3)
        )
        value = qea_threshold(dearer_classical, flat.algorithm("qpe-n3"), 2025, flat)
        assert value == 1.0

    def test_quantum_dominance_order(self, flat):
        for classical in ("CCSD", "CCSD(T)", "FCI"):
            thresholds = [
                qea_threshold(flat.algorithm(classical), flat.algorithm(q), 2025, flat)
                for q in ("qpe-n2", "qpe-n3", "qpe-n5")
            ]
            assert thresholds[0] <= thresholds[1] <= thresholds[2]

    def test_invariance_under_common_throughput_scaling(self):
        base = make_scenario(classical=(2025, 1e18, 1.4), tgate=(2025, 1e5, 1.7))
        scaled = make_scenario(classical=(2025, 7e18, 1.4), tgate=(2025, 7e5, 1.7))
        for pair in [("CCSD", "qpe-n3"), ("HF", "qpe-n2"), ("FCI", "qpe-n3")]:
            for year in (2025, 2033, 2047):
                a = qea_threshold(base.algorithm(pair[0]), base.algorithm(pair[1]), year, base)
                b = qea_threshold(scaled.algorithm(pair[0]), scaled.algorithm(pair[1]), year, scaled)
                assert b == pytest.approx(a, rel=1e-9)
        # ... while runtimes themselves did change: deadline sizes grow.
        n_base = deadline_limited_size(base.algorithm("qpe-n3"), 2025, base.deadline_s, base)
        n_scaled = deadline_limited_size(scaled.algorithm("qpe-n3"), 2025, scaled.deadline_s, scaled)
        assert n_scaled > n_base

    def test_year_moves_threshold_down_when_quantum_grows_faster(self):
        s = make_scenario(tgate=(2025, 1e5, 2.0))
        values = [
            qea_threshold(s.algorithm("CCSD"), s.algorithm("qpe-n3"), y, s) for y in range(2025, 2041)
        ]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_kind_mismatch(self, flat):
        with pytest.raises(DomainError):
            qea_threshold(flat.algorithm("qpe-n3"), flat.algorithm("qpe-n2"), 2025, flat)

    def test_near_tie_exponents_cap_the_closed_form_root(self):
        # a_c - a_q = 1e-7 puts the closed-form root near ln N = 3e8,
        # past float range; it is capped at ln N = 256 like the bracket
        # search, far above any feasible size.
        s = with_tuning(default_scenario(), "CCSD", exponent=2.0000001)
        classical, quantum = s.algorithm("CCSD"), s.algorithm("qpe-n2")
        assert qea_threshold(classical, quantum, 2030, s) == math.exp(256.0)
        result = first_advantage_year(classical, quantum, s)
        assert result.verdict == BEYOND_HORIZON


    @pytest.mark.parametrize("mode", ["simple", "surface-code"])
    def test_bracket_past_the_cap_returns_the_cap(self, mode):
        # a_q - a_c ~ 1.5e308 puts the gap's peak, where the bracket
        # starts, near ln N = 709: evaluating it overflowed math.exp.
        s = with_tuning(make_scenario(mode=mode), "qpe-n2", exponent=1.5e308)
        assert qea_threshold(s.algorithm("FCI"), s.algorithm("qpe-n2"), 2025, s) == math.exp(256.0)


@pytest.mark.parametrize(
    "year", [math.nan, math.inf, -math.inf, 10**400, -(10**400)], ids=["nan", "inf", "-inf", "1e400", "-1e400"]
)
def test_non_finite_year_rejected(year):
    """An int year past float range once raised a bare OverflowError."""
    s = default_scenario()
    q = s.algorithm("qpe-n3")
    with pytest.raises(DomainError):
        advantage_region(s.algorithm("CCSD"), q, year, s)
    with pytest.raises(DomainError):
        qea_threshold(s.algorithm("CCSD"), q, year, s)
    with pytest.raises(DomainError):
        qubit_limited_size(q, year, s)
    with pytest.raises(DomainError):
        deadline_limited_size(q, year, s.deadline_s, s)
    with pytest.raises(DomainError):
        feasibility_envelope(q, year, s)


class TestDeadlineLimit:
    def test_default_637(self, flat):
        # Exact integer oracle: largest N with N^3 * 1e3 <= 1e5 * 2592000.
        budget = 10**5 * 2_592_000
        oracle = max(n for n in range(1, 2000) if n**3 * 10**3 <= budget)
        assert oracle == 637
        assert deadline_limited_size(flat.algorithm("qpe-n3"), 2025, flat.deadline_s, flat) == 637

    def test_tiny_deadline_zero(self, flat):
        assert deadline_limited_size(flat.algorithm("qpe-n3"), 2025, 1e-9, flat) == 0

    def test_throughput_doubling_scales_by_cube_root(self, flat):
        doubled = make_scenario(classical=(2025, 1e18, 1.0), tgate=(2025, 2e5, 1.0))
        n1 = deadline_limited_size(flat.algorithm("qpe-n3"), 2025, flat.deadline_s, flat)
        n2 = deadline_limited_size(doubled.algorithm("qpe-n3"), 2025, doubled.deadline_s, doubled)
        assert n2 == math.floor((2 * 10**5 * 2_592_000 / 10**3) ** (1 / 3))
        assert n2 / n1 == pytest.approx(2 ** (1 / 3), rel=2e-3)

    def test_fidelity_shrinks_bound(self, flat):
        half = with_tuning(flat, "qpe-n3", fidelity=0.5)
        assert (
            deadline_limited_size(half.algorithm("qpe-n3"), 2025, half.deadline_s, half)
            < deadline_limited_size(flat.algorithm("qpe-n3"), 2025, flat.deadline_s, flat)
        )


class TestQubitLimit:
    def test_simple_division(self):
        s = make_scenario(physical=(2025, 5e5, 1.0), ratio=(2025, 1e3, 1.0))
        assert qubit_limited_size(s.algorithm("qpe-n3"), 2025, s) == 50

    def test_infeasible_zero(self):
        s = make_scenario(physical=(2025, 5e3, 1.0), ratio=(2025, 1e3, 1.0))
        assert qubit_limited_size(s.algorithm("qpe-n3"), 2025, s) == 0

    def test_monotone_over_years(self):
        s = default_scenario()
        sizes = [qubit_limited_size(s.algorithm("qpe-n3"), y, s) for y in range(2025, 2051)]
        assert all(b >= a for a, b in zip(sizes, sizes[1:]))

    def test_surface_code_self_consistency(self):
        # The t_count feeding the qubit ratio must be the candidate N's own.
        s = make_scenario(mode="surface-code", physical=(2025, 1e8, 1.0))
        n = qubit_limited_size(s.algorithm("qpe-n3"), 2025, s)
        spec = s.algorithm("qpe-n3")
        from qea import available_logical_qubits

        t_at_n = spec.cost_law.value(n, s.epsilon)
        t_next = spec.cost_law.value(n + 1, s.epsilon)
        assert spec.qubit_law.value(n, 1.0) <= available_logical_qubits(s.quantum, 2025, t_at_n)
        assert spec.qubit_law.value(n + 1, 1.0) > available_logical_qubits(s.quantum, 2025, t_next)


class TestAdvantageRegion:
    def test_fci_region_with_ample_hardware(self):
        s = make_scenario(classical=(2025, 1e18, 1.0), physical=(2025, 3.6e6, 1.0))
        region = advantage_region(s.algorithm("FCI"), s.algorithm("qpe-n3"), 2025, s)
        assert region.nonempty
        assert region.min_advantageous_n == 35
        assert region.max_feasible_n >= 35

    def test_never_pair_empty(self, flat):
        region = advantage_region(flat.algorithm("DFT"), flat.algorithm("qpe-n3"), 2025, flat)
        assert not region.nonempty
        assert region.threshold_n is None
        assert region.min_advantageous_n is None

    def test_threshold_above_envelope_empty(self, flat):
        region = advantage_region(flat.algorithm("CCSD"), flat.algorithm("qpe-n3"), 2025, flat)
        envelope = feasibility_envelope(flat.algorithm("qpe-n3"), 2025, flat)
        assert envelope.deadline_limited_n == 637
        assert region.max_feasible_n <= 637
        assert not region.nonempty

    def test_ceiling_invariant(self):
        s = default_scenario()
        for year in (2025, 2032, 2040):
            region = advantage_region(s.algorithm("FCI"), s.algorithm("qpe-n3"), year, s)
            assert region.min_advantageous_n == math.ceil(region.threshold_n)

    def test_envelope_min_invariant(self):
        s = default_scenario()
        for year in (2025, 2035, 2050):
            env = feasibility_envelope(s.algorithm("qpe-n2"), year, s)
            assert env.max_feasible_n == min(env.qubit_limited_n, env.deadline_limited_n)


class TestFirstAdvantageYear:
    def test_shipped_anchors(self):
        s = default_scenario()
        assert first_advantage_year(s.algorithm("FCI"), s.algorithm("qpe-n3"), s).verdict == 2032
        assert first_advantage_year(s.algorithm("CCSD(T)"), s.algorithm("qpe-n3"), s).verdict == 2036

    def test_hf_beyond_horizon(self):
        s = default_scenario()
        result = first_advantage_year(s.algorithm("HF"), s.algorithm("qpe-n3"), s)
        assert result.verdict == BEYOND_HORIZON

    def test_dft_never(self):
        s = default_scenario()
        result = first_advantage_year(s.algorithm("DFT"), s.algorithm("qpe-n3"), s)
        assert result.verdict == NEVER
        assert result.binding_constraint == "qea"

    def test_binding_constraint_qubits_for_fci(self):
        s = default_scenario()
        result = first_advantage_year(s.algorithm("FCI"), s.algorithm("qpe-n3"), s)
        assert result.binding_constraint == "qubits"

    def test_none_when_immediately_feasible(self):
        s = make_scenario(classical=(2025, 1e18, 1.0), physical=(2025, 3.6e6, 1.0))
        result = first_advantage_year(s.algorithm("FCI"), s.algorithm("qpe-n3"), s)
        assert result.verdict == 2025
        assert result.binding_constraint == "none"

    def test_column_monotonicity(self):
        s = default_scenario()
        ladder = ["HF", "MP2", "CCSD", "CCSD(T)", "FCI"]
        for q in ("qpe-n3", "qpe-n2"):
            keys = [
                verdict_key(first_advantage_year(s.algorithm(c), s.algorithm(q), s), s.horizon)
                for c in ladder
            ]
            assert all(b <= a for a, b in zip(keys, keys[1:]))

    def test_robustness_directionality(self):
        s = default_scenario()
        slower_quantum = apply_variation(s, Variation(name="q10", quantum_time=10.0))
        faster_classical = apply_variation(s, Variation(name="c-3", classical_time=1e-3))
        fewer_qubits = apply_variation(s, Variation(name="l.1", logical_qubits=0.1))
        for c in ("DFT", "HF", "MP2", "CCSD", "CCSD(T)", "FCI"):
            for q in ("qpe-n3", "qpe-n2"):
                base = verdict_key(
                    first_advantage_year(s.algorithm(c), s.algorithm(q), s), s.horizon
                )
                for scen, direction in [
                    (slower_quantum, "later"),
                    (faster_classical, "later"),
                    (fewer_qubits, "earlier"),
                ]:
                    key = verdict_key(
                        first_advantage_year(scen.algorithm(c), scen.algorithm(q), scen),
                        scen.horizon,
                    )
                    if direction == "later":
                        assert key >= base
                    else:
                        assert key <= base


def _exponential_quantum(law: str) -> AlgorithmSpec:
    """qpe-n3's shape with one law made exponential (exp_base 1.001)."""
    laws = {"cost": ComplexityModel(1.0, 3.0, 1.0), "qubit": ComplexityModel(10.0, 1.0)}
    laws[law] = dataclasses.replace(laws[law], exp_base=1.001)
    return AlgorithmSpec("qx", "quantum", cost_law=laws["cost"], qubit_law=laws["qubit"])


ENGINE_ENTRIES = {
    "qea_threshold": lambda c, q, s: qea_threshold(c, q, 2040, s),
    "feasibility_envelope": lambda c, q, s: feasibility_envelope(q, 2040, s),
    "qubit_limited_size": lambda c, q, s: qubit_limited_size(q, 2040, s),
    "deadline_limited_size": lambda c, q, s: deadline_limited_size(q, 2040, s.deadline_s, s),
    "advantage_region": lambda c, q, s: advantage_region(c, q, 2040, s),
    "first_advantage_year": lambda c, q, s: first_advantage_year(c, q, s),
}


class TestPolynomialQuantumLaws:
    """The engine takes quantum methods whose cost and qubit laws are
    polynomial: its gap is then concave in ln N, which the year scan and
    the threshold solver rest on."""

    @pytest.mark.parametrize("mode", ["simple", "surface-code"])
    @pytest.mark.parametrize("law", ["cost", "qubit"])
    @pytest.mark.parametrize("entry", ENGINE_ENTRIES)
    def test_every_entry_rejects_an_exponential_law(self, entry, law, mode):
        s = make_scenario(mode=mode)
        with pytest.raises(DomainError, match=f"'qx' has an exponential {law} law"):
            ENGINE_ENTRIES[entry](s.algorithm("CCSD(T)"), _exponential_quantum(law), s)

    def test_convex_gap_example(self):
        """Against CCSD(T) an exponential quantum law makes the gap convex in
        ln N: it dips below 0 between two positive ends.  The endpoint scan
        read `never` here, though the unfused runtimes find advantageous
        sizes inside the envelope in 2040 (N 1417 to 7067, where the
        deadline binds)."""
        s = default_scenario()
        qx, ccsdt = _exponential_quantum("cost"), s.algorithm("CCSD(T)")
        gap = lambda n: log_quantum_seconds(qx, n, 2040, s) - log_classical_seconds(ccsdt, n, 2040, s)  # noqa: E731
        assert gap(1) > 0 and gap(10**4) > 0  # both ends of a window past the envelope
        assert gap(1416) > 0 >= gap(1417) and gap(7067) <= 0
        with pytest.raises(DomainError, match="polynomial"):
            first_advantage_year(ccsdt, qx, s)

    @pytest.mark.parametrize("entry", ENGINE_ENTRIES)
    def test_kind_is_checked_before_the_laws(self, entry):
        """FCI's cost law is exponential, but passed as the quantum method
        it is named for its kind."""
        s = default_scenario()
        with pytest.raises(DomainError, match="'FCI' is not a quantum method"):
            ENGINE_ENTRIES[entry](s.algorithm("CCSD"), s.algorithm("FCI"), s)

"""Scenario defaults, variations, file round-trips, and calibration."""

import dataclasses
import json
import math

import pytest

from qea import (
    CalibrationError,
    DomainError,
    Scenario,
    ScenarioError,
    Variation,
    apply_variation,
    calibrate,
    default_scenario,
    dump_scenario,
    first_advantage_year,
    load_scenario,
    overhead_ratio,
    scenario_digest,
    scenario_from_dict,
    standard_variations,
    verdict_key,
)
from qea import scenario as scenario_module
from qea.scenario import get_param, set_param

from helpers import make_scenario, with_tuning


class TestDefaults:
    def test_core_constants(self):
        s = default_scenario()
        assert s.epsilon == 1e-3
        assert s.deadline_s == 2_592_000.0
        assert s.start_year == 2025
        assert s.horizon == 2050
        assert s.quantum.mode == "simple"

    def test_overhead_identity(self):
        assert overhead_ratio(default_scenario(), 2025) == 1e13

    def test_qubit_law_constant(self):
        s = default_scenario()
        assert s.algorithms["qpe-n3"].qubit_constant == 10.0
        assert s.algorithm("qpe-n3").qubit_law.constant == 10.0

    def test_algorithm_resolution_with_alias(self):
        s = default_scenario()
        assert s.algorithm("CCSDT").name == "CCSD(T)"
        assert s.algorithm("ccsd").cost_law.size_exponent == 6.0

    def test_tuning_overrides_flow_through(self):
        s = with_tuning(default_scenario(), "qpe-n3", constant=5.0, fidelity=0.5, qubit_constant=1.0)
        spec = s.algorithm("qpe-n3")
        assert spec.cost_law.constant == 5.0
        assert spec.initial_state_fidelity == 0.5
        assert spec.qubit_law.constant == 1.0
        # epsilon exponent and kind never change through tunings
        assert spec.cost_law.inv_error_exponent == 1.0

    def test_validation(self):
        with pytest.raises(DomainError):
            make_scenario(epsilon=0.0)
        with pytest.raises(DomainError):
            make_scenario(deadline_s=-5.0)
        with pytest.raises(DomainError):
            make_scenario(start_year=2040, horizon=2030)


class TestVariations:
    def test_quantum_time(self):
        s = apply_variation(default_scenario(), Variation(name="x", quantum_time=10.0))
        assert s.algorithms["qpe-n3"].constant == 10.0
        assert s.algorithms["qpe-n5"].constant == 10.0
        assert s.algorithms["CCSD"].constant == 1.0

    def test_classical_time(self):
        s = apply_variation(default_scenario(), Variation(name="x", classical_time=1e-3))
        assert s.algorithms["CCSD"].constant == 1e-3
        assert s.algorithms["DMRG"].constant == 1e9 * 1e-3
        assert s.algorithms["qpe-n3"].constant == 1.0

    def test_logical_qubits(self):
        s = apply_variation(default_scenario(), Variation(name="x", logical_qubits=0.1))
        assert s.algorithms["qpe-n3"].qubit_constant == 1.0
        assert s.algorithms["CCSD"].qubit_constant is None

    def test_identity_is_equality(self):
        s = default_scenario()
        assert apply_variation(s, Variation(name="id")) == s

    def test_composition_fieldwise(self):
        s = default_scenario()
        for a, b in [(10.0, 0.1), (2.0, 3.0), (0.5, 4.0)]:
            seq = apply_variation(
                apply_variation(s, Variation(name="a", quantum_time=a, logical_qubits=a)),
                Variation(name="b", quantum_time=b, logical_qubits=b),
            )
            combined = apply_variation(
                s, Variation(name="ab", quantum_time=a * b, logical_qubits=a * b)
            )
            assert seq == combined

    def test_standard_set(self):
        names = [v.name for v in standard_variations()]
        assert names == ["logical=0.1", "quantum_time=10", "classical_time=0.001"]

    def test_validation(self):
        with pytest.raises(DomainError):
            Variation(name="bad", quantum_time=0.0)
        for value in (math.inf, math.nan):
            with pytest.raises(DomainError, match="finite"):
                Variation(name="bad", classical_time=value)

    @pytest.mark.parametrize("field", ["constant", "exponent", "qubit_constant"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_tuning_rejects_non_finite(self, field, value):
        tuning = default_scenario().algorithms["qpe-n3"]
        with pytest.raises(DomainError, match="finite"):
            dataclasses.replace(tuning, **{field: value})


# Invalid scenario documents, each with the file key or dotted path its
# error message must name.
STRICT_REJECTS = [
    ({"unknown_top": 1}, "unknown_top"),
    ({"classical": {"flops": {}}}, "flops"),
    ({"quantum": {"tgate_trend": {}}}, "tgate_trend"),
    ({"quantum": {"logical_tgate_trend": {"base": 2025}}}, "base"),
    ({"quantum": {"surface_code": {"alpha": 0.1}}}, "alpha"),
    ({"overrides": {"no-such-method": {"constant": 2.0}}}, "no-such-method"),
    ({"overrides": {"CCSD": {"qubit_constant": 5.0}}}, "overrides.CCSD"),  # classical has no qubit law
    ({"overrides": {"qpe-n3": {"misfield": 1}}}, "misfield"),
    ({"epsilon": 2.0}, "epsilon"),
    ({"epsilon": "small"}, "epsilon"),
    ({"quantum": {"mode": "annealer"}}, "mode"),
    ({"quantum": {"logical_tgate_trend": {"annual_factor": "fast"}}}, "quantum.logical_tgate_trend.annual_factor"),
    ({"overrides": {"qpe-n3": {"constant": True}}}, "overrides.qpe-n3.constant"),
    ({"start_year": 2025.5}, "start_year"),
    ({"horizon": 2050.25}, "horizon"),
    ({"horizon": float("inf")}, "horizon"),
    ({"deadline_s": float("inf")}, "deadline_s"),
    ({"epsilon": float("nan")}, "epsilon"),
    ({"horizon": 100000000}, "horizon"),
    ({"start_year": 1000, "horizon": 2050}, "start_year"),
    ({"classical": {"flops_trend": {"base_year": float("nan")}}}, "classical.flops_trend.base_year"),
]
# Every override field must be finite: a NaN or infinite tuning would
# reach the cost laws and the year scan.
STRICT_REJECTS += [
    ({"overrides": {"qpe-n3": {key: value}}}, f"overrides.qpe-n3.{key}")
    for key in ("constant", "exponent", "fidelity", "qubit_constant")
    for value in (float("nan"), float("inf"), float("-inf"))
]

# Every surface-code field and every trend value and factor must be
# finite: an infinite prefactor ended the table in OverflowError, and an
# infinite cycle time printed ">2050" in every cell.
STRICT_REJECTS += [
    ({"quantum": {"surface_code": {key: value}}}, f"quantum.surface_code.{key}")
    for key in ("A", "p_th", "cycle_time_s", "cycles_per_t", "failure_budget")
    for value in (float("nan"), float("inf"))
]
STRICT_REJECTS += [
    ({"classical": {"flops_trend": {key: value}}}, f"classical.flops_trend.{key}")
    for key in ("base_value", "annual_factor")
    for value in (float("nan"), float("inf"), float("-inf"))
]


class TestFileFormat:
    def test_default_round_trip_bit_equal(self):
        s = default_scenario()
        assert scenario_from_dict(json.loads(dump_scenario(s))) == s

    def test_modified_round_trip(self, tmp_path):
        s = make_scenario(
            mode="surface-code",
            classical=(2024, 3.3e17, 1.37),
            tgate=(2025, 2.0e5, 1.92),
            epsilon=1e-2,
            horizon=2060,
        )
        s = with_tuning(s, "qpe-n3", constant=7.7, fidelity=0.51, qubit_constant=3.0)
        s = with_tuning(s, "FCI", constant=0.125)
        path = tmp_path / "scenario.json"
        path.write_text(dump_scenario(s), encoding="utf-8")
        assert load_scenario(str(path)) == s

    def test_variation_survives_round_trip(self):
        s = apply_variation(default_scenario(), Variation(name="x", quantum_time=10.0))
        assert scenario_from_dict(json.loads(dump_scenario(s))) == s

    def test_partial_document_uses_defaults(self):
        s = scenario_from_dict({"epsilon": 0.01})
        assert s.epsilon == 0.01
        assert s.deadline_s == default_scenario().deadline_s

    def test_override_section(self):
        s = scenario_from_dict({"overrides": {"CCSDT": {"constant": 0.5}, "qpe-n2": {"fidelity": 0.9}}})
        assert s.algorithms["CCSD(T)"].constant == 0.5
        assert s.algorithms["qpe-n2"].fidelity == 0.9

    @pytest.mark.parametrize("doc", [doc for doc, _ in STRICT_REJECTS])
    def test_strict_rejects(self, doc):
        with pytest.raises(ScenarioError):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("doc, key", STRICT_REJECTS)
    def test_rejection_names_the_key(self, doc, key):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(doc)
        assert key in str(err.value)

    def test_whole_float_years_load_as_int(self):
        s = scenario_from_dict(json.loads('{"start_year": 2030.0, "horizon": 2040.0}'))
        assert (s.start_year, s.horizon) == (2030, 2040)
        assert type(s.start_year) is int and type(s.horizon) is int
        assert list(s.years()) == list(range(2030, 2041))

    def test_scan_window_cap(self):
        assert len(make_scenario(start_year=2025, horizon=3025).years()) == 1001
        with pytest.raises(DomainError, match="wider than 1000 years"):
            make_scenario(start_year=2025, horizon=3026)

    def test_missing_file(self):
        with pytest.raises(ScenarioError):
            load_scenario("/nonexistent/path.json")

    def test_digest_tracks_content(self):
        a = default_scenario()
        b = dataclasses.replace(a, epsilon=0.01)
        assert scenario_digest(a) == scenario_digest(default_scenario())
        assert scenario_digest(a) != scenario_digest(b)


class TestParamPaths:
    def test_get_set(self):
        s = default_scenario()
        path = "quantum.logical_tgate_trend.annual_factor"
        s2 = set_param(s, path, 3.0)
        assert get_param(s2, path) == 3.0
        assert get_param(s, path) != 3.0  # original untouched

    def test_all_paths(self):
        s = default_scenario()
        for head in (
            "classical.flops_trend",
            "quantum.logical_tgate_trend",
            "quantum.physical_qubit_trend",
            "quantum.ratio_trend",
            "quantum.physical_error_trend",
        ):
            s2 = set_param(s, head + ".annual_factor", 1.25)
            assert get_param(s2, head + ".annual_factor") == 1.25

    def test_bad_path(self):
        with pytest.raises(ScenarioError):
            get_param(default_scenario(), "quantum.logical_tgate_trend.base_value")
        with pytest.raises(ScenarioError):
            get_param(default_scenario(), "nope.annual_factor")


class TestCalibrate:
    ANCHORS = [("FCI", "qpe-n3", 2032), ("CCSD(T)", "qpe-n3", 2036)]
    FREE = [
        "quantum.physical_qubit_trend.annual_factor",
        "quantum.logical_tgate_trend.annual_factor",
    ]

    def test_empty_anchors_identity(self):
        s = default_scenario()
        assert calibrate(s, [], []) == s

    def test_self_consistency_reproduces_frozen_rates(self):
        # Cold start from unit growth must land exactly on the shipped
        # literals and reproduce both anchors.
        base = default_scenario()
        for path in self.FREE:
            base = set_param(base, path, 1.0)
        cal = calibrate(base, self.FREE, self.ANCHORS, prefer=["high", "low"])
        shipped = default_scenario()
        for path in self.FREE:
            assert get_param(cal, path) == get_param(shipped, path)
        for c, q, year in self.ANCHORS:
            assert first_advantage_year(cal.algorithm(c), cal.algorithm(q), cal).verdict == year

    def test_anchors_hold_even_when_base_matches(self):
        s = default_scenario()
        out = calibrate(s, self.FREE, self.ANCHORS, prefer=["high", "low"])
        assert out == s  # already on the anchors, nothing to move

    def test_infeasible_anchor_named(self):
        s = default_scenario()
        with pytest.raises(CalibrationError) as err:
            calibrate(
                s,
                ["quantum.logical_tgate_trend.annual_factor"],
                [("DFT", "qpe-n3", 2030)],
            )
        assert "DFT:qpe-n3:2030" in str(err.value)

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            calibrate(default_scenario(), ["quantum.ratio_trend.annual_factor"], [])

    @pytest.mark.parametrize("year", [2032, 2031])
    def test_bad_path_rejected_before_the_first_pass(self, year):
        """The default scenario holds FCI:qpe-n3:2032, so no coordinate step
        would ever read the path."""
        with pytest.raises(ScenarioError, match="unsupported parameter path 'epsilon'"):
            calibrate(default_scenario(), ["epsilon"], [("FCI", "qpe-n3", year)])

    @pytest.mark.parametrize("sign", [1, -1])
    def test_anchor_year_past_float_range_rejected(self, sign):
        """float(year) once raised OverflowError in the first pass."""
        with pytest.raises(DomainError, match="anchor year of FCI:qpe-n3 is past float range"):
            calibrate(default_scenario(), self.FREE[1:], [("FCI", "qpe-n3", sign * 10**400)])

    def test_bad_prefer(self):
        with pytest.raises(DomainError):
            calibrate(
                default_scenario(),
                ["quantum.ratio_trend.annual_factor"],
                [("FCI", "qpe-n3", 2032)],
                prefer=["sideways"],
            )

    def test_verdict_key_is_advantage_order(self):
        s = default_scenario()
        for c, q in [("DFT", "qpe-n3"), ("HF", "qpe-n3"), ("FCI", "qpe-n3")]:
            specs = (s.algorithm(c), s.algorithm(q))
            want = verdict_key(first_advantage_year(*specs, s), s.horizon)
            assert scenario_module._verdict_key(s, specs) == want
        assert {scenario_module._verdict_key(s, (s.algorithm(c), s.algorithm("qpe-n3")))
                for c in ("DFT", "HF", "FCI")} == {math.inf, 2051.0, 2032.0}

    def _perturbed(self):
        base = default_scenario()
        return set_param(set_param(base, self.FREE[0], 1.7), self.FREE[1], 3.3)

    def test_anchor_methods_resolved_once(self, monkeypatch):
        calls = []
        original = Scenario.algorithm

        def counting(scenario, name):
            calls.append(name)
            return original(scenario, name)

        monkeypatch.setattr(Scenario, "algorithm", counting)
        calibrate(self._perturbed(), self.FREE, self.ANCHORS, prefer=["high", "low"])
        assert calls == ["FCI", "qpe-n3", "CCSD(T)", "qpe-n3"]

    def test_coordinate_step_probes_no_factor_twice(self, monkeypatch):
        probes, in_step = [], []
        original_key, original_step = scenario_module._verdict_key, scenario_module._coordinate_step

        def recording_key(scenario, specs):
            if in_step:  # first_miss also asks, outside any step
                probes[-1].append((scenario.quantum, specs[0].name))
            return original_key(scenario, specs)

        def recording_step(*args):
            probes.append([])
            in_step.append(True)
            try:
                return original_step(*args)
            finally:
                in_step.pop()

        monkeypatch.setattr(scenario_module, "_verdict_key", recording_key)
        monkeypatch.setattr(scenario_module, "_coordinate_step", recording_step)
        calibrate(self._perturbed(), self.FREE, self.ANCHORS, prefer=["high", "mid"])
        assert len(probes) >= 2
        for step in probes:
            assert len(step) == len(set(step))

    def test_low_step_stops_at_its_enter_edge(self, monkeypatch):
        # A "low" step returns the enter edge, so it probes the two
        # bounds and the enter bisection's midpoints, and no exit edge.
        probes = []
        original_key = scenario_module._verdict_key

        def recording_key(scenario, specs):
            probes.append(scenario)
            return original_key(scenario, specs)

        monkeypatch.setattr(scenario_module, "_verdict_key", recording_key)
        s, (c, q, _) = default_scenario(), self.ANCHORS[1]
        specs = (s.algorithm(c), s.algorithm(q))
        enter = scenario_module._coordinate_step(s, self.FREE[1], self.ANCHORS[1], specs, "low")
        lo, hi = scenario_module.CALIBRATION_BOUNDS
        assert enter == get_param(s, self.FREE[1])  # the shipped factor is this edge
        assert len(probes) <= 2 + math.ceil(math.log2((hi - lo) / scenario_module.CALIBRATION_TOL))

    @pytest.mark.parametrize(
        "path, anchor, low",
        [
            ("classical.flops_trend.annual_factor", ("CCSD(T)", "qpe-n3", 2038), 1.930999755859375),
            ("quantum.ratio_trend.annual_factor", ("CCSD(T)", "qpe-n3", 2039), 1.159942626953125),
        ],
    )
    def test_factor_that_delays_advantage_calibrates(self, path, anchor, low):
        # Faster classical hardware and a higher physical-per-logical
        # ratio delay advantage: the verdict rises with these factors.
        # "low" and "high" land on the edges of the factors hitting the
        # anchor: a step of the tolerance outward misses it.
        c, q, year = anchor

        def verdict(scenario, factor):
            s = set_param(scenario, path, factor)
            return first_advantage_year(s.algorithm(c), s.algorithm(q), s).verdict

        tol = scenario_module.CALIBRATION_TOL
        for prefer, outward in (("low", -tol), ("high", tol)):
            cal = calibrate(default_scenario(), [path], [anchor], prefer=[prefer])
            factor = get_param(cal, path)
            assert verdict(cal, factor) == year
            assert verdict(cal, factor + outward) != year
            if prefer == "low":
                assert factor == low

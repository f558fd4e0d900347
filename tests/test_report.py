"""Table assembly, curve series, and deterministic rendering."""

import collections
import math

import pytest

from qea import (
    DomainError,
    QuantumPlatform,
    Scenario,
    UnknownMethodError,
    Variation,
    advantage_region,
    curve_csv,
    curve_text,
    default_scenario,
    disruption_table,
    qea_curve_series,
    render_csv,
    render_text,
    robustness_table,
    standard_variations,
    verdict_key,
    verdict_text,
)
from qea import advantage, scenario_from_dict
from qea.catalog import builtin_catalog
from qea.report import MAX_CURVE_POINTS

from test_golden import CUSTOM_DOC

CATALOG_CLASSICAL = sorted(name for name, spec in builtin_catalog().items() if spec.kind == "classical")
CATALOG_QUANTUM = sorted(name for name, spec in builtin_catalog().items() if spec.kind == "quantum")

# The scenarios behind the golden digests: shipped, custom, and shipped on
# surface-code hardware.
GOLDEN_SCENARIOS = {
    "default": default_scenario,
    "custom": lambda: scenario_from_dict(CUSTOM_DOC),
    "surface-code": lambda: scenario_from_dict({"quantum": {"mode": "surface-code"}}),
}


class TestDisruptionTable:
    def test_default_grid(self):
        s = default_scenario()
        tbl = disruption_table(s, ["qpe-n3", "qpe-n2"], ["DFT", "HF", "MP2", "CCSD", "CCSDT", "FCI"])
        assert tbl.cells[("FCI", "qpe-n3")].verdict == 2032
        fci_n2 = tbl.cells[("FCI", "qpe-n2")]
        assert verdict_key(fci_n2, s.horizon) <= 2032
        assert verdict_text(tbl.cells[("DFT", "qpe-n3")], s.horizon) == "N/A"
        assert verdict_text(tbl.cells[("HF", "qpe-n3")], s.horizon) == ">2050"

    def test_one_by_one(self):
        s = default_scenario()
        tbl = disruption_table(s, ["qpe-n3"], ["FCI"])
        assert list(tbl.cells) == [("FCI", "qpe-n3")]

    def test_empty_lists_rejected(self):
        with pytest.raises(DomainError):
            disruption_table(default_scenario(), [], ["FCI"])

    def test_unknown_method(self):
        with pytest.raises(UnknownMethodError):
            disruption_table(default_scenario(), ["qpe-n3"], ["HF3"])

    def test_rendering_is_deterministic(self):
        s = default_scenario()
        tbl = disruption_table(s, ["qpe-n3", "qpe-n2"], ["CCSD", "FCI"])
        assert render_csv(tbl) == render_csv(disruption_table(s, ["qpe-n3", "qpe-n2"], ["CCSD", "FCI"]))
        assert render_text(tbl) == render_text(tbl)

    def test_each_rendered_year_cross_checks(self):
        """In every golden scenario, each catalog cell's verdict year is the
        first nonempty curve row over [start, horizon], and no row is
        nonempty for >HORIZON or N/A."""
        for name, scenario in GOLDEN_SCENARIOS.items():
            s = scenario()
            tbl = disruption_table(s, CATALOG_QUANTUM, CATALOG_CLASSICAL)
            for (c, q), result in tbl.cells.items():
                rows = qea_curve_series(s, c, q, s.start_year, s.horizon)
                first = next((p.year for p in rows if p.region_nonempty), None)
                if not isinstance(result.verdict, int):
                    assert first is None, (name, c, q)
                    continue
                year = result.verdict
                assert first == year, (name, c, q)
                assert advantage_region(s.algorithm(c), s.algorithm(q), year, s).nonempty
                if year > s.start_year:
                    assert not advantage_region(s.algorithm(c), s.algorithm(q), year - 1, s).nonempty

    def test_csv_shape(self):
        s = default_scenario()
        out = render_csv(disruption_table(s, ["qpe-n3"], ["FCI"]))
        lines = out.split("\r\n")
        assert lines[0].startswith("# scenario sha256=")
        assert lines[1] == "classical,quantum,verdict,binding_constraint"
        assert lines[2].startswith("FCI,qpe-n3,2032,")


class TestRobustnessTable:
    def test_columns_and_directions(self):
        s = default_scenario()
        variations = [
            Variation(name="logical=0.1", logical_qubits=0.1),
            Variation(name="quantum_time=10", quantum_time=10.0),
            Variation(name="classical_time=0.001", classical_time=1e-3),
        ]
        tbl = robustness_table(s, variations, "qpe-n3", ["HF", "MP2", "CCSD", "CCSDT", "FCI"])
        assert tbl.columns == ("baseline", "logical=0.1", "quantum_time=10", "classical_time=0.001")
        for c in tbl.classical_methods:
            base = verdict_key(tbl.cells[(c, "baseline")], s.horizon)
            assert verdict_key(tbl.cells[(c, "logical=0.1")], s.horizon) <= base
            assert verdict_key(tbl.cells[(c, "quantum_time=10")], s.horizon) >= base
            assert verdict_key(tbl.cells[(c, "classical_time=0.001")], s.horizon) >= base

    def test_fci_fewer_qubits_moves_earlier(self):
        s = default_scenario()
        tbl = robustness_table(s, [Variation(name="logical=0.1", logical_qubits=0.1)], "qpe-n3", ["FCI"])
        assert tbl.cells[("FCI", "logical=0.1")].verdict <= tbl.cells[("FCI", "baseline")].verdict

    def test_identity_column_equals_baseline(self):
        s = default_scenario()
        tbl = robustness_table(s, [Variation(name="id")], "qpe-n3", ["CCSD", "FCI"])
        for c in tbl.classical_methods:
            assert tbl.cells[(c, "id")] == tbl.cells[(c, "baseline")]

    def test_csv_has_variation_column(self):
        s = default_scenario()
        out = render_csv(robustness_table(s, [Variation(name="id")], "qpe-n3", ["FCI"]))
        header = out.split("\r\n")[1]
        assert header == "classical,quantum,variation,verdict,binding_constraint"


def test_tables_resolve_each_method_once_per_column_scenario(monkeypatch):
    """The disruption table's columns share one scenario, so each method
    is resolved once; each robustness column has its own scenario, so each
    method is resolved once per column, and never once per cell more."""
    calls = []
    original = Scenario.algorithm
    monkeypatch.setattr(Scenario, "algorithm", lambda self, name: calls.append(name) or original(self, name))
    s = default_scenario()
    disruption_table(s, ["qpe-n3", "qpe-n2"], ["DFT", "HF", "MP2", "CCSD", "CCSDT", "FCI"])
    assert len(calls) == 2 + 6
    calls.clear()
    robustness_table(s, standard_variations(), "qpe-n3", ["HF", "MP2", "CCSD", "CCSDT", "FCI"])
    assert len(calls) == 4 * (1 + 5)
    calls.clear()
    disruption_table(s, ["qpe-n3", "qpe-n3"], ["CCSD", "FCI", "CCSD"])
    assert sorted(calls) == ["CCSD", "FCI", "qpe-n3"]


def test_render_rejects_other_objects():
    for render, output in ((render_csv, "CSV"), (render_text, "text")):
        with pytest.raises(DomainError, match=f"cannot render list as {output}"):
            render([])


class TestCurveSeries:
    def test_threshold_monotone_down_with_faster_quantum(self):
        s = default_scenario()  # quantum factor 2.59 > classical 1.4
        points = qea_curve_series(s, "CCSD", "qpe-n3", 2025, 2050, 1)
        thresholds = [p.threshold_n for p in points]
        assert all(b <= a for a, b in zip(thresholds, thresholds[1:]))

    def test_single_transition(self):
        s = default_scenario()
        points = qea_curve_series(s, "FCI", "qpe-n3", 2025, 2050, 1)
        flags = [p.region_nonempty for p in points]
        transitions = sum(1 for a, b in zip(flags, flags[1:]) if (a, b) == (False, True))
        assert transitions <= 1
        first_true = next(p.year for p in points if p.region_nonempty)
        assert first_true == 2032

    def test_zero_length_range(self):
        s = default_scenario()
        points = qea_curve_series(s, "CCSD", "qpe-n3", 2030, 2030, 1)
        assert len(points) == 1
        assert points[0].year == 2030

    def test_fractional_step(self):
        s = default_scenario()
        points = qea_curve_series(s, "CCSD", "qpe-n3", 2025, 2027, 0.5)
        assert [p.year for p in points] == [2025.0, 2025.5, 2026.0, 2026.5, 2027.0]

    def test_envelope_fields_consistent(self):
        s = default_scenario()
        for p in qea_curve_series(s, "CCSD", "qpe-n3", 2025, 2045, 5):
            assert p.max_feasible_n == min(p.qubit_limited_n, p.deadline_limited_n)
            if p.threshold_n is not None:
                assert p.region_nonempty == (math.ceil(p.threshold_n) <= p.max_feasible_n)

    def test_never_threshold_renders_empty_csv_field(self):
        s = default_scenario()
        points = qea_curve_series(s, "DFT", "qpe-n3", 2025, 2026, 1)
        body = curve_csv(points, s).split("\r\n")
        assert body[1] == "year,threshold_n,qubit_limited_n,deadline_limited_n,max_feasible_n,region_nonempty"
        assert body[2].split(",")[1] == ""
        text = curve_text(points, s)
        assert "-" in text.split("\n")[2]

    def test_bad_ranges(self):
        s = default_scenario()
        with pytest.raises(DomainError):
            qea_curve_series(s, "CCSD", "qpe-n3", 2030, 2025, 1)
        with pytest.raises(DomainError):
            qea_curve_series(s, "CCSD", "qpe-n3", 2025, 2030, 0)
        for year_from, year_to in [(math.nan, 2030), (2025, math.inf), (-math.inf, 2030)]:
            with pytest.raises(DomainError):
                qea_curve_series(s, "CCSD", "qpe-n3", year_from, year_to, 1)

    def test_one_envelope_builder_per_series(self, monkeypatch):
        builders = []
        original = advantage._envelope_builder
        monkeypatch.setattr(advantage, "_envelope_builder", lambda q, s: builders.append(q.name) or original(q, s))
        points = qea_curve_series(default_scenario(), "FCI", "qpe-n3", 2025, 2050, 0.5)
        assert len(points) == 51 and builders == ["qpe-n3"]

    def test_one_pair_builder_and_one_view_per_row(self, monkeypatch):
        """Each row's threshold solve and envelope share the row's view."""
        calls = collections.Counter()
        builder, at = advantage._log_seconds_builder, QuantumPlatform.at

        def counting_builder(quantum, scenario, classical=None):
            calls["pair builder"] += classical is not None
            return builder(quantum, scenario, classical)

        def counting_at(platform, year):
            calls["view"] += 1
            return at(platform, year)

        monkeypatch.setattr(advantage, "_log_seconds_builder", counting_builder)
        monkeypatch.setattr(QuantumPlatform, "at", counting_at)
        points = qea_curve_series(default_scenario(), "FCI", "qpe-n3", 2025, 2050, 1)
        assert len(points) == 26 and calls == {"pair builder": 1, "view": 26}

    def test_kinds_checked_classical_first(self):
        """As qea_threshold checks them: a swapped pair names the classical side."""
        s = default_scenario()
        for classical, quantum, named in [("qpe-n3", "FCI", "'qpe-n3' is not a classical"),
                                          ("qpe-n3", "qpe-n2", "'qpe-n3' is not a classical"),
                                          ("FCI", "HF", "'HF' is not a quantum")]:
            with pytest.raises(DomainError, match=named):
                qea_curve_series(s, classical, quantum, 2025, 2030, 1)

    def test_point_count_is_capped(self):
        s = default_scenario()
        with pytest.raises(DomainError, match="points"):
            qea_curve_series(s, "FCI", "qpe-n3", 2025, 2050, 1e-7)
        with pytest.raises(DomainError, match="points"):
            qea_curve_series(s, "FCI", "qpe-n3", 0, MAX_CURVE_POINTS, 1)
        # (year_to - year_from) / step is inf: counted before it is floored.
        with pytest.raises(DomainError, match="points"):
            qea_curve_series(s, "FCI", "qpe-n3", -1e308, 1e308, 1e308)
        # An infinite step once made a row at year nan.
        for year_from, year_to in [(-1e308, 1e308), (2025, 2030)]:
            with pytest.raises(DomainError, match="step must be finite"):
                qea_curve_series(s, "FCI", "qpe-n3", year_from, year_to, math.inf)

"""Tables and curve series rendered from engine outputs.

Two shapes of output:

* verdict grids (disruption: a column per quantum method; robustness:
  baseline and variation columns), built by one cell loop and rendered
  by one path per format: one verdict per (classical, column) cell, as
  a year, ">HORIZON" when advantage arrives only after the scan window,
  or "N/A" when no threshold exists at all.
* curve series: per-year threshold and feasibility-envelope rows for
  one method pair, for external plotting.

Machine output is RFC-4180 CSV (CRLF line ends, header row, full float
precision); human output is a fixed-width text grid with 6 significant
figures.  Both start with a comment line carrying the scenario digest
so every artifact is traceable to its exact parameter set.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

from .advantage import BEYOND_HORIZON, NEVER, DisruptionResult, _pair, _scan_years
from .catalog import canonical_name
from .errors import DomainError
from .scenario import Scenario, Variation, apply_variation, scenario_digest

__all__ = [
    "DisruptionTable",
    "RobustnessTable",
    "CurvePoint",
    "disruption_table",
    "robustness_table",
    "qea_curve_series",
    "curve_csv",
    "curve_text",
    "verdict_text",
    "render_csv",
    "render_text",
]

BASELINE_COLUMN = "baseline"

# Most rows one curve series may hold; each row is a threshold solve and
# an envelope, so an unbounded series would run without end.
MAX_CURVE_POINTS = 100_000


@dataclass(frozen=True)
class CurvePoint:
    year: float
    threshold_n: float | None
    qubit_limited_n: int
    deadline_limited_n: int
    max_feasible_n: int
    region_nonempty: bool


@dataclass(frozen=True)
class DisruptionTable:
    classical_methods: tuple[str, ...]
    quantum_methods: tuple[str, ...]
    cells: dict[tuple[str, str], DisruptionResult]
    scenario: Scenario


@dataclass(frozen=True)
class RobustnessTable:
    quantum: str
    classical_methods: tuple[str, ...]
    columns: tuple[str, ...]  # baseline first, then one per variation
    cells: dict[tuple[str, str], DisruptionResult]  # (classical, column)
    scenario: Scenario


def verdict_text(result: DisruptionResult, horizon: int) -> str:
    if result.verdict == NEVER:
        return "N/A"
    if result.verdict == BEYOND_HORIZON:
        return f">{horizon}"
    return str(result.verdict)


def _verdict_cells(classical_names: tuple[str, ...], columns: list[tuple]) -> dict:
    """The year scan of each (classical, column name) cell, row by row, for
    columns (name, scenario, quantum spec).  Each method is resolved once
    per distinct column scenario.  Columns differ in algorithm tunings
    only, never in a trend, so equal quantum specs share envelopes and
    every cell shares the year views (hardware, classical rate)."""
    envelopes, views = {q_spec: {} for _, _, q_spec in columns}, {}
    c_specs, cells = {}, {}
    for c in classical_names:
        for name, s, q_spec in columns:
            if (id(s), c) not in c_specs:
                c_specs[(id(s), c)] = s.algorithm(c)
            cells[(c, name)] = _scan_years(c_specs[(id(s), c)], q_spec, s, envelopes[q_spec], views)
    return cells


def disruption_table(
    scenario: Scenario, quantum_methods: list[str], classical_methods: list[str]
) -> DisruptionTable:
    """First-advantage verdicts for every (classical, quantum) pair."""
    if not quantum_methods or not classical_methods:
        raise DomainError("method lists must be nonempty")
    q_names = tuple(canonical_name(q) for q in quantum_methods)
    c_names = tuple(canonical_name(c) for c in classical_methods)
    columns = [(q, scenario, scenario.algorithm(q)) for q in dict.fromkeys(q_names)]
    return DisruptionTable(c_names, q_names, _verdict_cells(c_names, columns), scenario)


def robustness_table(
    scenario: Scenario,
    variations: list[Variation],
    quantum: str,
    classical_methods: list[str],
) -> RobustnessTable:
    """Baseline verdicts plus one column per variation, for one quantum
    method against each classical method."""
    if not classical_methods:
        raise DomainError("method lists must be nonempty")
    q_name = canonical_name(quantum)
    c_names = tuple(canonical_name(c) for c in classical_methods)
    names = (BASELINE_COLUMN,) + tuple(v.name for v in variations)
    scenarios = [scenario] + [apply_variation(scenario, v) for v in variations]
    columns = [(name, s, s.algorithm(q_name)) for name, s in zip(names, scenarios)]
    return RobustnessTable(q_name, c_names, names, _verdict_cells(c_names, columns), scenario)


def qea_curve_series(
    scenario: Scenario,
    classical: str,
    quantum: str,
    year_from: float,
    year_to: float,
    step: float = 1.0,
) -> list[CurvePoint]:
    """Threshold and envelope sampled over a year range (inclusive); a
    zero-length range yields the single starting row.  At most
    MAX_CURVE_POINTS rows."""
    if not (math.isfinite(year_from) and math.isfinite(year_to)):
        raise DomainError("year_from and year_to must be finite")
    if year_from > year_to:
        raise DomainError("year_from must be <= year_to")
    if not 0 < step < math.inf:
        raise DomainError("step must be finite and > 0")
    span = (year_to - year_from) / step + 1e-9  # inf past float range, so compared before the floor
    if not span < MAX_CURVE_POINTS:
        raise DomainError(f"curve would have more than {MAX_CURVE_POINTS} points; use a larger step")
    decide = _pair(scenario.algorithm(classical), scenario.algorithm(quantum), scenario)[1]
    points = []
    for year in (year_from + i * step for i in range(math.floor(span) + 1)):
        threshold, _, e, nonempty = decide(year, {}, {}, True)
        points.append(CurvePoint(year, threshold, e.qubit_limited_n, e.deadline_limited_n, e.max_feasible_n, nonempty))
    return points


# ---------------------------------------------------------------------------
# Rendering

def _digest_line(scenario: Scenario, eol: str) -> str:
    return f"# scenario sha256={scenario_digest(scenario)}{eol}"


def _csv_number(value: float) -> str:
    # repr round-trips doubles exactly; integers render bare.
    if float(value).is_integer() and abs(value) < 1e16:
        return str(int(value))
    return repr(float(value))


def _text_number(value: float) -> str:
    return format(value, ".6g")


def _csv_rows(header: list[str], rows: list[list[str]], scenario: Scenario) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(rows)
    return _digest_line(scenario, "\r\n") + buf.getvalue()


def _grid(headers: list[str], rows: list[list[str]], scenario: Scenario) -> str:
    widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return _digest_line(scenario, "\n") + "\n".join(lines) + "\n"


def _grid_of(table, output: str) -> tuple[list[str], tuple[str, ...], list[list[str]]]:
    """A verdict table's CSV key header, column names, and each column's
    CSV keys (the fields between the classical method and the verdict)."""
    if isinstance(table, DisruptionTable):
        return ["classical", "quantum"], table.quantum_methods, [[q] for q in table.quantum_methods]
    if isinstance(table, RobustnessTable):
        return ["classical", "quantum", "variation"], table.columns, [[table.quantum, v] for v in table.columns]
    raise DomainError(f"cannot render {type(table).__name__} as {output}")


def render_csv(table) -> str:
    """CSV for a DisruptionTable or RobustnessTable: one row per cell."""
    key_header, columns, column_keys = _grid_of(table, "CSV")
    horizon = table.scenario.horizon
    rows = [
        [c, *keys, verdict_text(table.cells[(c, column)], horizon), table.cells[(c, column)].binding_constraint]
        for c in table.classical_methods
        for column, keys in zip(columns, column_keys)
    ]
    return _csv_rows(key_header + ["verdict", "binding_constraint"], rows, table.scenario)


_CURVE_HEADER = ["year", "threshold_n", "qubit_limited_n", "deadline_limited_n", "max_feasible_n", "region_nonempty"]


def _curve_rows(points: list[CurvePoint], number, no_threshold: str) -> list[list[str]]:
    return [
        [
            number(p.year),
            no_threshold if p.threshold_n is None else number(p.threshold_n),
            str(p.qubit_limited_n),
            str(p.deadline_limited_n),
            str(p.max_feasible_n),
            "true" if p.region_nonempty else "false",
        ]
        for p in points
    ]


def curve_csv(points: list[CurvePoint], scenario: Scenario) -> str:
    return _csv_rows(_CURVE_HEADER, _curve_rows(points, _csv_number, ""), scenario)


def render_text(table) -> str:
    """Fixed-width grid for human eyes: one row per classical method."""
    _, columns, _ = _grid_of(table, "text")
    horizon = table.scenario.horizon
    rows = [
        [c] + [verdict_text(table.cells[(c, column)], horizon) for column in columns]
        for c in table.classical_methods
    ]
    return _grid(["classical", *columns], rows, table.scenario)


def curve_text(points: list[CurvePoint], scenario: Scenario) -> str:
    return _grid(_CURVE_HEADER, _curve_rows(points, _text_number, "-"), scenario)

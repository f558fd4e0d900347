"""The complete parameter set for one model run, plus calibration.

A Scenario bundles the accuracy target, the wall-clock deadline, the
scan window, both hardware platforms, and a per-algorithm tuning table
(cost constant, size exponent, initial-state fidelity, qubit-law
constant).  Scenarios are immutable; transformations return new values.

Two of the shipped growth rates cannot be read off public data: the
logical T-gate throughput factor and the physical qubit factor.  They
are fixed by anchoring the model to two disruption years (FCI and
CCSD(T) against the N^3 phase-estimation law) and are embedded below as
frozen literals so results reproduce without re-running the search.

Scenario files are strict JSON: any key outside the documented schema
is a load error.  See README for the schema.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field

from .errors import CalibrationError, DomainError, ScenarioError
from .catalog import AlgorithmSpec, ComplexityModel, builtin_catalog, canonical_name
from .hardware import (
    ClassicalPlatform,
    ExponentialTrend,
    QuantumPlatform,
    SurfaceCodeParams,
)

__all__ = [
    "AlgorithmTuning",
    "Scenario",
    "Variation",
    "default_scenario",
    "standard_variations",
    "apply_variation",
    "calibrate",
    "scenario_from_dict",
    "scenario_to_dict",
    "load_scenario",
    "dump_scenario",
    "scenario_digest",
]

DEFAULT_EPSILON = 1e-3
# "One month" deadline, pinned to 30 days exactly.
DEFAULT_DEADLINE_S = 2_592_000.0
DEFAULT_START_YEAR = 2025
DEFAULT_HORIZON = 2050
# Widest scan window, horizon - start_year, in years.  Every table cell
# scans the window a year at a time, so an unbounded one never ends.
MAX_SCAN_YEARS = 1000

# Calibrated annual factors (see module docstring).  The qubit factor is
# the largest value consistent with the anchors (roadmap-optimistic),
# the throughput factor the smallest (conservative speed growth).
# Regenerate with:
#   qea calibrate --anchor FCI:qpe-n3:2032 --anchor CCSDT:qpe-n3:2036 \
#       --free quantum.physical_qubit_trend.annual_factor \
#       --free quantum.logical_tgate_trend.annual_factor \
#       --prefer high --prefer low
_CAL_QUBIT_FACTOR = 2.2488601291552186
_CAL_TGATE_FACTOR = 2.59100341796875


@dataclass(frozen=True)
class AlgorithmTuning:
    """Scenario-level knobs for one algorithm.

    constant and exponent override the catalog cost law; fidelity is the
    initial-state overlap F (quantum only, ignored elsewhere);
    qubit_constant scales the logical-qubit law (None for classical).
    """

    constant: float
    exponent: float
    fidelity: float
    qubit_constant: float | None

    def __post_init__(self):
        if not self.constant > 0:
            raise DomainError("tuning constant must be > 0")
        if self.exponent < 0:
            raise DomainError("tuning exponent must be >= 0")
        if not 0 < self.fidelity <= 1:
            raise DomainError("fidelity must be in (0, 1]")
        if self.qubit_constant is not None and not self.qubit_constant > 0:
            raise DomainError("qubit_constant must be > 0")


def _default_tunings() -> dict[str, AlgorithmTuning]:
    tunings = {}
    for name, spec in builtin_catalog().items():
        tunings[name] = AlgorithmTuning(
            constant=spec.cost_law.constant,
            exponent=spec.cost_law.size_exponent,
            fidelity=spec.initial_state_fidelity,
            qubit_constant=None if spec.qubit_law is None else spec.qubit_law.constant,
        )
    return tunings


@dataclass(frozen=True)
class Scenario:
    epsilon: float
    deadline_s: float
    start_year: int
    horizon: int
    classical: ClassicalPlatform
    quantum: QuantumPlatform
    algorithms: dict[str, AlgorithmTuning] = field(default_factory=_default_tunings)

    def __post_init__(self):
        if not 0 < self.epsilon <= 1:
            raise DomainError("epsilon must be in (0, 1]")
        if not self.deadline_s > 0:
            raise DomainError("deadline_s must be > 0")
        if self.horizon < self.start_year:
            raise DomainError("horizon must be >= start_year")
        if self.horizon - self.start_year > MAX_SCAN_YEARS:
            raise DomainError(
                f"scan window {self.start_year}-{self.horizon} is wider than {MAX_SCAN_YEARS} years"
            )

    def algorithm(self, name: str) -> AlgorithmSpec:
        """The catalog spec with this scenario's tuning applied."""
        key = canonical_name(name)
        base = builtin_catalog()[key]
        tuning = self.algorithms[key]
        cost_law = ComplexityModel(
            constant=tuning.constant,
            size_exponent=tuning.exponent,
            inv_error_exponent=base.cost_law.inv_error_exponent,
            exp_base=base.cost_law.exp_base,
        )
        qubit_law = base.qubit_law
        if qubit_law is not None and tuning.qubit_constant is not None:
            qubit_law = qubit_law.with_constant(tuning.qubit_constant)
        return dataclasses.replace(
            base,
            cost_law=cost_law,
            qubit_law=qubit_law,
            initial_state_fidelity=tuning.fidelity,
        )

    def years(self) -> range:
        return range(self.start_year, self.horizon + 1)


@dataclass(frozen=True)
class Variation:
    """Multiplicative what-if knobs for robustness sweeps.

    Unset multipliers default to 1.  quantum_time and classical_time
    scale the respective cost constants; logical_qubits scales the
    qubit-law constants of quantum methods.
    """

    name: str
    quantum_time: float = 1.0
    classical_time: float = 1.0
    logical_qubits: float = 1.0

    def __post_init__(self):
        for fname in ("quantum_time", "classical_time", "logical_qubits"):
            if not getattr(self, fname) > 0:
                raise DomainError(f"variation multiplier {fname} must be > 0")


def standard_variations() -> list[Variation]:
    """The three stock robustness columns."""
    return [
        Variation(name="logical=0.1", logical_qubits=0.1),
        Variation(name="quantum_time=10", quantum_time=10.0),
        Variation(name="classical_time=0.001", classical_time=1e-3),
    ]


def apply_variation(scenario: Scenario, variation: Variation) -> Scenario:
    """A new scenario with the variation's multipliers applied."""
    kinds = {name: spec.kind for name, spec in builtin_catalog().items()}
    tuned = {}
    for name, t in scenario.algorithms.items():
        if kinds[name] == "quantum":
            tuned[name] = dataclasses.replace(
                t,
                constant=t.constant * variation.quantum_time,
                qubit_constant=None
                if t.qubit_constant is None
                else t.qubit_constant * variation.logical_qubits,
            )
        else:
            tuned[name] = dataclasses.replace(t, constant=t.constant * variation.classical_time)
    return dataclasses.replace(scenario, algorithms=tuned)


def default_scenario() -> Scenario:
    """The frozen scenario shipped with the package.

    2025 bases: 1e18 classical flops/$s growing 1.4x/yr, 1e5 logical
    T gates/$s, a flat 1e3 physical-per-logical ratio, and a 1.1e3
    physical-qubit roadmap base at 2024.  The two calibrated annual
    factors are embedded as literals (see module docstring).
    """
    return Scenario(
        epsilon=DEFAULT_EPSILON,
        deadline_s=DEFAULT_DEADLINE_S,
        start_year=DEFAULT_START_YEAR,
        horizon=DEFAULT_HORIZON,
        classical=ClassicalPlatform(
            flops_per_dollar_second=ExponentialTrend(2025, 1.0e18, 1.4),
        ),
        quantum=QuantumPlatform(
            mode="simple",
            logical_tgates_per_dollar_second=ExponentialTrend(2025, 1.0e5, _CAL_TGATE_FACTOR),
            physical_qubits=ExponentialTrend(2024, 1.1e3, _CAL_QUBIT_FACTOR),
            physical_to_logical_ratio=ExponentialTrend(2025, 1.0e3, 1.0),
            physical_error_rate=ExponentialTrend(2025, 1.0e-3, 0.9),
            sc_params=SurfaceCodeParams(),
        ),
    )


# ---------------------------------------------------------------------------
# Parameter paths (used by calibrate and the CLI)

_TREND_PATHS = {
    "classical.flops_trend": ("classical", "flops_per_dollar_second"),
    "quantum.logical_tgate_trend": ("quantum", "logical_tgates_per_dollar_second"),
    "quantum.physical_qubit_trend": ("quantum", "physical_qubits"),
    "quantum.ratio_trend": ("quantum", "physical_to_logical_ratio"),
    "quantum.physical_error_trend": ("quantum", "physical_error_rate"),
}


def _split_param_path(path: str) -> tuple[str, str]:
    head, _, leaf = path.rpartition(".")
    if leaf != "annual_factor" or head not in _TREND_PATHS:
        valid = ", ".join(f"{p}.annual_factor" for p in _TREND_PATHS)
        raise ScenarioError(f"unsupported parameter path {path!r}; expected one of: {valid}")
    return _TREND_PATHS[head]


def get_param(scenario: Scenario, path: str) -> float:
    platform_attr, trend_attr = _split_param_path(path)
    return getattr(getattr(scenario, platform_attr), trend_attr).annual_factor


def set_param(scenario: Scenario, path: str, value: float) -> Scenario:
    platform_attr, trend_attr = _split_param_path(path)
    platform = getattr(scenario, platform_attr)
    trend = getattr(platform, trend_attr)
    new_platform = dataclasses.replace(
        platform, **{trend_attr: dataclasses.replace(trend, annual_factor=value)}
    )
    return dataclasses.replace(scenario, **{platform_attr: new_platform})


# ---------------------------------------------------------------------------
# Calibration

CALIBRATION_BOUNDS = (1.0, 4.0)
CALIBRATION_TOL = 1e-4


def _anchor_label(anchor: tuple[str, str, int]) -> str:
    return f"{anchor[0]}:{anchor[1]}:{anchor[2]}"


def _verdict_key(scenario: Scenario, specs: tuple[AlgorithmSpec, AlgorithmSpec]) -> float:
    """first_advantage_year of an anchor's (classical, quantum) specs,
    in advantage.verdict_key order."""
    from .advantage import first_advantage_year, verdict_key

    return verdict_key(first_advantage_year(*specs, scenario), scenario.horizon)


def _coordinate_step(scenario, path, anchor, specs, prefer):
    """One coordinate-wise bisection: pick a factor for `path` that makes
    the anchor's verdict equal its target year, or None if unreachable.

    The verdict is a non-increasing step function of the factor, so the
    settings hitting the target form an interval [enter, exit).  `prefer`
    selects the conservative edge ("low"), the aggressive edge ("high"),
    or the midpoint ("mid").  `specs` are the anchor's resolved methods;
    factors are trend parameters, so they do not change the specs.
    """
    lo, hi = CALIBRATION_BOUNDS
    target = float(anchor[2])

    def key(g: float) -> float:
        return _verdict_key(set_param(scenario, path, g), specs)

    k_lo, k_hi = key(lo), key(hi)
    if k_lo < target or k_hi > target:
        return None  # target year outside what this coordinate can reach

    # enter: smallest factor with verdict <= target; k_enter its verdict.
    if k_lo <= target:
        enter, k_enter = lo, k_lo
    else:
        a, b, k_enter = lo, hi, k_hi
        while b - a > CALIBRATION_TOL:
            mid = 0.5 * (a + b)
            k_mid = key(mid)
            if k_mid <= target:
                b, k_enter = mid, k_mid
            else:
                a = mid
        enter = b
    if k_enter != target:
        return None  # the step function skipped the target year

    # exit edge: largest probed factor still on the target year.
    if k_hi == target:
        high = hi
    else:
        a, b = enter, hi
        while b - a > CALIBRATION_TOL:
            mid = 0.5 * (a + b)
            if key(mid) <= target - 1:
                b = mid
            else:
                a = mid
        high = a

    if prefer == "low":
        return enter
    if prefer == "high":
        return high
    mid = 0.5 * (enter + high)
    return mid if key(mid) == target else enter


def calibrate(
    base: Scenario,
    free_params: list[str],
    anchors: list[tuple[str, str, int]],
    prefer: list[str] | None = None,
    max_passes: int = 16,
) -> Scenario:
    """Fix trend annual factors so disruption years hit the anchors.

    free_params and anchors pair up by position; each parameter is
    adjusted by bisection over [1.0, 4.0] (tolerance 1e-4) to make its
    anchor's first_advantage_year equal the target, iterating passes
    until every anchor holds simultaneously.  Deterministic: fixed
    parameter order, pure float arithmetic.  Raises CalibrationError
    naming the first anchor no in-bounds setting can reach.
    """
    if len(free_params) != len(anchors):
        raise DomainError("free_params and anchors must pair up one-to-one")
    prefer = list(prefer) if prefer is not None else ["mid"] * len(free_params)
    if len(prefer) != len(free_params):
        raise DomainError("prefer must match free_params in length")
    for p in prefer:
        if p not in ("low", "high", "mid"):
            raise DomainError(f"prefer entries must be low|high|mid, got {p!r}")

    specs = [(base.algorithm(a[0]), base.algorithm(a[1])) for a in anchors]

    def all_hit(s: Scenario) -> bool:
        return all(_verdict_key(s, sp) == float(a[2]) for a, sp in zip(anchors, specs))

    current = base
    if all_hit(current):
        return current

    for _ in range(max_passes):
        moved = False
        for path, anchor, anchor_specs, pref in zip(free_params, anchors, specs, prefer):
            value = _coordinate_step(current, path, anchor, anchor_specs, pref)
            if value is None:
                continue
            if abs(value - get_param(current, path)) > CALIBRATION_TOL / 4:
                moved = True
            current = set_param(current, path, value)
        if all_hit(current):
            return current
        if not moved:
            break

    for anchor, anchor_specs in zip(anchors, specs):
        if _verdict_key(current, anchor_specs) != float(anchor[2]):
            raise CalibrationError(_anchor_label(anchor))
    raise CalibrationError(_anchor_label(anchors[-1]))  # pragma: no cover


# ---------------------------------------------------------------------------
# File format

_TREND_KEYS = ("base_year", "base_value", "annual_factor")
_SC_KEYS = ("A", "p_th", "cycle_time_s", "cycles_per_t", "failure_budget")
_OVERRIDE_KEYS = ("constant", "exponent", "fidelity", "qubit_constant")


def _check_keys(mapping: dict, allowed: tuple[str, ...], where: str) -> None:
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ScenarioError(f"unknown key(s) {unknown} under {where!r}")


def _require_numbers(mapping: dict, where: str) -> None:
    for key, value in mapping.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ScenarioError(f"{where}.{key} must be a number, got {value!r}")


def _trend_from_dict(data, where, fallback: ExponentialTrend) -> ExponentialTrend:
    if not isinstance(data, dict):
        raise ScenarioError(f"{where!r} must be an object")
    _check_keys(data, _TREND_KEYS, where)
    _require_numbers(data, where)
    try:
        return dataclasses.replace(fallback, **data)
    except DomainError as exc:
        raise ScenarioError(f"invalid trend under {where!r}: {exc}") from exc


def _trend_to_dict(trend: ExponentialTrend) -> dict:
    return {
        "base_year": trend.base_year,
        "base_value": trend.base_value,
        "annual_factor": trend.annual_factor,
    }


def scenario_from_dict(data: dict) -> Scenario:
    """Build a scenario from a parsed file; strict about unknown keys."""
    if not isinstance(data, dict):
        raise ScenarioError("scenario document must be an object")
    _check_keys(
        data,
        ("epsilon", "deadline_s", "start_year", "horizon", "classical", "quantum", "overrides"),
        "<top-level>",
    )
    _require_numbers(
        {k: v for k, v in data.items() if k in ("epsilon", "deadline_s", "start_year", "horizon")},
        "<top-level>",
    )
    for key in ("epsilon", "deadline_s"):
        if isinstance(data.get(key), float) and not math.isfinite(data[key]):
            raise ScenarioError(f"{key} must be finite, got {data[key]!r}")
    years = {}
    for key in ("start_year", "horizon"):
        if key in data:
            value = data[key]
            if not (isinstance(value, int) or value.is_integer()):
                raise ScenarioError(f"{key} must be a whole year, got {value!r}")
            years[key] = int(value)
    base = default_scenario()

    classical = base.classical
    if "classical" in data:
        section = data["classical"]
        if not isinstance(section, dict):
            raise ScenarioError("'classical' must be an object")
        _check_keys(section, ("flops_trend",), "classical")
        if "flops_trend" in section:
            classical = ClassicalPlatform(
                _trend_from_dict(
                    section["flops_trend"], "classical.flops_trend", base.classical.flops_per_dollar_second
                )
            )

    quantum = base.quantum
    if "quantum" in data:
        section = data["quantum"]
        if not isinstance(section, dict):
            raise ScenarioError("'quantum' must be an object")
        _check_keys(
            section,
            (
                "mode",
                "logical_tgate_trend",
                "physical_qubit_trend",
                "ratio_trend",
                "physical_error_trend",
                "surface_code",
            ),
            "quantum",
        )
        mode = section.get("mode", quantum.mode)
        if mode not in ("simple", "surface-code"):
            raise ScenarioError(f"quantum.mode must be simple or surface-code, got {mode!r}")
        sc = quantum.sc_params
        if "surface_code" in section:
            sc_data = section["surface_code"]
            if not isinstance(sc_data, dict):
                raise ScenarioError("'quantum.surface_code' must be an object")
            _check_keys(sc_data, _SC_KEYS, "quantum.surface_code")
            _require_numbers(sc_data, "quantum.surface_code")
            try:
                sc = SurfaceCodeParams(
                    prefactor_a=sc_data.get("A", sc.prefactor_a),
                    threshold_error=sc_data.get("p_th", sc.threshold_error),
                    cycle_time_s=sc_data.get("cycle_time_s", sc.cycle_time_s),
                    cycles_per_t_gate=sc_data.get("cycles_per_t", sc.cycles_per_t_gate),
                    failure_budget=sc_data.get("failure_budget", sc.failure_budget),
                )
            except DomainError as exc:
                raise ScenarioError(f"invalid quantum.surface_code: {exc}") from exc
        quantum = QuantumPlatform(
            mode=mode,
            logical_tgates_per_dollar_second=_trend_from_dict(
                section.get("logical_tgate_trend", {}),
                "quantum.logical_tgate_trend",
                quantum.logical_tgates_per_dollar_second,
            ),
            physical_qubits=_trend_from_dict(
                section.get("physical_qubit_trend", {}),
                "quantum.physical_qubit_trend",
                quantum.physical_qubits,
            ),
            physical_to_logical_ratio=_trend_from_dict(
                section.get("ratio_trend", {}), "quantum.ratio_trend", quantum.physical_to_logical_ratio
            ),
            physical_error_rate=_trend_from_dict(
                section.get("physical_error_trend", {}),
                "quantum.physical_error_trend",
                quantum.physical_error_rate,
            ),
            sc_params=sc,
        )

    algorithms = dict(base.algorithms)
    if "overrides" in data:
        overrides = data["overrides"]
        if not isinstance(overrides, dict):
            raise ScenarioError("'overrides' must be an object")
        for raw_name, fields in overrides.items():
            try:
                name = canonical_name(raw_name)
            except Exception as exc:
                raise ScenarioError(f"overrides: unknown algorithm {raw_name!r}") from exc
            if not isinstance(fields, dict):
                raise ScenarioError(f"overrides.{raw_name} must be an object")
            _check_keys(fields, _OVERRIDE_KEYS, f"overrides.{raw_name}")
            _require_numbers(fields, f"overrides.{raw_name}")
            t = algorithms[name]
            if "qubit_constant" in fields and t.qubit_constant is None:
                raise ScenarioError(
                    f"overrides.{raw_name}: qubit_constant only applies to quantum methods"
                )
            try:
                algorithms[name] = AlgorithmTuning(
                    constant=fields.get("constant", t.constant),
                    exponent=fields.get("exponent", t.exponent),
                    fidelity=fields.get("fidelity", t.fidelity),
                    qubit_constant=fields.get("qubit_constant", t.qubit_constant),
                )
            except DomainError as exc:
                raise ScenarioError(f"invalid overrides.{raw_name}: {exc}") from exc

    try:
        return Scenario(
            epsilon=data.get("epsilon", base.epsilon),
            deadline_s=data.get("deadline_s", base.deadline_s),
            start_year=years.get("start_year", base.start_year),
            horizon=years.get("horizon", base.horizon),
            classical=classical,
            quantum=quantum,
            algorithms=algorithms,
        )
    except (DomainError, TypeError) as exc:
        raise ScenarioError(str(exc)) from exc


def scenario_to_dict(scenario: Scenario) -> dict:
    """File-format dict; algorithm tunings appear only where they differ
    from catalog defaults, so defaults round-trip compactly."""
    overrides = {}
    for name, t in scenario.algorithms.items():
        d = _default_tunings()[name]
        entry = {}
        if t.constant != d.constant:
            entry["constant"] = t.constant
        if t.exponent != d.exponent:
            entry["exponent"] = t.exponent
        if t.fidelity != d.fidelity:
            entry["fidelity"] = t.fidelity
        if t.qubit_constant != d.qubit_constant:
            entry["qubit_constant"] = t.qubit_constant
        if entry:
            overrides[name] = entry
    doc = {
        "epsilon": scenario.epsilon,
        "deadline_s": scenario.deadline_s,
        "start_year": scenario.start_year,
        "horizon": scenario.horizon,
        "classical": {"flops_trend": _trend_to_dict(scenario.classical.flops_per_dollar_second)},
        "quantum": {
            "mode": scenario.quantum.mode,
            "logical_tgate_trend": _trend_to_dict(scenario.quantum.logical_tgates_per_dollar_second),
            "physical_qubit_trend": _trend_to_dict(scenario.quantum.physical_qubits),
            "ratio_trend": _trend_to_dict(scenario.quantum.physical_to_logical_ratio),
            "physical_error_trend": _trend_to_dict(scenario.quantum.physical_error_rate),
            "surface_code": {
                "A": scenario.quantum.sc_params.prefactor_a,
                "p_th": scenario.quantum.sc_params.threshold_error,
                "cycle_time_s": scenario.quantum.sc_params.cycle_time_s,
                "cycles_per_t": scenario.quantum.sc_params.cycles_per_t_gate,
                "failure_budget": scenario.quantum.sc_params.failure_budget,
            },
        },
    }
    if overrides:
        doc["overrides"] = overrides
    return doc


def dump_scenario(scenario: Scenario) -> str:
    return json.dumps(scenario_to_dict(scenario), indent=2, sort_keys=True) + "\n"


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file {path!r} is not valid JSON: {exc}") from exc
    return scenario_from_dict(data)


def scenario_digest(scenario: Scenario) -> str:
    """Stable sha256 of the scenario's canonical serialized form."""
    return hashlib.sha256(dump_scenario(scenario).encode("utf-8")).hexdigest()

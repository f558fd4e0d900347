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

Scenario files are strict JSON: any key outside the schema is a load
error.  The schema table `_SCHEMA` below is the single source of truth
for the file format: it maps every file key to its dataclass attribute,
and loading, dumping, the digest, load errors and the calibrate
parameter paths all read it.  README shows an example file.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field

from .errors import CalibrationError, DomainError, ScenarioError, UnknownMethodError
from .catalog import AlgorithmSpec, builtin_catalog, canonical_name, lookup
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
        if not 0 < self.constant < math.inf:
            raise DomainError(f"tuning constant must be finite and > 0, got {self.constant}")
        if not 0 <= self.exponent < math.inf:
            raise DomainError(f"tuning exponent must be finite and >= 0, got {self.exponent}")
        if not 0 < self.fidelity <= 1:
            raise DomainError("fidelity must be in (0, 1]")
        if self.qubit_constant is not None and not 0 < self.qubit_constant < math.inf:
            raise DomainError(f"qubit_constant must be finite and > 0, got {self.qubit_constant}")


# The catalog's own tunings, built once: every scenario starts from a
# copy, and scenario_to_dict writes only the fields that differ.
_CATALOG_TUNINGS = {
    name: AlgorithmTuning(
        constant=spec.cost_law.constant,
        exponent=spec.cost_law.size_exponent,
        fidelity=spec.initial_state_fidelity,
        qubit_constant=None if spec.qubit_law is None else spec.qubit_law.constant,
    )
    for name, spec in builtin_catalog().items()
}


@dataclass(frozen=True)
class Scenario:
    epsilon: float
    deadline_s: float
    start_year: int
    horizon: int
    classical: ClassicalPlatform
    quantum: QuantumPlatform
    algorithms: dict[str, AlgorithmTuning] = field(default_factory=_CATALOG_TUNINGS.copy)

    def __post_init__(self):
        if not 0 < self.epsilon <= 1:
            raise DomainError("epsilon must be in (0, 1]")
        if not self.deadline_s > 0:
            raise DomainError("deadline_s must be > 0")
        if self.horizon < self.start_year:
            raise DomainError("horizon must be >= start_year")
        if self.horizon - self.start_year > MAX_SCAN_YEARS:
            raise DomainError(
                f"scan window from start_year {self.start_year} to horizon {self.horizon} "
                f"is wider than {MAX_SCAN_YEARS} years"
            )

    def algorithm(self, name: str) -> AlgorithmSpec:
        """The catalog spec with this scenario's tuning applied."""
        base = lookup(name)
        tuning = self.algorithms[base.name]
        cost_law = dataclasses.replace(base.cost_law, constant=tuning.constant, size_exponent=tuning.exponent)
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
            if not 0 < getattr(self, fname) < math.inf:
                raise DomainError(f"variation multiplier {fname} must be finite and > 0")


def standard_variations() -> list[Variation]:
    """The three stock robustness columns."""
    return [
        Variation(name="logical=0.1", logical_qubits=0.1),
        Variation(name="quantum_time=10", quantum_time=10.0),
        Variation(name="classical_time=0.001", classical_time=1e-3),
    ]


def apply_variation(scenario: Scenario, variation: Variation) -> Scenario:
    """A new scenario with the variation's multipliers applied."""
    tuned = {}
    for name, t in scenario.algorithms.items():
        if lookup(name).kind == "quantum":
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
# File format
#
# _SCHEMA is the one description of the file: each section maps its file
# keys to the attributes of one dataclass, each read through a check on
# the file's value.  Loading, dumping, the error messages and the
# calibrate parameter paths all read it; the dataclasses' own
# __post_init__ checks the values' ranges.


def _number(value, where: str):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{where} must be a number, got {value!r}")
    if isinstance(value, int) and abs(value) > sys.float_info.max:  # JSON integers are exact
        raise ScenarioError(f"{where} must be within float range (1.8e308), got an integer past it")
    return value


def _finite(value, where: str):
    if isinstance(_number(value, where), float) and not math.isfinite(value):
        raise ScenarioError(f"{where} must be finite, got {value!r}")
    return value


def _year(value, where: str) -> int:
    if not (isinstance(_number(value, where), int) or value.is_integer()):
        raise ScenarioError(f"{where} must be a whole year, got {value!r}")
    return int(value)


def _as_is(value, where: str):
    """No check here; QuantumPlatform checks the mode."""
    return value


@dataclass(frozen=True)
class _Section:
    """One object in the file, read into the dataclass at `attr` of the
    enclosing one.  fields maps a file key to (attribute, check);
    sections maps a file key to a nested object.  A section with
    per_method set is keyed by method name instead, and holds one
    per_method object for each method (overrides.<method>)."""

    attr: str
    fields: dict
    sections: dict = field(default_factory=dict)
    per_method: _Section | None = None


_TREND_FIELDS = {key: (key, _finite) for key in ("base_year", "base_value", "annual_factor")}


_SCHEMA = _Section(
    "",
    {
        "epsilon": ("epsilon", _finite),
        "deadline_s": ("deadline_s", _finite),
        "start_year": ("start_year", _year),
        "horizon": ("horizon", _year),
    },
    {
        "classical": _Section(
            "classical", {}, {"flops_trend": _Section("flops_per_dollar_second", _TREND_FIELDS)}
        ),
        "quantum": _Section(
            "quantum",
            {"mode": ("mode", _as_is)},
            {
                "logical_tgate_trend": _Section("logical_tgates_per_dollar_second", _TREND_FIELDS),
                "physical_qubit_trend": _Section("physical_qubits", _TREND_FIELDS),
                "ratio_trend": _Section("physical_to_logical_ratio", _TREND_FIELDS),
                "physical_error_trend": _Section("physical_error_rate", _TREND_FIELDS),
                "surface_code": _Section(
                    "sc_params",
                    {
                        "A": ("prefactor_a", _finite),
                        "p_th": ("threshold_error", _finite),
                        "cycle_time_s": ("cycle_time_s", _finite),
                        "cycles_per_t": ("cycles_per_t_gate", _finite),
                        "failure_budget": ("failure_budget", _finite),
                    },
                ),
            },
        ),
        "overrides": _Section(
            "algorithms",
            {},
            per_method=_Section(
                "", {key: (key, _finite) for key in ("constant", "exponent", "fidelity", "qubit_constant")}
            ),
        ),
    },
)


def _load(section: _Section, data, obj, where: str):
    """`obj` with the file object `data`, found at dotted path `where`,
    applied over it."""
    label = where or "scenario"
    if not isinstance(data, dict):
        raise ScenarioError(f"{label!r} must be an object")
    if section.per_method:
        return _load_methods(section.per_method, data, obj, where)
    unknown = sorted(set(data) - section.fields.keys() - section.sections.keys())
    if unknown:
        raise ScenarioError(f"unknown key(s) {unknown} under {label!r}")
    changes = {}
    for key, value in data.items():
        path = f"{where}.{key}" if where else key
        if key in section.fields:
            attr, check = section.fields[key]
            changes[attr] = check(value, path)
        else:
            sub = section.sections[key]
            changes[sub.attr] = _load(sub, value, getattr(obj, sub.attr), path)
    try:
        return dataclasses.replace(obj, **changes)
    except DomainError as exc:
        raise ScenarioError(f"invalid {label}: {exc}") from exc


def _load_methods(section: _Section, data: dict, tunings: dict, where: str) -> dict:
    tunings = dict(tunings)
    for raw_name, fields in data.items():
        path = f"{where}.{raw_name}"
        try:
            name = canonical_name(raw_name)
        except (AttributeError, UnknownMethodError) as exc:
            raise ScenarioError(f"{where}: unknown algorithm {raw_name!r}") from exc
        if isinstance(fields, dict) and "qubit_constant" in fields and tunings[name].qubit_constant is None:
            raise ScenarioError(f"{path}: qubit_constant only applies to quantum methods")
        tunings[name] = _load(section, fields, tunings[name], path)
    return tunings


def _dump(section: _Section, obj) -> dict:
    if section.per_method:
        return _dump_methods(section.per_method, obj)
    doc = {key: getattr(obj, attr) for key, (attr, _) in section.fields.items()}
    for key, sub in section.sections.items():
        value = _dump(sub, getattr(obj, sub.attr))
        if value:  # only overrides can be empty; an empty one is left out
            doc[key] = value
    return doc


def _dump_methods(section: _Section, tunings: dict) -> dict:
    """Only the fields that differ from the catalog default."""
    doc = {}
    for name, tuning in tunings.items():
        default = _CATALOG_TUNINGS[name]
        entry = {
            key: getattr(tuning, attr)
            for key, (attr, _) in section.fields.items()
            if getattr(tuning, attr) != getattr(default, attr)
        }
        if entry:
            doc[name] = entry
    return doc


def scenario_from_dict(data: dict) -> Scenario:
    """Build a scenario from a parsed file; strict about unknown keys."""
    return _load(_SCHEMA, data, default_scenario(), "")


def scenario_to_dict(scenario: Scenario) -> dict:
    """File-format dict; algorithm tunings appear only where they differ
    from catalog defaults, so defaults round-trip compactly."""
    return _dump(_SCHEMA, scenario)


def dump_scenario(scenario: Scenario) -> str:
    return json.dumps(scenario_to_dict(scenario), indent=2, sort_keys=True) + "\n"


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path!r}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer too long to parse
        raise ScenarioError(f"scenario file {path!r} is not valid JSON: {exc}") from exc
    return scenario_from_dict(data)


def scenario_digest(scenario: Scenario) -> str:
    """Stable sha256 of the scenario's canonical serialized form."""
    return hashlib.sha256(dump_scenario(scenario).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Parameter paths (used by calibrate and the CLI): the annual factor of
# each trend section of the schema.

_TREND_PATHS = {
    f"{platform_key}.{trend_key}": (platform.attr, trend.attr)
    for platform_key, platform in _SCHEMA.sections.items()
    for trend_key, trend in platform.sections.items()
    if trend.fields is _TREND_FIELDS
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
CALIBRATION_PASSES = 16


def _verdict_key(scenario: Scenario, specs: tuple[AlgorithmSpec, AlgorithmSpec]) -> float:
    """first_advantage_year of an anchor's (classical, quantum) specs,
    in advantage.verdict_key order."""
    from .advantage import first_advantage_year, verdict_key

    return verdict_key(first_advantage_year(*specs, scenario), scenario.horizon)


def _coordinate_step(scenario, path, anchor, specs, prefer):
    """One coordinate-wise bisection: pick a factor for `path` that makes
    the anchor's verdict equal its target year, or None if unreachable.

    The verdict is a monotone step function of the factor.  The key
    mirrors it where it rises (verdict at lo < verdict at hi), so the
    settings hitting the target form an interval [enter, exit).  `prefer`
    selects the smallest factor ("low"), the largest ("high"), or the
    midpoint ("mid"); "low" searches no exit edge, and no factor's
    verdict is scanned twice.  `specs` are the anchor's resolved methods;
    factors are trend parameters, so they do not change the specs.
    """
    from .advantage import _bisect

    lo, hi = CALIBRATION_BOUNDS
    verdict = functools.cache(lambda g: _verdict_key(set_param(scenario, path, g), specs))
    sign = -1.0 if verdict(lo) < verdict(hi) else 1.0
    target = sign * anchor[2]
    key = lambda g: sign * verdict(g)  # noqa: E731
    if key(lo) < target or key(hi) > target:
        return None  # target year outside what this coordinate can reach

    # enter: smallest factor with key <= target.
    enter = lo if key(lo) <= target else _bisect(lambda g: key(g) <= target, lo, hi, CALIBRATION_TOL)[1]
    if key(enter) != target:
        return None  # the step function skipped the target year
    if prefer == "low":
        return enter
    # exit edge: largest probed factor still on the target year.
    high = hi if key(hi) == target else _bisect(lambda g: key(g) <= target - 1, enter, hi, CALIBRATION_TOL)[0]
    if prefer == "high":
        return high
    mid = 0.5 * (enter + high)
    return mid if key(mid) == target else enter


def calibrate(
    base: Scenario,
    free_params: list[str],
    anchors: list[tuple[str, str, int]],
    prefer: list[str] | None = None,
) -> Scenario:
    """Fix trend annual factors so disruption years hit the anchors.

    free_params and anchors pair up by position; each parameter is
    adjusted by bisection over [1.0, 4.0] (tolerance 1e-4) to make its
    anchor's first_advantage_year equal the target, iterating up to
    CALIBRATION_PASSES passes until every anchor holds simultaneously.
    prefer picks, per parameter, the smallest ("low"), largest ("high")
    or middle ("mid", the default) factor that hits its anchor.
    Deterministic: fixed parameter order, pure float arithmetic.  Raises
    CalibrationError naming the first anchor the result still misses.
    """
    if len(free_params) != len(anchors):
        raise DomainError("free_params and anchors must pair up one-to-one")
    prefer = list(prefer) if prefer is not None else ["mid"] * len(free_params)
    if len(prefer) != len(free_params):
        raise DomainError("prefer must match free_params in length")
    for p in prefer:
        if p not in ("low", "high", "mid"):
            raise DomainError(f"prefer entries must be low|high|mid, got {p!r}")
    for path in free_params:  # every path, even where no step runs
        _split_param_path(path)
    for classical, quantum, year in anchors:
        if abs(year) > sys.float_info.max:  # exact for integers, where float(year) would overflow
            raise DomainError(f"anchor year of {classical}:{quantum} is past float range")

    specs = [(base.algorithm(a[0]), base.algorithm(a[1])) for a in anchors]

    def first_miss(s: Scenario) -> str | None:
        """The first anchor `s` misses, as CLASSICAL:QUANTUM:YEAR."""
        for (classical, quantum, year), anchor_specs in zip(anchors, specs):
            if _verdict_key(s, anchor_specs) != float(year):
                return f"{classical}:{quantum}:{year}"
        return None

    current = base
    miss = first_miss(current)
    for _ in range(CALIBRATION_PASSES):
        if miss is None:
            break
        moved = False
        for path, anchor, anchor_specs, pref in zip(free_params, anchors, specs, prefer):
            value = _coordinate_step(current, path, anchor, anchor_specs, pref)
            if value is None:
                continue
            if abs(value - get_param(current, path)) > CALIBRATION_TOL / 4:
                moved = True
            current = set_param(current, path, value)
        miss = first_miss(current)
        if not moved:
            break
    if miss is not None:
        raise CalibrationError(miss)
    return current

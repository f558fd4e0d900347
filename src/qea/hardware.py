"""Hardware capability curves for both sides of the comparison.

Everything extrapolates as a plain exponential: a quantity has a base
year, a base value, and a multiplicative annual factor.  The classical
side is a single curve, flops per second at a $1/s spend rate
(defaults: 1e18 at 2025, growing 1.4x per year).  The quantum side has
two operating modes:

* "simple" (default): logical T-gate throughput at $1/s is itself an
  exponential trend (1e5 at 2025), and the physical-to-logical qubit
  ratio is a trend (flat 1e3 by default).  The 2025 defaults make the
  classical/quantum throughput ratio exactly 1e13.

* "surface-code": throughput and qubit ratio are derived from a code
  distance d chosen per workload.  The logical failure model is the
  standard suppression law

      p_logical ~ A * (p_phys / p_th) ** ((d + 1) / 2)

  and d is the smallest odd integer keeping the whole T-count within a
  failure budget.  A logical T gate then takes d * cycle_time *
  cycles_per_t seconds, the qubit ratio is 2 d^2, and the dollar factor
  for parallel distillation factories is fixed once per platform so the
  2025 throughput at the reference T-count matches the simple-mode base.

QuantumPlatform.at(year) is the platform in one year as workloads see it:
a workload of ln T-count log_t runs at level(log_t), its code distance,
or in simple mode, where the hardware does not depend on the workload,
at fixed_level (None in surface-code mode).  A level has ln logical
T-gate rate log_rate(level) at $1/s and logical-qubit supply
supply(level), so both are step functions of ln T.  Each trend is read
once per view, on first use.

Surface-code numbers (A = 0.1, p_th = 1e-2, 1 us cycles, 10 cycles per
T gate, 1e-3 physical error improving 0.9x/yr) are standard literature
values, not sourced from the trend data behind the defaults.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import DomainError, ThresholdError

__all__ = [
    "ExponentialTrend",
    "ClassicalPlatform",
    "SurfaceCodeParams",
    "QuantumPlatform",
    "trend_value",
    "classical_throughput",
    "required_code_distance",
    "quantum_logical_throughput",
    "available_logical_qubits",
    "REFERENCE_TCOUNT",
    "SC_CALIBRATION_YEAR",
]

# T-count at which the classical/quantum overhead ratio is quoted and at
# which the surface-code factory factor is calibrated.
REFERENCE_TCOUNT = 1e10
SC_CALIBRATION_YEAR = 2025.0

# Slack applied to log-space boundary comparisons so that analytically
# exact cases (e.g. a budget that is exactly a power of the suppression
# ratio) do not flip on the last float ulp.
_LOG_SLACK = 1e-9

# Largest (d + 1) / 2 the code-distance solve takes on: past 2^52,
# m * ln(p_phys / p_th) no longer tells m from m - 1, and the search
# would walk down one integer at a time.
_MAX_ROUNDS = 2.0**52


@dataclass(frozen=True)
class ExponentialTrend:
    """base_value * annual_factor ** (year - base_year)."""

    base_year: float
    base_value: float
    annual_factor: float

    def __post_init__(self):
        try:
            if not math.isfinite(self.base_year):
                raise DomainError(f"base_year must be finite, got {self.base_year}")
        except OverflowError:  # math.isfinite on an int past float range
            raise DomainError("base_year must be finite, got an int past float range") from None
        if not 0 < self.base_value < math.inf:
            raise DomainError(f"base_value must be finite and > 0, got {self.base_value}")
        if not 0 < self.annual_factor < math.inf:
            raise DomainError(f"annual_factor must be finite and > 0, got {self.annual_factor}")

    def value(self, year: float) -> float:
        """The trend at `year`; DomainError where the year is not finite or
        the trend passes float range, above (overflow) or below (underflow to 0)."""
        try:
            if not math.isfinite(year):
                raise DomainError(f"year must be finite, got {year!r}")
        except OverflowError:  # math.isfinite on an int past float range
            raise DomainError("year must be finite, got an int past float range") from None
        try:
            value = self.base_value * self.annual_factor ** (year - self.base_year)
        except OverflowError:
            value = math.inf
        if value == math.inf or value == 0.0:
            raise DomainError(
                f"trend {self.base_value:g} x {self.annual_factor:g}/yr from {self.base_year:g} "
                f"passes float range in year {year:g}"
            )
        return value


def trend_value(trend: ExponentialTrend, year: float) -> float:
    """Trend value at any real year; years before base_year extrapolate
    backward along the same curve."""
    return trend.value(year)


@dataclass(frozen=True)
class ClassicalPlatform:
    flops_per_dollar_second: ExponentialTrend


def classical_throughput(platform: ClassicalPlatform, year: float) -> float:
    """Flops per second at a $1/s spend rate."""
    return platform.flops_per_dollar_second.value(year)


@dataclass(frozen=True)
class SurfaceCodeParams:
    prefactor_a: float = 0.1
    threshold_error: float = 1e-2
    cycle_time_s: float = 1e-6
    cycles_per_t_gate: float = 10.0
    failure_budget: float = 1e-2

    def __post_init__(self):
        if not 0 < self.threshold_error < 1:
            raise DomainError("threshold_error must be in (0, 1)")
        if not 0 < self.failure_budget < 1:
            raise DomainError("failure_budget must be in (0, 1)")
        for field in ("prefactor_a", "cycle_time_s", "cycles_per_t_gate"):
            if not 0 < getattr(self, field) < math.inf:
                raise DomainError(f"{field} must be finite and > 0")


@dataclass(frozen=True)
class QuantumPlatform:
    """Quantum capability curves; which ones apply depends on mode."""

    mode: str  # "simple" | "surface-code"
    logical_tgates_per_dollar_second: ExponentialTrend
    physical_qubits: ExponentialTrend
    physical_to_logical_ratio: ExponentialTrend
    physical_error_rate: ExponentialTrend
    sc_params: SurfaceCodeParams

    def __post_init__(self):
        if self.mode not in ("simple", "surface-code"):
            raise DomainError(f"mode must be simple or surface-code, got {self.mode!r}")

    def at(self, year: float) -> _Year:
        """The platform in one year, as workloads see it (module docstring)."""
        return _Year(self, year)

    @functools.cached_property
    def _factory_factor(self) -> float:
        """Surface-code parallel-factory factor, fixed so the calibration-year
        throughput at the reference T-count equals the trend's value there."""
        anchor_rate = self.logical_tgates_per_dollar_second.value(SC_CALIBRATION_YEAR)
        anchor = _Year(self, SC_CALIBRATION_YEAR)
        return anchor_rate * anchor._seconds(anchor.level(math.log(REFERENCE_TCOUNT)))


def _code_distance_from_log(log_t_count: float, p_phys: float, params: SurfaceCodeParams) -> int:
    if not 0 < p_phys < 1:
        raise DomainError(f"p_phys must be in (0, 1), got {p_phys}")
    if p_phys >= params.threshold_error:
        raise ThresholdError(
            f"physical error rate {p_phys:g} is not below the code threshold "
            f"{params.threshold_error:g}"
        )
    if not math.isfinite(log_t_count):
        raise DomainError(f"T-count must be finite, got ln T = {log_t_count}")
    log_ratio = math.log(p_phys / params.threshold_error)  # < 0
    # Smallest m >= 1 with  log(A) + log_t + m * log_ratio <= log(budget),
    # then d = 2m - 1 (odd by construction).
    rhs = math.log(params.failure_budget) - math.log(params.prefactor_a) - log_t_count

    def ok(m: int) -> bool:
        return m * log_ratio <= rhs + _LOG_SLACK

    rounds = rhs / log_ratio
    if not rounds <= _MAX_ROUNDS:
        raise DomainError(f"a T-count of e^{log_t_count:g} needs a code distance past {2 * _MAX_ROUNDS:g}")
    m = max(1, math.ceil(rounds - _LOG_SLACK))
    while not ok(m):
        m += 1
    while m > 1 and ok(m - 1):
        m -= 1
    return 2 * m - 1


def required_code_distance(p_phys: float, t_count: float, params: SurfaceCodeParams) -> int:
    """Smallest odd code distance keeping t_count logical T gates within
    the failure budget.  Raises ThresholdError if p_phys >= p_th."""
    if not t_count > 0:
        raise DomainError(f"t_count must be > 0, got {t_count}")
    return _code_distance_from_log(math.log(t_count), p_phys, params)


class _Year:
    """QuantumPlatform.at: one platform in one year (module docstring)."""

    __slots__ = ("platform", "year", "fixed_level", "_p_phys", "_log_rate", "_physical")

    def __init__(self, platform: QuantumPlatform, year: float):
        self.platform, self.year = platform, year
        # Simple-mode hardware runs every workload at one level, 0.
        self.fixed_level = 0 if platform.mode == "simple" else None
        self._p_phys = self._log_rate = self._physical = None

    def level(self, log_t_count: float) -> int:
        """The code distance a workload of ln T-count log_t_count runs at."""
        if self.fixed_level is not None:
            return self.fixed_level
        if self._p_phys is None:
            self._p_phys = self.platform.physical_error_rate.value(self.year)
        return _code_distance_from_log(log_t_count, self._p_phys, self.platform.sc_params)

    def top(self, level: int) -> float:
        """The largest ln T-count at a code distance, once level() has run."""
        params = self.platform.sc_params
        log_room = math.log(params.failure_budget) - math.log(params.prefactor_a) + _LOG_SLACK
        return log_room - (level + 1) // 2 * math.log(self._p_phys / params.threshold_error)

    def _seconds(self, level: int) -> float:
        """Seconds per logical T gate at a code distance."""
        return level * self.platform.sc_params.cycle_time_s * self.platform.sc_params.cycles_per_t_gate

    def rate(self, level: int) -> float:
        if self.fixed_level is not None:
            return self.platform.logical_tgates_per_dollar_second.value(self.year)
        return self.platform._factory_factor / self._seconds(level)

    def log_rate(self, level: int) -> float:
        if self.fixed_level is None:
            return math.log(self.platform._factory_factor) - math.log(self._seconds(level))
        if self._log_rate is None:
            self._log_rate = math.log(self.platform.logical_tgates_per_dollar_second.value(self.year))
        return self._log_rate

    def supply(self, level: int) -> float:
        if self._physical is None:
            self._physical = self.platform.physical_qubits.value(self.year)
        if self.fixed_level is not None:
            return self._physical / self.platform.physical_to_logical_ratio.value(self.year)
        return self._physical / (2.0 * level * level)


def _workload(platform: QuantumPlatform, year: float, t_count: float):
    """The year's view and the level a workload of t_count T gates runs at."""
    hardware = platform.at(year)
    if not t_count > 0 and hardware.fixed_level is None:
        raise DomainError(f"t_count must be > 0, got {t_count}")
    return hardware, hardware.level(math.log(t_count) if t_count > 0 else -math.inf)


def quantum_logical_throughput(platform: QuantumPlatform, year: float, t_count: float) -> float:
    """Logical T gates per second at $1/s spend.

    Simple mode reads the trend and ignores t_count.  Surface-code mode
    derives the distance for this workload's T-count at this year's
    physical error rate; larger workloads need more suppression and so
    run slower.
    """
    hardware, level = _workload(platform, year, t_count)
    return hardware.rate(level)


def available_logical_qubits(platform: QuantumPlatform, year: float, t_count: float) -> float:
    """Physical qubit supply divided by the physical-per-logical ratio.

    The ratio is the configured trend in simple mode and 2 d^2 in
    surface-code mode, with d matched to this workload's T-count.
    """
    hardware, level = _workload(platform, year, t_count)
    return hardware.supply(level)

"""Wall-clock runtimes at equal dollar spend, and estimator arithmetic.

Both sides are normalized to a $1/second spend rate: classical cost in
flops divided by the classical throughput curve, quantum cost in
logical T gates (repeated 1/F times for initial-state fidelity F)
divided by the quantum logical-throughput curve.  Hardware prices enter
only through those throughput defaults, never at runtime.

Classical laws are evaluated at eps = 1: accuracy on the classical side
is a property of the method choice (HF vs CCSD(T) vs FCI), not a knob.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .catalog import AlgorithmSpec
from .errors import DomainError
from .hardware import REFERENCE_TCOUNT, classical_throughput, quantum_logical_throughput
from .scenario import Scenario

__all__ = [
    "RuntimeQuote",
    "classical_runtime",
    "quantum_runtime",
    "flop_adjusted_constant",
    "naive_t_gate_estimate",
    "overhead_ratio",
]


@dataclass(frozen=True)
class RuntimeQuote:
    """One priced execution: seconds at $1/s, raw resource count
    (flops or T gates), logical qubits (quantum only), and the average
    repetition count (1/F for quantum, 1 for classical)."""

    seconds: float
    resource_count: float
    logical_qubits: float | None
    repetitions: float


def _require_kind(alg: AlgorithmSpec, kind: str) -> None:
    if alg.kind != kind:
        raise DomainError(f"{alg.name!r} is not a {kind} method")


def classical_runtime(alg: AlgorithmSpec, n: int, year: float, scenario: Scenario) -> RuntimeQuote:
    """Runtime quote for a classical method at problem size n."""
    _require_kind(alg, "classical")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    resource = alg.cost_law.value(n, 1.0)
    seconds = resource / classical_throughput(scenario.classical, year)
    return RuntimeQuote(seconds=seconds, resource_count=resource, logical_qubits=None, repetitions=1.0)


def quantum_runtime(alg: AlgorithmSpec, n: int, year: float, scenario: Scenario) -> RuntimeQuote:
    """Runtime quote for a quantum method at problem size n.

    The throughput sees the workload's own T-count, which matters in
    surface-code mode where bigger workloads need more suppression.
    """
    _require_kind(alg, "quantum")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    t_count = alg.cost_law.value(n, scenario.epsilon)
    repetitions = 1.0 / alg.initial_state_fidelity
    throughput = quantum_logical_throughput(scenario.quantum, year, t_count)
    return RuntimeQuote(
        seconds=repetitions * t_count / throughput,
        resource_count=t_count,
        logical_qubits=alg.qubit_law.value(n, 1.0),
        repetitions=repetitions,
    )


def log_classical_seconds(alg: AlgorithmSpec, n: float, year: float, scenario: Scenario) -> float:
    """ln(classical seconds); n may be real.  Log-domain so FCI at large
    N stays representable."""
    _require_kind(alg, "classical")
    return alg.cost_law.log_value(n, 1.0) - math.log(classical_throughput(scenario.classical, year))


def log_quantum_seconds(alg: AlgorithmSpec, n: float, year: float, scenario: Scenario) -> float:
    """ln(quantum seconds); n may be real."""
    _require_kind(alg, "quantum")
    log_t = alg.cost_law.log_value(n, scenario.epsilon)
    hardware = scenario.quantum.at(year)
    return math.log(1.0 / alg.initial_state_fidelity) + log_t - hardware.log_rate(hardware.level(log_t))


def _log_seconds_builder(quantum: AlgorithmSpec, scenario: Scenario, classical: AlgorithmSpec | None = None):
    """(log_t, log_seconds): year-free closures for one method pair.

    log_t(n) is the quantum law's ln T-count.  log_seconds(n, q_rate, c_rate)
    is log_quantum_seconds(quantum, n, ...) - log_classical_seconds(classical, n, ...)
    in a year whose quantum hardware runs n at ln T-gate rate q_rate
    (QuantumPlatform.at) and whose classical ln flops rate is c_rate; with
    classical None it is log_quantum_seconds alone, log_seconds(n, q_rate).

    The year-free terms (the law constants' logs, b log eps, log beta,
    log(1/F)) are taken once here and only the n terms per call.  The
    closures repeat the float operations of ComplexityModel.log_value and
    the two log_*_seconds functions in their order, so each value is
    bit-identical to the unfused one.  The kinds are checked here, the
    classical method's first.
    """
    if classical is not None:
        _require_kind(classical, "classical")
    _require_kind(quantum, "quantum")
    q_law = quantum.cost_law
    log_reps = math.log(1.0 / quantum.initial_state_fidelity)
    q_const, q_a = math.log(q_law.constant), q_law.size_exponent
    q_eps, q_beta = q_law.inv_error_exponent * math.log(scenario.epsilon), math.log(q_law.exp_base)
    log = math.log

    def log_t(n: float) -> float:
        return ((q_const + q_a * log(n)) - q_eps) + n * q_beta

    if classical is None:
        return log_t, lambda n, q_rate: (log_reps + (((q_const + q_a * log(n)) - q_eps) + n * q_beta)) - q_rate
    c_law = classical.cost_law
    c_const, c_a = math.log(c_law.constant), c_law.size_exponent
    c_eps, c_beta = c_law.inv_error_exponent * math.log(1.0), math.log(c_law.exp_base)

    def gap(n: float, q_rate: float, c_rate: float) -> float:
        log_n = log(n)
        return ((log_reps + (((q_const + q_a * log_n) - q_eps) + n * q_beta)) - q_rate) - (
            (((c_const + c_a * log_n) - c_eps) + n * c_beta) - c_rate
        )

    return log_t, gap


def _finite(value_of, *args: float) -> float:
    """value_of(*args) for the estimators below: a non-finite argument, an
    overflow on the way or a result that is not finite and > 0 (one that
    underflows to 0) is a DomainError."""
    try:
        value = value_of(*args) if all(map(math.isfinite, args)) else math.nan
    except OverflowError:
        value = math.inf
    if not 0 < value < math.inf:
        raise DomainError("arguments must be finite numbers and the result finite and > 0")
    return value


def flop_adjusted_constant(runtime_s: float, peak_flops: float, n: int, exponent: float) -> float:
    """Algorithmic constant implied by a benchmark: T * P / N^p.

    Divides the flops actually spent (measured runtime times peak rate)
    by the bare asymptotic count.
    """
    if not (runtime_s > 0 and peak_flops > 0 and n > 0 and exponent > 0):
        raise DomainError("all arguments must be positive")
    return _finite(lambda t, p, n, a: t * p / float(n) ** a, runtime_s, peak_flops, n, exponent)


def naive_t_gate_estimate(n: int, exponent: float, epsilon: float) -> float:
    """Naive T-count N^p / eps."""
    if not (n > 0 and exponent > 0):
        raise DomainError("n and exponent must be positive")
    if not 0 < epsilon <= 1:
        raise DomainError(f"epsilon must be in (0, 1], got {epsilon}")
    return _finite(lambda n, a, eps: float(n) ** a / eps, n, exponent, epsilon)


def overhead_ratio(scenario: Scenario, year: float) -> float:
    """Classical-over-quantum throughput ratio at equal dollar spend,
    quoted at the reference T-count (1e13 at the 2025 defaults)."""
    return classical_throughput(scenario.classical, year) / quantum_logical_throughput(
        scenario.quantum, year, REFERENCE_TCOUNT
    )

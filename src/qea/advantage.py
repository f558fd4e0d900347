"""Crossover thresholds, feasibility envelopes, and disruption years.

For a (classical, quantum) method pair in a given year, the engine
answers three questions:

1. Above what problem size N is the quantum run cheaper at equal dollar
   spend (the advantage threshold)?  Ties count as quantum advantage.
2. What is the largest N that is feasible at all, limited by the
   logical-qubit supply and by a wall-clock deadline?
3. In which year does the advantage region (threshold <= feasible size)
   first become nonempty?

All comparisons run on log-runtimes so exponential classical laws never
overflow.  Thresholds solve in closed form when both laws are
polynomial on simple-mode hardware, and by bisection in log N
otherwise; below _SNAP_LIMIT the answer is then snapped so that its
ceiling is exactly the smallest advantageous integer.  Feasible sizes
work the same way in simple mode: both limits are monomials in N, so
each is solved in closed form and snapped against its own fits
predicate; in surface-code mode they are searched.

The year scan needs no threshold in simple mode with a polynomial
quantum law: the gap, K + (a_q - a_c) u - e^u ln beta_c in u = ln N, is
concave, so it is smallest on [1, M] at an end, and once gap(1) > 0 the
advantageous sizes are [N0, inf).  A year with feasible size M is
advantageous iff M >= 1 and min(gap(1), gap(M)) <= 0, as ceil(threshold)
<= M is for the snapped threshold; the threshold is absent iff gap(1) > 0
and the quantum law grows at least as fast.  Past _SNAP_LIMIT no snap
backs that, so M >= _SNAP_LIMIT still asks qea_threshold.

Every gap comes from one factory, cost._log_seconds_builder, and every
envelope from builders like it: year-free terms once per scan, trends
once a year, values bit-identical to the unfused functions.  In
surface-code mode the code distance, and so the quantum throughput,
moves with N, so the scan solves every year; the bisection assumes a
single sign change of the gap, so where a distance step makes the gap
non-monotone it can return a later crossing than the first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .catalog import AlgorithmSpec
from .cost import _log_seconds_builder, _require_kind
from .errors import DomainError
from .hardware import _logical_qubits_from_log, available_logical_qubits
from .scenario import Scenario

__all__ = [
    "BEYOND_HORIZON",
    "NEVER",
    "FeasibilityEnvelope",
    "AdvantageRegion",
    "DisruptionResult",
    "qea_threshold",
    "deadline_limited_size",
    "qubit_limited_size",
    "feasibility_envelope",
    "advantage_region",
    "first_advantage_year",
    "verdict_key",
]

BEYOND_HORIZON = "beyond-horizon"
NEVER = "never"

# Largest problem size any search will report; beyond this the model has
# no physical meaning anyway.
SIZE_CAP = 10**15

# Bisection tolerance on ln N.  The contract asks for 1e-6 relative on
# N; solving tighter keeps thresholds stable under common rescalings of
# both throughput curves to well below 1e-9.
_LOG_TOL = 1e-12

# Cap on a threshold's ln N, in the closed form and the bracket search
# (N ~ 1.5e111, far past SIZE_CAP).
_LOG_N_MAX = 256.0

# Integer snapping is only meaningful (and affordable) while one unit of
# N still moves the log-runtime gap by more than float resolution; the
# year scan's endpoint test rests on the snap, so it stops here too.
_SNAP_LIMIT = 1e9

# ln N beyond which a size estimate is past SIZE_CAP (e^40 ~ 2.4e17).
_LOG_SIZE_CEILING = 40.0


@dataclass(frozen=True)
class FeasibilityEnvelope:
    """Per-year size limits for one quantum method."""

    year: float
    qubit_limited_n: int
    deadline_limited_n: int
    max_feasible_n: int


@dataclass(frozen=True)
class AdvantageRegion:
    """Threshold and envelope for one pair in one year.

    nonempty iff the threshold exists and its ceiling fits under the
    envelope; min_advantageous_n is ceil(threshold_n) when finite.
    """

    year: float
    threshold_n: float | None
    min_advantageous_n: int | None
    max_feasible_n: int
    nonempty: bool


@dataclass(frozen=True)
class DisruptionResult:
    """First-advantage verdict: a year, "beyond-horizon", or "never",
    plus which constraint blocked advantage in the last blocked year
    ("qea" | "qubits" | "deadline" | "none")."""

    verdict: int | str
    binding_constraint: str


def verdict_key(result: DisruptionResult, horizon: int) -> float:
    """Numeric order: years ascending, beyond-horizon after all years,
    never last."""
    if result.verdict == NEVER:
        return math.inf
    if result.verdict == BEYOND_HORIZON:
        return float(horizon) + 1.0
    return float(result.verdict)


def _check_year(year: float) -> None:
    if not math.isfinite(year):
        raise DomainError(f"year must be finite, got {year!r}")


def _catches_up(classical: AlgorithmSpec, quantum: AlgorithmSpec) -> bool:
    """Whether the quantum law grows slower, so a gap positive at N = 1 turns."""
    growth_q, growth_c = math.log(quantum.cost_law.exp_base), math.log(classical.cost_law.exp_base)
    a_q, a_c = quantum.cost_law.size_exponent, classical.cost_law.size_exponent
    return not (growth_q > growth_c or (growth_q == growth_c and a_q >= a_c))


def qea_threshold(
    classical: AlgorithmSpec, quantum: AlgorithmSpec, year: float, scenario: Scenario
) -> float | None:
    """Smallest real N >= 1 with quantum runtime <= classical runtime,
    or None when no such size exists (the quantum law grows at least as
    fast and is costlier per-operation already at N = 1)."""
    gap_at = _log_seconds_builder(quantum, scenario, classical)  # checks both kinds
    _check_year(year)
    gap = gap_at(year)
    gap1 = gap(1.0)
    if gap1 <= 0:
        return 1.0

    if not _catches_up(classical, quantum):
        return None
    growth_q, growth_c = math.log(quantum.cost_law.exp_base), math.log(classical.cost_law.exp_base)
    a_q, a_c = quantum.cost_law.size_exponent, classical.cost_law.size_exponent
    simple_poly = scenario.quantum.mode == "simple" and growth_q == growth_c == 0.0
    if simple_poly:
        # gap(N) = gap(1) + (a_q - a_c) ln N, so the root is direct.
        # Capped like the bracket search: a near-tie of the exponents
        # puts the root past float range.
        root_u = min(gap1 / (a_c - a_q), _LOG_N_MAX)
    else:
        # The gap can rise before it falls (a_q > a_c under an
        # exponential classical law); bracket from beyond the peak.
        u_lo = 0.0
        if a_q > a_c and growth_c > growth_q:
            u_lo = max(0.0, math.log((a_q - a_c) / (growth_c - growth_q)))
        u_hi = max(1.0, u_lo + 1.0)
        while u_hi <= _LOG_N_MAX and gap(math.exp(u_hi)) > 0:
            u_lo = u_hi
            u_hi *= 2.0
        if u_hi > _LOG_N_MAX:
            # A crossing exists structurally but sits beyond any
            # meaningful size; keep it finite so the verdict reads
            # beyond-horizon rather than never.
            return math.exp(_LOG_N_MAX)
        root_u = _bisect(lambda u: gap(math.exp(u)) <= 0, u_lo, u_hi, _LOG_TOL)[1]

    threshold = max(1.0, math.exp(root_u))
    if threshold > _SNAP_LIMIT:
        return threshold

    # Snap so ceil(threshold) is exactly the smallest advantageous
    # integer, immune to the last float ulp of the root.
    k = max(1, math.ceil(threshold - 1e-9))
    while gap(float(k)) > 0:
        k += 1
    while k > 1 and gap(float(k - 1)) <= 0:
        k -= 1
    if math.ceil(threshold) != k:
        threshold = float(k)
    return threshold


def _bisect(predicate, a: float, b: float, tol: float) -> tuple[float, float]:
    """Halve [a, b] until it is at most tol wide, keeping the predicate
    false at a and true at b; returns the final (a, b)."""
    while b - a > tol:
        mid = 0.5 * (a + b)
        if predicate(mid):
            b = mid
        else:
            a = mid
    return a, b


def _largest_true(predicate) -> int:
    """Largest integer N in [1, SIZE_CAP] satisfying a monotone predicate,
    0 if even N = 1 fails."""
    if not predicate(1):
        return 0
    lo, hi = 1, 2
    while hi <= SIZE_CAP and predicate(hi):
        lo, hi = hi, hi * 2
    if hi > SIZE_CAP:
        if predicate(SIZE_CAP):
            return SIZE_CAP
        hi = SIZE_CAP
    return _bisect_largest(predicate, lo, hi)


def _bisect_largest(predicate, lo: int, hi: int) -> int:
    """Largest N in [lo, hi) satisfying a monotone predicate that holds
    at lo and fails at hi."""
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if predicate(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _snap_largest(predicate, estimate: float) -> int:
    """_largest_true(predicate), searched outward from a real-valued
    estimate of the answer.

    Steps of 1, 2, 4, ... away from floor(estimate) bracket the answer,
    then bisection pins it, so an estimate k units off costs about
    2 log2(k) + 2 predicate calls.  The answer rests on the predicate
    alone; the estimate only sets where the search starts.
    """
    if math.isnan(estimate):
        estimate = 1.0
    n = int(min(max(estimate, 1.0), SIZE_CAP))
    step = 1
    if predicate(n):
        while n < SIZE_CAP:
            hi = min(n + step, SIZE_CAP)
            if not predicate(hi):
                return _bisect_largest(predicate, n, hi)
            n, step = hi, step * 2
        return SIZE_CAP
    while n > 1:
        lo = max(n - step, 1)
        if predicate(lo):
            return _bisect_largest(predicate, lo, n)
        n, step = lo, step * 2
    return 0


def _monomial_size(log_room: float, exponent: float) -> float:
    """Real N with exponent * ln N = log_room: where a monomial limit
    c N^a <= budget binds, given log_room = ln(budget / c)."""
    if exponent == 0:
        return math.inf if log_room >= 0 else 0.0
    return math.exp(min(log_room / exponent, _LOG_SIZE_CEILING))


def _solvable_in_closed_form(law, scenario: Scenario) -> bool:
    # Simple-mode hardware does not depend on the workload, so a
    # polynomial law leaves each limit a plain monomial in N, and its
    # gap to any classical law concave in ln N.
    return scenario.quantum.mode == "simple" and law.exp_base == 1


def _qubit_limit(quantum: AlgorithmSpec, scenario: Scenario):
    """year -> qubit_limited_size(quantum, year, scenario)."""
    law, platform, epsilon = quantum.qubit_law, scenario.quantum, scenario.epsilon
    closed, log_constant = _solvable_in_closed_form(law, scenario), math.log(law.constant)

    def limit(year: float) -> int:
        if platform.mode == "simple":
            # Simple mode ignores the T-count; the supply is one number a year.
            supply = available_logical_qubits(platform, year, 1.0)
            fits = lambda n: law.value(n, 1.0) <= supply  # noqa: E731
        else:
            def fits(n: int) -> bool:
                need, t_count = law.value(n, 1.0), quantum.cost_law.value(n, epsilon)
                if t_count == math.inf:  # past float range: the supply from ln T instead
                    return need <= _logical_qubits_from_log(platform, year, quantum.cost_law.log_value(n, epsilon))
                return need <= available_logical_qubits(platform, year, t_count)
        if not closed:
            return _largest_true(fits)
        log_room = (math.log(supply) if supply > 0 else -math.inf) - log_constant
        return _snap_largest(fits, _monomial_size(log_room, law.size_exponent))

    return limit


def _deadline_limit(quantum: AlgorithmSpec, deadline_s: float, scenario: Scenario):
    """year -> deadline_limited_size(quantum, year, deadline_s, scenario)."""
    log_deadline = math.log(deadline_s)
    log_seconds_at = _log_seconds_builder(quantum, scenario)
    closed, exponent = _solvable_in_closed_form(quantum.cost_law, scenario), quantum.cost_law.size_exponent

    def limit(year: float) -> int:
        log_seconds = log_seconds_at(year)
        fits = lambda n: log_seconds(float(n)) <= log_deadline  # noqa: E731
        if not closed:
            return _largest_true(fits)
        # ln seconds(N) = ln seconds(1) + a ln N.
        return _snap_largest(fits, _monomial_size(log_deadline - log_seconds(1.0), exponent))

    return limit


def _envelope_builder(quantum: AlgorithmSpec, scenario: Scenario):
    """year -> feasibility_envelope(quantum, year, scenario)."""
    qubit_limit = _qubit_limit(quantum, scenario)
    deadline_limit = _deadline_limit(quantum, scenario.deadline_s, scenario)

    def envelope(year: float) -> FeasibilityEnvelope:
        qubit_n, deadline_n = qubit_limit(year), deadline_limit(year)
        return FeasibilityEnvelope(year, qubit_n, deadline_n, min(qubit_n, deadline_n))

    return envelope


def deadline_limited_size(quantum: AlgorithmSpec, year: float, deadline_s: float, scenario: Scenario) -> int:
    """Largest N whose quantum runtime fits within the deadline; 0 if
    none does."""
    _require_kind(quantum, "quantum")
    _check_year(year)
    if not deadline_s > 0:
        raise DomainError("deadline_s must be > 0")
    return _deadline_limit(quantum, deadline_s, scenario)(year)


def qubit_limited_size(quantum: AlgorithmSpec, year: float, scenario: Scenario) -> int:
    """Largest N whose logical-qubit demand fits the year's supply.

    Self-consistent in surface-code mode: the supply is evaluated at the
    T-count of the same N being tested (bigger workloads push the code
    distance, and with it the physical-per-logical ratio, up).
    """
    _require_kind(quantum, "quantum")
    _check_year(year)
    return _qubit_limit(quantum, scenario)(year)


def feasibility_envelope(quantum: AlgorithmSpec, year: float, scenario: Scenario) -> FeasibilityEnvelope:
    """Both size limits for one quantum method in one year: closed form
    and integer snap in simple mode, doubling-and-bisection search in
    surface-code mode (where the code distance moves with N)."""
    _require_kind(quantum, "quantum")
    _check_year(year)
    return _envelope_builder(quantum, scenario)(year)


def advantage_region(
    classical: AlgorithmSpec, quantum: AlgorithmSpec, year: float, scenario: Scenario
) -> AdvantageRegion:
    threshold = qea_threshold(classical, quantum, year, scenario)
    envelope = feasibility_envelope(quantum, year, scenario)
    min_adv = None if threshold is None else math.ceil(threshold)
    nonempty = min_adv is not None and min_adv <= envelope.max_feasible_n
    return AdvantageRegion(
        year=year,
        threshold_n=threshold,
        min_advantageous_n=min_adv,
        max_feasible_n=envelope.max_feasible_n,
        nonempty=nonempty,
    )


def _blocking_constraint(threshold_exists: bool, envelope: FeasibilityEnvelope) -> str:
    if not threshold_exists:
        return "qea"
    if envelope.qubit_limited_n <= envelope.deadline_limited_n:
        return "qubits"
    return "deadline"


def first_advantage_year(
    classical: AlgorithmSpec, quantum: AlgorithmSpec, scenario: Scenario
) -> DisruptionResult:
    """Scan integer years from start_year to horizon for the first
    nonempty advantage region.

    Returns beyond-horizon when a finite threshold exists somewhere in
    the window but never fits the envelope, and never when the
    threshold is absent in every scanned year.  binding_constraint
    reports what blocked the last infeasible year ("none" when the very
    first year is already feasible).
    """
    return _scan_years(classical, quantum, scenario, {})


def _scan_years(
    classical: AlgorithmSpec, quantum: AlgorithmSpec, scenario: Scenario, envelopes: dict[int, FeasibilityEnvelope]
) -> DisruptionResult:
    """The year scan of first_advantage_year.  `envelopes` maps year to
    envelope for this quantum method and scenario; the scan reads it and
    adds what it builds, so tables that pass one dict per quantum column
    build each envelope once however many rows scan it."""
    _require_kind(classical, "classical")
    _require_kind(quantum, "quantum")
    build_envelope = _envelope_builder(quantum, scenario)
    year_test = _year_test(classical, quantum, scenario)
    last_block = None
    any_threshold = False
    for year in scenario.years():
        decide = year_test(year)
        envelope = envelopes.get(year)
        if envelope is None:
            envelope = envelopes[year] = build_envelope(year)
        exists, nonempty = decide(envelope)
        any_threshold = any_threshold or exists
        if nonempty:
            constraint = "none" if last_block is None else _blocking_constraint(*last_block)
            return DisruptionResult(verdict=year, binding_constraint=constraint)
        last_block = (exists, envelope)
    if any_threshold:
        return DisruptionResult(verdict=BEYOND_HORIZON, binding_constraint=_blocking_constraint(*last_block))
    return DisruptionResult(verdict=NEVER, binding_constraint="qea")


def _year_test(classical: AlgorithmSpec, quantum: AlgorithmSpec, scenario: Scenario):
    """year -> (envelope -> (a threshold exists, the region is nonempty)).  The outer
    call reads the year's trends before the envelope's, as the threshold solve does."""

    def solved(year: int):
        threshold = qea_threshold(classical, quantum, year, scenario)
        exists = threshold is not None
        return lambda envelope: (exists, exists and math.ceil(threshold) <= envelope.max_feasible_n)

    if not _solvable_in_closed_form(quantum.cost_law, scenario):
        return solved
    gap_at = _log_seconds_builder(quantum, scenario, classical)
    catches_up = _catches_up(classical, quantum)

    def root_free(year: int):
        gap = gap_at(year)

        def decide(envelope: FeasibilityEnvelope) -> tuple[bool, bool]:
            m, gap1 = envelope.max_feasible_n, gap(1.0)
            if m >= _SNAP_LIMIT:
                return solved(year)(envelope)
            return gap1 <= 0 or catches_up, m >= 1 and (gap1 <= 0 or (catches_up and gap(float(m)) <= 0))

        return decide

    return root_free

"""Independent re-derivation of qea's verdicts, thresholds and envelopes.

The oracle reads a scenario's fields, as the plain dict that
`dataclasses.asdict` makes of it, and nothing else from qea: it calls no
solver, cost, hardware or report function.  The model it implements is
written out in README.md ("The model the oracle implements"); every size
comes from the integer searches below, never from the engine's bisection.

Natural logs throughout.  For a method pair in year y:

    ln classical seconds = ln c_c + a_c ln n + n ln beta_c - ln flops(y)
    ln quantum seconds   = ln(1/F) + ln c_q + a_q ln n - ln eps - ln rate(y, T)

with T = c_q n^a_q / eps the workload's logical T-count.  In simple mode
rate(y, T) is the T-gate trend; in surface-code mode it is
rate_2025(1e10) * d(2025, 1e10) / d(y, T) with d the smallest odd code
distance meeting the failure budget.
"""

from __future__ import annotations

import math

# Largest size any envelope reports (the engine's documented cap).
SIZE_CAP = 10**15
# Thresholds above this are not snapped by the engine; its contract there
# is 1e-6 relative on N.
SNAP_LIMIT = 1e9
# Boundary ties in the code-distance law count as meeting the budget.
LOG_SLACK = 1e-9

# Per-method constants the scenario does not carry (README's catalog).
EXP_BASE = {"FCI": 4.0}
QUANTUM_METHODS = ("qpe-n5", "qpe-n3", "qpe-n2", "qpe-first-quant")
ALIASES = {"CCSDT": "CCSD(T)"}

SC_REFERENCE_TCOUNT = 1e10
SC_CALIBRATION_YEAR = 2025.0


def canonical(name: str) -> str:
    return ALIASES.get(name, name)


# ---------------------------------------------------------------------------
# Integer searches


def largest_true(pred, hint: int = 1, cap: int = SIZE_CAP) -> int:
    """Largest n in [1, cap] with pred(n) for a predicate that is true up
    to some n and false after it; 0 if pred(1) is false.  Gallops from
    `hint`, then bisects."""
    if not pred(1):
        return 0
    hint = min(max(1, int(hint)), cap)
    step = 1
    if pred(hint):
        lo = hint
        while lo + step <= cap and pred(lo + step):
            lo += step
            step *= 2
        hi = min(lo + step, cap + 1)  # cap + 1 stands for "false"
    else:
        hi = hint
        while hi - step >= 1 and not pred(hi - step):
            hi -= step
            step *= 2
        lo = max(hi - step, 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return lo


def first_true(pred, lo: int, hi: int) -> int:
    """Smallest n in (lo, hi] with pred(n), given pred(lo) false, pred(hi)
    true and pred monotone on [lo, hi]."""
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# The model


def ln_trend(trend: dict, year: float) -> float:
    return math.log(trend["base_value"]) + (year - trend["base_year"]) * math.log(trend["annual_factor"])


def code_distance(ln_t: float, p_phys: float, sc) -> int:
    """Smallest odd d = 2m - 1 with A * (p/p_th)^m * T <= budget."""
    ln_ratio = math.log(p_phys / sc["threshold_error"])
    if not ln_ratio < 0:
        raise ValueError("physical error rate at or above threshold")
    return 2 * _suppression_rounds(ln_t, ln_ratio, math.log(sc["prefactor_a"]), math.log(sc["failure_budget"])) - 1


def _suppression_rounds(ln_t: float, ln_ratio: float, ln_a: float, ln_budget: float) -> int:
    m = 1
    while ln_a + ln_t + m * ln_ratio > ln_budget + LOG_SLACK:
        m += 1
    return m


class Model:
    """One scenario, read from its fields, optionally under a robustness
    variation's multipliers (quantum and classical cost constants,
    qubit-law constants)."""

    def __init__(self, fields: dict, quantum_time=1.0, classical_time=1.0, logical_qubits=1.0):
        self.s = fields
        self.q = fields["quantum"]
        self.surface = self.q["mode"] == "surface-code"
        self.ln_eps = math.log(fields["epsilon"])
        self.multipliers = (quantum_time, classical_time, logical_qubits)
        self._years = {}
        self._memo = {}
        sc = self.q["sc_params"]
        self.ln_a = math.log(sc["prefactor_a"])
        self.ln_budget = math.log(sc["failure_budget"])
        if self.surface:
            d0 = 2 * self._rounds(math.log(SC_REFERENCE_TCOUNT), SC_CALIBRATION_YEAR) - 1
            # ln rate(y, T) = ln_rate0 - ln d(y, T)
            self.ln_rate0 = ln_trend(self.q["logical_tgates_per_dollar_second"], SC_CALIBRATION_YEAR) + math.log(d0)

    def law(self, name: str):
        """(ln c, a, ln(1/F), qubit constant, ln beta) for a method."""
        key = canonical(name)
        got = self._memo.get(key)
        if got is None:
            t = self.s["algorithms"][key]
            quantum_time, classical_time, logical_qubits = self.multipliers
            if key in QUANTUM_METHODS:
                constant = t["constant"] * quantum_time
                qubit_constant = t["qubit_constant"] * logical_qubits
            else:
                constant, qubit_constant = t["constant"] * classical_time, None
            got = (math.log(constant), t["exponent"], -math.log(t["fidelity"]), qubit_constant,
                   math.log(EXP_BASE.get(key, 1.0)))
            self._memo[key] = got
        return got

    def year_terms(self, year: float) -> dict:
        got = self._years.get(year)
        if got is None:
            q = self.q
            got = {
                "ln_flops": ln_trend(self.s["classical"]["flops_per_dollar_second"], year),
                "ln_rate": ln_trend(q["logical_tgates_per_dollar_second"], year),
                "ln_phys": ln_trend(q["physical_qubits"], year),
                "ln_ratio": ln_trend(q["physical_to_logical_ratio"], year),
                "ln_p_over_pth": ln_trend(q["physical_error_rate"], year) - math.log(q["sc_params"]["threshold_error"]),
            }
            self._years[year] = got
        return got

    def _rounds(self, ln_t: float, year: float) -> int:
        ln_ratio = self.year_terms(year)["ln_p_over_pth"]
        if not ln_ratio < 0:
            raise ValueError("physical error rate at or above threshold")
        return _suppression_rounds(ln_t, ln_ratio, self.ln_a, self.ln_budget)

    def ln_tcount(self, quantum: str, n: int) -> float:
        ln_c, a = self.law(quantum)[:2]
        return ln_c + a * math.log(n) - self.ln_eps

    def distance(self, quantum: str, n: int, year: float) -> int:
        return 2 * self._rounds(self.ln_tcount(quantum, n), year) - 1

    def ln_quantum_seconds(self, quantum: str, n: int, year: float) -> float:
        ln_t = self.ln_tcount(quantum, n)
        if self.surface:
            ln_rate = self.ln_rate0 - math.log(2 * self._rounds(ln_t, year) - 1)
        else:
            ln_rate = self.year_terms(year)["ln_rate"]
        return self.law(quantum)[2] + ln_t - ln_rate

    def ln_classical_seconds(self, classical: str, n: int, year: float) -> float:
        ln_c, a, _, _, ln_beta = self.law(classical)
        return ln_c + a * math.log(n) + n * ln_beta - self.year_terms(year)["ln_flops"]

    def gap(self, classical: str, quantum: str, n: int, year: float) -> float:
        return self.ln_quantum_seconds(quantum, n, year) - self.ln_classical_seconds(classical, n, year)

    # -- envelope ------------------------------------------------------------
    def qubit_limited(self, quantum: str, year: float) -> int:
        qc = self.law(quantum)[3]
        yt = self.year_terms(year)
        if self.surface:
            physical = math.exp(yt["ln_phys"])

            def fits(n):
                d = self.distance(quantum, n, year)
                return qc * n <= physical / (2.0 * d * d)

            # Start the gallop where the supply at the hint's own code
            # distance runs out; two rounds settle the distance.
            hint = 1
            for _ in range(2):
                d = self.distance(quantum, hint, year)
                hint = max(1, min(SIZE_CAP, int(physical / (2.0 * d * d * qc))))
            return largest_true(fits, hint=hint)
        supply = math.exp(yt["ln_phys"] - yt["ln_ratio"])
        return largest_true(lambda n: qc * n <= supply, hint=supply / qc)

    def deadline_limited(self, quantum: str, year: float) -> int:
        ln_deadline = math.log(self.s["deadline_s"])

        def fits(n):
            return self.ln_quantum_seconds(quantum, n, year) <= ln_deadline

        # At a fixed code distance ln seconds grows as a ln n, so the
        # gallop starts at the real-valued root: exact in simple mode, and
        # two rounds settle the distance in surface-code mode.
        a = self.law(quantum)[1]
        hint = 1
        for _ in range(2 if self.surface else 1):
            slack = ln_deadline - self.ln_quantum_seconds(quantum, hint, year)
            hint = _exp_size(math.log(hint) + slack / a) if a > 0 else 1
        return largest_true(fits, hint=hint)

    def envelope(self, quantum: str, year: float) -> tuple[int, int]:
        key = ("envelope", quantum, year)
        got = self._memo.get(key)
        if got is None:
            got = (self.qubit_limited(quantum, year), self.deadline_limited(quantum, year))
            self._memo[key] = got
        return got

    # -- thresholds ----------------------------------------------------------
    def pieces(self, quantum: str, year: float, n_max: int) -> list[tuple[int, int]]:
        """Intervals [lo, hi] of n, covering [1, n_max], over which the
        code distance and so the shape of the gap stay fixed.  One
        interval in simple mode."""
        if not self.surface:
            return [(1, n_max)]
        key = ("pieces", quantum, year, n_max)
        got = self._memo.get(key)
        if got is not None:
            return got
        ln_c, a = self.law(quantum)[:2]
        ln_ratio = self.year_terms(year)["ln_p_over_pth"]
        got = []
        lo = 1
        while lo <= n_max:
            m = self._rounds(self.ln_tcount(quantum, lo), year)
            # Largest T-count that m rounds still cover, as a size.
            ln_t_max = self.ln_budget + LOG_SLACK - self.ln_a - m * ln_ratio
            hint = _exp_size((ln_t_max - ln_c + self.ln_eps) / a) if a > 0 else n_max
            hi = largest_true(
                lambda n: self._rounds(self.ln_tcount(quantum, n), year) <= m,
                hint=max(hint, lo),
                cap=n_max,
            )
            got.append((lo, hi))
            lo = hi + 1
        self._memo[key] = got
        return got

    def threshold_exists(self, classical: str, quantum: str, year: float) -> bool:
        """Whether quantum is ever at least as cheap, at any real N >= 1."""
        if self.gap(classical, quantum, 1, year) <= 0:
            return True
        if self.law(classical)[4] > self.law(quantum)[4]:
            return True
        return self.law(quantum)[1] < self.law(classical)[1]

    def smallest_advantageous(self, classical: str, quantum: str, year: float, n_max: int = SIZE_CAP):
        """Smallest integer n in [1, n_max] with quantum seconds <= classical
        seconds, or None.  Within one code-distance interval the gap is
        monotone or rises then falls, so it is lowest at an end."""

        def adv(n):
            return self.gap(classical, quantum, n, year) <= 0

        for lo, hi in self.pieces(quantum, year, n_max):
            if adv(lo):
                return lo
            if adv(hi):
                return first_true(adv, lo, hi)
        return None

    # -- verdicts ------------------------------------------------------------
    def verdict(self, classical: str, quantum: str) -> tuple[int | str, str]:
        """(verdict, binding constraint) as README.md defines them."""
        last_block = None
        any_threshold = False
        for year in range(self.s["start_year"], self.s["horizon"] + 1):
            exists = self.threshold_exists(classical, quantum, year)
            qn, dn = self.envelope(quantum, year)
            if exists:
                any_threshold = True
                max_n = min(qn, dn)
                if max_n >= 1 and self.smallest_advantageous(classical, quantum, year, max_n) is not None:
                    return year, ("none" if last_block is None else _blocking(*last_block))
            last_block = (exists, qn, dn)
        if any_threshold:
            return "beyond-horizon", _blocking(*last_block)
        return "never", "qea"


def _exp_size(ln_n: float) -> int:
    """exp(ln_n) as a search hint, kept within the size cap."""
    return int(math.exp(min(ln_n, 35.0))) if ln_n > 0 else 1


def _blocking(exists: bool, qn: int, dn: int) -> str:
    if not exists:
        return "qea"
    return "qubits" if qn <= dn else "deadline"


def verdict_text(verdict, horizon: int) -> str:
    if verdict == "never":
        return "N/A"
    if verdict == "beyond-horizon":
        return f">{horizon}"
    return str(verdict)


def verdict_rank(text: str) -> float:
    """Order of rendered verdicts: years, then >HORIZON, then N/A."""
    if text == "N/A":
        return math.inf
    if text.startswith(">"):
        return int(text[1:]) + 0.5
    return float(text)

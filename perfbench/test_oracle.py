"""The oracle against values worked out by hand.

    python3 -m pytest perfbench -q

These tests build scenario field dicts directly and never import qea, so
they pin the oracle's model on its own.
"""

import math
import random

import pytest

from oracle import Model, code_distance, first_true, largest_true, ln_trend

SC = {"prefactor_a": 0.1, "threshold_error": 1e-2, "cycle_time_s": 1e-6,
      "cycles_per_t_gate": 10.0, "failure_budget": 1e-2}


def trend(base_year, base_value, factor):
    return {"base_year": base_year, "base_value": base_value, "annual_factor": factor}


def tuning(constant, exponent, fidelity=1.0, qubit_constant=None):
    return {"constant": constant, "exponent": exponent, "fidelity": fidelity, "qubit_constant": qubit_constant}


def fields(epsilon=1e-3, deadline_s=2_592_000.0, flops=(2025, 1e18, 1.4), tgate=(2025, 1e5, 1.0),
           physical=(2024, 1.1e3, 1.0), ratio=(2025, 1e3, 1.0), error=(2025, 1e-3, 0.9),
           mode="simple", start_year=2025, horizon=2050):
    algorithms = {name: tuning(1.0, a) for name, a in
                  [("DFT", 3.0), ("HF", 4.0), ("MP2", 5.0), ("CCSD", 6.0), ("CCSD(T)", 7.0), ("FCI", 0.0)]}
    algorithms.update({name: tuning(1.0, a, qubit_constant=10.0) for name, a in
                       [("qpe-n5", 5.0), ("qpe-n3", 3.0), ("qpe-n2", 2.0)]})
    return {
        "epsilon": epsilon, "deadline_s": deadline_s, "start_year": start_year, "horizon": horizon,
        "classical": {"flops_per_dollar_second": trend(*flops)},
        "quantum": {
            "mode": mode,
            "logical_tgates_per_dollar_second": trend(*tgate),
            "physical_qubits": trend(*physical),
            "physical_to_logical_ratio": trend(*ratio),
            "physical_error_rate": trend(*error),
            "sc_params": dict(SC),
        },
        "algorithms": algorithms,
    }


def test_ccsd_threshold_is_ten_to_the_thirteen_thirds():
    # 1e18 flops/$s against 1e5 T gates/$s: N^3 * 1e5^-1 = N^6 * 1e18^-1
    # at eps = 1, so N^3 = 1e13 and N = 10^(13/3) = 21544.35.
    model = Model(fields(epsilon=1.0, flops=(2025, 1e18, 1.0)))
    assert model.smallest_advantageous("CCSD", "qpe-n3", 2025) == math.ceil(10 ** (13 / 3)) == 21545
    assert model.gap("CCSD", "qpe-n3", 21545, 2025) <= 0 < model.gap("CCSD", "qpe-n3", 21544, 2025)


def test_code_distance_at_one_in_a_thousand_for_ten_billion_gates():
    # 0.1 * 1e10 * 0.1^m <= 0.01  =>  m >= 11, d = 2 * 11 - 1 = 21; the
    # budget is met exactly, and a tie meets it.
    assert code_distance(math.log(1e10), 1e-3, SC) == 21
    assert code_distance(math.log(1.0000001e10), 1e-3, SC) == 23


def test_deadline_limited_size():
    # N^3 / 1e-3 / 1e5 <= 2.592e6 s  =>  N^3 <= 2.592e8, N <= 637.6.
    assert Model(fields()).deadline_limited("qpe-n3", 2025) == 637


def test_qubit_limited_size():
    # 1.2345e6 physical / 1e3 per logical = 1234.5 logical, 10 per N.
    model = Model(fields(physical=(2030, 1.2345e6, 2.0)))
    assert model.qubit_limited("qpe-n3", 2030) == 123
    # One year on the supply doubles: 2469 logical.
    assert model.qubit_limited("qpe-n3", 2031) == 246


def test_surface_mode_rate_is_pinned_at_the_calibration_year():
    # At 2025 with p = 1e-3 the reference T-count needs d = 21, so a
    # workload that also needs d = 21 runs at the trend's 1e5 T gates/$s.
    model = Model(fields(mode="surface-code"))
    n = 1000  # T = 1e9 / 1e-3 = 1e12 needs m = 13, d = 25
    assert model.distance("qpe-n3", n, 2025) == 25
    expected = math.log(n ** 3 / 1e-3) - (math.log(1e5) + math.log(21) - math.log(25))
    assert model.ln_quantum_seconds("qpe-n3", n, 2025) == pytest.approx(expected, rel=1e-12)


def test_verdicts():
    # FCI (4^N) always overtakes, so a threshold exists every year, but a
    # flat 1100 physical qubits at 1e3 per logical qubit leave room for
    # no N at all: advantage never fits, and qubits bind.
    verdict = Model(fields()).verdict("FCI", "qpe-n3")
    assert verdict == ("beyond-horizon", "qubits")
    # Same growth on both sides: DFT (N^3) never loses to qpe-n3 (N^3/eps).
    assert Model(fields()).verdict("DFT", "qpe-n3") == ("never", "qea")
    # Plenty of qubits, time and a quantum machine 1e20x faster: advantage
    # from the first year, nothing ever blocked.
    rich = fields(tgate=(2025, 1e25, 1.0), physical=(2025, 1e12, 1.0))
    assert Model(rich).verdict("CCSD", "qpe-n3") == (2025, "none")


def test_robustness_multipliers_move_the_law():
    base, slower = Model(fields()), Model(fields(), quantum_time=10.0)
    assert slower.ln_quantum_seconds("qpe-n3", 50, 2030) == pytest.approx(
        base.ln_quantum_seconds("qpe-n3", 50, 2030) + math.log(10.0))
    assert Model(fields(physical=(2030, 1.2345e6, 2.0)), logical_qubits=0.1).qubit_limited("qpe-n3", 2030) == 1234


def test_ln_trend():
    assert ln_trend(trend(2025, 1e5, 2.0), 2027) == pytest.approx(math.log(4e5))


@pytest.mark.parametrize("seed", range(20))
def test_searches_match_a_scan(seed):
    rng = random.Random(seed)
    edge = rng.randrange(0, 3000)
    pred = lambda n: n <= edge
    assert largest_true(pred, hint=rng.randrange(1, 5000), cap=10**6) == edge
    assert largest_true(lambda n: True, hint=rng.randrange(1, 50), cap=777) == 777
    if edge >= 1:
        assert first_true(lambda n: n > edge // 2, 0, edge + 1) == edge // 2 + 1

"""Seeded inputs and the operations of each workload.

Every input is drawn from `random.Random` seeded with the workload name,
the run seed and a round number, so a seed fixes the inputs of every
round.  Scenarios are drawn from continuous ranges around the shipped
defaults, so none repeats, and exact analytic ties (a root landing on an
integer) do not occur.  Within a round the draws are stratified (a Latin
hypercube): each of the round's ops takes a different slice of every
range.  Op cost depends strongly on these parameters (a verdict that
comes early ends its year scan early), so stratifying makes the mix of
cheap and costly ops the same in every round, and a run's medians stop
depending on which seed it drew.

Operations call qea through module attributes (`qea.disruption_table`,
not a copy imported here), so a traced run that swaps those attributes
sees every call.
"""

from __future__ import annotations

import contextlib
import io
import os
import random

import qea

CLASSICAL = ["DFT", "HF", "MP2", "CCSD", "CCSD(T)", "FCI"]
QUANTUM = ["qpe-n3", "qpe-n2"]
ROBUSTNESS_CLASSICAL = ["HF", "MP2", "CCSD", "CCSDT", "FCI"]
CAL_PATHS = [
    "quantum.physical_qubit_trend.annual_factor",
    "quantum.logical_tgate_trend.annual_factor",
]
# Start ranges for the free factors.  From the default scenario, a start
# with a T-gate factor below 2.263 takes a second calibration pass, which
# doubles the op.  Over [1.7, 4] about a quarter of the ops do, so the
# median op lies well inside the one-pass mode.  Over [1, 4] it would be
# 42%, and the median would fall between the two modes and jump from run
# to run.
CAL_START = [(1.0, 4.0), (1.7, 4.0)]
CAL_ANCHORS = [("FCI", "qpe-n3", 2032), ("CCSDT", "qpe-n3", 2036)]
CAL_PREFER = ["high", "low"]


def rng_for(workload: str, seed: int, round_no: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{round_no}")


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10 ** rng.uniform(lo, hi)


def latin_hypercube(rng: random.Random, size: int, dims: int) -> list[list[float]]:
    """`size` points in [0, 1)^dims with one point in each of `size` equal
    slices of every axis."""
    columns = []
    for _ in range(dims):
        slices = list(range(size))
        rng.shuffle(slices)
        columns.append([(k + rng.random()) / size for k in slices])
    return [list(point) for point in zip(*columns)]


def _span(u: float, lo: float, hi: float) -> float:
    return lo + u * (hi - lo)


SCENARIO_DIMS = 9


def scenario_doc(u: list[float], surface: bool) -> dict:
    """A scenario file document near the shipped defaults, placed by
    `SCENARIO_DIMS` coordinates in [0, 1)."""
    quantum = {
        "logical_tgate_trend": {"annual_factor": _span(u[0], 2.3, 2.9)},
        "physical_qubit_trend": {"annual_factor": _span(u[1], 1.9, 2.5)},
        "ratio_trend": {"base_value": 10 ** _span(u[2], 2.5, 3.5)},
    }
    if surface:
        quantum["mode"] = "surface-code"
        quantum["physical_error_trend"] = {
            "base_value": 10 ** _span(u[3], -3.3, -2.7),
            "annual_factor": _span(u[4], 0.85, 0.95),
        }
    return {
        "epsilon": 10 ** _span(u[5], -4, -2),
        "deadline_s": 86400.0 * 10 ** _span(u[6], 0, 2),
        "classical": {"flops_trend": {"annual_factor": _span(u[7], 1.3, 1.5)}},
        "quantum": quantum,
        "overrides": {"qpe-n3": {"fidelity": _span(u[8], 0.3, 1.0)}},
    }


# ---------------------------------------------------------------------------
# report-simple, envelope-surface, calibrate: one scenario per op


class ReportSimple:
    name = "report-simple"
    round_size = 8
    surface = False

    def __init__(self, seed: int):
        self.seed = seed

    def inputs(self, round_no: int) -> list:
        rng = rng_for(self.name, self.seed, round_no)
        return [
            qea.scenario_from_dict(scenario_doc(u, self.surface))
            for u in latin_hypercube(rng, self.round_size, SCENARIO_DIMS)
        ]

    def run(self, scenario):
        table = qea.render_csv(qea.disruption_table(scenario, QUANTUM, CLASSICAL))
        robust = qea.render_csv(
            qea.robustness_table(scenario, qea.standard_variations(), "qpe-n3", ROBUSTNESS_CLASSICAL)
        )
        return table, robust


class EnvelopeSurface(ReportSimple):
    """Surface-code feasibility envelopes for both table columns over the
    whole scan window.  A surface-code disruption table is not used: its
    verdicts depend on a threshold-solver fault (CHANGES.md) on some
    seeds."""

    name = "envelope-surface"
    surface = True

    def run(self, scenario):
        rows = []
        for name in QUANTUM:
            spec = scenario.algorithm(name)
            for year in scenario.years():
                env = qea.feasibility_envelope(spec, year, scenario)
                rows.append((name, year, env.qubit_limited_n, env.deadline_limited_n, env.max_feasible_n))
        return rows


class Calibrate(ReportSimple):
    name = "calibrate"

    def inputs(self, round_no: int) -> list:
        """Start factors inside the calibration bounds [1, 4]."""
        starts = []
        for u in latin_hypercube(rng_for(self.name, self.seed, round_no), self.round_size, len(CAL_PATHS)):
            start = qea.default_scenario()
            for path, x, (lo, hi) in zip(CAL_PATHS, u, CAL_START):
                start = qea.scenario.set_param(start, path, _span(x, lo, hi))
            starts.append(start)
        return starts

    def run(self, start):
        return qea.calibrate(start, CAL_PATHS, CAL_ANCHORS, prefer=CAL_PREFER)


# ---------------------------------------------------------------------------
# cli: one round is a fixed mix of invocations


class CliInvocation:
    """One argv for `qea.cli.main`, with what its output is checked against."""

    __slots__ = ("argv", "kind", "expect_exit", "facts")

    def __init__(self, argv, kind, expect_exit=0, facts=None):
        self.argv = argv
        self.kind = kind
        self.expect_exit = expect_exit
        self.facts = facts or {}


class Cli:
    """Cheap subcommands over seeded scenario files.

    `threshold` and `feasible` (load a scenario, compute, digest, CSV) are
    18 of a round's 28 ops; the others cost a third to two thirds as much.
    The median op then lies well inside the costlier group rather than at
    the edge between the two.

    Two invocations fail every round, whatever the seed, because of
    faults logged in CHANGES.md: `feasible --year 2900` overflows in
    `ExponentialTrend.value`, and `table` over a fractional start_year
    raises TypeError in `Scenario.years`.  They stay in the mix and are
    counted as failed.
    """

    name = "cli"
    n_files = 6
    threshold_pairs = [
        ("FCI", "qpe-n3"), ("FCI", "qpe-n2"), ("CCSD", "qpe-n3"), ("CCSDT", "qpe-n3"),
        ("MP2", "qpe-n2"), ("CCSD", "qpe-n2"), ("CCSDT", "qpe-n2"), ("HF", "qpe-n2"),
    ]
    molecules = [
        ("Fe:7,Mo:1,S:9,C:1", "femoco-mixed"),
        ("C:6,H:14", "hydrocarbon-631g"),
        ("Fe:2,S:2,H:4", "femoco-mixed"),
    ]

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.files = []
        self.bad_file = os.path.join(workdir, "fractional-start-year.json")

    def write_files(self) -> None:
        """Seeded scenario files, written through `qea.dump_scenario`."""
        points = latin_hypercube(rng_for(self.name, self.seed, -1), self.n_files, SCENARIO_DIMS)
        for i, u in enumerate(points):
            scenario = qea.scenario_from_dict(scenario_doc(u, surface=False))
            path = os.path.join(self.workdir, f"scenario-{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(qea.dump_scenario(scenario))
            self.files.append(path)
        with open(self.bad_file, "w", encoding="utf-8") as fh:
            fh.write('{"start_year": 2025.5}\n')

    def inputs(self, round_no: int) -> list:
        rng = rng_for(self.name, self.seed, round_no)
        ops = []
        for _ in range(10):
            classical, quantum = rng.choice(self.threshold_pairs)
            f = rng.randrange(self.n_files)
            year = round(rng.uniform(2025, 2050), 2)
            argv = ["threshold", "--scenario", self.files[f], "--classical", classical,
                    "--quantum", quantum, "--year", repr(year), "--format", "csv"]
            no_eps = rng.random() < 0.25
            if no_eps:
                argv.append("--no-epsilon")
            ops.append(CliInvocation(argv, "threshold", facts={
                "file": f, "classical": classical, "quantum": quantum, "year": year, "no_epsilon": no_eps}))
        for _ in range(8):
            quantum = rng.choice(QUANTUM)
            f = rng.randrange(self.n_files)
            year = round(rng.uniform(2025, 2050), 2)
            argv = ["feasible", "--scenario", self.files[f], "--quantum", quantum,
                    "--year", repr(year), "--format", "csv"]
            ops.append(CliInvocation(argv, "feasible", facts={"file": f, "quantum": quantum, "year": year}))
        for _ in range(2):
            t, p, n, e = rng.uniform(10, 1e4), _log_uniform(rng, 12, 16), rng.randrange(50, 2000), rng.choice([4.0, 5.0, 6.0, 7.0])
            argv = ["constant", "--time-s", repr(t), "--peak-flops", repr(p), "--n", str(n),
                    "--exponent", repr(e), "--format", "csv"]
            ops.append(CliInvocation(argv, "constant", facts={"time_s": t, "peak": p, "n": n, "exponent": e}))
        for _ in range(2):
            n, e, eps = rng.randrange(10, 500), rng.choice([2.0, 3.0, 5.0]), _log_uniform(rng, -4, -1)
            argv = ["tgates", "--n", str(n), "--exponent", repr(e), "--epsilon", repr(eps), "--format", "csv"]
            ops.append(CliInvocation(argv, "tgates", facts={"n": n, "exponent": e, "epsilon": eps}))
        molecule, heuristic = rng.choice(self.molecules)
        ops.append(CliInvocation(["convert", "--molecule", molecule, "--heuristic", heuristic], "convert-molecule",
                                 facts={"molecule": molecule, "heuristic": heuristic}))
        bf, ratio = rng.uniform(50, 2000), rng.uniform(2, 20)
        ops.append(CliInvocation(["convert", "--basis-functions", repr(bf), "--ratio", repr(ratio)], "convert-atoms",
                                 facts={"basis_functions": bf, "ratio": ratio}))
        # A validation error (exit 3) and a usage error (exit 2).
        ops.append(CliInvocation(["threshold", "--scenario", self.files[rng.randrange(self.n_files)],
                                  "--classical", "CCSD(Q)", "--quantum", "qpe-n3", "--year", "2030"],
                                 "unknown-method", expect_exit=3))
        ops.append(CliInvocation(["feasible", "--quantum", "qpe-n3"], "missing-option", expect_exit=2))
        # The two known faults, identical in every round.
        ops.append(CliInvocation(["feasible", "--quantum", "qpe-n3", "--year", "2900"], "fault-overflow"))
        ops.append(CliInvocation(["table", "--scenario", self.bad_file, "--format", "csv"], "fault-start-year"))
        return ops

    @staticmethod
    def run(inv: CliInvocation):
        """(exit code, stdout, stderr); an exception escaping main()
        is returned as its type name in place of an exit code."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = qea.cli.main(list(inv.argv))
            except Exception as exc:  # a traceback with exit 1 in a real shell
                code = type(exc).__name__
        return code, out.getvalue(), err.getvalue()


WORKLOADS = {w.name: w for w in (ReportSimple, EnvelopeSurface, Calibrate, Cli)}

"""Reference figures for README.md.

    python3 perfbench/reference.py baselines
    python3 perfbench/reference.py drift --seconds 60

`baselines` re-measures the five single-operation baselines (best of 5,
in-process, default scenario): the 6x2 disruption table, the same table
in surface-code mode, the stock robustness table, an FCI/qpe-n3 curve over
2025-2050, and `calibrate` from a perturbed start.

`drift` runs the default 6x2 table back to back, with the reference loop
after each, and prints raw op time and op time over reference-loop time
for each 40-op window: how far each drifts is what `op_norm_p50` is for.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(1, HERE)

import qea  # noqa: E402

from run import reference_loop  # noqa: E402
from workloads import CAL_ANCHORS, CAL_PATHS, CAL_PREFER, CLASSICAL, QUANTUM, ROBUSTNESS_CLASSICAL  # noqa: E402


def best_ms(fn, repeat: int = 5) -> float:
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times) * 1e3


def baselines() -> None:
    s = qea.default_scenario()
    surface = dataclasses.replace(s, quantum=dataclasses.replace(s.quantum, mode="surface-code"))
    start = qea.scenario.set_param(qea.scenario.set_param(s, CAL_PATHS[0], 2.0), CAL_PATHS[1], 2.8)
    cases = {
        "default 6x2 table": lambda: qea.disruption_table(s, QUANTUM, CLASSICAL),
        "surface-code 6x2 table": lambda: qea.disruption_table(surface, QUANTUM, CLASSICAL),
        "stock robustness table": lambda: qea.robustness_table(
            s, qea.standard_variations(), "qpe-n3", ROBUSTNESS_CLASSICAL),
        "FCI/qpe-n3 curve 2025-2050": lambda: qea.qea_curve_series(s, "FCI", "qpe-n3", 2025, 2050),
        "calibrate (perturbed start)": lambda: qea.calibrate(start, CAL_PATHS, CAL_ANCHORS, prefer=CAL_PREFER),
    }
    for name, fn in cases.items():
        print(f"{name:30} {best_ms(fn):8.1f} ms")


def drift(seconds: float) -> None:
    s = qea.default_scenario()
    raw, norm = [], []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        start = time.perf_counter()
        qea.render_csv(qea.disruption_table(s, QUANTUM, CLASSICAL))
        mid = time.perf_counter()
        reference_loop()
        stop = time.perf_counter()
        raw.append((mid - start) * 1e3)
        norm.append((mid - start) / (stop - mid))
    window = 40
    raw_w = [statistics.median(raw[i:i + window]) for i in range(0, len(raw) - window + 1, window)]
    norm_w = [statistics.median(norm[i:i + window]) for i in range(0, len(norm) - window + 1, window)]
    print(f"{len(raw)} ops in {seconds:g} s, {len(raw_w)} windows of {window}")
    print(f"raw op ms, window medians:     min {min(raw_w):.2f}  max {max(raw_w):.2f}  "
          f"max/min {max(raw_w) / min(raw_w):.3f}")
    print(f"op / reference, window medians: min {min(norm_w):.3f}  max {max(norm_w):.3f}  "
          f"max/min {max(norm_w) / min(norm_w):.3f}")


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="what", required=True)
    sub.add_parser("baselines")
    d = sub.add_parser("drift")
    d.add_argument("--seconds", type=float, default=60.0)
    args = p.parse_args()
    if args.what == "baselines":
        baselines()
    else:
        drift(args.seconds)


if __name__ == "__main__":
    main()

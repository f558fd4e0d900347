"""Repeat runs across seeds and report how steady each metric is.

    python3 perfbench/steadiness.py --seed-base 1000 --tag a
    python3 perfbench/steadiness.py --seed-base 2000 --tag b --compare perfbench/out/steadiness-a.json
    python3 perfbench/steadiness.py --trace-twice --seed-base 7

Runs `run.py` with ten seeds, one run at a time, for each workload named
in BENCHMARK.json.  For every end-to-end metric it prints the
median and the spread, (Q3 - Q1) / median with quartiles as
`statistics.quantiles(values, n=4)` gives them, next to the metric's bound
and a third of it.  --compare prints how far each median moved from an
earlier set, as a share of the earlier median.  --trace-twice makes two
traced runs per workload with one seed and checks that every `.calls`
value agrees.  Summaries go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    for line in proc.stderr.splitlines():
        if line.startswith("perfbench: raw "):
            result["raw"] = json.loads(line[len("perfbench: raw "):])
    return result


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed-base", type=int, default=1000)
    p.add_argument("--tag", default="latest")
    p.add_argument("--compare", help="summary JSON of an earlier set")
    p.add_argument("--trace-twice", action="store_true")
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)

    if args.trace_twice:
        for w in workloads:
            a, b = (run_once(w, args.seed_base, seconds, 1) for _ in range(2))
            calls = [k for k in a["metrics"] if k.endswith(".calls")]
            differ = [k for k in calls if a["metrics"][k]["value"] != b["metrics"][k]["value"]]
            print(f"{w}: {len(calls)} call counts, {len(differ)} differ {differ}")
        return

    summary = {}
    for w in workloads:
        runs = []
        for i in range(RUNS):
            start = time.perf_counter()
            r = run_once(w, args.seed_base + i, seconds, 0)
            runs.append(r)
            print(f"{w} seed {args.seed_base + i}: correct={r['correct']} attempted={r['attempted']} "
                  f"failed={r['failed']} in {time.perf_counter() - start:.1f} s", flush=True)
        metrics = {}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            metrics[name] = {"median": median, "spread": (q3 - q1) / median, "values": values}
        raw = {}
        for name in runs[0].get("raw", {}):
            values = [r["raw"][name] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            raw[name] = {"median": statistics.median(values), "spread": (q3 - q1) / statistics.median(values),
                         "values": values}
        summary[w] = {
            "metrics": metrics,
            "raw": raw,
            "correct": all(r["correct"] for r in runs),
            "failed_share": sorted({r["failed"] / r["attempted"] for r in runs}),
            "attempted": [r["attempted"] for r in runs],
        }
    path = os.path.join(HERE, "out", f"steadiness-{args.tag}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)

    before = None
    if args.compare:
        with open(args.compare, encoding="utf-8") as fh:
            before = json.load(fh)
    print(f"\n{'workload':14} {'metric':12} {'median':>12} {'spread':>8} {'bound/3':>8}"
          + (f" {'moved':>8}" if before else ""))
    for w, s in summary.items():
        for name, m in s["metrics"].items():
            flag = "" if m["spread"] < bounds[name] / 3 else "  <-- wide"
            line = f"{w:14} {name:12} {m['median']:12.5g} {m['spread']:8.4f} {bounds[name] / 3:8.4f}"
            if before and w in before:
                old = before[w]["metrics"][name]["median"]
                line += f" {(m['median'] - old) / old:+8.4f}"
            print(line + flag)
        for name, m in s["raw"].items():
            print(f"{w:14} {name:12} {m['median']:12.5g} {m['spread']:8.4f}   (raw, not gated)")
        print(f"{w:14} correct={s['correct']} failed share {s['failed_share']} attempted {s['attempted']}")
    print(f"\nsummary: {path}")


if __name__ == "__main__":
    main()

"""qea benchmark: one workload, one process, one thread, a closed loop.

    python3 perfbench/run.py --workload report-simple --seed 1 --seconds 22 --trace 0

Run from the root of a source checkout; qea is imported from ./src.  The
last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, the
per-layer ones with --trace 1.  Every op's output is checked against the
independent oracle after the timed window.  See README.md.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
# Set-up probes, each paired with a reference set-up probe run right after
# it.  setup_s is the median over pairs of (set-up time) / (reference
# set-up time), scaled to seconds at a nominal 60 ms per reference set-up:
# raw set-up time drifts with the machine as op time does (README.md).
SETUP_PAIRS = 15
REF_SETUP_NOMINAL_S = 0.06
# An op's time is divided by the median reference-loop time of the ops
# within this many places of it.  One 1-ms loop is a noisy yardstick, and
# dividing by it alone puts its noise into the tail (README.md).
REF_WINDOW = 4


def reference_loop() -> float:
    """Fixed pure-Python work, about 1 ms here, timed after every op of
    the table workloads so an op's time can be read in units of this
    loop.  It mixes what qea's hot paths do: float math, calls, attribute
    and dict access."""
    acc = 0.0
    table = {}
    for i in range(1, 2400):
        x = math.log(i) * 0.5 + _step(acc, i)
        acc += math.exp(-x)
        table[i & 31] = acc
    return acc + len(table)


def _step(acc: float, i: int) -> float:
    return (acc * 1e-3 + i) % 7.0


def text_reference_loop() -> int:
    """The `cli` workload's reference: fixed pure-Python text work, about
    1 ms here.  A `cli` op is mostly string handling, JSON, hashing and
    CSV writing, and it does not speed up or slow down with the float
    loop above as closely as with this one (README.md)."""
    acc = 0
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\r\n")
    for i in range(60):
        text = json.dumps({"name": f"m{i}", "value": i * 1.5, "flag": i & 1 == 0, "items": [i, i + 1]},
                          sort_keys=True)
        acc += len(hashlib.sha256(text.encode()).hexdigest())
        back = json.loads(text)
        writer.writerow([back["name"], f"{back['value']:.6g}", back["flag"]])
        acc += len(text.split(",")) + len(out.getvalue()) % 7
    return acc


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=["report-simple", "envelope-surface", "calibrate", "cli"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_probe(*args: str) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"), *args],
                          capture_output=True, text=True, timeout=60, cwd=ROOT)
    if proc.returncode != 0:
        fail(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_setup_probes(workload: str, seed: int) -> list[dict]:
    """One dict per pair: the set-up probe's figures plus `ref_setup_s`."""
    results = []
    for _ in range(SETUP_PAIRS):
        workdir = tempfile.mkdtemp(prefix="probe-", dir=OUT_DIR)
        try:
            probe = run_probe(workload, str(seed), workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        probe["ref_setup_s"] = run_probe("reference")["setup_s"]
        results.append(probe)
    return results


class Spool:
    """Op outputs go to a file during the timed window, so the memory the
    benchmark holds does not grow with the number of ops."""

    def __init__(self, path: str):
        self.path = path
        self.fh = open(path, "w", encoding="utf-8")

    def add(self, record) -> None:
        self.fh.write(json.dumps(record) + "\n")

    def read(self):
        self.fh.close()
        with open(self.path, encoding="utf-8") as fh:
            for line in fh:
                yield json.loads(line)


def main(argv=None) -> None:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qea", "__init__.py")):
        fail(f"no qea source under {os.path.join(ROOT, 'src')}; run from a qea checkout")
    os.makedirs(OUT_DIR, exist_ok=True)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(1, HERE)

    probes = run_setup_probes(args.workload, args.seed)

    import qea  # noqa: F401

    if args.workload == "cli":
        import qea.cli  # noqa: F401
    import checks
    import workloads

    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    spool = Spool(os.path.join(workdir, "outputs.jsonl"))
    try:
        if args.workload == "cli":
            wl = workloads.Cli(args.seed, workdir)
            wl.write_files()
        else:
            wl = workloads.WORKLOADS[args.workload](args.seed)
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer(len(wl.inputs(0)))
            tracer.install()
        result = measure(args, wl, spool, tracer, checks.fields_of)
        result.update(verify(args, wl, spool, result["rounds"]))
    finally:
        spool.fh.close()
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = tracer.metrics(result["attempted"])
        metrics["traced.op_ms_p50"] = (statistics.median(result["op_s"]) * 1e3, "ms")
        metrics["import.qea.ms"] = (statistics.median(p["import_qea_s"] for p in probes) * 1e3, "ms")
        metrics["import.qea_cli.ms"] = (statistics.median(p["import_qea_cli_s"] for p in probes) * 1e3, "ms")
        tracer.write(
            os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json"),
            {"workload": args.workload, "seed": args.seed,
             "metrics": {k: v for k, (v, _) in metrics.items()}},
        )
    else:
        op_s = result["op_s"]
        ref_s = result["ref_s"]
        norm = [t / statistics.median(ref_s[max(0, i - REF_WINDOW):i + REF_WINDOW + 1]) for i, t in enumerate(op_s)]
        metrics = {
            "setup_s": (statistics.median(p["setup_s"] / p["ref_setup_s"] for p in probes) * REF_SETUP_NOMINAL_S, "s"),
            "op_norm_p50": (statistics.median(norm), "ref"),
            "op_norm_p90": (p90(norm), "ref"),
            "ops_per_kref": (1000.0 * len(norm) / sum(norm), "1/kref"),
            "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
        }
        # Raw wall time drifts too much on a shared machine to gate on
        # (README.md, "Why the gated times are normalised"); it is
        # reported here for reading, not in the result.
        raw = {"op_ms_p50": statistics.median(op_s) * 1e3, "op_ms_p90": p90(op_s) * 1e3,
               "ops_per_s": len(op_s) / sum(op_s), "ref_ms_p50": statistics.median(ref_s) * 1e3,
               "setup_s": statistics.median(p["setup_s"] for p in probes)}
        print(f"perfbench: raw {json.dumps(raw)}", file=sys.stderr)
    for message in result["errors"][:10]:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def measure(args, wl, spool: Spool, tracer, fields_of) -> dict:
    """The timed window: whole rounds until --seconds have passed (and,
    traced, until the counted ops are done)."""
    op_s, ref_s = [], []
    failed = 0
    min_ops = tracer.count_ops if tracer else 1
    reference = text_reference_loop if args.workload == "cli" else reference_loop
    inputs = wl.inputs(0)
    rounds = 0
    clock = time.perf_counter
    window_start = clock()
    while True:
        for item in inputs:
            if tracer:
                tracer.begin_op(len(op_s))
            start = clock()
            try:
                out = wl.run(item)
            except Exception as exc:
                out = exc
            end = clock()
            if tracer:
                tracer.end_op()
            reference()
            ref_end = clock()
            op_s.append(end - start)
            ref_s.append(ref_end - end)
            if isinstance(out, Exception):
                failed += 1
                spool.add({"exception": type(out).__name__, "message": str(out)})
            elif args.workload == "cli":
                failed += not isinstance(out[0], int) or out[0] not in (0, 2, 3, 4)
                spool.add(out)
            elif args.workload == "calibrate":
                spool.add(fields_of(out))
            else:
                spool.add(out)
        rounds += 1
        if clock() - window_start >= args.seconds and len(op_s) >= min_ops:
            break
        inputs = wl.inputs(rounds)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"op_s": op_s, "ref_s": ref_s, "attempted": len(op_s), "failed": failed,
            "rounds": rounds, "peak_rss_kb": peak_kb}


def verify(args, wl, spool: Spool, rounds: int) -> dict:
    """Check every op's output; runs after the window and its RSS reading."""
    import qea

    import checks
    import workloads

    errors = []
    digests = checks.DigestBook()
    outputs = spool.read()
    cli_scenarios = None
    if args.workload == "cli":
        cli_scenarios = [checks.fields_of(qea.load_scenario(path)) for path in wl.files]
    for round_no in range(rounds):
        for op_no, item in enumerate(wl.inputs(round_no)):
            out = next(outputs)
            try:
                if isinstance(out, dict) and "exception" in out:
                    # Only the cli's two known faults may fail.
                    checks.require(args.workload == "cli" and item.kind.startswith("fault-"),
                                   f"round {round_no} op {op_no} raised {out['exception']}: {out['message']}")
                    continue
                key = (round_no, op_no)
                if args.workload == "report-simple":
                    fields = checks.fields_of(item)
                    digests.see(key, qea.scenario_digest(item))
                    digests.see(key, checks.check_disruption_csv(out[0], fields, workloads.CLASSICAL, workloads.QUANTUM))
                    digests.see(key, checks.check_robustness_csv(out[1], fields, "qpe-n3", workloads.ROBUSTNESS_CLASSICAL))
                elif args.workload == "envelope-surface":
                    checks.check_envelopes(out, checks.fields_of(item), workloads.QUANTUM)
                elif args.workload == "calibrate":
                    checks.check_calibrated(out, checks.fields_of(item), workloads.CAL_ANCHORS)
                else:
                    code, stdout, stderr = out
                    if isinstance(code, int) and code in (0, 2, 3, 4):
                        checks.check_cli(item, code, stdout, stderr, cli_scenarios, digests)
                    else:
                        checks.require(item.kind.startswith("fault-"), f"{item.argv} raised {code}")
            except checks.CheckFailed as exc:
                errors.append(f"round {round_no} op {op_no}: {exc}")
    return {"errors": errors}


if __name__ == "__main__":
    main()

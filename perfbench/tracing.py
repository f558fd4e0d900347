"""Per-layer tracing from outside the program.

`Tracer.install` swaps each boundary function for a timing wrapper in
every loaded qea module that holds it (so `qea.first_advantage_year`,
`qea.advantage.first_advantage_year` and `qea.report.first_advantage_year`
are all wrapped), and wraps methods on their class.  Only calls made
while an op runs are counted.

For each boundary the tracer keeps a call count and self time, the
span's duration minus the time its child spans cover.  Spans (name,
start, end, parent, op id) are kept in memory for the first op only,
since the innermost boundaries run some 10^5 times per op, and are
written out when the run ends.
"""

from __future__ import annotations

import json
import sys
import time

import qea
import qea.advantage
import qea.catalog
import qea.report
import qea.scenario

# Metric name -> where the function lives (module, attribute path).
BOUNDARIES = {
    "report.disruption_table": [("qea.report", "disruption_table")],
    "report.robustness_table": [("qea.report", "robustness_table")],
    "report.render": [("qea.report", f) for f in ("render_csv", "render_text", "curve_csv", "curve_text")],
    "advantage.first_advantage_year": [("qea.advantage", "first_advantage_year")],
    "advantage.feasibility_envelope": [("qea.advantage", "feasibility_envelope")],
    "advantage.qubit_limited_size": [("qea.advantage", "qubit_limited_size")],
    "advantage.deadline_limited_size": [("qea.advantage", "deadline_limited_size")],
    "advantage.qea_threshold": [("qea.advantage", "qea_threshold")],
    "cost.log_quantum_seconds": [("qea.cost", "log_quantum_seconds")],
    "cost.log_classical_seconds": [("qea.cost", "log_classical_seconds")],
    "hardware.available_logical_qubits": [("qea.hardware", "available_logical_qubits")],
    "catalog.ComplexityModel.log_value": [("qea.catalog", "ComplexityModel.log_value")],
    "scenario.Scenario.algorithm": [("qea.scenario", "Scenario.algorithm")],
    "scenario.set_param": [("qea.scenario", "set_param")],
    "scenario.apply_variation": [("qea.scenario", "apply_variation")],
    "scenario.calibrate": [("qea.scenario", "calibrate")],
    "scenario.load_scenario": [("qea.scenario", "load_scenario")],
    "scenario.scenario_digest": [("qea.scenario", "scenario_digest")],
    "cli.main": [("qea.cli", "main")],
    "cli._scalar": [("qea.cli", "_scalar")],
}
ENVELOPE = "advantage.feasibility_envelope"
SPAN_LIMIT = 100_000


class Tracer:
    def __init__(self, count_ops: int):
        self.count_ops = count_ops  # calls are counted over this many first ops
        self.calls = dict.fromkeys(BOUNDARIES, 0)
        self.self_s = dict.fromkeys(BOUNDARIES, 0.0)
        self.distinct_envelopes = 0
        self.spans = []
        self.op = -1
        self._stack = []  # [span id, child seconds]
        self._next_id = 0
        self._op_envelopes = set()

    # -- ops ---------------------------------------------------------------
    def begin_op(self, op: int) -> None:
        self.op = op
        self._op_envelopes = set()
        self._stack.append([self._new_id(), 0.0])
        self._op_start = time.perf_counter()

    def end_op(self) -> None:
        end = time.perf_counter()
        span_id, _ = self._stack.pop()
        if self.op == 0:
            self.spans.append(("op", self._op_start, end, None, self.op, span_id))
        if self.op < self.count_ops:
            self.distinct_envelopes += len(self._op_envelopes)

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    # -- wrapping ------------------------------------------------------------
    def _wrap(self, name: str, fn):
        stack, calls, self_s, spans = self._stack, self.calls, self.self_s, self.spans
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if not stack:  # outside an op: input generation or checks
                return fn(*args, **kwargs)
            frame = [tracer._new_id(), 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[name] += duration - frame[1]
                stack[-1][1] += duration
                if tracer.op < tracer.count_ops:
                    calls[name] += 1
                    if name == ENVELOPE:
                        quantum, year, scenario = args
                        tracer._op_envelopes.add(
                            (quantum, year, scenario.quantum, scenario.epsilon, scenario.deadline_s)
                        )
                if tracer.op == 0 and len(spans) < SPAN_LIMIT:
                    spans.append((name, start, end, stack[-1][0], tracer.op, frame[0]))

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if (n == "qea" or n.startswith("qea.")) and m is not None]
        for name, places in BOUNDARIES.items():
            for module_name, attr in places:
                module = sys.modules.get(module_name)
                if module is None:  # qea.cli outside the cli workload
                    continue
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(module, cls_name)
                    setattr(cls, method, self._wrap(name, getattr(cls, method)))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

    # -- results -------------------------------------------------------------
    def metrics(self, ops: int) -> dict:
        counted = min(ops, self.count_ops)
        out = {}
        for name in BOUNDARIES:
            out[f"{name}.calls"] = (self.calls[name] / counted, "count")
            out[f"{name}.self_ms"] = (self.self_s[name] * 1e3 / ops, "ms")
        calls = self.calls[ENVELOPE]
        out[f"{ENVELOPE}.distinct_ratio"] = (self.distinct_envelopes / calls if calls else 0.0, "ratio")
        return out

    def write(self, path: str, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    **meta,
                    "span_fields": ["name", "start_s", "end_s", "parent", "op", "id"],
                    "spans": self.spans,
                },
                fh,
            )

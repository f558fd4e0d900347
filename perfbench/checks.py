"""Output checks: the oracle's verdicts, sizes and thresholds, plus the
format and property checks that need no oracle.

Each check raises CheckFailed with a message naming the op.  Nothing here
compares against a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import math
import re

from oracle import Model, SIZE_CAP, SNAP_LIMIT, canonical, verdict_rank, verdict_text

DIGEST_LINE = re.compile(r"# scenario sha256=([0-9a-f]{64})\r\n")
# Two log-runtimes closer than this are a tie the float arithmetic of
# engine and oracle may settle either way.
TIE = 1e-9

# Orbitals per atom (README's basis heuristics).
HEURISTICS = {
    "femoco-mixed": {"Fe": 22, "Mo": 22, "S": 13, "C": 9, "H": 2},
    "hydrocarbon-631g": {"C": 9, "H": 2},
}
# How each stock robustness column may move a verdict against baseline.
DIRECTIONS = {"logical=0.1": "not later", "quantum_time=10": "not earlier", "classical_time=0.001": "not earlier"}
VARIATIONS = {
    "logical=0.1": {"logical_qubits": 0.1},
    "quantum_time=10": {"quantum_time": 10.0},
    "classical_time=0.001": {"classical_time": 1e-3},
}


class CheckFailed(Exception):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def parse_csv(text: str, header: list[str]) -> tuple[str, list[list[str]]]:
    """(digest, rows) of an RFC 4180 document that starts with the digest
    comment line and uses CRLF line ends throughout."""
    m = DIGEST_LINE.match(text)
    require(m is not None, f"no '# scenario sha256=<64 hex>' CRLF first line: {text[:80]!r}")
    body = text[m.end():]
    require(body.endswith("\r\n") and "\n" not in body.replace("\r\n", ""), "line ends are not all CRLF")
    try:
        rows = list(csv.reader(io.StringIO(body, newline=""), strict=True))
    except csv.Error as exc:
        raise CheckFailed(f"not RFC 4180: {exc}") from None
    require(rows and rows[0] == header, f"header {rows[:1]} != {header}")
    require(all(len(r) == len(header) for r in rows[1:]), "ragged CSV rows")
    return m.group(1), rows[1:]


# ---------------------------------------------------------------------------
# Tables


def check_disruption_csv(text: str, fields: dict, classical: list[str], quantum: list[str]) -> str:
    digest, rows = parse_csv(text, ["classical", "quantum", "verdict", "binding_constraint"])
    expected = [(canonical(c), q) for c in classical for q in quantum]
    require([(r[0], r[1]) for r in rows] == expected, "table rows are not the requested grid")
    model = Model(fields)
    for c, q, verdict, binding in rows:
        want, want_binding = model.verdict(c, q)
        want = verdict_text(want, fields["horizon"])
        require((verdict, binding) == (want, want_binding),
                f"{c}/{q}: engine {verdict},{binding} oracle {want},{want_binding}")
    return digest


def check_robustness_csv(text: str, fields: dict, quantum: str, classical: list[str]) -> str:
    digest, rows = parse_csv(text, ["classical", "quantum", "variation", "verdict", "binding_constraint"])
    columns = ["baseline", *VARIATIONS]
    require([(r[0], r[2]) for r in rows] == [(canonical(c), v) for c in classical for v in columns],
            "robustness rows are not the requested grid")
    models = {"baseline": Model(fields)}
    models.update({name: Model(fields, **mult) for name, mult in VARIATIONS.items()})
    by_row = {}
    for c, q, column, verdict, binding in rows:
        require(q == quantum, f"robustness quantum column {q} != {quantum}")
        want, want_binding = models[column].verdict(c, q)
        want = verdict_text(want, fields["horizon"])
        require((verdict, binding) == (want, want_binding),
                f"{c}/{q}/{column}: engine {verdict},{binding} oracle {want},{want_binding}")
        by_row.setdefault(c, {})[column] = verdict_rank(verdict)
    for c, ranks in by_row.items():
        for column, direction in DIRECTIONS.items():
            moved = ranks[column] - ranks["baseline"]
            require(moved >= 0 if direction == "not earlier" else moved <= 0,
                    f"{c}: {column} moved the verdict the wrong way")
    return digest


class DigestBook:
    """Same scenario, same digest; different scenarios, different digests."""

    def __init__(self):
        self.by_key = {}
        self.by_digest = {}

    def see(self, key, digest: str) -> None:
        require(self.by_key.setdefault(key, digest) == digest, f"scenario {key} gave two digests")
        require(self.by_digest.setdefault(digest, key) == key, f"scenarios {key} and {self.by_digest[digest]} share a digest")


def check_envelopes(rows: list, fields: dict, quantum: list[str]) -> None:
    model = Model(fields)
    years = range(fields["start_year"], fields["horizon"] + 1)
    require([(r[0], r[1]) for r in rows] == [(q, y) for q in quantum for y in years],
            "envelope rows are not every (quantum, year)")
    for q, year, qn, dn, max_n in rows:
        want = model.envelope(q, year)
        require((qn, dn) == want, f"{q}@{year}: engine sizes {qn},{dn} oracle {want[0]},{want[1]}")
        require(max_n == min(qn, dn), "max_feasible_n is not the smaller limit")


# ---------------------------------------------------------------------------
# Calibration

CAL_FREE = {("quantum", "physical_qubits"), ("quantum", "logical_tgates_per_dollar_second")}


def check_calibrated(result: dict, start: dict, anchors) -> None:
    model = Model(result)
    for classical, quantum, year in anchors:
        got = model.verdict(classical, quantum)[0]
        require(got == year, f"calibrated {classical}/{quantum} lands on {got}, not {year}")
    for platform, trend in CAL_FREE:
        factor = result[platform][trend]["annual_factor"]
        require(1.0 <= factor <= 4.0, f"{trend} factor {factor} outside [1, 4]")
    # Every field but the two free factors is unchanged.
    strip = lambda d: {k: v for k, v in d.items() if k != "annual_factor"}
    for key, value in start.items():
        if key in ("classical", "quantum"):
            for sub, sub_value in value.items():
                if (key, sub) in CAL_FREE:
                    require(strip(result[key][sub]) == strip(sub_value), f"calibrate changed {key}.{sub}")
                else:
                    require(result[key][sub] == sub_value, f"calibrate changed {key}.{sub}")
        else:
            require(result[key] == value, f"calibrate changed {key}")


# ---------------------------------------------------------------------------
# CLI


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12)


def check_threshold(value: str, fields: dict, classical: str, quantum: str, year: float) -> None:
    model = Model(fields)
    if value == "":
        require(not model.threshold_exists(classical, quantum, year), "engine says never, oracle finds a threshold")
        return
    engine = math.ceil(float(value))
    k = model.smallest_advantageous(classical, quantum, year)
    if k is None:
        require(model.threshold_exists(classical, quantum, year) and engine > SIZE_CAP,
                f"engine threshold {value}, oracle finds none up to {SIZE_CAP}")
    elif float(value) > SNAP_LIMIT:
        require(abs(engine - k) <= 1e-6 * k, f"engine threshold {value}, oracle {k}")
    elif engine != k:
        tie = abs(engine - k) == 1 and abs(model.gap(classical, quantum, min(engine, k), year)) <= TIE
        require(tie, f"engine threshold {value} (ceil {engine}), oracle {k}")


def check_envelope(row: list[str], fields: dict, quantum: str, year: float) -> None:
    qn, dn, max_n = (int(x) for x in row[1:])
    want_q, want_d = Model(fields).envelope(quantum, year)
    require((qn, dn) == (want_q, want_d), f"{quantum}@{year}: engine sizes {qn},{dn} oracle {want_q},{want_d}")
    require(max_n == min(qn, dn), "max_feasible_n is not the smaller limit")


def check_cli(inv, code, out: str, err: str, scenarios: list[dict], digests: DigestBook) -> None:
    """Check one invocation that ended in an exit code."""
    kind, f = inv.kind, inv.facts
    if kind in ("fault-overflow", "fault-start-year"):
        # Reached only once the fault is fixed: a typed error, or a result.
        if code != 0:
            require(code in (2, 3) and "error" in err.lower(), f"{kind}: exit {code} without an error message")
        elif kind == "fault-overflow":
            _, rows = parse_csv(out, ["year", "qubit_limited_n", "deadline_limited_n", "max_feasible_n"])
        return
    require(code == inv.expect_exit, f"{inv.argv}: exit {code}, expected {inv.expect_exit}; stderr {err[-200:]!r}")
    if code != 0:
        require(out == "" and err.strip() != "", f"{kind}: exit {code} should print only to stderr")
        return
    if kind == "threshold":
        digest, rows = parse_csv(out, ["classical", "quantum", "year", "threshold_n"])
        fields = scenarios[f["file"]]
        if f["no_epsilon"]:
            fields = dict(fields, epsilon=1.0)
        digests.see(("file", f["file"], f["no_epsilon"]), digest)
        require(len(rows) == 1 and rows[0][:3] == [f["classical"], f["quantum"], repr(f["year"])], f"bad row {rows}")
        check_threshold(rows[0][3], fields, f["classical"], f["quantum"], f["year"])
    elif kind == "feasible":
        digest, rows = parse_csv(out, ["year", "qubit_limited_n", "deadline_limited_n", "max_feasible_n"])
        digests.see(("file", f["file"], False), digest)
        require(len(rows) == 1 and rows[0][0] == repr(f["year"]), f"bad row {rows}")
        check_envelope(rows[0], scenarios[f["file"]], f["quantum"], f["year"])
    elif kind == "constant":
        digest, rows = parse_csv(out, ["constant"])
        digests.see("default", digest)
        want = f["time_s"] * f["peak"] / float(f["n"]) ** f["exponent"]
        require(_close(float(rows[0][0]), want), f"constant {rows[0][0]} != {want!r}")
    elif kind == "tgates":
        digest, rows = parse_csv(out, ["t_gates"])
        digests.see("default", digest)
        want = float(f["n"]) ** f["exponent"] / f["epsilon"]
        require(_close(float(rows[0][0]), want), f"t_gates {rows[0][0]} != {want!r}")
    elif kind == "convert-molecule":
        table = HEURISTICS[f["heuristic"]]
        atoms = {}
        for chunk in f["molecule"].split(","):
            element, count = chunk.split(":")
            atoms[element] = int(count)
        orbitals = sum(n * table[e] for e, n in atoms.items())
        ratio = format(orbitals / sum(atoms.values()), ".6g")
        require(out == f"orbitals: {orbitals}\norbital_to_atom_ratio: {ratio}\n", f"convert printed {out!r}")
    elif kind == "convert-atoms":
        want = format(f["basis_functions"] / f["ratio"], ".6g")
        require(out == f"atoms: {want}\n", f"convert printed {out!r}")
    else:
        raise CheckFailed(f"unknown invocation kind {kind}")


def fields_of(scenario) -> dict:
    return dataclasses.asdict(scenario)

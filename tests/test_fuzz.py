"""Schema-driven scenario fuzzer: every scenario file, however extreme
its values, ends each CLI command in a result or a typed error (exit
0, 2, 3 or 4), never in a traceback or a hang; and a file holding a
non-finite number, or an integer past float range, is a load error
(exit 3)."""

import json
import math
import os
import tempfile

from hypothesis import HealthCheck, example, given, settings, strategies as st

from qea import builtin_catalog, default_scenario, scenario_to_dict
from qea.cli import main
from qea.scenario import _SCHEMA

CATALOG = builtin_catalog()
CLASSICAL = sorted(name for name, spec in CATALOG.items() if spec.kind == "classical")
QUANTUM = sorted(name for name, spec in CATALOG.items() if spec.kind == "quantum")
# JSON integers are exact, so 10**400 reaches the loader as an int past
# float range.
EXTREMES = [0, -1, 1e-300, 1e300, 1e30, 1e308, float("inf"), float("-inf"), float("nan"), 10**400, -(10**400)]


SHIPPED = scenario_to_dict(default_scenario())


def _leaves(section, path=()):
    """(file keys, shipped value) for every numeric leaf of the schema,
    with one overrides.<method> section per catalog method."""
    for key in section.fields:
        if key != "mode":  # drawn separately: half the files use surface-code mode
            value = SHIPPED
            for part in path + (key,):
                value = value[part]
            yield path + (key,), value
    for key, sub in section.sections.items():
        if sub.per_method is None:
            yield from _leaves(sub, path + (key,))
            continue
        for name in sorted(CATALOG):
            for field, (attr, _) in sub.per_method.fields.items():
                typical = getattr(default_scenario().algorithms[name], attr)
                yield (key, name, field), 1.0 if typical is None else typical


LEAVES = list(_leaves(_SCHEMA))


@st.composite
def scenario_docs(draw):
    doc = {"quantum": {"mode": draw(st.sampled_from(["simple", "surface-code"]))}}
    for path, typical in draw(st.lists(st.sampled_from(LEAVES), min_size=1, max_size=4, unique=True)):
        node = doc
        for part in path[:-1]:
            node = node.setdefault(part, {})
        # The shipped value half the time, so runs get past the loader.
        node[path[-1]] = draw(st.one_of(st.just(typical), st.sampled_from(EXTREMES)))
    return doc


def non_finite(doc: dict) -> bool:
    """Whether the document holds a number no float can hold."""
    return any(
        non_finite(v) if isinstance(v, dict)
        else isinstance(v, float) and not math.isfinite(v) or isinstance(v, int) and abs(v) > 1e308
        for v in doc.values()
    )


def commands(classical: str, quantum: str) -> list[list[str]]:
    pair = ["--classical", classical, "--quantum", quantum]
    return [
        ["table"],
        ["robustness", "--quantum", quantum],
        ["feasible", "--quantum", quantum, "--year", "2030"],
        ["threshold", *pair, "--year", "2030"],
        ["curve", *pair, "--to", "2030"],
    ]


# Each fault this fuzzer found, pinned: an infinite surface-code
# field (OverflowError, or a silent ">2050" in every cell), a code
# distance past float resolution (a hang), a threshold bracket
# starting past float range (OverflowError), and JSON integers past float
# range (OverflowError, or a table from a constant no float holds).
@example({"quantum": {"mode": "surface-code", "surface_code": {"A": float("inf")}}}, "FCI", "qpe-n3")
@example({"quantum": {"mode": "surface-code", "surface_code": {"cycle_time_s": float("inf")}}}, "FCI", "qpe-n3")
@example({"quantum": {"mode": "surface-code"}, "overrides": {"qpe-n3": {"exponent": 1e30}}}, "FCI", "qpe-n3")
@example({"overrides": {"qpe-n2": {"exponent": 1.5e308}}}, "FCI", "qpe-n2")
@example({"quantum": {"mode": "surface-code"}, "overrides": {"qpe-n2": {"exponent": 1e308}}}, "FCI", "qpe-n2")
@example({"classical": {"flops_trend": {"base_year": 10**400}}}, "FCI", "qpe-n3")
@example({"overrides": {"qpe-n3": {"constant": 10**400}}}, "FCI", "qpe-n3")
@given(scenario_docs(), st.sampled_from(CLASSICAL), st.sampled_from(QUANTUM))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cli_ends_in_a_result_or_a_typed_error(capsys, doc, classical, quantum):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenario.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        allowed = (3,) if non_finite(doc) else (0, 2, 3, 4)
        for argv in commands(classical, quantum):
            code = main([*argv, "--scenario", path])
            capsys.readouterr()
            assert code in allowed, (argv, doc)

"""Golden CLI outputs: the sha256 of canonical runs on the default scenario.

Performance work on the solvers must leave every output byte as it was.
These digests pin the outputs that the tables, curves, thresholds and
calibration produce today, in simple mode and, for a table, the stock
robustness table and an FCI curve, on surface-code hardware; a change
that moves any float by one ulp changes a digest.  The surface-code
outputs were checked cell by cell against perfbench/oracle.py when
recorded.
The CSV digest line is the sha256 of the scenario's canonical dump, so
the custom-scenario case also pins the file format's dump bytes.

To re-record after a deliberate model change, print the digests with
`python tests/test_golden.py` from a source checkout and say why in
CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
import tempfile

import pytest

from qea.cli import main
from qea.scenario import default_scenario, scenario_to_dict

# Calibration starts from the shipped scenario with both calibrated
# factors moved away from their fitted values.
PERTURBED_START = {"physical_qubit_trend": 1.7, "logical_tgate_trend": 3.3}
SCENARIO = "<perturbed-scenario>"

# A non-default simple-mode file that sets every section: all five
# trends (int and fractional base_years, an int base_value), the
# surface_code block, every top-level scalar, and all four override
# fields, on a classical method through its alias and on a quantum one.
CUSTOM_SCENARIO = "<custom-scenario>"
CUSTOM_DOC = {
    "epsilon": 0.002,
    "deadline_s": 604800.0,
    "start_year": 2026,
    "horizon": 2060,
    "classical": {"flops_trend": {"base_year": 2024, "base_value": 3.3e17, "annual_factor": 1.37}},
    "quantum": {
        "mode": "simple",
        "logical_tgate_trend": {"base_year": 2025, "base_value": 2.0e5, "annual_factor": 2.2},
        "physical_qubit_trend": {"base_year": 2024, "base_value": 1500, "annual_factor": 2.0},
        "ratio_trend": {"base_year": 2025.5, "base_value": 800.0, "annual_factor": 0.97},
        "physical_error_trend": {"base_year": 2025, "base_value": 5e-4, "annual_factor": 0.92},
        "surface_code": {"A": 0.08, "p_th": 0.011, "cycle_time_s": 5e-7, "cycles_per_t": 12, "failure_budget": 0.005},
    },
    "overrides": {
        "CCSDT": {"constant": 1.67, "exponent": 6.5},
        "qpe-n3": {"constant": 2.5, "exponent": 2.9, "fidelity": 0.8, "qubit_constant": 12.0},
    },
}

# The shipped scenario on surface-code hardware: the code distance, and
# with it the gate time and qubit ratio, steps with each workload's T-count.
SURFACE_SCENARIO = "<surface-scenario>"

CASES = {
    "table-csv": ["table", "--format", "csv"],
    "table-text": ["table"],
    "robustness-csv": ["robustness", "--format", "csv"],
    "robustness-text": ["robustness"],
    # A custom variation list: one quantum-side and one classical-side
    # column, against a quantum method other than the default.
    "robustness-vary-csv": [
        "robustness", "--vary", "logical=3", "--vary", "classical_time=2", "--quantum", "qpe-n2", "--format", "csv",
    ],
    "robustness-vary-text": ["robustness", "--vary", "logical=3", "--vary", "classical_time=2", "--quantum", "qpe-n2"],
    # Catalog-only methods and a_q > a_c pairs (qpe-n5 against DMRG,
    # VMC, DFT, HF, MP2), whose advantage can start at N = 1.
    "surface-curve-fci-n3": "de831471c1031988d1681bcded4fab8c8d46f2c601bf2fa0adb1ec39cdd4d9d6",
    "surface-robustness-csv": "8b368bdf986e43f674fa51e16fdc96c4fc03ed2200315b6ff15d9f3116c02516",
    "surface-table-csv": "07d4d7aa59db9fd7bfe412a134fd3da1a30f85aaa5706220be3c89874a82d4b0",
    "table-catalog-csv": [
        "table", "--classical", "DMRG,VMC,DFT,HF,MP2,CCSDT,FCI", "--quantum", "qpe-n5,qpe-n3,qpe-n2",
        "--format", "csv",
    ],
    "robustness-qpe-n5-csv": ["robustness", "--quantum", "qpe-n5", "--classical", "DMRG,VMC,DFT,MP2,FCI", "--format", "csv"],
    "curve-fci-n3": ["curve", "--classical", "FCI", "--quantum", "qpe-n3", "--step", "0.25", "--format", "csv"],
    "curve-ccsdt-n2": ["curve", "--classical", "CCSDT", "--quantum", "qpe-n2", "--step", "0.25", "--format", "csv"],
    **{
        f"threshold-fci-{quantum}-{year}": [
            "threshold", "--classical", "FCI", "--quantum", quantum, "--year", year, "--format", "csv",
        ]
        for quantum in ("qpe-n3", "qpe-n2")
        for year in ("2027.5", "2033.25", "2041.75")
    },
    "threshold-custom-scenario": [
        "threshold", "--scenario", CUSTOM_SCENARIO, "--classical", "CCSDT", "--quantum", "qpe-n3",
        "--year", "2040", "--format", "csv",
    ],
    "surface-table-csv": ["table", "--scenario", SURFACE_SCENARIO, "--format", "csv"],
    "surface-robustness-csv": ["robustness", "--scenario", SURFACE_SCENARIO, "--format", "csv"],
    "surface-curve-fci-n3": [
        "curve", "--scenario", SURFACE_SCENARIO, "--classical", "FCI", "--quantum", "qpe-n3", "--step", "0.25",
        "--format", "csv",
    ],
    "calibrate-perturbed": [
        "calibrate", "--scenario", SCENARIO,
        "--anchor", "FCI:qpe-n3:2032", "--anchor", "CCSDT:qpe-n3:2036",
        "--free", "quantum.physical_qubit_trend.annual_factor",
        "--free", "quantum.logical_tgate_trend.annual_factor",
        "--prefer", "high", "--prefer", "low",
    ],
}

GOLDEN = {
    "calibrate-perturbed": "ddfb14f17b327e609c32c1ad7b735c0befb90b95581216f1a2ea95d2fc82e3b5",
    "curve-ccsdt-n2": "b3804773fa2d3746bcf02f987eaf96144bcbfa7699ef4b9772ed7bb7facb5e5e",
    "curve-fci-n3": "0b9b238011384d4a86539a82c6800b347969af6ed974f58ad09d3a00467a480f",
    "robustness-csv": "dc002441c54c4e1c13ddc24d75b0c952fa5827abbbadb073242acf0d0c6a4240",
    "robustness-text": "641615d0092b89ae599207e5e0445ba9e0aa22ffab6e3378f3e229c712ea9c58",
    "robustness-vary-csv": "01b1b61244bad7124c0a11bd933dd42c67b6131982e082c37a88dcfbc5982520",
    "robustness-vary-text": "9a45408b7f3266986ca41c05883b895ad07412877a1d15baee4dc40b13a7f48a",
    "robustness-qpe-n5-csv": "f2f8b3256a30651e7529d2430ad9a1e282779a10a3bd79825ec3da9f95ccd794",
    "surface-curve-fci-n3": "de831471c1031988d1681bcded4fab8c8d46f2c601bf2fa0adb1ec39cdd4d9d6",
    "surface-robustness-csv": "8b368bdf986e43f674fa51e16fdc96c4fc03ed2200315b6ff15d9f3116c02516",
    "surface-table-csv": "07d4d7aa59db9fd7bfe412a134fd3da1a30f85aaa5706220be3c89874a82d4b0",
    "table-catalog-csv": "717641ec2508df189a75c2bb7c5c097415ad7c6ba8cbe604fbce81fc1f320e83",
    "table-csv": "97ead809bf097ac2304657e83868d635d3b2e73eb4faad090ee6b63b00a6af78",
    "table-text": "7c933d6d40c1f30881f7131dcd802fd7de6206c6bf7f355c4725ef974b602567",
    "threshold-custom-scenario": "4861e6e6d5d56d022960973bea4530dd0a9a1c637a6b747c3534b24e9cfef27f",
    "threshold-fci-qpe-n2-2027.5": "86baa99dd12f8b84bc9d36fd15ba89305c36b8567f41c74d585e8309aef0a000",
    "threshold-fci-qpe-n2-2033.25": "30119b676649a81d416399858542992bbf7f69f6954aadf8873330e384f99841",
    "threshold-fci-qpe-n2-2041.75": "670b3fbff521ca083f1039a7c3c5feda2f4718e8a6dfd4b2507cdc56daa1d819",
    "threshold-fci-qpe-n3-2027.5": "8740aa9d151d136847f8fd7222b1c4fd64a075a8e5d2d99513b26c4ed4827a1f",
    "threshold-fci-qpe-n3-2033.25": "967d6c41aea26b5b3514c779324c1802791dbb93d7dce81230b528d3cad61cf2",
    "threshold-fci-qpe-n3-2041.75": "440c1ef3887699d01ab03dcc1b05afc33bc279a3f0c3cb141de9a8c32f54880d",
}


def _perturbed_scenario_file(directory: pathlib.Path) -> str:
    doc = scenario_to_dict(default_scenario())
    for trend, factor in PERTURBED_START.items():
        doc["quantum"][trend]["annual_factor"] = factor
    path = directory / "perturbed.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _custom_scenario_file(directory: pathlib.Path) -> str:
    path = directory / "custom.json"
    path.write_text(json.dumps(CUSTOM_DOC), encoding="utf-8")
    return str(path)


def _surface_scenario_file(directory: pathlib.Path) -> str:
    doc = scenario_to_dict(default_scenario())
    doc["quantum"]["mode"] = "surface-code"
    path = directory / "surface.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


SCENARIO_FILES = {
    SCENARIO: _perturbed_scenario_file,
    CUSTOM_SCENARIO: _custom_scenario_file,
    SURFACE_SCENARIO: _surface_scenario_file,
}


def _stdout_sha256(name: str, directory: pathlib.Path) -> str:
    argv = [SCENARIO_FILES[arg](directory) if arg in SCENARIO_FILES else arg for arg in CASES[name]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, name
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_unchanged(name, tmp_path):
    assert _stdout_sha256(name, tmp_path) == GOLDEN[name]


if __name__ == "__main__":  # print the digests of the current tree
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            print(f'    "{name}": "{_stdout_sha256(name, pathlib.Path(tmp))}",')

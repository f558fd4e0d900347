"""End-to-end CLI behavior: output shapes, exit codes, streams."""

import json
import math
import re
import sys

import pytest

from qea.cli import cli, main
from qea.scenario import (
    DEFAULT_EPSILON,
    DEFAULT_HORIZON,
    DEFAULT_START_YEAR,
    default_scenario,
    dump_scenario,
    scenario_from_dict,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTable:
    def test_default_grid_text(self, capsys):
        code, out, _ = run(capsys, "table")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("# scenario sha256=")
        assert lines[1].split() == ["classical", "qpe-n3", "qpe-n2"]
        assert len(lines) == 8  # digest + header + 6 classical rows
        fci_row = [l for l in lines if l.startswith("FCI")][0]
        assert "2032" in fci_row
        dft_row = [l for l in lines if l.startswith("DFT")][0]
        assert "N/A" in dft_row

    def test_ccsdt_alias(self, capsys):
        code, out, _ = run(capsys, "table", "--classical", "CCSDT", "--quantum", "qpe-n3")
        assert code == 0
        assert "CCSD(T)" in out

    def test_csv_stdout_and_file_identical(self, capsys, tmp_path):
        code, out, _ = run(capsys, "table", "--format", "csv")
        assert code == 0
        target = tmp_path / "table.csv"
        code2 = main(["table", "--format", "csv", "--out", str(target)])
        capsys.readouterr()
        assert code2 == 0
        assert target.read_bytes().decode("utf-8") == out
        assert "\r\n" in out

    def test_unknown_method_exit_3(self, capsys):
        code, _, err = run(capsys, "table", "--classical", "HF9")
        assert code == 3
        assert "HF9" in err


class TestScalars:
    def test_threshold_no_epsilon(self, capsys):
        code, out, _ = run(
            capsys, "threshold", "--classical", "CCSD", "--quantum", "qpe-n3",
            "--year", "2025", "--no-epsilon",
        )
        assert code == 0
        assert out.strip() == "21544.3"

    def test_threshold_csv_full_precision(self, capsys):
        code, out, _ = run(
            capsys, "threshold", "--classical", "CCSD", "--quantum", "qpe-n3",
            "--year", "2025", "--no-epsilon", "--format", "csv",
        )
        assert code == 0
        lines = out.split("\r\n")
        assert lines[1] == "classical,quantum,year,threshold_n"
        value = float(lines[2].split(",")[-1])
        assert value == pytest.approx(10 ** (13 / 3), rel=1e-9)

    def test_threshold_never(self, capsys):
        code, out, _ = run(
            capsys, "threshold", "--classical", "DFT", "--quantum", "qpe-n3", "--year", "2025"
        )
        assert code == 0
        assert out.strip() == "never"

    def test_feasible(self, capsys):
        code, out, _ = run(capsys, "feasible", "--quantum", "qpe-n3", "--year", "2025")
        assert code == 0
        assert "deadline_limited_n: 637" in out

    def test_constant_example(self, capsys):
        code, out, _ = run(
            capsys, "constant", "--time-s", "960", "--peak-flops", "9.8e13",
            "--n", "966", "--exponent", "6",
        )
        assert code == 0
        assert float(out.strip()) == pytest.approx(0.12, abs=0.01)

    def test_tgates_example(self, capsys):
        code, out, _ = run(capsys, "tgates", "--n", "192", "--exponent", "5")
        assert code == 0
        assert float(out.strip()) == pytest.approx(2.6e14, rel=0.02)

    @pytest.mark.parametrize("command", [["threshold", "--classical", "CCSD"], ["feasible"]])
    @pytest.mark.parametrize("year", ["nan", "inf", "-inf"])
    def test_non_finite_year_exit_3(self, capsys, command, year):
        code, out, err = run(capsys, *command, "--quantum", "qpe-n3", "--year", year)
        assert code == 3
        assert out == "" and "year must be finite" in err

    def test_feasible_far_year_exit_3(self, capsys):
        code, out, err = run(capsys, "feasible", "--quantum", "qpe-n3", "--year", "2900")
        assert code == 3
        assert out == "" and "float range in year 2900" in err

    @pytest.mark.parametrize("command", [["threshold", "--classical", "CCSD"], ["feasible"]])
    def test_far_past_year_exit_3(self, capsys, command):
        code, out, err = run(capsys, *command, "--quantum", "qpe-n3", "--year", "1000")
        assert code == 3
        assert out == "" and "float range in year 1000" in err

    def test_backward_year_warning(self, capsys):
        code, out, err = run(
            capsys, "threshold", "--classical", "CCSD", "--quantum", "qpe-n3", "--year", "2020"
        )
        assert code == 0
        assert "warning" in err


class TestCurveAndRobustness:
    def test_curve_csv(self, capsys):
        code, out, _ = run(
            capsys, "curve", "--classical", "FCI", "--quantum", "qpe-n3",
            "--from", "2030", "--to", "2035", "--step", "1", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().split("\r\n")
        assert lines[1].startswith("year,threshold_n")
        assert len(lines) == 2 + 6

    def test_robustness_default_columns(self, capsys):
        code, out, _ = run(capsys, "robustness", "--classical", "FCI")
        assert code == 0
        header = out.split("\n")[1]
        assert "baseline" in header and "logical=0.1" in header

    def test_robustness_custom_vary(self, capsys):
        code, out, _ = run(
            capsys, "robustness", "--classical", "FCI", "--vary", "quantum_time=10"
        )
        assert code == 0
        assert "quantum_time=10" in out

    def test_bad_vary_key(self, capsys):
        code, _, err = run(capsys, "robustness", "--vary", "transmogrify=2")
        assert code == 3
        assert "transmogrify" in err

    def test_vary_product_past_float_range_exit_3(self, capsys):
        # DMRG's constant times 1e300 is infinite, which no tuning accepts.
        code, out, err = run(capsys, "robustness", "--classical", "DMRG", "--vary", "classical_time=1e300")
        assert code == 3
        assert out == "" and "finite" in err

    def test_curve_too_many_points_exit_3(self, capsys):
        # The second span overflows to inf, which the point count once floored.
        for span in [["--step", "1e-7"], ["--from", "-1e308", "--to", "1e308", "--step", "1e308"]]:
            code, out, err = run(capsys, "curve", "--classical", "FCI", "--quantum", "qpe-n3", *span)
            assert code == 3
            assert out == "" and "points" in err


class TestConvert:
    def test_molecule(self, capsys):
        code, out, _ = run(
            capsys, "convert", "--molecule", "Fe:7,Mo:1,S:9,C:1", "--heuristic", "femoco-mixed"
        )
        assert code == 0
        assert "orbitals: 302" in out
        assert "16.7778" in out

    def test_atoms(self, capsys):
        code, out, _ = run(capsys, "convert", "--basis-functions", "302", "--ratio", "16.7778")
        assert code == 0
        assert out.startswith("atoms: 18")

    def test_needs_arguments(self, capsys):
        code, _, err = run(capsys, "convert")
        assert code == 3


class TestScenarioHandling:
    def test_scenario_file_flag(self, capsys, tmp_path):
        s = scenario_from_dict({"epsilon": 1.0})
        path = tmp_path / "s.json"
        path.write_text(dump_scenario(s), encoding="utf-8")
        code, out, _ = run(
            capsys, "threshold", "--classical", "CCSD", "--quantum", "qpe-n3",
            "--year", "2025", "--scenario", str(path),
        )
        assert code == 0
        assert out.strip() == "21544.3"  # eps = 1 in the file

    def test_env_var_fallback(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "env.json"
        path.write_text(dump_scenario(scenario_from_dict({"epsilon": 1.0})), encoding="utf-8")
        monkeypatch.setenv("QEA_SCENARIO", str(path))
        code, out, _ = run(
            capsys, "threshold", "--classical", "CCSD", "--quantum", "qpe-n3", "--year", "2025"
        )
        assert code == 0
        assert out.strip() == "21544.3"

    def test_invalid_scenario_exit_3(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"bogus_key": 1}', encoding="utf-8")
        code, _, err = run(capsys, "table", "--scenario", str(path))
        assert code == 3
        assert "bogus_key" in err

    @pytest.mark.parametrize(
        "doc",
        [
            '{"start_year": 2025.5}',
            '{"deadline_s": Infinity}',
            # Used to end in OverflowError (exit 1).
            '{"quantum": {"mode": "surface-code", "surface_code": {"A": Infinity}}}',
            # JSON integers past float range: the first used to end in
            # OverflowError (exit 1), the second loaded and printed a table.
            '{"classical": {"flops_trend": {"base_year": 1%s}}}' % ("0" * 400),
            '{"overrides": {"qpe-n3": {"constant": 1%s}}}' % ("0" * 400),
            # Too many digits to parse at all: used to end in ValueError.
            '{"epsilon": 1%s}' % ("0" * 5000),
        ],
    )
    def test_bad_number_in_scenario_exit_3(self, capsys, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(doc, encoding="utf-8")
        code, out, err = run(capsys, "table", "--scenario", str(path), "--format", "csv")
        assert code == 3
        assert out == "" and "error" in err

    def test_nan_base_year_exit_3(self, capsys, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"classical": {"flops_trend": {"base_year": NaN}}}', encoding="utf-8")
        code, out, err = run(capsys, "table", "--scenario", str(path), "--format", "csv")
        assert code == 3
        assert out == "" and "classical.flops_trend.base_year" in err

    def test_far_horizon_table_exit_3(self, capsys, tmp_path):
        path = tmp_path / "far.json"
        path.write_text(
            json.dumps({"horizon": 3000, "quantum": {"logical_tgate_trend": {"annual_factor": 1.0}}}),
            encoding="utf-8",
        )
        code, out, err = run(capsys, "table", "--scenario", str(path), "--format", "csv")
        assert code == 3
        assert out == "" and "float range" in err

    def test_unbounded_scan_window_exit_3(self, capsys, tmp_path):
        # Flat trends never overflow, so only the window cap stops the scan.
        flat = {"annual_factor": 1.0}
        path = tmp_path / "wide.json"
        path.write_text(
            json.dumps({
                "horizon": 100000000,
                "classical": {"flops_trend": flat},
                "quantum": {"logical_tgate_trend": flat, "physical_qubit_trend": flat},
            }),
            encoding="utf-8",
        )
        code, out, err = run(capsys, "table", "--scenario", str(path), "--format", "csv")
        assert code == 3
        assert out == "" and "wider than 1000 years" in err

    def test_near_tie_exponents_exit_0(self, capsys, tmp_path):
        # The closed-form threshold root used to overflow math.exp here.
        path = tmp_path / "tie.json"
        path.write_text(json.dumps({"overrides": {"CCSD": {"exponent": 2.0000001}}}), encoding="utf-8")
        code, out, _ = run(
            capsys, "threshold", "--scenario", str(path), "--classical", "CCSD", "--quantum", "qpe-n2",
            "--year", "2030", "--format", "csv",
        )
        assert code == 0
        assert math.isfinite(float(out.splitlines()[-1].split(",")[-1]))
        code, out, _ = run(capsys, "table", "--scenario", str(path))
        assert code == 0
        rows = {line.split()[0]: line.split()[1:] for line in out.splitlines()[2:]}
        assert rows["CCSD"] == ["N/A", ">2050"]

    def test_surface_code_t_count_past_float_range_exit_0(self, capsys, tmp_path):
        # The qubit limit used to pass an infinite T-count to the code
        # distance, which ended in OverflowError.
        doc = {"quantum": {"mode": "surface-code"}, "overrides": {"qpe-n3": {"exponent": 40}}}
        path = tmp_path / "steep.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, _ = run(
            capsys, "feasible", "--scenario", str(path), "--quantum", "qpe-n3", "--year", "2060", "--format", "csv",
        )
        assert code == 0
        qubit_n, deadline_n, max_n = (int(v) for v in out.splitlines()[-1].split(",")[1:])
        assert max_n == min(qubit_n, deadline_n) >= 1
        # The qubit limit lies where the T-count is past float range.
        spec = scenario_from_dict(doc).algorithm("qpe-n3")
        assert spec.cost_law.log_value(qubit_n, 1e-3) > math.log(sys.float_info.max)
        path.write_text(json.dumps({**doc, "horizon": 2100}), encoding="utf-8")
        code, out, _ = run(capsys, "table", "--scenario", str(path))
        assert code == 0
        rows = {line.split()[0]: line.split()[1:] for line in out.splitlines()[2:]}
        assert rows["FCI"] == [">2100", "2030"]

    def test_non_finite_override_exit_3(self, capsys, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"overrides": {"CCSD": {"exponent": NaN}}}', encoding="utf-8")
        code, out, err = run(capsys, "table", "--scenario", str(path), "--format", "csv")
        assert code == 3
        assert out == "" and "overrides.CCSD.exponent" in err

    def test_usage_error_exit_2(self, capsys):
        code, _, _ = run(capsys, "threshold", "--classical", "CCSD")  # missing options
        assert code == 2

    def test_unknown_subcommand_exit_2(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    def test_no_arguments_shows_usage(self, capsys):
        code, _, _ = run(capsys)
        assert code == 2

    def test_version_flag(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0
        assert "0.1.0" in out

    def test_text_out_file_identical(self, capsys, tmp_path):
        code, out, _ = run(capsys, "table")
        target = tmp_path / "table.txt"
        assert main(["table", "--out", str(target)]) == 0
        capsys.readouterr()
        assert target.read_text(encoding="utf-8") == out

    def test_curve_text_mode(self, capsys):
        code, out, _ = run(
            capsys, "curve", "--classical", "DFT", "--quantum", "qpe-n3",
            "--from", "2025", "--to", "2026",
        )
        assert code == 0
        header = out.split("\n")[1]
        assert header.split()[:2] == ["year", "threshold_n"]
        assert out.split("\n")[2].split()[1] == "-"  # never-threshold sentinel


class TestCalibrateCommand:
    def test_single_coordinate_calibration(self, capsys, tmp_path):
        # Reset the qubit growth factor and recover it from the anchor.
        base = default_scenario()
        doc = json.loads(dump_scenario(base))
        doc["quantum"]["physical_qubit_trend"]["annual_factor"] = 1.0
        path = tmp_path / "base.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(
            capsys, "calibrate", "--scenario", str(path),
            "--anchor", "FCI:qpe-n3:2032",
            "--free", "quantum.physical_qubit_trend.annual_factor",
            "--prefer", "high",
        )
        assert code == 0
        calibrated = scenario_from_dict(json.loads(out))
        factor = calibrated.quantum.physical_qubits.annual_factor
        assert factor == pytest.approx(
            default_scenario().quantum.physical_qubits.annual_factor, abs=2e-4
        )
        assert "# scenario sha256=" in err

    def test_classical_growth_factor_calibrates(self, capsys):
        # The verdict rises with this factor; calibration used to report
        # the anchor infeasible (exit 4).
        code, out, _ = run(
            capsys, "calibrate",
            "--anchor", "CCSDT:qpe-n3:2038",
            "--free", "classical.flops_trend.annual_factor",
            "--prefer", "low",
        )
        assert code == 0
        calibrated = scenario_from_dict(json.loads(out))
        assert calibrated.classical.flops_per_dollar_second.annual_factor == 1.930999755859375

    @pytest.mark.parametrize("year", ["2032", "2031"])
    def test_bad_free_path_exit_3_whether_or_not_the_anchor_holds(self, capsys, year):
        # The default scenario already holds FCI:qpe-n3:2032, so no step
        # runs; the path is checked all the same.
        code, out, err = run(capsys, "calibrate", "--anchor", f"FCI:qpe-n3:{year}", "--free", "epsilon")
        assert code == 3
        assert out == "" and "unsupported parameter path 'epsilon'" in err

    def test_infeasible_exit_4(self, capsys):
        code, _, err = run(
            capsys, "calibrate",
            "--anchor", "DFT:qpe-n3:2030",
            "--free", "quantum.logical_tgate_trend.annual_factor",
        )
        assert code == 4
        assert "DFT:qpe-n3:2030" in err


# Each argv ended in a traceback (exit 1), or printed inf or nan with
# exit 0.  A non-finite flag value, intermediate or result is a
# validation error.
MENDED_ARGV = [
    ["curve", "--classical", "FCI", "--quantum", "qpe-n3", "--from", "-1e308", "--to", "1e308", "--step", "1e308"],
    ["curve", "--classical", "FCI", "--quantum", "qpe-n3", "--from", "-1e308", "--to", "1e308", "--step", "inf"],
    ["curve", "--classical", "FCI", "--quantum", "qpe-n3", "--from", "2025", "--to", "2030", "--step", "inf"],
    ["tgates", "--n", "10", "--exponent", "1e308"],
    ["tgates", "--n", "10", "--exponent", "1", "--epsilon", "1e-320"],
    ["tgates", "--n", "1" + "0" * 400, "--exponent", "0.5"],
    ["constant", "--time-s", "1", "--peak-flops", "1", "--n", "2", "--exponent", "1e308"],
    ["constant", "--time-s", "inf", "--peak-flops", "1", "--n", "2", "--exponent", "3"],
    ["constant", "--time-s", "1e200", "--peak-flops", "1e200", "--n", "2", "--exponent", "1"],
    ["convert", "--basis-functions", "1e308", "--ratio", "1e-308"],
    ["convert", "--basis-functions", "inf", "--ratio", "2"],
    ["constant", "--time-s", "1e-200", "--peak-flops", "1e-200", "--n", "2", "--exponent", "1"],
    ["convert", "--basis-functions", "1e-300", "--ratio", "1e300"],
    ["calibrate", "--anchor", "FCI:qpe-n3:1" + "0" * 400, "--free", "quantum.logical_tgate_trend.annual_factor"],
    ["calibrate", "--anchor", "FCI:qpe-n3:-1" + "0" * 400, "--free", "quantum.logical_tgate_trend.annual_factor"],
    ["calibrate", "--anchor", "FCI:qpe-n3:2032", "--free", "epsilon"],
    ["calibrate", "--anchor", "FCI:qpe-n3:2031", "--free", "epsilon"],
]


def _argv_id(argv):
    """The argv, each 1 followed by 19 or more zeros written as 1eK."""
    return re.sub(r"1(0{19,})", lambda m: f"1e{len(m.group(1))}", " ".join(argv))


@pytest.mark.parametrize("argv", MENDED_ARGV, ids=_argv_id)
def test_mended_argv_exit_3(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == "" and err.startswith(("error: ", "warning: ")) and "Traceback" not in err


FREE_TGATE = "quantum.logical_tgate_trend.annual_factor"


@pytest.mark.parametrize("argv, message", [
    (["robustness", "--vary", "logical"], "bad --vary 'logical', expected key=multiplier"),
    (["robustness", "--vary", "logical=lots"], "bad multiplier in --vary 'logical=lots'"),
    (["calibrate", "--anchor", "FCI:qpe-n3", "--free", FREE_TGATE], "expected CLASSICAL:QUANTUM:YEAR"),
    (["calibrate", "--anchor", "FCI:qpe-n3:2031.5", "--free", FREE_TGATE], "bad anchor year in 'FCI:qpe-n3:2031.5'"),
    (["convert", "--molecule", "C:1,H:4"], "--molecule needs --heuristic"),
    (["convert", "--basis-functions", "302"], "--basis-functions needs --ratio"),
])
def test_malformed_option_value_exit_3(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == "" and err.startswith("error: ") and message in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["feasible", "--quantum", "FCI", "--year", "2030"],
    ["curve", "--classical", "CCSD", "--quantum", "FCI"],
    ["threshold", "--classical", "CCSD", "--quantum", "FCI", "--year", "2030"],
    ["table", "--classical", "CCSD", "--quantum", "FCI"],
])
def test_classical_method_as_quantum_names_its_kind(capsys, argv):
    """FCI's cost law is exponential; its kind is what the error names."""
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == "" and "'FCI' is not a quantum method" in err


@pytest.mark.parametrize(
    "command, option, shown, value",
    [
        ("curve", "--from FLOAT", "2025.0", float(DEFAULT_START_YEAR)),
        ("curve", "--to FLOAT", "2050.0", float(DEFAULT_HORIZON)),
        ("tgates", "--epsilon FLOAT", "0.001", DEFAULT_EPSILON),
    ],
)
def test_option_default_is_the_engine_constant(capsys, command, option, shown, value):
    """The help text shows each default as before, and it is the
    scenario module's constant."""
    code, out, _ = run(capsys, command, "--help")
    assert code == 0
    assert re.search(rf"{re.escape(option)}\s+\[default: {re.escape(shown)}\]", out)
    param = next(p for p in cli.commands[command].params if p.opts[0] == option.split()[0])
    assert param.default == value == float(shown)

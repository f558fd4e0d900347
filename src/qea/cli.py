"""Command-line front end.

Subcommands:

  table       disruption years for classical x quantum method grids
  robustness  baseline plus what-if multiplier columns
  curve       per-year threshold and feasibility series for one pair
  threshold   crossover size for one pair in one year
  feasible    feasibility envelope for one quantum method in one year
  constant    flop-adjusted algorithmic constant from a benchmark
  tgates      naive T-count N^p / eps
  convert     orbital/atom conversions via basis heuristics
  calibrate   fit trend annual factors to disruption-year anchors

Data goes to stdout (or --out, byte-identical); diagnostics to stderr.
Exit codes: 0 ok, 2 usage, 3 scenario or validation error,
4 infeasible calibration.
"""

from __future__ import annotations

import dataclasses
import sys

import click

from . import __version__
from .catalog import CLASSICAL_TABLE_METHODS, QUANTUM_TABLE_METHODS
from .chem import (
    atoms_from_basis_functions,
    lookup_heuristic,
    orbital_count,
    orbital_to_atom_ratio,
    parse_molecule,
)
from .cost import flop_adjusted_constant, naive_t_gate_estimate
from .advantage import feasibility_envelope, qea_threshold
from .errors import CalibrationError, DomainError, QeaError
from .report import (
    _csv_rows,
    _digest_line,
    _text_number,
    curve_csv,
    curve_text,
    disruption_table,
    qea_curve_series,
    render_csv,
    render_text,
    robustness_table,
)
from .scenario import (
    DEFAULT_EPSILON,
    DEFAULT_HORIZON,
    DEFAULT_START_YEAR,
    Scenario,
    Variation,
    calibrate as run_calibration,
    default_scenario,
    dump_scenario,
    load_scenario,
    standard_variations,
)

_EXTRAPOLATION_FLOOR = 2024


def _scenario_option(func):
    return click.option(
        "--scenario",
        "scenario_path",
        type=click.Path(dir_okay=False),
        envvar="QEA_SCENARIO",
        default=None,
        help="Scenario file (JSON); defaults to the built-in scenario.",
    )(func)


def _format_option(func):
    return click.option(
        "--format",
        "fmt",
        type=click.Choice(["text", "csv"]),
        default="text",
        show_default=True,
        help="text: 6 significant figures; csv: full precision, RFC 4180.",
    )(func)


def _out_option(func):
    return click.option(
        "--out",
        type=click.Path(dir_okay=False, writable=True),
        default=None,
        help="Write output to a file instead of stdout (same bytes).",
    )(func)


def _get_scenario(scenario_path) -> Scenario:
    if scenario_path is None:
        return default_scenario()
    return load_scenario(scenario_path)


def _emit(payload: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(payload)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)


def _warn_backward(*years: float) -> None:
    if any(y < _EXTRAPOLATION_FLOOR for y in years):
        click.echo(
            f"warning: extrapolating trends backward before {_EXTRAPOLATION_FLOOR}",
            err=True,
        )


def _split_methods(raw: str) -> list[str]:
    return [item.strip() for item in raw.split(",") if item.strip()]


def _scalar(fmt: str, scenario: Scenario, header: list[str], row: list[str], text_value: str) -> str:
    if fmt == "text":
        return text_value + "\n"
    return _csv_rows(header, [row], scenario)


@click.group()
@click.version_option(version=__version__, prog_name="qea")
def cli():
    """Forecast when quantum hardware beats classical chemistry methods."""


@cli.command()
@_scenario_option
@click.option("--quantum", default=",".join(QUANTUM_TABLE_METHODS), show_default=True, help="Comma list of quantum methods.")
@click.option("--classical", default=",".join(m.replace("CCSD(T)", "CCSDT") for m in CLASSICAL_TABLE_METHODS), show_default=True, help="Comma list of classical methods.")
@_format_option
@_out_option
def table(scenario_path, quantum, classical, fmt, out):
    """Disruption table: first advantage year per method pair."""
    scenario = _get_scenario(scenario_path)
    tbl = disruption_table(scenario, _split_methods(quantum), _split_methods(classical))
    _emit(render_csv(tbl) if fmt == "csv" else render_text(tbl), out)


def _parse_variation(raw: str) -> Variation:
    key, sep, value = raw.partition("=")
    if not sep:
        raise DomainError(f"bad --vary {raw!r}, expected key=multiplier")
    try:
        multiplier = float(value)
    except ValueError:
        raise DomainError(f"bad multiplier in --vary {raw!r}") from None
    fields = {"logical": "logical_qubits", "quantum_time": "quantum_time", "classical_time": "classical_time"}
    if key not in fields:
        raise DomainError(f"bad --vary key {key!r}, expected logical|quantum_time|classical_time")
    return Variation(name=raw, **{fields[key]: multiplier})


@cli.command()
@_scenario_option
@click.option("--quantum", default="qpe-n3", show_default=True, help="Quantum method for all columns.")
@click.option("--classical", default=",".join(m.replace("CCSD(T)", "CCSDT") for m in CLASSICAL_TABLE_METHODS if m != "DFT"), show_default=True)
@click.option("--vary", "vary_specs", multiple=True, help="key=multiplier (logical, quantum_time, classical_time); repeatable.  Defaults to the three stock variations.")
@_format_option
@_out_option
def robustness(scenario_path, quantum, classical, vary_specs, fmt, out):
    """Robustness table: baseline column plus variation columns."""
    scenario = _get_scenario(scenario_path)
    variations = [_parse_variation(v) for v in vary_specs] if vary_specs else standard_variations()
    tbl = robustness_table(scenario, variations, quantum, _split_methods(classical))
    _emit(render_csv(tbl) if fmt == "csv" else render_text(tbl), out)


@cli.command()
@_scenario_option
@click.option("--classical", required=True)
@click.option("--quantum", required=True)
@click.option("--from", "year_from", type=float, default=float(DEFAULT_START_YEAR), show_default=True)
@click.option("--to", "year_to", type=float, default=float(DEFAULT_HORIZON), show_default=True)
@click.option("--step", type=float, default=1.0, show_default=True)
@_format_option
@_out_option
def curve(scenario_path, classical, quantum, year_from, year_to, step, fmt, out):
    """Threshold and feasibility-envelope series over a year range."""
    scenario = _get_scenario(scenario_path)
    _warn_backward(year_from)
    points = qea_curve_series(scenario, classical, quantum, year_from, year_to, step)
    _emit(curve_csv(points, scenario) if fmt == "csv" else curve_text(points, scenario), out)


@cli.command()
@_scenario_option
@click.option("--classical", required=True)
@click.option("--quantum", required=True)
@click.option("--year", type=float, required=True)
@click.option("--no-epsilon", is_flag=True, help="Drop the 1/eps factor from the quantum cost law.")
@_format_option
@_out_option
def threshold(scenario_path, classical, quantum, year, no_epsilon, fmt, out):
    """Crossover problem size for one pair in one year."""
    scenario = _get_scenario(scenario_path)
    if no_epsilon:
        scenario = dataclasses.replace(scenario, epsilon=1.0)
    _warn_backward(year)
    value = qea_threshold(scenario.algorithm(classical), scenario.algorithm(quantum), year, scenario)
    rendered = "never" if value is None else _text_number(value)
    csv_value = "" if value is None else repr(value)
    _emit(
        _scalar(
            fmt,
            scenario,
            ["classical", "quantum", "year", "threshold_n"],
            [classical, quantum, repr(year), csv_value],
            rendered,
        ),
        out,
    )


@cli.command()
@_scenario_option
@click.option("--quantum", required=True)
@click.option("--year", type=float, required=True)
@_format_option
@_out_option
def feasible(scenario_path, quantum, year, fmt, out):
    """Feasibility envelope (qubit and deadline limits) for one year."""
    scenario = _get_scenario(scenario_path)
    _warn_backward(year)
    env = feasibility_envelope(scenario.algorithm(quantum), year, scenario)
    names = ["qubit_limited_n", "deadline_limited_n", "max_feasible_n"]
    values = [str(getattr(env, name)) for name in names]
    text = "\n".join(f"{name}: {value}" for name, value in zip(names, values))
    _emit(_scalar(fmt, scenario, ["year"] + names, [repr(year)] + values, text), out)


@cli.command()
@click.option("--time-s", type=float, required=True, help="Measured runtime, seconds.")
@click.option("--peak-flops", type=float, required=True, help="Peak rate of the benchmark hardware.")
@click.option("--n", type=int, required=True, help="Basis-function count.")
@click.option("--exponent", type=float, required=True, help="Asymptotic exponent of the method.")
@_format_option
@_out_option
def constant(time_s, peak_flops, n, exponent, fmt, out):
    """Flop-adjusted algorithmic constant T*P/N^p from a benchmark."""
    value = flop_adjusted_constant(time_s, peak_flops, n, exponent)
    _emit(_scalar(fmt, default_scenario(), ["constant"], [repr(value)], _text_number(value)), out)


@cli.command()
@click.option("--n", type=int, required=True)
@click.option("--exponent", type=float, required=True)
@click.option("--epsilon", type=float, default=DEFAULT_EPSILON, show_default=True)
@_format_option
@_out_option
def tgates(n, exponent, epsilon, fmt, out):
    """Naive T-gate estimate N^p / eps."""
    value = naive_t_gate_estimate(n, exponent, epsilon)
    _emit(_scalar(fmt, default_scenario(), ["t_gates"], [repr(value)], _text_number(value)), out)


@cli.command()
@click.option("--molecule", default=None, help="Composition like Fe:7,Mo:1,S:9,C:1.")
@click.option("--heuristic", default=None, help="Basis heuristic name (femoco-mixed, hydrocarbon-631g).")
@click.option("--basis-functions", type=float, default=None, help="Basis-function count to convert to atoms.")
@click.option("--ratio", type=float, default=None, help="Orbital-to-atom ratio for --basis-functions.")
@_out_option
def convert(molecule, heuristic, basis_functions, ratio, out):
    """Chemistry size conversions: molecule -> orbitals, orbitals -> atoms."""
    lines = []
    if molecule is not None:
        if heuristic is None:
            raise DomainError("--molecule needs --heuristic")
        mol = parse_molecule(molecule)
        heur = lookup_heuristic(heuristic)
        orbitals = orbital_count(mol, heur)
        lines.append(f"orbitals: {orbitals}")
        lines.append(f"orbital_to_atom_ratio: {_text_number(orbital_to_atom_ratio(mol, heur))}")
    if basis_functions is not None:
        if ratio is None:
            raise DomainError("--basis-functions needs --ratio")
        lines.append(f"atoms: {_text_number(atoms_from_basis_functions(basis_functions, ratio))}")
    if not lines:
        raise DomainError("nothing to convert: pass --molecule/--heuristic or --basis-functions/--ratio")
    _emit("\n".join(lines) + "\n", out)


def _parse_anchor(raw: str) -> tuple[str, str, int]:
    parts = raw.split(":")
    if len(parts) != 3:
        raise DomainError(f"bad --anchor {raw!r}, expected CLASSICAL:QUANTUM:YEAR")
    try:
        year = int(parts[2])
    except ValueError:
        raise DomainError(f"bad anchor year in {raw!r}") from None
    return parts[0], parts[1], year


@cli.command(name="calibrate")
@_scenario_option
@click.option("--anchor", "anchors", multiple=True, required=True, help="CLASSICAL:QUANTUM:YEAR; repeatable.")
@click.option("--free", "free_params", multiple=True, required=True, help="Trend annual_factor path; repeatable, pairs with --anchor by position.")
@click.option("--prefer", "prefers", multiple=True, type=click.Choice(["low", "high", "mid"]), help="Edge policy per parameter (default mid).")
@_out_option
def calibrate_cmd(scenario_path, anchors, free_params, prefers, out):
    """Fit trend annual factors so disruption years hit the anchors;
    prints the calibrated scenario as JSON."""
    base = _get_scenario(scenario_path)
    parsed = [_parse_anchor(a) for a in anchors]
    calibrated = run_calibration(
        base, list(free_params), parsed, prefer=list(prefers) or None
    )
    click.echo(_digest_line(calibrated, ""), err=True)
    _emit(dump_scenario(calibrated), out)


def main(argv: list[str] | None = None) -> int:
    """Entry point with exit-code mapping; returns instead of raising."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.ClickException as exc:
        exc.show()
        return exc.exit_code
    except click.exceptions.Abort:
        return 1
    except CalibrationError as exc:
        click.echo(f"error: {exc}", err=True)
        return 4
    except QeaError as exc:
        click.echo(f"error: {exc}", err=True)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())

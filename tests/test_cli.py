import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qnl
from qnl import BudgetTable, SpinFigureTable, parse_config, run_budget
from qnl.cli import main
from qnl.tables import BLOCK_ROWS

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
BASE = {
    "probe": {"type": "oscillator", "mass": 1.0, "omega0": 1.0, "gamma": 0.2},
    "back_action": {"type": "constant", "re": 0.0, "im": 0.0},
    "thermal": {"type": "zero"},
    "mode": "fixed_SFF",
    "s_ff": 0.1,
    "frequency": {"start": 0.5, "stop": 1.5, "points": 11, "spacing": "linear"},
}


def _child_env(**extra):
    # an uninstalled source tree is importable in a child only through its
    # path: put the root that qnl was imported from ahead of the caller's
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(qnl.__file__)))
    path = [src_root] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return dict(extra, PATH="/usr/bin:/bin", PYTHONPATH=os.pathsep.join(path))


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(BASE), encoding="utf-8")
    return str(path)


@pytest.fixture()
def spin_path(tmp_path):
    cfg = {
        "probe": BASE["probe"],
        "thermal": {"type": "zero"},
        "mode": "sweep_SFF_at_fixed_omega",
        "omega": 1.0,
        "s_ff": {"points": 21},
    }
    path = tmp_path / "spin.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def test_budget_to_stdout(config_path, capsys):
    assert main(["budget", config_path]) == 0
    out = capsys.readouterr().out
    table = BudgetTable.from_csv(out)
    assert len(table.points) == 11


def test_budget_to_file_json(config_path, tmp_path):
    out = tmp_path / "table.json"
    assert main(["budget", config_path, "--output", str(out), "--format", "json"]) == 0
    table = BudgetTable.from_json(out.read_text(encoding="utf-8"))
    assert table.points[5].omega == 1.0


def test_config_output_settings_apply_without_flags(tmp_path, capsys):
    out = tmp_path / "from_config.json"
    cfg = dict(BASE, output={"format": "json", "path": str(out)})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["budget", str(path)]) == 0
    assert capsys.readouterr().out == ""
    table = BudgetTable.from_json(out.read_text(encoding="utf-8"))
    assert len(table.points) == 11


def test_cli_flags_override_config_output(tmp_path, capsys):
    cfg = dict(BASE, output={"format": "json"})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["budget", str(path), "--format", "csv"]) == 0
    assert capsys.readouterr().out.startswith("# qnl budget")


def test_budget_jobs_flag_is_deterministic(config_path, capsys):
    assert main(["budget", config_path]) == 0
    serial = capsys.readouterr().out
    assert main(["budget", config_path, "--jobs", "3"]) == 0
    assert capsys.readouterr().out == serial


def test_spin_figure_subcommand(spin_path, tmp_path):
    out = tmp_path / "fig.csv"
    assert main(["spin-figure", spin_path, "--output", str(out)]) == 0
    fig = SpinFigureTable.from_csv(out.read_text(encoding="utf-8"))
    assert len(fig.points) == 21


def test_verify_subcommand_passes(config_path, capsys):
    assert main(["verify", config_path, "--seed", "2", "--samples", "4"]) == 0
    out = capsys.readouterr().out
    assert "verification PASSED" in out


@pytest.mark.parametrize("samples", ["-1", "0"])
def test_verify_rejects_fewer_than_one_sample(config_path, samples, capsys):
    assert main(["verify", config_path, "--samples", samples]) == 1
    err = capsys.readouterr().err
    assert "config error: samples must be >= 1" in err


def test_verify_malformed_golden_exits_1(config_path, tmp_path, capsys):
    golden = tmp_path / "golden.json"
    assert main(["budget", config_path, "--output", str(golden), "--format", "json"]) == 0
    text = golden.read_text(encoding="utf-8")
    golden.write_text(text[: len(text) // 2], encoding="utf-8")
    assert main(["verify", config_path, "--golden", str(golden)]) == 1
    assert "config error: line " in capsys.readouterr().err


def test_verify_golden_csv_with_a_malformed_number_exits_1(config_path, tmp_path, capsys):
    golden = tmp_path / "golden.csv"
    assert main(["budget", config_path, "--output", str(golden)]) == 0
    lines = golden.read_text(encoding="utf-8").splitlines()
    lines[6] = "abc" + lines[6][lines[6].index(","):]
    golden.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["verify", config_path, "--golden", str(golden)]) == 1
    assert "config error: line 7: could not convert string to float: 'abc'" in (
        capsys.readouterr().err
    )


def test_verify_golden_failure_exits_2(config_path, tmp_path, capsys):
    golden = tmp_path / "golden.csv"
    assert main(["budget", config_path, "--output", str(golden)]) == 0
    text = golden.read_text(encoding="utf-8")
    lines = text.splitlines()
    row = lines[6].split(",")
    row[4] = repr(float(row[4]) + 1e-3)
    lines[6] = ",".join(row)
    golden.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["verify", config_path, "--golden", str(golden)]) == 2
    out = capsys.readouterr().out
    assert "[FAIL] golden-match" in out
    assert "first differing row" in out


def test_missing_config_exits_1(capsys):
    assert main(["budget", "/nonexistent/config.json"]) == 1
    assert "error" in capsys.readouterr().err


def test_malformed_config_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"mode": ', encoding="utf-8")
    assert main(["budget", str(path)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "line 1" in err


def test_number_too_large_for_a_float_exits_1(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(dict(BASE, hbar=10**400)), encoding="utf-8")
    assert main(["budget", str(path)]) == 1
    assert "config error: " in capsys.readouterr().err


@pytest.mark.parametrize("points", [2**63, 10**400], ids=["2^63", "1e400"])
def test_grid_point_count_above_the_cap_exits_1(tmp_path, capsys, points):
    path = tmp_path / "huge_grid.json"
    grid = dict(BASE["frequency"], points=points)
    path.write_text(json.dumps(dict(BASE, frequency=grid)), encoding="utf-8")
    assert main(["budget", str(path)]) == 1
    assert "config error: " in capsys.readouterr().err


def test_spin_figure_needs_a_sweep_mode_config(tmp_path, capsys):
    # omega alone does not make a fixed-frequency config a spin sweep
    raw = json.loads((CONFIGS / "oscillator_budget.json").read_text())
    path = tmp_path / "fixed_with_omega.json"
    path.write_text(json.dumps(dict(raw, omega=1.0)), encoding="utf-8")
    assert main(["spin-figure", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "sweep_SFF_at_fixed_omega" in captured.err and "'fixed_SFF'" in captured.err


def test_infeasible_config_exits_1(tmp_path, capsys):
    cfg = dict(BASE, back_action={"type": "constant", "re": 0.0, "im": 0.9})
    path = tmp_path / "infeasible.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["budget", str(path)]) == 1
    assert "omega=" in capsys.readouterr().err


def test_console_script_and_log_env(config_path):
    proc = subprocess.run(
        [sys.executable, "-m", "qnl.cli", "budget", config_path],
        capture_output=True, text=True, env=_child_env(QNL_LOG="debug"),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("# qnl budget")
    assert "DEBUG qnl.budget: budget sweep: mode=fixed_SFF points=11" in proc.stderr


def test_import_loads_no_scipy():
    code = "import qnl, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_public_names_are_pinned():
    # every addition to or removal from the public API shows up in this list;
    # submodules are not part of it, so `from qnl import *` binds no module
    assert qnl.__all__ == [
        "BudgetPoint", "BudgetTable", "CheckResult", "ComplexTable", "ConfigError",
        "DampedOscillator", "DomainError", "EffectiveTemperature", "EmptyFeasibleRegionError",
        "FdtViolationError", "FreeMass", "GridSpec", "LosslessProbeError", "NoiseTriad",
        "OptimumReport", "OracleConfig", "OracleResult", "PhaseTransitionProbe", "PhysConstants",
        "QnlError", "RangeError", "Regime", "SamplerError", "SffSweepSpec", "SpinFigurePoint",
        "SpinFigureTable", "SpinMeterParams", "Susceptibility", "SweepConfig", "TableMeta",
        "TabulatedSusceptibility", "ThermalModel", "UniformTemperature", "VerificationReport",
        "ZeroTemperature", "brute_force_min", "commutator_check", "dql", "fdt_psd",
        "feedback_equivalent_gauge", "gauge_transform", "load_config", "load_table",
        "local_uncertainty_pair", "matched_sum_noise", "negative_mass_oscillator",
        "optimal_spin_response", "optimize_fixed_backaction", "optimize_fixed_eff_backaction",
        "optimize_fixed_eff_backaction_sigma_zero", "parse_config", "phase_transition_probe",
        "qcrb_lossless", "qcrb_simple", "random_saturating_triad", "run_budget",
        "run_spin_figure", "saturating_s_xx", "sigma", "spin_triad", "sql", "sum_noise_psd",
        "threshold_eff", "threshold_full", "uncertainty_slack", "verify",
    ]
    namespace = {}
    exec("from qnl import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == qnl.__all__


def test_benchmark_tracer_hooks_every_target(monkeypatch):
    # the benchmark's tracer wraps qnl's functions and methods by name: a rename
    # of a hooked name fails here, not only in a traced benchmark run
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    tracing = importlib.import_module("tracing")
    original = qnl.budget.verify
    undo = tracing.install(qnl, tracing.Tracer())
    try:
        assert qnl.budget.verify is not original
    finally:
        tracing.uninstall(undo)
    assert qnl.budget.verify is original


@pytest.mark.parametrize("command", ["budget", "verify"])
def test_a_bath_too_hot_for_the_units_is_an_error_not_a_traceback(tmp_path, capsys, command):
    raw = json.loads((CONFIGS / "oscillator_budget.json").read_text(encoding="utf-8"))
    raw.update(hbar=1e-30, thermal={"type": "uniform", "temperature": 1e300})
    path = tmp_path / "hot.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert main([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: omega=") and "underflows to 0" in captured.err


@pytest.mark.parametrize("command", ["budget", "verify"])
@pytest.mark.parametrize("overrides", [
    {"hbar": 1e200, "probe": {"type": "oscillator", "mass": 1e150, "omega0": 1.0, "gamma": 0.2}},
    {"probe": {"type": "oscillator", "mass": 1e300, "omega0": 1.0, "gamma": 0.2},
     "frequency": {"start": 1e3, "stop": 1e10, "points": 5}},
], ids=["dql", "chi_inv"])
def test_an_overflowing_sweep_prints_one_error_line(tmp_path, command, overrides):
    # a column that overflows flags its rows without a numpy warning, and the
    # first re-run raises; verify runs the same sweep, so it prints the same line
    raw = json.loads((CONFIGS / "oscillator_budget.json").read_text(encoding="utf-8"))
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(dict(raw, **overrides)), encoding="utf-8")
    proc = subprocess.run([sys.executable, "-m", "qnl.cli", command, str(path)],
                          capture_output=True, text=True, env=_child_env())
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "", "error: s_xx must be finite and >= 0, got nan\n")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emit_writes_the_library_text_block_by_block(tmp_path, capsys, fmt):
    # three blocks, the last of one row, to a file and to stdout
    raw = dict(BASE, frequency={"start": 0.5, "stop": 1.5, "points": 2 * BLOCK_ROWS + 1})
    path, out = tmp_path / "config.json", tmp_path / f"table.{fmt}"
    path.write_text(json.dumps(raw), encoding="utf-8")
    table = run_budget(parse_config(raw))
    want = table.to_json() if fmt == "json" else table.to_csv()
    assert main(["budget", str(path), "--format", fmt, "--output", str(out)]) == 0
    assert out.read_bytes() == want.encode()
    assert main(["budget", str(path), "--format", fmt]) == 0
    assert capsys.readouterr().out == want

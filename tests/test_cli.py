import importlib
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qnl
from qnl import (ConfigError, SpinFigureTable, load_config, load_table, parse_config, run_budget,
                 verify)
from qnl.cli import main
from qnl.tables import BLOCK_ROWS
from test_config_mutations import PINNED

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
DEEP = "[" * 100000  # JSON nested far beyond the interpreter's recursion limit
NOT_UTF8 = "not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 10: invalid start byte"
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
    # without flags: CSV on stdout
    assert main(["budget", config_path]) == 0
    out = capsys.readouterr().out
    assert out == run_budget(load_config(config_path)).to_csv()
    assert len(load_table(out).points) == 11


def test_budget_to_file_json(config_path, tmp_path):
    out = tmp_path / "table.json"
    assert main(["budget", config_path, "--output", str(out), "--format", "json"]) == 0
    text = out.read_text(encoding="utf-8")
    assert text == run_budget(load_config(config_path)).to_json()
    assert load_table(text).points[5].omega == 1.0


def test_config_output_block_is_rejected(tmp_path, capsys):
    # the flags are the only output switch: the table bytes, and the config
    # hash, do not depend on where the table is written
    cfg = dict(BASE, output={"format": "json", "path": str(tmp_path / "from_config.json")})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["budget", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {path}.output: unknown field\n"
    assert not (tmp_path / "from_config.json").exists()


def test_budget_jobs_flag_is_deterministic(config_path, capsys):
    assert main(["budget", config_path]) == 0
    serial = capsys.readouterr().out
    assert main(["budget", config_path, "--jobs", "3"]) == 0
    assert capsys.readouterr().out == serial


def test_spin_figure_subcommand(spin_path, tmp_path):
    out = tmp_path / "fig.csv"
    assert main(["spin-figure", spin_path, "--output", str(out)]) == 0
    fig = load_table(out.read_text(encoding="utf-8"))
    assert isinstance(fig, SpinFigureTable) and len(fig.points) == 21


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


@pytest.mark.parametrize("text, error", [
    (b'{"mode": "\xff"}', NOT_UTF8),
    (DEEP.encode(), "JSON nested deeper than the recursion limit"),
], ids=["not-utf8", "too-deep"])
def test_an_unreadable_config_is_a_config_error(tmp_path, capsys, text, error):
    path = tmp_path / "config.json"
    path.write_bytes(text)
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr() == ("", f"config error: {path}: {error}\n")
    with pytest.raises(ConfigError) as exc:
        load_config(str(path))
    assert str(exc.value) == f"{path}: {error}"
    if text == DEEP.encode():
        with pytest.raises(ConfigError, match="^config: JSON nested deeper than the recursion"):
            parse_config(DEEP)


@pytest.mark.parametrize("text, error", [(b'{"kind": "\xff"}', "{golden}: " + NOT_UTF8),
                                         (b'{"kind": "budget", "rows": ' + DEEP.encode(),
                                          "JSON nested deeper than the recursion limit")],
                         ids=["not-utf8", "too-deep"])
def test_an_unreadable_golden_table_is_a_config_error(config_path, tmp_path, capsys, text, error,
                                                      monkeypatch):
    golden = tmp_path / "golden.json"
    golden.write_bytes(text)
    error = error.format(golden=golden)
    assert main(["verify", config_path, "--golden", str(golden)]) == 1
    assert capsys.readouterr() == ("", f"config error: {error}\n")
    with pytest.raises(ConfigError) as exc:
        verify(load_config(config_path), golden_path=str(golden))
    assert str(exc.value) == error
    if text.startswith(b'{"kind": "budget"'):  # json.loads, the reference parser, on its own
        with pytest.raises(ConfigError, match="^JSON nested deeper than the recursion limit$"):
            load_table(text.decode())
        table = json.loads(run_budget(load_config(config_path)).to_json())
        balanced = json.dumps(table)[:-1] + ', "extra": ' + DEEP[:5000] + "]" * 5000 + "}"
        monkeypatch.setattr("qnl.tables._fast_loads", lambda: None)
        with pytest.raises(ConfigError, match="^JSON nested deeper than the recursion limit$"):
            load_table(balanced)


@pytest.mark.parametrize("points", [2**63, 10**400], ids=["2^63", "1e400"])
def test_grid_point_count_above_the_cap_exits_1(tmp_path, capsys, points):
    path = tmp_path / "huge_grid.json"
    grid = dict(BASE["frequency"], points=points)
    path.write_text(json.dumps(dict(BASE, frequency=grid)), encoding="utf-8")
    assert main(["budget", str(path)]) == 1
    assert "config error: " in capsys.readouterr().err


def test_spin_figure_needs_a_sweep_mode_config(capsys):
    assert main(["spin-figure", str(CONFIGS / "oscillator_budget.json")]) == 1
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


def test_qnl_log_info_shows_the_verify_verdict(config_path):
    proc = subprocess.run([sys.executable, "-m", "qnl.cli", "verify", config_path],
                          capture_output=True, text=True, env=_child_env(QNL_LOG="info"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "INFO qnl.budget: verification passed\n"


def test_without_qnl_log_stderr_is_empty(config_path):
    proc = subprocess.run([sys.executable, "-m", "qnl.cli", "verify", config_path],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.endswith("verification PASSED\n")


def test_a_library_caller_with_logging_configured_receives_the_debug_record(caplog):
    caplog.set_level(logging.DEBUG, logger="qnl.budget")
    run_budget(parse_config(json.dumps(BASE)))
    assert [(r.name, r.levelname, r.getMessage(), r.funcName) for r in caplog.records] == [
        ("qnl.budget", "DEBUG", "budget sweep: mode=fixed_SFF points=11", "run_budget")]


def test_import_loads_no_scipy():
    # nor orjson, which only a JSON table load imports: configs stay on json.loads;
    # nor dataclasses (records are qnl._record.Record) or logging (only QNL_LOG loads it)
    code = ("import qnl, qnl.cli, sys; qnl.load_config(sys.argv[1]); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('scipy', 'orjson', 'dataclasses', 'logging')))")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(CONFIGS / "spin_figure.json")],
        capture_output=True, text=True, env=_child_env(),
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
        "QnlError", "RangeError", "Regime", "SffSweepSpec", "SpinFigurePoint",
        "SpinFigureTable", "SweepConfig", "TableMeta", "TabulatedSusceptibility",
        "UniformTemperature", "VerificationReport",
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


def test_readme_quickstart_runs_and_gives_its_commented_values():
    # a public name removed or renamed in the library but not in the README fails
    # here, and so does a commented value that no longer holds
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Library quickstart\n\n```python\n", 1)[1].split("```", 1)[0]
    ns = {}
    exec(block, ns)
    commented = {code.strip(): comment.strip() for code, _, comment in
                 (line.partition("#") for line in block.splitlines()) if comment}
    assert commented == {
        "d = probe.chi_inv(1.0)": "-0.2j at resonance",
        "qnl.sql(d)": "0.2",
        "qnl.dql(d)": "0.2",
        "qnl.threshold_full(d, 0.1 + 0.3j)": "0.35",
        "best.s_sum": "0.2  (dissipation-limited)",
        "best.regime": "Regime.DQL_LIMITED",
        "qnl.uncertainty_slack(best.optimal_triad, 0.1 + 0.3j)": "~0: saturating meter",
        "check.s_sum_min": "agrees to ~1e-15",
    }
    assert ns["d"] == -0.2j
    for code, value in (("qnl.sql(d)", 0.2), ("qnl.dql(d)", 0.2),
                        ("qnl.threshold_full(d, 0.1 + 0.3j)", 0.35), ("best.s_sum", 0.2)):
        assert abs(eval(code, ns) - value) <= 1e-15, code
    assert eval("best.regime", ns) is qnl.Regime.DQL_LIMITED
    assert abs(eval("qnl.uncertainty_slack(best.optimal_triad, 0.1 + 0.3j)", ns)) <= 1e-15
    assert abs(eval("check.s_sum_min", ns) - ns["best"].s_sum) <= 1e-15


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
@pytest.mark.parametrize("overrides, omega, chi_inv", [
    ({"hbar": 1e200, "probe": {"type": "oscillator", "mass": 1e150, "omega0": 1.0, "gamma": 0.2}},
     "omega=0.5", "(7.499999999999999e+149-1e+149j)"),
    ({"probe": {"type": "oscillator", "mass": 1e300, "omega0": 1.0, "gamma": 0.2},
      "frequency": {"start": 1e3, "stop": 1e10, "points": 5}}, "omega=1000.0",
     "(-9.99999e+305-2e+302j)"),
], ids=["dql", "chi_inv"])
def test_an_overflowing_sweep_prints_one_error_line(tmp_path, command, overrides, omega, chi_inv):
    # a column that overflows flags its rows without a numpy warning, and the
    # first re-run raises at the sum noise, naming its omega and the finite chi_inv
    # whose |chi_inv + K|^2 overflows; verify runs the same sweep, so it prints the same line
    raw = json.loads((CONFIGS / "oscillator_budget.json").read_text(encoding="utf-8"))
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(dict(raw, **overrides)), encoding="utf-8")
    proc = subprocess.run([sys.executable, "-m", "qnl.cli", command, str(path)],
                          capture_output=True, text=True, env=_child_env())
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "", f"error: {omega}: sum noise is not finite at s_ff=0.1: nan for chi_inv={chi_inv}, "
        "K=0j\n")


@pytest.mark.parametrize("command", ["spin-figure", "verify"])
def test_an_overflowing_spin_budget_prints_one_error_line(tmp_path, command):
    # 100 times the threshold overflows on the last budgets: they are flagged
    # without a numpy warning, and the first row that raises is a finite budget
    # whose optimal triad overflows, named with its budget, chi_inv and K
    raw = json.loads((CONFIGS / "spin_figure.json").read_text(encoding="utf-8"))
    raw.update(hbar=100.0, s_ff=dict(raw["s_ff"], stop=1e308))
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    proc = subprocess.run([sys.executable, "-m", "qnl.cli", command, str(path)],
                          capture_output=True, text=True, env=_child_env())
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "", "error: optimal triad at s_ff=1.0000000000000002e+154 for chi_inv=-0.2j, K=0j: "
        "s_xx must be finite and >= 0, got inf\n")


@pytest.mark.parametrize("name", ["tabulated-chi-inv", "tabulated-k"])
def test_an_overflowing_tabulated_table_prints_one_error_line_naming_omega(tmp_path, name):
    # the interpolant's slope between two nodes overflows: the probe raises as
    # an analytic one does, and K names itself
    raw, text = PINNED[name]
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    proc = subprocess.run([sys.executable, "-m", "qnl.cli", "budget", str(path)],
                          capture_output=True, text=True, env=_child_env())
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"error: {text}\n")


@pytest.mark.parametrize("command, config, overrides, omega", [
    ("budget", "oscillator_budget.json",
     {"probe": {"type": "oscillator", "mass": 1e300, "omega0": 1.0, "gamma": 0.2},
      "frequency": {"start": 1e5, "stop": 1e10, "points": 5}}, 1e5),
    ("budget", "oscillator_budget.json",
     {"probe": {"type": "free_mass", "mass": 1e300},
      "frequency": {"start": 1e5, "stop": 1e10, "points": 5}}, 1e5),
    ("spin-figure", "spin_figure.json",
     {"probe": {"type": "oscillator", "mass": 1e300, "omega0": 1.0, "gamma": 0.2},
      "omega": 1e10}, 1e10),
], ids=["budget-oscillator", "budget-free-mass", "spin-figure"])
def test_an_overflowing_chi_inv_prints_one_error_line_naming_omega(
        tmp_path, command, config, overrides, omega):
    raw = json.loads((CONFIGS / config).read_text(encoding="utf-8"))
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(dict(raw, **overrides)), encoding="utf-8")
    proc = subprocess.run([sys.executable, "-m", "qnl.cli", command, str(path)],
                          capture_output=True, text=True, env=_child_env())
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith(f"error: chi_inv is not finite at omega={omega!r}: (-inf")
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("j)\n")


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


def test_benchmark_self_tests_pass():
    # the benchmark gate reads tables through load_table, .points, to_csv and
    # to_json, and drives the CLI with --format and --output
    proc = subprocess.run([sys.executable, str(ROOT / "benchmarks" / "selftest.py")],
                          capture_output=True, text=True, env=_child_env(), cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr

import json
import os
import subprocess
import sys

import pytest

from qnl import BudgetTable, SpinFigureTable
from qnl.cli import main

BASE = {
    "probe": {"type": "oscillator", "mass": 1.0, "omega0": 1.0, "gamma": 0.2},
    "back_action": {"type": "constant", "re": 0.0, "im": 0.0},
    "thermal": {"type": "zero"},
    "mode": "fixed_SFF",
    "s_ff": 0.1,
    "frequency": {"start": 0.5, "stop": 1.5, "points": 11, "spacing": "linear"},
}


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


def test_infeasible_config_exits_1(tmp_path, capsys):
    cfg = dict(BASE, back_action={"type": "constant", "re": 0.0, "im": 0.9})
    path = tmp_path / "infeasible.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["budget", str(path)]) == 1
    assert "omega=" in capsys.readouterr().err


def test_console_script_and_log_env(config_path):
    env = {"QNL_LOG": "debug", "PATH": "/usr/bin:/bin"}
    if "PYTHONPATH" in os.environ:
        # an uninstalled source tree is importable only through the caller's path
        env["PYTHONPATH"] = os.environ["PYTHONPATH"]
    proc = subprocess.run(
        [sys.executable, "-m", "qnl.cli", "budget", config_path],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("# qnl budget")
    assert "DEBUG qnl.budget: budget sweep: mode=fixed_SFF points=11" in proc.stderr

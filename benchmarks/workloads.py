"""Seeded workload generation for the qnl benchmark.

Each workload is a function of the seed only.  It writes the config files
the program receives into a work directory and returns a Workload record
that says which CLI commands to run, which library call matches them, and
what the correctness gate should expect.  Sizes never depend on the seed,
only parameter values do, so every seed does the same amount of work.

The expected regime structure is computed here with numpy alone, without
calling qnl, so the gate compares the program against an independent
prediction.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

NAMES = ("budget_analytic", "budget_tabulated", "verify_oracle", "spin_figure")

ANALYTIC_POINTS = 20_000
TABULATED_NODES = 2_000
TABULATED_POINTS = 250
SPIN_POINTS = 5_000
VERIFY_GRID_POINTS = 151
# --samples equal to the grid size makes verify check every grid point
# whatever its seed: the oracle's cost varies from instance to instance,
# and a seeded pick of instances would move items_per_s from seed to seed
VERIFY_SAMPLES = VERIFY_GRID_POINTS
VERIFY_SEEDS = 1
SI_SAMPLES = 6
SI_CHECKS = 8  # checks verify runs on a config without --golden
MAIN_CHECKS = 9  # the same plus golden-match

# The unit system of the SI slice; hbar and k_B in SI.
SI_HBAR = 1.054e-34
SI_KB = 1.380649e-23


@dataclass
class Command:
    """One CLI invocation: arguments after `qnl`, and where its table goes."""

    args: list
    output: str | None = None  # table path, None for verify
    fmt: str | None = None
    config: str = ""
    expect_checks: int = 0  # verify only: number of check lines


@dataclass
class Workload:
    name: str
    seed: int
    config: str  # the config whose load is timed by setup_s
    commands: list
    rows: int  # rows of each emitted table (golden table for verify)
    transitions: list  # predicted regime transitions (x values)
    grid: np.ndarray  # x values of the rows (omega or s_ff)
    items: int  # items per library call, for items_per_s
    jobs: int = 1
    golden: str | None = None
    verify_calls: list = field(default_factory=list)  # (seed, samples) per library call
    raw: dict = field(default_factory=dict)  # the decoded main config


def _write(workdir: str, name: str, cfg: dict) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    return path


def _transitions(x: np.ndarray, dql_mask: np.ndarray) -> list:
    change = np.nonzero(dql_mask[1:] != dql_mask[:-1])[0] + 1
    return [float(x[i]) for i in change]


def _oscillator_chi_inv(m: float, w0: float, gamma: float, w: np.ndarray) -> np.ndarray:
    return m * (w0**2 - w**2) - 1j * m * gamma * w


def _threshold_full(d: np.ndarray, kv: complex, hbar: float) -> np.ndarray:
    return 0.5 * hbar * (np.abs(d + kv) ** 2 - 2.0 * d.imag * kv.imag) / np.abs(d.imag)


def budget_analytic(seed: int, workdir: str) -> Workload:
    """Oscillator probe, constant complex K, fixed physical budget, 2e4
    linear points across resonance: both regimes and two transitions."""
    rng = np.random.default_rng([seed, 1])
    gamma = 0.2
    kv = complex(rng.uniform(0.02, 0.08), rng.uniform(0.01, 0.05))
    grid = np.linspace(0.5, 1.5, ANALYTIC_POINTS)
    thr = _threshold_full(_oscillator_chi_inv(1.0, 1.0, gamma, grid), kv, 1.0)
    s_ff = float(thr.min() * rng.uniform(2.0, 4.0))
    cfg = {
        "probe": {"type": "oscillator", "mass": 1.0, "omega0": 1.0, "gamma": gamma},
        "back_action": {"type": "constant", "re": kv.real, "im": kv.imag},
        "thermal": {"type": "uniform", "temperature": float(rng.uniform(0.2, 1.0))},
        "mode": "fixed_SFF",
        "s_ff": s_ff,
        "frequency": {"start": 0.5, "stop": 1.5, "points": ANALYTIC_POINTS, "spacing": "linear"},
    }
    path = _write(workdir, "budget_analytic.json", cfg)
    out = os.path.join(workdir, "budget_analytic.csv")
    return Workload(
        name="budget_analytic", seed=seed, config=path,
        commands=[Command(["budget", path, "--jobs", "1", "--format", "csv", "--output", out],
                          out, "csv", path)],
        rows=ANALYTIC_POINTS, transitions=_transitions(grid, s_ff >= thr), grid=grid,
        items=ANALYTIC_POINTS, raw=cfg,
    )


def _tabulated_inputs(rng: np.random.Generator):
    """Smooth seeded tables on a log grid wider than the sweep."""
    nodes = np.geomspace(0.25, 4.0, TABULATED_NODES)
    m = float(rng.uniform(0.8, 1.2))
    w0 = float(rng.uniform(0.9, 1.1))
    gamma = float(rng.uniform(0.15, 0.3))
    ripple = float(rng.uniform(0.0, 0.02))
    chi_inv = _oscillator_chi_inv(m, w0, gamma, nodes) * (1.0 + ripple * np.sin(7.0 * nodes))
    k_re = float(rng.uniform(0.01, 0.05)) * np.cos(3.0 * nodes)
    k_im = float(rng.uniform(0.0, 0.02)) * np.sin(2.0 * nodes)
    t_eff = float(rng.uniform(0.1, 0.5)) * (1.0 + 0.5 * np.sin(nodes) ** 2)
    return nodes, chi_inv, k_re + 1j * k_im, t_eff, w0


def budget_tabulated(seed: int, workdir: str) -> Workload:
    """Tabulated probe, K and effective temperature on 2,000 nodes, 250
    log-spaced points, fixed effective budget: both regimes appear."""
    rng = np.random.default_rng([seed, 2])
    nodes, chi_inv, k, t_eff, w0 = _tabulated_inputs(rng)
    grid = np.geomspace(0.3 * w0, 3.0 * w0, TABULATED_POINTS)
    d = np.interp(grid, nodes, chi_inv.real) + 1j * np.interp(grid, nodes, chi_inv.imag)
    g = np.interp(grid, nodes, k.real)
    thr = np.abs(d + g) ** 2 / (2.0 * np.abs(d.imag))
    s_ff = float(thr.min() * rng.uniform(2.0, 4.0))
    cfg = {
        "probe": {"type": "tabulated", "omega": nodes.tolist(),
                  "re": chi_inv.real.tolist(), "im": chi_inv.imag.tolist()},
        "back_action": {"type": "tabulated", "omega": nodes.tolist(),
                        "re": k.real.tolist(), "im": k.imag.tolist()},
        "thermal": {"type": "effective", "omega": nodes.tolist(), "t_eff": t_eff.tolist()},
        "mode": "fixed_effective",
        "s_ff": s_ff,
        "frequency": {"start": float(grid[0]), "stop": float(grid[-1]),
                      "points": TABULATED_POINTS, "spacing": "log"},
    }
    path = _write(workdir, "budget_tabulated.json", cfg)
    out = os.path.join(workdir, "budget_tabulated.json.out")
    return Workload(
        name="budget_tabulated", seed=seed, config=path,
        commands=[Command(["budget", path, "--jobs", "1", "--format", "json", "--output", out],
                          out, "json", path)],
        rows=TABULATED_POINTS, transitions=_transitions(grid, s_ff >= thr), grid=grid,
        items=TABULATED_POINTS, raw=cfg,
    )


def verify_oracle(seed: int, workdir: str) -> Workload:
    """Natural-unit fixed_SFF config with complex K, verified at every
    grid point against a golden table, plus the small SI-scale slice."""
    rng = np.random.default_rng([seed, 3])
    gamma = float(rng.uniform(0.18, 0.24))
    kv = complex(rng.uniform(-0.05, 0.05), rng.uniform(0.02, 0.04))
    grid = np.linspace(0.5, 1.5, VERIFY_GRID_POINTS)
    thr = _threshold_full(_oscillator_chi_inv(1.0, 1.0, gamma, grid), kv, 1.0)
    s_ff = float(thr.min() * rng.uniform(2.5, 3.5))
    cfg = {
        "probe": {"type": "oscillator", "mass": 1.0, "omega0": 1.0, "gamma": gamma},
        "back_action": {"type": "constant", "re": kv.real, "im": kv.imag},
        "thermal": {"type": "uniform", "temperature": float(rng.uniform(0.2, 1.0))},
        "mode": "fixed_SFF",
        "s_ff": s_ff,
        "frequency": {"start": 0.5, "stop": 1.5, "points": VERIFY_GRID_POINTS,
                      "spacing": "linear"},
    }
    path = _write(workdir, "verify_main.json", cfg)
    si = {
        "probe": {"type": "oscillator", "mass": 1e-3, "omega0": 1e6, "gamma": 100.0},
        "back_action": {"type": "constant", "re": 0.0, "im": 0.0},
        "thermal": {"type": "zero"},
        "hbar": SI_HBAR,
        "k_boltzmann": SI_KB,
        "mode": "fixed_SFF",
        "s_ff": 1e-25,
        "frequency": {"start": 0.999e6, "stop": 1.001e6, "points": 101, "spacing": "linear"},
    }
    si_path = _write(workdir, "verify_si.json", si)
    golden = os.path.join(workdir, "verify_golden.csv")
    seeds = [int(s) for s in rng.integers(0, 2**31 - 1, size=VERIFY_SEEDS)]
    commands = [
        Command(["verify", path, "--jobs", "1", "--seed", str(s), "--samples", str(VERIFY_SAMPLES),
                 "--golden", golden], config=path, expect_checks=MAIN_CHECKS)
        for s in seeds
    ]
    commands.append(Command(["verify", si_path, "--jobs", "1", "--seed", str(seeds[0]),
                             "--samples", str(SI_SAMPLES)],
                            config=si_path, expect_checks=SI_CHECKS))
    return Workload(
        name="verify_oracle", seed=seed, config=path, commands=commands,
        rows=VERIFY_GRID_POINTS, transitions=_transitions(grid, s_ff >= thr), grid=grid,
        items=VERIFY_SEEDS * VERIFY_SAMPLES, golden=golden,
        verify_calls=[(s, VERIFY_SAMPLES) for s in seeds], raw=cfg,
    )


def spin_figure(seed: int, workdir: str) -> Workload:
    """Three-series back-action sweep, 5e3 log-spaced budgets from 1e-2 to
    1e2 times the threshold, on the two-thread pool."""
    rng = np.random.default_rng([seed, 4])
    m = float(rng.uniform(0.8, 1.2))
    w0 = float(rng.uniform(0.9, 1.1))
    gamma = float(rng.uniform(0.1, 0.3))
    omega = float(w0 * rng.uniform(0.9, 1.1))
    cfg = {
        "probe": {"type": "oscillator", "mass": m, "omega0": w0, "gamma": gamma},
        "thermal": {"type": "zero"},
        "mode": "sweep_SFF_at_fixed_omega",
        "omega": omega,
        "s_ff": {"start": 0.01, "stop": 100.0, "points": SPIN_POINTS, "spacing": "log",
                 "units": "threshold"},
    }
    path = _write(workdir, "spin_figure.json", cfg)
    out = os.path.join(workdir, "spin_figure.json.out")
    d = complex(m * (w0**2 - omega**2), -m * gamma * omega)
    thr = abs(d) ** 2 / (2.0 * abs(d.imag))
    grid = np.geomspace(0.01, 100.0, SPIN_POINTS) * thr
    return Workload(
        name="spin_figure", seed=seed, config=path,
        commands=[Command(["spin-figure", path, "--jobs", "2", "--format", "json",
                           "--output", out], out, "json", path)],
        rows=SPIN_POINTS, transitions=_transitions(grid, grid >= thr), grid=grid,
        items=SPIN_POINTS, jobs=2, raw=cfg,
    )


GENERATORS = {
    "budget_analytic": budget_analytic,
    "budget_tabulated": budget_tabulated,
    "verify_oracle": verify_oracle,
    "spin_figure": spin_figure,
}


def generate(name: str, seed: int, workdir: str) -> Workload:
    return GENERATORS[name](seed, workdir)


def check_generated(w: Workload) -> None:
    """The generated inputs must show both regimes: the budget workloads
    two transitions, the spin figure one."""
    want = 1 if w.name == "spin_figure" else 2
    if len(w.transitions) != want:
        raise RuntimeError(f"{w.name} seed {w.seed}: generated {len(w.transitions)} "
                           f"regime transitions, expected {want}")
    if not all(math.isfinite(t) for t in w.transitions):
        raise RuntimeError(f"{w.name} seed {w.seed}: non-finite transition")

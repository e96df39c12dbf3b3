"""Seeded mutations of the committed configs: every one parses to a SweepConfig
or raises ConfigError, and every SweepConfig runs to a table or raises a
QnlError, without a warning."""

import copy
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from qnl import ConfigError, QnlError, SweepConfig, parse_config, run_budget

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# values that have broken the parser or the sweeps: denormals, numbers at and
# beyond a float's range, non-finite numbers, bools, strings, lists, objects
VALUES = [1e-320, 1e308, 10**400, -(10**400), math.nan, math.inf, -math.inf, 0, -1, 2, 0.5, 1.0,
          101, True, False, None, "x", "", [], [1.0, 2.0], [0.5, "a"], {}, {"type": "zero"},
          "fixed_SFF", "fixed_effective", "sweep_SFF_at_fixed_omega", "constant", "tabulated",
          "oscillator", "free_mass", "uniform", "effective", "log", "absolute"]
KEYS = ["omega", "frequency", "s_ff", "back_action", "allow_sigma", "sigma_zero", "hbar", "mode",
        "type", "re", "im", "mass", "gamma", "points", "start", "stop", "units", "t_eff", "walrus"]


def tabulated_config() -> dict:
    """A fixed_SFF config with a tabulated probe, K and bath."""
    nodes = np.linspace(0.4, 1.6, 13)
    return {
        "probe": {"type": "tabulated", "omega": nodes.tolist(), "re": (1.0 - nodes**2).tolist(),
                  "im": (-0.2 * nodes).tolist()},
        "back_action": {"type": "tabulated", "omega": nodes.tolist(),
                        "re": (0.05 * nodes).tolist(), "im": (0.02 * nodes).tolist()},
        "thermal": {"type": "effective", "omega": nodes.tolist(), "t_eff": (0.3 * nodes).tolist()},
        "mode": "fixed_SFF",
        "s_ff": 0.3,
        "frequency": {"start": 0.5, "stop": 1.5, "points": 21},
    }


BASES = [json.loads(path.read_text(encoding="utf-8")) for path in sorted(CONFIGS.glob("*.json"))]
BASES.append(tabulated_config())


def _containers(node, out: list) -> list:
    """Every dict and list in node, node included."""
    if isinstance(node, (dict, list)):
        out.append(node)
        for child in (node.values() if isinstance(node, dict) else node):
            _containers(child, out)
    return out


def mutate(raw: dict, rng: np.random.Generator) -> dict:
    """raw with 1 to 3 faults: a value replaced, a key deleted or a key added."""
    raw = copy.deepcopy(raw)
    for _ in range(rng.integers(1, 4)):
        containers = _containers(raw, [])
        parent = containers[rng.integers(len(containers))]
        value = copy.deepcopy(VALUES[rng.integers(len(VALUES))])
        kind = rng.integers(3)
        if isinstance(parent, list):
            if parent:
                parent[rng.integers(len(parent))] = value
        elif kind == 0 and parent:
            parent[list(parent)[rng.integers(len(parent))]] = value
        elif kind == 1 and parent:
            del parent[list(parent)[rng.integers(len(parent))]]
        else:
            parent[KEYS[rng.integers(len(KEYS))]] = value
    return raw


def mutated_configs(n: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    return [mutate(BASES[rng.integers(len(BASES))], rng) for _ in range(n)]


def _overrides(name: str, **changes) -> dict:
    raw = json.loads((CONFIGS / name).read_text(encoding="utf-8"))
    for key, value in changes.items():
        raw[key] = dict(raw[key], **value) if isinstance(value, dict) else value
    return raw


def _tabulated_overflow(field: str, part: str, i: int, value: float) -> dict:
    """oscillator_budget.json with tabulated_config()'s field table, part[i] set to value."""
    raw = json.loads((CONFIGS / "oscillator_budget.json").read_text(encoding="utf-8"))
    raw[field] = tabulated_config()[field]
    raw[field][part][i] = value
    return raw


# a |chi_inv|^2 that underflows, a budget sweep whose optimum is 0/0, a
# threshold scaling that overflows, and tabulated chi_inv and K whose
# interpolants overflow between two nodes
PINNED = {
    "tiny-mass": (_overrides("si_oscillator.json", probe={"mass": 1e-320}),
                  "omega=999000.0: chi_inv + K vanishes: "
                  "chi_inv=(1.998977745498e-311-9.98988878316e-313j), K=0j"),
    "tiny-hbar": (_overrides("spin_figure.json", hbar=1e-320),
                  "sum noise is not finite at s_ff=1e-323: nan for chi_inv=-0.2j, K=0j"),
    "huge-budget": (_overrides("spin_figure.json", hbar=100.0, s_ff={"stop": 1e308}),
                    "optimal triad at s_ff=1.0000000000000002e+154 for chi_inv=-0.2j, K=0j: "
                    "s_xx must be finite and >= 0, got inf"),
    "tabulated-chi-inv": (_tabulated_overflow("probe", "im", 5, 1e308),
                          "chi_inv is not finite at omega=0.81: (0.34299999999999986+infj)"),
    "tabulated-k": (_tabulated_overflow("back_action", "re", 5, 1e308),
                    "K is not finite at omega=0.81: (inf+0.0162j)"),
}


def outcome(raw: dict) -> str:
    """"table", or the error a parse or a run raises, as type: text."""
    try:
        cfg = parse_config(raw)
    except ConfigError as exc:
        return f"ConfigError: {exc}"
    assert isinstance(cfg, SweepConfig)
    try:
        run_budget(cfg)
    except QnlError as exc:
        return f"{type(exc).__name__}: {exc}"
    return "table"


@pytest.mark.parametrize("name", list(PINNED))
def test_pinned_reproductions_raise_a_domain_error(name):
    raw, text = PINNED[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert outcome(raw) == f"DomainError: {text}"


def test_mutated_configs_parse_or_raise_config_error_and_run_or_raise_qnl_error():
    outcomes = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for raw in mutated_configs(2000, 2026):
            outcomes.append(outcome(raw))
    kinds = {text.split(":")[0] for text in outcomes}
    # the corpus reaches every outcome: tables, config errors and run errors
    assert outcomes.count("table") >= 50 and {"ConfigError", "DomainError"} <= kinds, kinds

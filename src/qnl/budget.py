"""Declarative sweep configuration, budget computation and verification.

A configuration is a single JSON object (see parse_config for the schema).
run_budget is a pure function of the configuration: identical configs give
identical tables, including the config hash recorded in the metadata.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._version import __version__
from .errors import ConfigError, DomainError, FdtViolationError, QnlError
from .meter import commutator_check, gauge_transform, sigma, sum_noise_psd, uncertainty_slack
from .optimize import (
    optimize_fixed_backaction,
    optimize_fixed_eff_backaction,
    optimize_fixed_eff_backaction_sigma_zero,
    phase_transition_probe,
    threshold_eff,
    threshold_full,
)
from .oracle import OracleConfig, brute_force_min, random_saturating_triad
from .spectra import (
    ComplexTable,
    DampedOscillator,
    EffectiveTemperature,
    FreeMass,
    PhysConstants,
    Susceptibility,
    TabulatedSusceptibility,
    ThermalModel,
    UniformTemperature,
    ZeroTemperature,
    dql,
    fdt_psd,
    sql,
)
from .spin import matched_sum_noise
from .tables import (
    BudgetPoint,
    BudgetTable,
    SpinFigurePoint,
    SpinFigureTable,
    TableMeta,
)

log = logging.getLogger("qnl.budget")

MODES = ("fixed_SFF", "fixed_effective", "sweep_SFF_at_fixed_omega")


@dataclass(frozen=True)
class GridSpec:
    start: float
    stop: float
    points: int
    spacing: str = "linear"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.start) and math.isfinite(self.stop) and self.start < self.stop):
            raise ConfigError(f"grid start must be < stop, got {self.start!r}..{self.stop!r}")
        if self.points < 2:
            raise ConfigError(f"grid needs at least 2 points, got {self.points}")
        if self.spacing not in ("linear", "log"):
            raise ConfigError(f"grid spacing must be linear or log, got {self.spacing!r}")
        if self.spacing == "log" and self.start <= 0:
            raise ConfigError("log spacing requires start > 0")

    def values(self) -> np.ndarray:
        if self.spacing == "log":
            return np.geomspace(self.start, self.stop, self.points)
        return np.linspace(self.start, self.stop, self.points)


@dataclass(frozen=True)
class SffSweepSpec:
    """Back-action budget range for the fixed-frequency sweep; with
    units="threshold" the bounds are multiples of the effective threshold."""

    start: float = 0.01
    stop: float = 100.0
    points: int = 201
    spacing: str = "log"
    units: str = "threshold"

    def __post_init__(self) -> None:
        GridSpec(self.start, self.stop, self.points, self.spacing)
        if self.units not in ("threshold", "absolute"):
            raise ConfigError(f"s_ff units must be threshold or absolute, got {self.units!r}")

    def values(self, threshold: float) -> np.ndarray:
        grid = GridSpec(self.start, self.stop, self.points, self.spacing).values()
        if self.units == "threshold":
            return grid * threshold
        return grid


@dataclass(frozen=True)
class SweepConfig:
    probe: Susceptibility
    k_of_omega: Callable[[float], complex]
    thermal: ThermalModel
    constants: PhysConstants
    mode: str
    frequency: GridSpec | None
    s_ff: float | None
    s_ff_sweep: SffSweepSpec | None
    omega: float | None
    allow_sigma: bool
    sigma_zero: bool
    output_format: str | None
    output_path: str | None
    config_hash: str

    @property
    def sigma_constrained(self) -> bool:
        return self.sigma_zero or not self.allow_sigma


def _expect(obj: dict, key: str, types, path: str, default=None, required=False):
    if key not in obj:
        if required:
            raise ConfigError(f"{path}.{key}: required field missing")
        return default
    value = obj[key]
    if types is float:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
        raise ConfigError(f"{path}.{key}: expected a number, got {value!r}")
    if types is int:
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        raise ConfigError(f"{path}.{key}: expected an integer, got {value!r}")
    if not isinstance(value, types):
        raise ConfigError(f"{path}.{key}: expected {getattr(types, '__name__', types)}, got {value!r}")
    return value


def _tabulated(spec: dict, path: str) -> tuple[list, list]:
    """The {omega, re, im} sample lists of a tabulated spec, as (omega, values)."""
    omega = _expect(spec, "omega", list, path, required=True)
    re = _expect(spec, "re", list, path, required=True)
    im = _expect(spec, "im", list, path, required=True)
    if len(re) != len(im):
        raise ConfigError(f"{path}: re and im must have equal length")
    return omega, [complex(a, b) for a, b in zip(re, im)]


def _parse_probe(spec, path: str) -> Susceptibility:
    if not isinstance(spec, dict):
        raise ConfigError(f"{path}: expected an object, got {spec!r}")
    kind = _expect(spec, "type", str, path, required=True)
    try:
        if kind == "oscillator":
            return DampedOscillator(
                _expect(spec, "mass", float, path, required=True),
                _expect(spec, "omega0", float, path, required=True),
                _expect(spec, "gamma", float, path, 0.0),
            )
        if kind == "free_mass":
            return FreeMass(
                _expect(spec, "mass", float, path, required=True),
                _expect(spec, "gamma", float, path, 0.0),
            )
        if kind == "tabulated":
            return TabulatedSusceptibility(*_tabulated(spec, path))
    except QnlError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    raise ConfigError(f"{path}.type: unknown probe type {kind!r}")


def _parse_back_action(spec, path: str) -> Callable[[float], complex]:
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        value = complex(float(spec), 0.0)
        return lambda omega: value
    if not isinstance(spec, dict):
        raise ConfigError(f"{path}: expected an object or a number, got {spec!r}")
    kind = _expect(spec, "type", str, path, required=True)
    if kind == "constant":
        value = complex(_expect(spec, "re", float, path, 0.0), _expect(spec, "im", float, path, 0.0))
        return lambda omega: value
    if kind == "tabulated":
        omega, values = _tabulated(spec, path)
        try:
            return ComplexTable(omega, values)
        except QnlError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    raise ConfigError(f"{path}.type: unknown back-action type {kind!r}")


def _parse_thermal(spec, path: str) -> ThermalModel:
    if spec is None:
        return ZeroTemperature()
    if not isinstance(spec, dict):
        raise ConfigError(f"{path}: expected an object, got {spec!r}")
    kind = _expect(spec, "type", str, path, required=True)
    try:
        if kind == "zero":
            return ZeroTemperature()
        if kind == "uniform":
            return UniformTemperature(_expect(spec, "temperature", float, path, required=True))
        if kind == "effective":
            return EffectiveTemperature(
                _expect(spec, "omega", list, path, required=True),
                _expect(spec, "t_eff", list, path, required=True),
            )
    except QnlError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    raise ConfigError(f"{path}.type: unknown thermal type {kind!r}")


def config_hash(raw: dict) -> str:
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def parse_config(source: str | dict, name: str = "config") -> SweepConfig:
    """Parse and validate a sweep configuration.

    Accepts the JSON text or an already-decoded dict.  Errors carry the JSON
    line/column (parse errors) or the field path (validation errors).
    """
    if isinstance(source, str):
        try:
            raw = json.loads(source)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{name}: line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    else:
        raw = source
    if not isinstance(raw, dict):
        raise ConfigError(f"{name}: top level must be an object")

    known = {
        "probe", "back_action", "thermal", "hbar", "k_boltzmann", "mode",
        "frequency", "s_ff", "omega", "allow_sigma", "sigma_zero", "output",
    }
    for key in raw:
        if key not in known:
            raise ConfigError(f"{name}.{key}: unknown field")

    probe = _parse_probe(raw.get("probe"), f"{name}.probe")
    k_of_omega = _parse_back_action(raw.get("back_action", 0.0), f"{name}.back_action")
    thermal = _parse_thermal(raw.get("thermal"), f"{name}.thermal")
    try:
        constants = PhysConstants(
            _expect(raw, "hbar", float, name, 1.0),
            _expect(raw, "k_boltzmann", float, name, 1.0),
        )
    except QnlError as exc:
        raise ConfigError(f"{name}: {exc}") from None

    mode = _expect(raw, "mode", str, name, required=True)
    if mode not in MODES:
        raise ConfigError(f"{name}.mode: must be one of {MODES}, got {mode!r}")

    frequency = None
    if mode != "sweep_SFF_at_fixed_omega":
        spec = _expect(raw, "frequency", dict, name, required=True)
        frequency = GridSpec(
            _expect(spec, "start", float, f"{name}.frequency", required=True),
            _expect(spec, "stop", float, f"{name}.frequency", required=True),
            _expect(spec, "points", int, f"{name}.frequency", required=True),
            _expect(spec, "spacing", str, f"{name}.frequency", "linear"),
        )

    s_ff = None
    s_ff_sweep = None
    omega = raw.get("omega")
    if omega is not None:
        omega = _expect(raw, "omega", float, name)
        if not (math.isfinite(omega) and omega > 0):
            raise ConfigError(f"{name}.omega: must be positive and finite, got {omega!r}")
    if mode == "sweep_SFF_at_fixed_omega":
        if omega is None:
            raise ConfigError(f"{name}.omega: required for mode {mode!r}")
        spec = raw.get("s_ff")
        if spec is None:
            s_ff_sweep = SffSweepSpec()
        elif isinstance(spec, dict):
            s_ff_sweep = SffSweepSpec(
                _expect(spec, "start", float, f"{name}.s_ff", 0.01),
                _expect(spec, "stop", float, f"{name}.s_ff", 100.0),
                _expect(spec, "points", int, f"{name}.s_ff", 201),
                _expect(spec, "spacing", str, f"{name}.s_ff", "log"),
                _expect(spec, "units", str, f"{name}.s_ff", "threshold"),
            )
        else:
            raise ConfigError(f"{name}.s_ff: expected an object (range) for mode {mode!r}")
    else:
        s_ff = _expect(raw, "s_ff", float, name, required=True)
        if not (math.isfinite(s_ff) and s_ff > 0):
            raise ConfigError(f"{name}.s_ff: must be positive and finite, got {s_ff!r}")

    output_format = None
    output_path = None
    out = raw.get("output")
    if out is not None:
        if not isinstance(out, dict):
            raise ConfigError(f"{name}.output: expected an object")
        output_format = _expect(out, "format", str, f"{name}.output", None)
        if output_format is not None and output_format not in ("csv", "json"):
            raise ConfigError(f"{name}.output.format: must be csv or json, got {output_format!r}")
        output_path = _expect(out, "path", str, f"{name}.output", None)

    return SweepConfig(
        probe=probe,
        k_of_omega=k_of_omega,
        thermal=thermal,
        constants=constants,
        mode=mode,
        frequency=frequency,
        s_ff=s_ff,
        s_ff_sweep=s_ff_sweep,
        omega=omega,
        allow_sigma=_expect(raw, "allow_sigma", bool, name, True),
        sigma_zero=_expect(raw, "sigma_zero", bool, name, False),
        output_format=output_format,
        output_path=output_path,
        config_hash=config_hash(raw),
    )


def load_config(path: str) -> SweepConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), name=path)


def _budget_point(cfg: SweepConfig, omega: float) -> BudgetPoint:
    hbar = cfg.constants.hbar
    d = cfg.probe.chi_inv(omega)
    kv = complex(cfg.k_of_omega(omega))
    if cfg.mode == "fixed_effective":
        # the effective convention is the real-K case: the gauge kernel is Re K
        kv = complex(kv.real, 0.0)
    try:
        report = optimize_fixed_backaction(
            d, kv, cfg.s_ff, allow_sigma=not cfg.sigma_constrained, hbar=hbar
        )
    except FdtViolationError as exc:
        raise FdtViolationError(f"omega={omega!r}: {exc}") from None

    s_fdt = fdt_psd(cfg.probe, cfg.thermal, omega, cfg.constants)
    triad = report.optimal_triad
    return BudgetPoint(
        omega=omega,
        sql=sql(d, hbar=hbar),
        dql=dql(d, hbar=hbar),
        s_thr=report.s_threshold,
        s_sum_opt=report.s_sum,
        regime=report.regime.value,
        s_fdt=s_fdt,
        s_total=report.s_sum + s_fdt,
        sigma_opt=report.sigma_opt,
        s_xx_opt=triad.s_xx,
        re_s_xf_opt=triad.s_xf.real,
        im_s_xf_opt=triad.s_xf.imag,
    )


def _meta(cfg: SweepConfig, kind: str, values: Sequence[float], regimes: Sequence[str]) -> TableMeta:
    """Table metadata; the transitions are the swept values where the regime changes."""
    transitions = []
    for prev, cur, value in zip(regimes, regimes[1:], values[1:]):
        if cur != prev:
            transitions.append(float(value))
    return TableMeta(
        kind=kind,
        version=__version__,
        config_hash=cfg.config_hash,
        transitions=tuple(transitions),
    )


def _spin_budgets(cfg: SweepConfig) -> tuple[complex, float, list[float]]:
    """chi_inv at the sweep's fixed omega, the zero-kernel effective
    threshold, and the back-action budgets of the spin sweep."""
    d = cfg.probe.chi_inv(cfg.omega)
    thr0 = threshold_eff(d, 0.0, cfg.constants.hbar)  # LosslessProbeError for a lossless probe
    return d, thr0, [float(s) for s in (cfg.s_ff_sweep or SffSweepSpec()).values(thr0)]


def run_budget(cfg: SweepConfig, jobs: int = 1):
    """Compute the budget table for the configuration.

    Frequency-sweep modes return a BudgetTable; the fixed-frequency
    back-action sweep returns a SpinFigureTable.  Points are evaluated
    serially; jobs is accepted for compatibility and has no effect.
    """
    if cfg.mode == "sweep_SFF_at_fixed_omega":
        return run_spin_figure(cfg)
    omegas = [float(w) for w in cfg.frequency.values()]
    log.debug("budget sweep: mode=%s points=%d", cfg.mode, len(omegas))
    points = [_budget_point(cfg, w) for w in omegas]
    meta = _meta(cfg, "budget", omegas, [p.regime for p in points])
    return BudgetTable(points=tuple(points), meta=meta)


def run_spin_figure(cfg: SweepConfig, jobs: int = 1) -> SpinFigureTable:
    """Three-series sweep at fixed frequency: the unconstrained optimum, the
    sigma-zero optimum, and the back-action-matched spin configuration, all
    against the effective back-action budget (zero gauge kernel, K = 0).
    jobs is accepted for compatibility and has no effect."""
    if cfg.omega is None:
        raise ConfigError("spin-figure sweep requires a fixed omega in the config")
    hbar = cfg.constants.hbar
    d, thr0, budgets = _spin_budgets(cfg)
    log.debug("spin-figure sweep: %d budgets around thr0=%g", len(budgets), thr0)

    def point(s: float) -> SpinFigurePoint:
        full = optimize_fixed_eff_backaction(d, 0.0, s, hbar)
        zero = optimize_fixed_eff_backaction_sigma_zero(d, 0.0, s, hbar)
        matched = matched_sum_noise(s / hbar, d, hbar=hbar)
        return SpinFigurePoint(
            s_ff=s,
            s_sum_full=full.s_sum,
            s_sum_sigma_zero=zero.s_sum,
            s_sum_spin_matched=matched,
            regime_full=full.regime.value,
        )

    points = [point(s) for s in budgets]
    meta = _meta(cfg, "spin-figure", budgets, [p.regime_full for p in points])
    return SpinFigureTable(points=tuple(points), meta=meta)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            line = f"[{status}] {c.name}: measured={c.measured:.3e} tol={c.tolerance:.3e}"
            if c.detail:
                line += f" ({c.detail})"
            lines.append(line)
        lines.append("verification " + ("PASSED" if self.passed else "FAILED"))
        return "\n".join(lines)


def _verify_instances(cfg: SweepConfig, rng: np.random.Generator, samples: int):
    """Sample (omega, chi_inv, K, s_ff) working points from the config."""
    if cfg.mode == "sweep_SFF_at_fixed_omega":
        d, _, budgets = _spin_budgets(cfg)
        picks = rng.choice(len(budgets), size=min(samples, len(budgets)), replace=False)
        return [(cfg.omega, d, 0j, budgets[i]) for i in sorted(picks)]
    omegas = cfg.frequency.values()
    picks = rng.choice(len(omegas), size=min(samples, len(omegas)), replace=False)
    out = []
    for i in sorted(picks):
        w = float(omegas[i])
        out.append((w, cfg.probe.chi_inv(w), complex(cfg.k_of_omega(w)), float(cfg.s_ff)))
    return out


def verify(
    cfg: SweepConfig,
    seed: int = 0,
    samples: int = 6,
    golden_path: str | None = None,
    jobs: int = 1,
) -> VerificationReport:
    """Run the invariant suite at the configuration's scale.

    Checks gauge invariance, oracle agreement with the closed forms,
    commutator cancellation, the derivative structure at the first lossy
    grid point's threshold, thermal-floor consistency, and (optionally) a
    golden-table comparison.  jobs is accepted and has no effect.
    """
    hbar = cfg.constants.hbar
    rng = np.random.default_rng(seed)
    checks: list[CheckResult] = []

    if cfg.mode == "fixed_SFF":
        # infeasible configs are an input error, not a failed check
        for w in cfg.frequency.values():
            floor = hbar * abs(complex(cfg.k_of_omega(float(w))).imag)
            if cfg.s_ff < floor:
                raise FdtViolationError(
                    f"omega={float(w)!r}: s_ff={cfg.s_ff!r} below the meter FDT floor {floor!r}"
                )

    instances = _verify_instances(cfg, rng, samples)

    # Gauge / feedback invariance on saturating triads at config scale.
    worst = 0.0
    for idx, (w, d, kv, s_ff) in enumerate(instances):
        if s_ff <= hbar * abs(kv.imag):
            continue
        triad = random_saturating_triad(kv, s_ff, seed=seed + idx, hbar=hbar)
        kernel = complex(rng.normal(), rng.normal())
        eff, gv = gauge_transform(triad, kv, kernel)
        # deviations measured against the terms summed on the larger side
        sum_scale = max(
            abs(d + kv) ** 2 * triad.s_xx + 2 * abs(triad.s_xf) + triad.s_ff,
            abs(d + gv) ** 2 * eff.s_xx + 2 * abs(eff.s_xf) + eff.s_ff,
        ) + hbar
        worst = max(
            worst, abs(sum_noise_psd(eff, d, gv) - sum_noise_psd(triad, d, kv)) / sum_scale
        )
        slack_scale = max(
            triad.s_xx * triad.s_ff + abs(triad.s_xf) ** 2,
            eff.s_xx * eff.s_ff + abs(eff.s_xf) ** 2,
        ) + hbar * hbar / 4.0
        worst = max(
            worst,
            abs(uncertainty_slack(eff, gv, hbar) - uncertainty_slack(triad, kv, hbar)) / slack_scale,
        )
        sig_scale = max(
            abs(kv.imag) * triad.s_xx + abs(triad.s_xf.imag),
            abs(gv.imag) * eff.s_xx + abs(eff.s_xf.imag),
        ) + hbar
        worst = max(worst, abs(sigma(eff, gv) - sigma(triad, kv)) / sig_scale)
    checks.append(CheckResult("gauge-invariance", worst <= 1e-12, worst, 1e-12))

    # Closed form vs brute force (skip the degenerate exact-FDT-boundary case).
    worst = 0.0
    undercut = 0.0
    oracle_cfg = OracleConfig()
    for w, d, kv, s_ff in instances:
        floor = hbar * abs(kv.imag)
        if floor > 0.0 and s_ff <= floor * (1.0 + 1e-9):
            continue
        closed = optimize_fixed_backaction(d, kv, s_ff, hbar=hbar).s_sum
        got = brute_force_min(d, kv, s_ff, oracle_cfg, hbar=hbar).s_sum_min
        worst = max(worst, abs(got - closed) / closed)
        undercut = max(undercut, (closed - got) / closed)
    checks.append(CheckResult("oracle-agreement", worst <= 1e-3, worst, 1e-3))
    checks.append(CheckResult("oracle-no-undercut", undercut <= 1e-3, undercut, 1e-3))

    # Commutator cancellation at every sampled point.
    worst = 0.0
    for w, d, kv, _ in instances:
        worst = max(worst, abs(commutator_check(d, kv, hbar)[2]))
    checks.append(CheckResult("commutator-residual", worst <= 1e-14, worst, 1e-14))

    # Threshold derivative structure at the first lossy sampled point.
    probe_done = False
    for w, d, kv, s_ff in instances:
        if d.imag == 0.0:
            continue
        thr = threshold_full(d, kv, hbar)
        try:
            probe = phase_transition_probe(d, kv, hbar=hbar)
        except DomainError:
            # threshold within a probe step of the meter FDT floor
            continue
        expected_d2 = hbar * abs(d.imag) / (thr**2 - (hbar * kv.imag) ** 2)
        rel = abs(probe.d2_below - expected_d2) / expected_d2
        checks.append(CheckResult("threshold-curvature-below", rel <= 0.02, rel, 0.02,
                                  f"omega={w:g}"))
        above = abs(probe.d2_above) / max(1.0, expected_d2)
        checks.append(CheckResult("threshold-flat-above", above <= 1e-6, above, 1e-6))
        jump = abs(probe.d1_jump)
        checks.append(CheckResult("threshold-slope-continuity", jump <= 1e-6, jump, 1e-6))
        probe_done = True
        break
    if not probe_done:
        checks.append(
            CheckResult("threshold-derivatives", True, 0.0, 0.0, "no probeable lossy point sampled")
        )

    # Thermal force PSD never below the dissipation floor.
    worst = -math.inf
    for w, d, kv, _ in instances:
        floor = dql(d, hbar=hbar)
        worst = max(worst, floor - fdt_psd(cfg.probe, cfg.thermal, w, cfg.constants))
    checks.append(CheckResult("fdt-floor", worst <= 0.0, worst, 0.0))

    if golden_path is not None:
        checks.append(_golden_check(cfg, golden_path))

    report = VerificationReport(checks=tuple(checks))
    log.info("verification %s", "passed" if report.passed else "FAILED")
    return report


def _golden_check(cfg: SweepConfig, golden_path: str) -> CheckResult:
    from .tables import load_table

    with open(golden_path, "r", encoding="utf-8") as fh:
        golden = load_table(fh.read())
    fresh = run_budget(cfg)
    if type(golden) is not type(fresh):
        return CheckResult("golden-match", False, 1.0, 0.0, "table kind differs")
    golden_rows = golden.rows()
    fresh_rows = fresh.rows()
    if len(golden_rows) != len(fresh_rows):
        return CheckResult(
            "golden-match", False, float(abs(len(golden_rows) - len(fresh_rows))), 0.0,
            f"row count {len(golden_rows)} vs {len(fresh_rows)}",
        )
    for i, (a, b) in enumerate(zip(golden_rows, fresh_rows)):
        if a != b:
            cols = [c for c, (x, y) in zip(fresh.COLUMNS, zip(a, b)) if x != y]
            return CheckResult(
                "golden-match", False, 1.0, 0.0,
                f"first differing row {i} (columns: {', '.join(cols)})",
            )
    return CheckResult("golden-match", True, 0.0, 0.0, f"{len(fresh_rows)} rows identical")

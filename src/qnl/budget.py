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
from dataclasses import MISSING, dataclass, fields

import numpy as np

from ._version import __version__
from .errors import ConfigError, DomainError, FdtViolationError
from .meter import commutator_check, gauge_transform, sigma, sum_noise_psd, uncertainty_slack
from .optimize import (
    _optimum_grid,
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
from .tables import BudgetTable, SpinFigureTable, TableMeta, load_table

log = logging.getLogger("qnl.budget")

MODES = ("fixed_SFF", "fixed_effective", "sweep_SFF_at_fixed_omega")
MAX_GRID_POINTS = 10**6  # ten times the largest sweep the package is sized for


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
        if self.points > MAX_GRID_POINTS:
            raise ConfigError(f"grid has at most {MAX_GRID_POINTS} points, got {self.points}")
        if self.spacing not in ("linear", "log"):
            raise ConfigError(f"grid spacing must be linear or log, got {self.spacing!r}")
        if self.spacing == "log" and self.start <= 0:
            raise ConfigError("log spacing requires start > 0")

    def values(self) -> np.ndarray:
        if self.spacing == "log":
            return np.geomspace(self.start, self.stop, self.points)
        return np.linspace(self.start, self.stop, self.points)


@dataclass(frozen=True)
class SffSweepSpec(GridSpec):
    """Back-action budget range for the fixed-frequency sweep; with
    units="threshold" the bounds are multiples of the effective threshold."""

    start: float = 0.01
    stop: float = 100.0
    points: int = 201
    spacing: str = "log"
    units: str = "threshold"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.units not in ("threshold", "absolute"):
            raise ConfigError(f"s_ff units must be threshold or absolute, got {self.units!r}")

    def values(self, threshold: float) -> np.ndarray:
        grid = super().values()
        return grid * threshold if self.units == "threshold" else grid


@dataclass(frozen=True)
class SweepConfig:
    """A parsed configuration with its mode's rules applied.  k_of_omega is the K
    that the optimizer sees: Re K under the effective-budget convention.
    allow_sigma is False when either JSON key allow_sigma or sigma_zero pins
    sigma.  s_ff_sweep is set exactly in the sweep mode, which requires omega.
    Sweeps and verify take the models a config describes, read through their
    array forms; a custom probe, bath or K works with the scalar functions."""

    probe: Susceptibility
    k_of_omega: ComplexTable | _ConstantK
    thermal: ThermalModel
    constants: PhysConstants
    mode: str
    frequency: GridSpec | None
    s_ff: float | None
    s_ff_sweep: SffSweepSpec | None
    omega: float | None
    allow_sigma: bool
    output_format: str | None
    output_path: str | None
    config_hash: str


def _number(value, where: str) -> float:
    """value as a float: a JSON number that is no bool and fits a float."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{where}: number too large for a float") from None


def _known_only(obj: dict, known, path: str) -> None:
    """Reject the first key of obj not in known: path.key: unknown field."""
    for key in obj:
        if key not in known:
            raise ConfigError(f"{path}.{key}: unknown field")


def _expect(obj: dict, key: str, types, path: str, default=None, required=False):
    if key not in obj:
        if required:
            raise ConfigError(f"{path}.{key}: required field missing")
        return default
    value = obj[key]
    if types is float:
        return _number(value, f"{path}.{key}")
    if types is int:
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        raise ConfigError(f"{path}.{key}: expected an integer, got {value!r}")
    if not isinstance(value, types):
        raise ConfigError(f"{path}.{key}: expected {getattr(types, '__name__', types)}, got {value!r}")
    return value


def _numbers(spec: dict, path: str, *keys) -> list:
    """The required lists of numbers spec[key], each number as a float, of a
    tabulated spec: one that holds no key but these and type."""
    _known_only(spec, ("type", *keys), path)
    return [[_number(v, f"{path}.{key}[{i}]") for i, v in enumerate(
        _expect(spec, key, list, path, required=True))] for key in keys]


def _tabulated(spec: dict, path: str) -> tuple[list, list]:
    """The {omega, re, im} sample lists of a tabulated spec, as (omega, values)."""
    omega, re, im = _numbers(spec, path, "omega", "re", "im")
    if len(re) != len(im):
        raise ConfigError(f"{path}: re and im must have equal length")
    return omega, [complex(a, b) for a, b in zip(re, im)]


@dataclass(frozen=True)
class _ConstantK:
    """A frequency-independent K, callable, with a ComplexTable's array form."""

    value: complex

    def __call__(self, omega: float) -> complex:
        return self.value

    def _on_grid(self, omega: np.ndarray) -> tuple:
        return np.full(omega.shape, self.value.real), np.full(omega.shape, self.value.imag), False


def _parse_back_action(spec, path: str, real: bool) -> ComplexTable | _ConstantK:
    """K(omega) from its spec; with real, its real part Re K (Im K is still validated)."""
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        spec = {"type": "constant", "re": spec}
    if not isinstance(spec, dict):
        raise ConfigError(f"{path}: expected an object or a number, got {spec!r}")
    kind = _expect(spec, "type", str, path, required=True)
    if kind == "constant":
        _known_only(spec, ("type", "re", "im"), path)
        k = complex(_expect(spec, "re", float, path, 0.0), _expect(spec, "im", float, path, 0.0))
        if not (math.isfinite(k.real) and math.isfinite(k.imag)):
            raise ConfigError(f"{path}: K must be finite, got {k!r}")
        return _ConstantK(complex(k.real, 0.0) if real else k)
    if kind == "tabulated":
        omega, values = _tabulated(spec, path)
        try:
            table = ComplexTable(omega, values)
        except DomainError as exc:
            raise ConfigError(f"{path}: {exc}") from None
        return ComplexTable(omega, [v.real for v in values]) if real else table
    raise ConfigError(f"{path}.type: unknown back-action type {kind!r}")


_TYPES = {"float": float, "int": int, "str": str}  # a field's annotation, as _expect checks it


def _parse_fields(cls, spec: dict, path: str, known=()):
    """A cls from spec: each field of cls in order, read as its annotated type, those
    with no default required; spec may also hold the keys in known."""
    _known_only(spec, [*known, *(f.name for f in fields(cls))], path)
    return cls(**{f.name: _expect(spec, f.name, _TYPES[f.type], path, required=True)
                  for f in fields(cls) if f.default is MISSING or f.name in spec})


_PROBES = {"oscillator": DampedOscillator, "free_mass": FreeMass,
           "tabulated": lambda spec, path: TabulatedSusceptibility(*_tabulated(spec, path))}
_BATHS = {"zero": ZeroTemperature, "uniform": UniformTemperature,
          "effective": lambda s, path: EffectiveTemperature(*_numbers(s, path, "omega", "t_eff"))}


def _parse_model(spec, path: str, kinds: dict, what: str):
    """The model spec describes: a class of kinds parsed from its fields, or a
    tabulated kind's reader; a value the model rejects is a ConfigError on path."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{path}: expected an object, got {spec!r}")
    kind = _expect(spec, "type", str, path, required=True)
    if kind not in kinds:
        raise ConfigError(f"{path}.type: unknown {what} type {kind!r}")
    make = kinds[kind]
    try:
        if isinstance(make, type):
            return _parse_fields(make, spec, path, known=("type",))
        return make(spec, path)
    except DomainError as exc:
        raise ConfigError(f"{path}: {exc}") from None


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

    _known_only(raw, ("probe", "back_action", "thermal", "hbar", "k_boltzmann", "mode", "frequency",
                      "s_ff", "omega", "allow_sigma", "sigma_zero", "output"), name)

    mode = _expect(raw, "mode", str, name, required=True)
    if mode not in MODES:
        raise ConfigError(f"{name}.mode: must be one of {MODES}, got {mode!r}")
    if mode == "sweep_SFF_at_fixed_omega":  # the spin sweep has K = 0 and both sigma series
        for key in ("frequency", "back_action", "allow_sigma", "sigma_zero"):
            if key in raw:
                raise ConfigError(f"{name}.{key}: not read in mode {mode!r}")
    probe = _parse_model(raw.get("probe"), f"{name}.probe", _PROBES, "probe")
    k_of_omega = _parse_back_action(raw.get("back_action", 0.0), f"{name}.back_action",
                                    real=mode == "fixed_effective")
    thermal = raw.get("thermal")  # missing or null: T = 0
    thermal = ZeroTemperature() if thermal is None else _parse_model(
        thermal, f"{name}.thermal", _BATHS, "thermal")
    try:
        constants = PhysConstants(
            _expect(raw, "hbar", float, name, 1.0),
            _expect(raw, "k_boltzmann", float, name, 1.0),
        )
    except DomainError as exc:
        raise ConfigError(f"{name}: {exc}") from None

    frequency = None
    if mode != "sweep_SFF_at_fixed_omega":
        spec = _expect(raw, "frequency", dict, name, required=True)
        frequency = _parse_fields(GridSpec, spec, f"{name}.frequency")

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
        if spec is not None and not isinstance(spec, dict):
            raise ConfigError(f"{name}.s_ff: expected an object (range) for mode {mode!r}")
        s_ff_sweep = _parse_fields(SffSweepSpec, spec or {}, f"{name}.s_ff")
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
        _known_only(out, ("format", "path"), f"{name}.output")
        output_format = _expect(out, "format", str, f"{name}.output", None)
        if output_format is not None and output_format not in ("csv", "json"):
            raise ConfigError(f"{name}.output.format: must be csv or json, got {output_format!r}")
        output_path = _expect(out, "path", str, f"{name}.output", None)
    allow_sigma = _expect(raw, "allow_sigma", bool, name, True)
    sigma_zero = _expect(raw, "sigma_zero", bool, name, False)

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
        allow_sigma=allow_sigma and not sigma_zero,
        output_format=output_format,
        output_path=output_path,
        config_hash=config_hash(raw),
    )


def load_config(path: str) -> SweepConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), name=path)


def _budget_point(cfg: SweepConfig, omega: float) -> None:
    """The scalar calls of a budget row at omega, in order, for their first error."""
    hbar = cfg.constants.hbar
    d = cfg.probe.chi_inv(omega)
    kv = complex(cfg.k_of_omega(omega))
    try:
        optimize_fixed_backaction(d, kv, cfg.s_ff, allow_sigma=cfg.allow_sigma, hbar=hbar)
    except FdtViolationError as exc:
        raise FdtViolationError(f"omega={omega!r}: {exc}") from None
    sql(d, hbar=hbar)  # abs(d) raises OverflowError where |chi_inv| exceeds a float
    fdt_psd(d, cfg.thermal, omega, cfg.constants)


def _sweep_table(cls, cfg: SweepConfig, arrays: list, bad, point):
    """The cls table of a sweep's arrays.  Rows flagged bad are re-run in order through
    the scalar point(i), which raises the scalar path's first error; a row it accepts
    already holds the scalar values, bit for bit, and is kept as the sweep made it."""
    for i in np.flatnonzero(bad).tolist():
        point(i)
    dql = arrays[cls.COLUMNS.index(cls._REGIME)]
    changes = np.flatnonzero(dql[1:] != dql[:-1]) + 1  # the transitions
    meta = TableMeta(cls._KIND, __version__, cfg.config_hash, tuple(arrays[0][changes].tolist()))
    return cls._of(arrays, meta)


def _budget_columns(cfg: SweepConfig, omegas: np.ndarray) -> tuple[list, np.ndarray]:
    """_budget_point over the grid, bit for bit: the table's arrays and a mask True
    where it raises.  It reads each model through its array form, which every
    model a config describes has."""
    hbar, k_b = cfg.constants.hbar, cfg.constants.k_b
    with np.errstate(all="ignore"):  # a row that overflows is flagged, and re-run to raise
        d_re, d_im, bad = cfg.probe._chi_inv_grid(omegas)
        k_re, k_im, k_bad = cfg.k_of_omega._on_grid(omegas)
        opt = _optimum_grid(d_re, d_im, k_re, k_im, cfg.s_ff, cfg.allow_sigma, hbar)
        temperature, t_bad = cfg.thermal._temperature_grid(omegas)
        dql_col = hbar * np.abs(d_im)
        # fdt_psd, with math.tanh: np.tanh differs from it in the last bit
        two_kt = 2.0 * k_b * temperature
        tanh = np.fromiter(map(math.tanh, (hbar * omegas / two_kt).tolist()), float, len(omegas))
        s_fdt = np.where(two_kt == 0.0, dql_col, dql_col / tanh)
        floats = [omegas, hbar * np.hypot(d_re, d_im), dql_col, opt["s_threshold"], opt["s_sum"],
                  s_fdt, opt["s_sum"] + s_fdt, opt["sigma_opt"], opt["s_xx"], opt["s_xf_re"],
                  opt["s_xf_im"]]
        bad = bad | k_bad | t_bad | opt["bad"] | ~(np.isfinite(omegas) & (omegas > 0.0))
        bad |= np.isnan(opt["s_threshold"]) | ~np.isfinite(sum(floats[i] for i in (1, 2, 5, 6)))
    arrays = [c + 0.0 for c in floats]  # + 0.0 turns -0.0 into 0.0, as _floats does
    arrays.insert(5, opt["dql"])
    return arrays, bad


def run_budget(cfg: SweepConfig, jobs: int = 1):
    """Compute the budget table for the configuration.

    Frequency-sweep modes return a BudgetTable; the fixed-frequency
    back-action sweep returns a SpinFigureTable.  The grid is evaluated as
    arrays, bit-identical to the scalar functions, and the table keeps them
    as its storage; points where those raise are re-run through them, for
    the same error.  jobs has no effect.
    """
    if cfg.mode == "sweep_SFF_at_fixed_omega":
        return run_spin_figure(cfg)
    grid = cfg.frequency.values()
    log.debug("budget sweep: mode=%s points=%d", cfg.mode, len(grid))
    arrays, bad = _budget_columns(cfg, grid)
    return _sweep_table(BudgetTable, cfg, arrays, bad, lambda i: _budget_point(cfg, float(grid[i])))


def run_spin_figure(cfg: SweepConfig, jobs: int = 1) -> SpinFigureTable:
    """Three-series sweep at fixed frequency: the unconstrained optimum, the
    sigma-zero optimum, and the back-action-matched spin configuration, all
    against the effective back-action budget (zero gauge kernel, K = 0).
    The sigma-zero series lies below the matched one only up to
    S_FF = 2*thr0 and above it beyond that point.  Both optima come from one
    kernel pass (allow_sigma as the column [True, False]) and the matched
    series from matched_sum_noise's formula on the array, bit-identical to
    the scalar calls; the table keeps these arrays.  jobs has no effect."""
    if cfg.mode != "sweep_SFF_at_fixed_omega":
        raise ConfigError(f"spin-figure needs mode 'sweep_SFF_at_fixed_omega', got {cfg.mode!r}")
    hbar = cfg.constants.hbar
    d = cfg.probe.chi_inv(cfg.omega)
    thr0 = threshold_eff(d, 0.0, hbar)  # LosslessProbeError for a lossless probe
    budgets = cfg.s_ff_sweep.values(thr0)
    log.debug("spin-figure sweep: %d budgets around thr0=%g", len(budgets), thr0)

    def point(i: int) -> None:  # the scalar calls of row i, in order, for their first error
        s = float(budgets[i])
        optimize_fixed_eff_backaction(d, 0.0, s, hbar)
        optimize_fixed_eff_backaction_sigma_zero(d, 0.0, s, hbar)
        matched_sum_noise(s / hbar, d, hbar=hbar)

    opt = _optimum_grid(d.real, d.imag, 0.0, 0.0, budgets, np.array([[True], [False]]), hbar)
    # abs(d) ** 2 raises OverflowError only where thr0 = inf makes every budget invalid
    scale = hbar * hbar * abs(d) ** 2 if math.isfinite(thr0) else math.inf
    with np.errstate(all="ignore"):
        theta = budgets / hbar  # matched_sum_noise(s / hbar, ...) with S_FF = hbar*theta_i
        matched = hbar * abs(d.imag) + scale / (4.0 * (hbar * theta))
    bad = opt["bad"].any(axis=0) | ~(np.isfinite(theta) & (theta > 0.0)) | ~np.isfinite(matched)
    return _sweep_table(SpinFigureTable, cfg, [budgets, *opt["s_sum"], matched, opt["dql"][0]],
                        bad, point)


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


def _verify_instances(cfg: SweepConfig, table, rng: np.random.Generator, samples: int):
    """Sample (omega, chi_inv, K, s_ff) working points from the rows of the config's table."""
    grid = table.arrays[0]  # the frequencies, or the spin sweep's budgets
    picks = np.sort(rng.choice(len(grid), size=min(samples, len(grid)), replace=False))
    if cfg.mode == "sweep_SFF_at_fixed_omega":
        d = cfg.probe.chi_inv(cfg.omega)
        return [(cfg.omega, d, 0j, s) for s in grid[picks].tolist()]
    return [(w, cfg.probe.chi_inv(w), complex(cfg.k_of_omega(w)), float(cfg.s_ff))
            for w in grid[picks].tolist()]


def verify(
    cfg: SweepConfig,
    seed: int = 0,
    samples: int = 6,
    golden_path: str | None = None,
    jobs: int = 1,
) -> VerificationReport:
    """Run the invariant suite at the configuration's scale.

    The sweep runs first, once: verify raises what run_budget raises, so an
    infeasible config is an input error, not a failed check.  Checks gauge
    invariance, oracle agreement with the closed forms, commutator
    cancellation, the derivative structure at the threshold of the first
    lossy sampled instance (the first lossy point among the seeded picks of
    samples rows of the table), thermal-floor consistency, and (optionally)
    a comparison of the table with the golden one.  samples must be >= 1.
    jobs is accepted and has no effect.
    """
    if samples < 1:
        raise ConfigError(f"samples must be >= 1, got {samples!r}")
    table = run_budget(cfg)
    hbar = cfg.constants.hbar
    rng = np.random.default_rng(seed)
    checks: list[CheckResult] = []
    instances = _verify_instances(cfg, table, rng, samples)

    # Gauge / feedback invariance on saturating triads at config scale.
    worst = 0.0
    for idx, (w, d, kv, s_ff) in enumerate(instances):
        if s_ff <= hbar * abs(kv.imag):
            continue
        triad = random_saturating_triad(kv, s_ff, seed=seed + idx, hbar=hbar)
        kernel = complex(rng.normal(), rng.normal()) * abs(d + kv)  # in units of chi_inv
        eff, gv = gauge_transform(triad, kv, kernel)
        # deviations measured against the terms summed on the larger side
        sum_scale = max(
            abs(d + kv) ** 2 * triad.s_xx + 2 * abs(d + kv) * abs(triad.s_xf) + triad.s_ff,
            abs(d + gv) ** 2 * eff.s_xx + 2 * abs(d + gv) * abs(eff.s_xf) + eff.s_ff,
        )
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

    # Commutator cancellation at every sampled point, relative to the sum of
    # the magnitudes of the cancelling terms 2hbar(Im(chi_inv + K) - Im K - Im chi_inv).
    worst = 0.0
    for w, d, kv, _ in instances:
        terms = 2.0 * hbar * (abs((d + kv).imag) + abs(kv.imag) + abs(d.imag))
        residual = commutator_check(d, kv, hbar)[2]
        worst = max(worst, abs(residual) / terms if residual else 0.0)
    checks.append(CheckResult("commutator-residual", worst <= 1e-14, worst, 1e-14))

    # Threshold derivative structure at the first lossy sampled point.
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
        above = abs(probe.d2_above) / expected_d2
        checks.append(CheckResult("threshold-flat-above", above <= 1e-6, above, 1e-6))
        jump = abs(probe.d1_jump)
        checks.append(CheckResult("threshold-slope-continuity", jump <= 1e-6, jump, 1e-6))
        break
    else:
        checks.append(CheckResult("threshold-derivatives", True, 0.0, 0.0,
                                  "no probeable lossy point sampled"))

    # Thermal force PSD never below the dissipation floor.
    worst = -math.inf
    for w, d, kv, _ in instances:
        floor = dql(d, hbar=hbar)
        worst = max(worst, floor - fdt_psd(d, cfg.thermal, w, cfg.constants))
    checks.append(CheckResult("fdt-floor", worst <= 0.0, worst, 0.0))

    if golden_path is not None:
        checks.append(_golden_check(table, golden_path))

    report = VerificationReport(checks=tuple(checks))
    log.info("verification %s", "passed" if report.passed else "FAILED")
    return report


def _golden_check(fresh, golden_path: str) -> CheckResult:
    """golden-match: the table fresh against the one emitted at golden_path."""
    with open(golden_path, "r", encoding="utf-8") as fh:
        golden = load_table(fh.read())
    if type(golden) is not type(fresh):
        return CheckResult("golden-match", False, 1.0, 0.0, "table kind differs")
    n_golden, n_fresh = len(golden.arrays[0]), len(fresh.arrays[0])
    if n_golden != n_fresh:
        return CheckResult("golden-match", False, float(abs(n_golden - n_fresh)), 0.0,
                           f"row count {n_golden} vs {n_fresh}")
    differ = [(c, a != b) for c, a, b in zip(fresh.COLUMNS, golden.arrays, fresh.arrays)]
    if any(ne.any() for _, ne in differ):
        i = min(int(np.argmax(ne)) for _, ne in differ if ne.any())
        cols = [c for c, ne in differ if ne[i]]
        return CheckResult("golden-match", False, 1.0, 0.0,
                           f"first differing row {i} (columns: {', '.join(cols)})")
    return CheckResult("golden-match", True, 0.0, 0.0, f"{n_fresh} rows identical")

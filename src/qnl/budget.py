"""Declarative sweep configuration, budget computation and verification.

A configuration is a single JSON object (see parse_config for the schema).
run_budget is a pure function of the configuration: identical configs give
identical tables, including the config hash recorded in the metadata.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys

import numpy as np

from ._record import Record
from ._version import __version__
from .errors import ConfigError, DomainError, FdtViolationError
from .meter import _gauge_deviations
from .optimize import (
    _optimum_grid,
    optimize_fixed_backaction,
    optimize_fixed_eff_backaction,
    optimize_fixed_eff_backaction_sigma_zero,
    phase_transition_probe,
    threshold_eff,
)
from .oracle import OracleConfig, _oracle_grid, brute_force_min, saturating_s_xx
from .spectra import (
    ComplexTable,
    DampedOscillator,
    EffectiveTemperature,
    FreeMass,
    PhysConstants,
    TabulatedSusceptibility,
    UniformTemperature,
    ZeroTemperature,
    _finite_at,
    fdt_psd,
    sql,
)
from .spin import matched_sum_noise
from .tables import BudgetTable, SpinFigureTable, TableMeta, load_table


def _log(level: str, msg: str, *args) -> None:
    """Log on qnl.budget once logging is loaded: before, no handler could show the record."""
    if (logging := sys.modules.get("logging")) is not None:
        getattr(logging.getLogger("qnl.budget"), level)(msg, *args, stacklevel=2)


_COMMON_KEYS = ("mode", "probe", "thermal", "hbar", "k_boltzmann")  # top-level keys of every mode
_MODE_KEYS = {  # and those each mode reads besides
    "fixed_SFF": ("back_action", "frequency", "s_ff", "allow_sigma"),
    "fixed_effective": ("back_action", "frequency", "s_ff", "allow_sigma"),
    "sweep_SFF_at_fixed_omega": ("omega", "s_ff"),  # K = 0, and it emits both sigma series
}
MODES = tuple(_MODE_KEYS)
MAX_GRID_POINTS = 10**6  # ten times the largest sweep the package is sized for


class GridSpec(Record):
    start: float
    stop: float
    points: int
    spacing: str = "linear"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.start) and math.isfinite(self.stop) and self.start < self.stop):
            raise DomainError(f"grid start must be < stop, got {self.start!r}..{self.stop!r}")
        if self.start <= 0:  # a frequency or a back-action budget
            raise DomainError(f"grid start must be > 0, got {self.start!r}")
        if self.points < 2:
            raise DomainError(f"grid needs at least 2 points, got {self.points}")
        if self.points > MAX_GRID_POINTS:
            raise DomainError(f"grid has at most {MAX_GRID_POINTS} points, got {self.points}")
        if self.spacing not in ("linear", "log"):
            raise DomainError(f"grid spacing must be linear or log, got {self.spacing!r}")

    def values(self) -> np.ndarray:
        if self.spacing == "log":
            return np.geomspace(self.start, self.stop, self.points)
        return np.linspace(self.start, self.stop, self.points)


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
            raise DomainError(f"units must be threshold or absolute, got {self.units!r}")

    def values(self, threshold: float) -> np.ndarray:
        grid = super().values()
        with np.errstate(over="ignore"):  # a budget that overflows is flagged by the sweep
            return grid * threshold if self.units == "threshold" else grid


class SweepConfig(Record):
    """A parsed configuration with its mode's rules applied.  k_of_omega is the K
    that the optimizer sees: Re K under the effective-budget convention.
    s_ff_sweep is set exactly in the sweep mode, which requires omega.  A sweep,
    and verify at its sampled points, reads each model through its array form,
    which only the models a config describes have; verify's fdt-floor check
    reads the bath's _temperature_grid too."""

    probe: DampedOscillator | FreeMass | TabulatedSusceptibility
    k_of_omega: ComplexTable | _ConstantK
    thermal: ZeroTemperature | UniformTemperature | EffectiveTemperature
    constants: PhysConstants
    mode: str
    frequency: GridSpec | None
    s_ff: float | None
    s_ff_sweep: SffSweepSpec | None
    omega: float | None
    allow_sigma: bool
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
        name = "an object" if types is dict else types.__name__  # as _parse_model says it
        raise ConfigError(f"{path}.{key}: expected {name}, got {value!r}")
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


class _ConstantK(Record):
    """A frequency-independent K = re + i*im, callable, with a ComplexTable's array form."""

    re: float = 0.0
    im: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.re) and math.isfinite(self.im)):
            raise DomainError(f"K must be finite, got {complex(self.re, self.im)!r}")

    def __call__(self, omega: float) -> complex:
        return complex(self.re, self.im)

    def _on_grid(self, omega: np.ndarray) -> tuple:
        return np.full(omega.shape, self.re), np.full(omega.shape, self.im), False


_TYPES = {"float": float, "int": int, "str": str}  # a field's annotation, as _expect checks it


def _parse_fields(cls, spec: dict, path: str, known=()):
    """A cls from spec: each field of cls in order, read as its annotated type, those
    with no default required; spec may also hold the keys in known.  A value cls
    rejects is a ConfigError on path."""
    _known_only(spec, [*known, *cls._fields], path)
    try:
        return cls(**{f: _expect(spec, f, _TYPES[kind], path, required=True)
                      for f, kind in cls._fields.items() if f not in cls._defaults or f in spec})
    except DomainError as exc:
        raise ConfigError(f"{path}: {exc}") from None


_PROBES = {"oscillator": DampedOscillator, "free_mass": FreeMass,
           "tabulated": lambda spec, path: TabulatedSusceptibility(*_tabulated(spec, path))}
_BATHS = {"zero": ZeroTemperature, "uniform": UniformTemperature,
          "effective": lambda s, path: EffectiveTemperature(*_numbers(s, path, "omega", "t_eff"))}
_BACK_ACTIONS = {"constant": _ConstantK,
                 "tabulated": lambda spec, path: ComplexTable(*_tabulated(spec, path))}


def _parse_model(spec, path: str, kinds: dict, what: str):
    """The model spec describes: a class of kinds parsed from its fields, or a
    tabulated kind's reader; a value the model rejects is a ConfigError on path."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{path}: expected an object, got {spec!r}")
    kind = _expect(spec, "type", str, path, required=True)
    if kind not in kinds:
        raise ConfigError(f"{path}.type: unknown {what} type {kind!r}")
    make = kinds[kind]
    if isinstance(make, type):
        return _parse_fields(make, spec, path, known=("type",))
    try:
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
        except RecursionError:
            raise ConfigError(f"{name}: JSON nested deeper than the recursion limit") from None
    else:
        raw = source
    if not isinstance(raw, dict):
        raise ConfigError(f"{name}: top level must be an object")

    _known_only(raw, {*_COMMON_KEYS, *(key for keys in _MODE_KEYS.values() for key in keys)}, name)
    mode = _expect(raw, "mode", str, name, required=True)
    if mode not in MODES:
        raise ConfigError(f"{name}.mode: must be one of {MODES}, got {mode!r}")
    for key in raw:
        if key not in _COMMON_KEYS and key not in _MODE_KEYS[mode]:
            raise ConfigError(f"{name}.{key}: not read in mode {mode!r}")
    sweep = mode == "sweep_SFF_at_fixed_omega"

    probe = _parse_model(raw.get("probe"), f"{name}.probe", _PROBES, "probe")
    k_of_omega = _parse_model(raw.get("back_action", {"type": "constant"}), f"{name}.back_action",
                              _BACK_ACTIONS, "back-action")
    if mode == "fixed_effective":  # the gauge kernel is Re K; Im K was validated above
        k_of_omega = (_ConstantK(k_of_omega.re) if isinstance(k_of_omega, _ConstantK) else
                      ComplexTable(k_of_omega.omega, [v.real for v in k_of_omega.values]))
    thermal = _parse_model(raw.get("thermal", {"type": "zero"}), f"{name}.thermal", _BATHS,
                           "thermal")
    try:
        constants = PhysConstants(
            _expect(raw, "hbar", float, name, 1.0),
            _expect(raw, "k_boltzmann", float, name, 1.0),
        )
    except DomainError as exc:
        raise ConfigError(f"{name}: {exc}") from None

    frequency = None if sweep else _parse_fields(
        GridSpec, _expect(raw, "frequency", dict, name, required=True), f"{name}.frequency")
    key = "omega" if sweep else "s_ff"  # the mode's positive number: its frequency or budget
    value = _expect(raw, key, float, name, required=True)
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(f"{name}.{key}: must be positive and finite, got {value!r}")
    s_ff_sweep = _parse_fields(SffSweepSpec, _expect(raw, "s_ff", dict, name, {}),
                               f"{name}.s_ff") if sweep else None

    return SweepConfig(
        probe=probe,
        k_of_omega=k_of_omega,
        thermal=thermal,
        constants=constants,
        mode=mode,
        frequency=frequency,
        s_ff=None if sweep else value,
        s_ff_sweep=s_ff_sweep,
        omega=value if sweep else None,
        allow_sigma=_expect(raw, "allow_sigma", bool, name, True),
        config_hash=config_hash(raw),
    )


def _read_text(path: str) -> str:
    """The UTF-8 text of the file at path; ConfigError naming path where it is not UTF-8."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None


def load_config(path: str) -> SweepConfig:
    return parse_config(_read_text(path), name=path)


def _budget_point(cfg: SweepConfig, omega: float) -> None:
    """The scalar calls of a budget row at omega, in order, for their first error."""
    hbar = cfg.constants.hbar
    d = cfg.probe.chi_inv(omega)
    kv = _finite_at(omega, complex(cfg.k_of_omega(omega)), "K")
    try:
        optimize_fixed_backaction(d, kv, cfg.s_ff, allow_sigma=cfg.allow_sigma, hbar=hbar)
    except (DomainError, FdtViolationError) as exc:
        raise type(exc)(f"omega={omega!r}: {exc}") from None
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
    return cls(arrays, meta)


def _fdt_grid(cfg: SweepConfig, omegas: np.ndarray, d_im: np.ndarray) -> tuple:
    """dql and fdt_psd at omegas, Im chi_inv being d_im there, bit for bit (math.tanh:
    np.tanh differs from it in the last bit), and a mask True where the bath is out of range."""
    hbar = cfg.constants.hbar
    with np.errstate(all="ignore"):  # a point that overflows is flagged by the caller
        temperature, t_bad = cfg.thermal._temperature_grid(omegas)
        dql_col, two_kt = hbar * np.abs(d_im), 2.0 * cfg.constants.k_b * temperature
        tanh = np.fromiter(map(math.tanh, (hbar * omegas / two_kt).tolist()), float, len(omegas))
        return dql_col, np.where(two_kt == 0.0, dql_col, dql_col / tanh), t_bad


def _budget_columns(cfg: SweepConfig, omegas: np.ndarray) -> tuple[list, np.ndarray]:
    """_budget_point over the grid, bit for bit: the table's arrays and a mask True
    where it raises.  It reads each model through its array form, which every
    model a config describes has."""
    hbar = cfg.constants.hbar
    with np.errstate(all="ignore"):  # a row that overflows is flagged, and re-run to raise
        d_re, d_im, bad = cfg.probe._chi_inv_grid(omegas)
        k_re, k_im, k_bad = cfg.k_of_omega._on_grid(omegas)
        opt = _optimum_grid(d_re, d_im, k_re, k_im, cfg.s_ff, cfg.allow_sigma, hbar)
        dql_col, s_fdt, t_bad = _fdt_grid(cfg, omegas, d_im)
        floats = [omegas, hbar * np.hypot(d_re, d_im), dql_col, opt["s_threshold"], opt["s_sum"],
                  s_fdt, opt["s_sum"] + s_fdt, opt["sigma_opt"], opt["s_xx"], opt["s_xf_re"],
                  opt["s_xf_im"]]
        bad = bad | k_bad | t_bad | opt["bad"] | ~(np.isfinite(omegas) & (omegas > 0.0))
        bad |= np.isnan(opt["s_threshold"]) | ~np.isfinite(sum(floats[i] for i in (1, 2, 5, 6)))
    arrays = [c + 0.0 for c in floats]  # + 0.0 turns -0.0 into 0.0, as BudgetTable._normal does
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
    _log("debug", "budget sweep: mode=%s points=%d", cfg.mode, len(grid))
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
    _log("debug", "spin-figure sweep: %d budgets around thr0=%g", len(budgets), thr0)

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


class CheckResult(Record):
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""


class VerificationReport(Record):
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


def _verify_instances(cfg: SweepConfig, table, rng: np.random.Generator, samples: int) -> tuple:
    """Working points sampled from the rows of the config's table: the row indices, then
    the arrays (omega, Re chi_inv, Im chi_inv, Re K, Im K, s_ff) at them.  The models are
    read through their array forms, which give the scalar calls' values bit for bit."""
    grid = table.arrays[0]  # the frequencies, or the spin sweep's budgets
    rows = np.sort(rng.choice(len(grid), size=min(samples, len(grid)), replace=False))
    points, n = grid[rows], len(rows)
    if cfg.mode == "sweep_SFF_at_fixed_omega":
        d = cfg.probe.chi_inv(cfg.omega)
        return (rows, np.full(n, cfg.omega), np.full(n, d.real), np.full(n, d.imag), np.zeros(n),
                np.zeros(n), points)
    return (rows, points, *cfg.probe._chi_inv_grid(points)[:2],
            *cfg.k_of_omega._on_grid(points)[:2], np.full(n, cfg.s_ff))


def _worst(values, start: float = 0.0) -> float:
    """The largest of start and the values (any array-like): NaN where any is NaN."""
    return float(np.max(values, initial=start))


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
    invariance, the oracle against the optimum the table emitted at the
    sampled rows (s_sum_opt, a spin table's s_sum_full; with sigma pinned to
    zero the oracle takes the kink minimum), commutator cancellation, the
    derivative structure at the threshold of the first lossy sampled row
    whose probe steps fit above the meter FDT floor (a probe error fails it),
    thermal-floor consistency, and (optionally) the table against the golden
    one.  Every check runs on arrays: the threshold probe is one _optimum_grid
    call over its five budgets, the oracle one _oracle_grid pass over the
    sampled points, and a point it flags is re-run through brute_force_min.
    A NaN fails the check it reaches.  samples must be >= 1; jobs is ignored.
    """
    if samples < 1:
        raise ConfigError(f"samples must be >= 1, got {samples!r}")
    table = run_budget(cfg)
    hbar = cfg.constants.hbar
    rng = np.random.default_rng(seed)
    checks: list[CheckResult] = []
    rows, omegas, d_re, d_im, k_re, k_im, s_ff = _verify_instances(cfg, table, rng, samples)
    ds, ks = (list(map(complex, a.tolist(), b.tolist())) for a, b in ((d_re, d_im), (k_re, k_im)))

    # The gauge and oracle checks skip the instances at and below the meter FDT
    # floor; where that is every instance, their detail says so.
    up = np.flatnonzero(s_ff > hbar * np.abs(k_im))
    unchecked = "" if len(up) else "no sampled point above the meter FDT floor"
    d_up, k_up, s_up = (d_re[up], d_im[up]), (k_re[up], k_im[up]), s_ff[up]

    # Gauge / feedback invariance on saturating triads at config scale: the
    # kernels in units of chi_inv, then S_xF uniform in the disc of radius 5*hbar.
    dk_abs = np.hypot(d_up[0] + k_up[0], d_up[1] + k_up[1])
    kernels = rng.normal(size=(len(up), 2)) * dk_abs[:, None]
    u = rng.random((len(up), 2))
    r, phi = 5.0 * hbar * np.sqrt(u[:, 0]), 2.0 * math.pi * u[:, 1]
    s_xf = (r * np.cos(phi), r * np.sin(phi))
    triads = (saturating_s_xx(*s_xf, s_up, k_up[1], hbar), *s_xf, s_up)
    worst = _worst(_gauge_deviations(d_up, k_up, triads, kernels.T, hbar))
    checks.append(CheckResult("gauge-invariance", worst <= 1e-12, worst, 1e-12, unchecked))

    # The emitted optimum vs brute force, whose kink minimum is the sigma = 0 optimum.
    col = table.COLUMNS.index("s_sum_full" if isinstance(table, SpinFigureTable) else "s_sum_opt")
    oracle, c = OracleConfig(refine=cfg.allow_sigma), table.arrays[col][rows[up]]
    found = _oracle_grid(*d_up, *k_up, s_up, hbar, oracle.refine)
    got = found["s_sum_min"]
    for i in np.flatnonzero(found["bad"]).tolist():  # the scalar call raises, or gives its value
        got[i] = brute_force_min(ds[up[i]], ks[up[i]], float(s_up[i]), oracle, hbar=hbar).s_sum_min
    worst, undercut = _worst(np.abs(got - c) / c), _worst((c - got) / c)
    checks.append(CheckResult("oracle-agreement", worst <= 1e-3, worst, 1e-3, unchecked))
    checks.append(CheckResult("oracle-no-undercut", undercut <= 1e-3, undercut, 1e-3, unchecked))

    # Commutator cancellation at every sampled point, relative to the sum of
    # the magnitudes of the cancelling terms 2hbar(Im(chi_inv + K) - Im K - Im chi_inv):
    # the residual of commutator_check, op for op.
    dk_im = d_im + k_im
    c_sum = 0.0 + 2.0 * ((d_re + k_re) * 0.0 - dk_im * -hbar) - 2.0 * hbar * k_im
    residual = c_sum + -2.0 * hbar * d_im
    terms = 2.0 * hbar * (np.abs(dk_im) + np.abs(k_im) + np.abs(d_im))
    with np.errstate(invalid="ignore"):  # 0/0 where every term is 0, and so the residual
        worst = _worst(np.where(residual != 0.0, np.abs(residual) / terms, 0.0))
    checks.append(CheckResult("commutator-residual", worst <= 1e-14, worst, 1e-14))

    # Threshold derivative structure at the first lossy sampled point whose
    # probe steps fit above the meter FDT floor; any other probe error fails.
    for w, d, kv in zip(omegas.tolist(), ds, ks):
        if d.imag == 0.0:
            continue
        try:
            probe = phase_transition_probe(d, kv, hbar=hbar)
        except FdtViolationError:
            continue
        except DomainError as exc:
            checks.append(CheckResult("threshold-derivatives", False, math.nan, 0.0,
                                      f"omega={w:g}: {exc}"))
            break
        thr = probe.s_threshold
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
    dql_col, s_fdt, t_bad = _fdt_grid(cfg, omegas, d_im)
    for i in np.flatnonzero(t_bad | ~np.isfinite(s_fdt)).tolist():  # the scalar call raises
        fdt_psd(ds[i], cfg.thermal, float(omegas[i]), cfg.constants)
    worst = _worst(dql_col - s_fdt, -math.inf)
    checks.append(CheckResult("fdt-floor", worst <= 0.0, worst, 0.0))

    if golden_path is not None:
        checks.append(_golden_check(table, golden_path))

    report = VerificationReport(checks=tuple(checks))
    _log("info", "verification %s", "passed" if report.passed else "FAILED")
    return report


def _golden_check(fresh, golden_path: str) -> CheckResult:
    """golden-match: the table fresh against the one emitted at golden_path."""
    golden = load_table(_read_text(golden_path))
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

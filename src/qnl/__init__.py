"""Quantum noise limits of stationary linear force sensors.

Probe-side spectra (SQL, DQL, thermal floor), meter-side noise algebra
(uncertainty relations, gauge/feedback transformations, commutator
bookkeeping), closed-form sum-noise optimization with its regime threshold,
an independent brute-force verification oracle, the auxiliary-spin meter
worked example, and a noise-budget CLI.
"""

from types import ModuleType as _ModuleType

from ._version import __version__
from .errors import (
    ConfigError,
    DomainError,
    EmptyFeasibleRegionError,
    FdtViolationError,
    LosslessProbeError,
    QnlError,
    RangeError,
)
from .spectra import (
    ComplexTable,
    DampedOscillator,
    EffectiveTemperature,
    FreeMass,
    PhysConstants,
    TabulatedSusceptibility,
    UniformTemperature,
    ZeroTemperature,
    dql,
    fdt_psd,
    sql,
)
from .meter import (
    NoiseTriad,
    commutator_check,
    feedback_equivalent_gauge,
    gauge_transform,
    local_uncertainty_pair,
    sigma,
    sum_noise_psd,
    uncertainty_slack,
)
from .optimize import (
    OptimumReport,
    PhaseTransitionProbe,
    Regime,
    optimize_fixed_backaction,
    optimize_fixed_eff_backaction,
    optimize_fixed_eff_backaction_sigma_zero,
    phase_transition_probe,
    qcrb_lossless,
    qcrb_simple,
    threshold_eff,
    threshold_full,
)
from .oracle import (
    OracleConfig,
    OracleResult,
    brute_force_min,
    random_saturating_triad,
    saturating_s_xx,
)
from .spin import (
    matched_sum_noise,
    negative_mass_oscillator,
    optimal_spin_response,
    spin_triad,
)
from .budget import (
    CheckResult,
    GridSpec,
    SffSweepSpec,
    SweepConfig,
    VerificationReport,
    load_config,
    parse_config,
    run_budget,
    run_spin_figure,
    verify,
)
from .tables import (
    BudgetPoint,
    BudgetTable,
    SpinFigurePoint,
    SpinFigureTable,
    TableMeta,
    load_table,
)

__all__ = sorted(name for name, value in globals().items()
                 if not (name.startswith("_") or isinstance(value, _ModuleType)))

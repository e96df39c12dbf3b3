"""Closed-form minimization of the force-referred sum noise of a
quantum-limited stationary meter.

Two resource conventions are supported:

* **fixed effective back action** — the budget is the PSD of the effective
  back-action noise after reshuffling by a real gauge kernel.  The optimum
  has two regimes separated by a threshold: below it the sensitivity is
  power-limited (a QCRB-type bound, inversely proportional to the budget),
  at and above it the sensitivity saturates at the dissipative limit
  hbar*|Im chi_inv| and stays there.
* **fixed physical back action** — the budget is the PSD of the physical
  back-action force, with an arbitrary complex dynamic back action K.  The
  same two regimes arise with a K-dependent threshold; dynamic damping
  (Im K != 0) makes the meter's own FDT bound s_FF >= hbar*|Im K| an extra
  feasibility constraint.

The first convention is the real-K case of the second: a real gauge kernel
acts as a dynamic back action K = kernel with Im K = 0.  There is therefore
one closed-form optimizer, optimize_fixed_backaction, and the
fixed-effective entry points validate the kernel and call it.

The optimized value crosses between the regimes with a continuous value and
first derivative but a jumping second derivative, i.e. a phase-transition
like kink; `phase_transition_probe` measures it by finite differences.
Allowing a nonzero sigma (equivalently Im S_xF != 0, meter dissipation) is
what produces the flat dissipative-limit plateau; with sigma pinned to zero
the optimum has a single minimum at the threshold and grows beyond it.

Optimal triads are reconstructed in rationalized closed form, which stays
numerically stable for arbitrarily small |Im K| and reduces exactly to the
real-gauge expressions at Im K = 0.  Every returned triad saturates the
uncertainty product and reproduces the reported optimum through
sum_noise_psd.

The back-action PSD is the probing-strength resource here; for optical
meters it scales with the circulating power, which is why the below-
threshold branch is called power-limited.

Sweeps call _optimum_grid, a numpy copy of optimize_fixed_backaction that
repeats its IEEE operations in order, so the two agree bit for bit.  Hence
the scalar code has no float ** (libm pow; numpy squares by x*x) and no
math.hypot (CPython's own; abs(complex) and np.hypot call libm hypot).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, FdtViolationError, LosslessProbeError
from .meter import NoiseTriad


class Regime(str, Enum):
    """Which limit binds the optimized sensitivity."""

    QCRB_LIMITED = "qcrb"
    DQL_LIMITED = "dql"


@dataclass(frozen=True)
class OptimumReport:
    """Result of a sum-noise minimization at one frequency.

    s_sum is the minimized PSD, s_threshold the regime boundary of the
    back-action budget (inf for a lossless probe), optimal_triad a
    saturating triad achieving s_sum, sigma_opt its cross term, and
    constrained_sigma_zero records whether sigma was pinned to zero.
    """

    s_sum: float
    regime: Regime
    s_threshold: float
    optimal_triad: NoiseTriad
    sigma_opt: float
    constrained_sigma_zero: bool


def _real_kernel(kernel: complex) -> float:
    value = complex(kernel)
    if value.imag != 0.0:
        raise DomainError(f"a real gauge kernel is required here, got {value!r}")
    return value.real


def _validate_budget(s: float) -> float:
    s = float(s)
    if not (math.isfinite(s) and s > 0):
        raise DomainError(f"back-action PSD must be positive and finite, got {s!r}")
    return s


def threshold_eff(chi_inv: complex, kernel: complex = 0.0, hbar: float = 1.0) -> float:
    """Effective back-action threshold hbar*|chi_inv + kernel|^2 / (2|Im chi_inv|).

    Equals hbar / (2*|Im chi_eff|) with chi_eff = 1/(chi_inv + kernel); it is
    threshold_full at the real K = kernel.  Raises LosslessProbeError when
    Im chi_inv = 0 (threshold infinite).
    """
    return threshold_full(chi_inv, _real_kernel(kernel), hbar)


def threshold_full(chi_inv: complex, k: complex, hbar: float = 1.0) -> float:
    """Physical back-action threshold for general complex K:
    (hbar/2) * (|chi_inv + K|^2 - 2 Im(chi_inv) Im(K)) / |Im chi_inv|.

    Reduces to threshold_eff with kernel = Re K when Im K = 0.  Never below
    hbar*|Im K|, the meter FDT floor.
    """
    kv = complex(k)
    d = complex(chi_inv)
    if d.imag == 0.0:
        raise LosslessProbeError("lossless probe: threshold is infinite, use the QCRB branch")
    m = abs(d + kv)
    return 0.5 * hbar * (m * m - 2.0 * d.imag * kv.imag) / abs(d.imag)


def qcrb_simple(chi_inv: complex, k: complex, s_ff: float, hbar: float = 1.0) -> float:
    """Power-limited bound hbar^2 |chi_inv + K|^2 / (4 S_FF).

    Not tight when Im K != 0; see qcrb_lossless for the exact lossless-probe
    optimum.
    """
    s_ff = _validate_budget(s_ff)
    return hbar * hbar * abs(complex(chi_inv) + complex(k)) ** 2 / (4.0 * s_ff)


def qcrb_lossless(chi_inv: complex, k: complex, s_ff: float, hbar: float = 1.0) -> float:
    """Exact optimum for a lossless probe (Im chi_inv = 0):

        (hbar^2/2) |chi_K_inv|^2 / (S_FF + sqrt(S_FF^2 - hbar^2 Im^2 K)).

    Coincides with qcrb_simple at Im K = 0 and reaches exactly twice it when
    hbar*|Im K| = S_FF (the meter FDT boundary).
    """
    d = complex(chi_inv)
    if d.imag != 0.0:
        raise DomainError(f"qcrb_lossless requires Im chi_inv = 0, got {d!r}")
    kv = complex(k)
    s_ff = _validate_budget(s_ff)
    c = hbar * abs(kv.imag)
    if s_ff < c:
        raise FdtViolationError(f"s_ff={s_ff!r} below the meter FDT floor hbar*|Im K|={c!r}")
    if c == 0.0:
        root = s_ff
    else:
        root = math.sqrt(s_ff * s_ff - c * c)
    m = abs(d + kv)
    return 0.5 * hbar * hbar * (m * m) / (s_ff + root)


def _s_ub(d: complex, kv: complex, s_ff: float, thr: float, hbar: float) -> float:
    """Below-threshold optimum (also the sigma = 0 optimum above threshold)."""
    dql_val = hbar * abs(d.imag)
    if s_ff == thr:
        return dql_val
    c2 = (hbar * kv.imag) * (hbar * kv.imag)
    num = dql_val * (thr * thr + s_ff * s_ff - c2)
    den = thr * s_ff + math.sqrt(max((thr * thr - c2) * (s_ff * s_ff - c2), 0.0))
    return max(num / den, dql_val)


def _subopt_triad(d: complex, kv: complex, s_ff: float, sig: float, hbar: float) -> NoiseTriad:
    """Saturating triad minimizing the sum noise at fixed (S_FF, sigma).

    Rationalized form of the circle-parametrized minimum: no division by
    Im^2 K, hence exact and stable through Im K -> 0, where it reduces to
    the real-gauge optimum with kernel Re K.
    """
    dk = d + kv
    a = dk.real * dk.real + d.imag * d.imag - kv.imag * kv.imag
    dd2 = abs(complex(a, 2.0 * dk.real * kv.imag))
    if dd2 == 0.0:
        raise DomainError(f"degenerate response chi_inv={d!r}, K={kv!r}")
    center = s_ff + 2.0 * kv.imag * sig
    g = 2.0 * abs(sig) + hbar
    r = math.sqrt(max(center * center - (kv.imag * g) * (kv.imag * g), 0.0))
    den = 2.0 * dd2 * (center * dd2 + a * r)
    if den <= 0.0:
        raise DomainError(
            f"no feasible saturating triad for chi_inv={d!r}, K={kv!r}, "
            f"s_ff={s_ff!r}, sigma={sig!r}"
        )
    s_xx = (a * a * (g * g) + 4.0 * (dk.real * dk.real) * center * center) / den
    s_xf = complex(-dk.real * r / dd2, kv.imag * s_xx - sig)
    return NoiseTriad(s_xx, s_xf, s_ff)


def optimize_fixed_eff_backaction(
    chi_inv: complex,
    kernel: complex,
    s_eff_ff: float,
    hbar: float = 1.0,
) -> OptimumReport:
    """Minimize the sum noise at fixed effective back-action PSD with a real
    gauge kernel.

    Below the threshold the optimum is
        (hbar|Im chi_inv|/2) * (thr/S + S/thr)
    and power-limited; at and above it the optimum equals the dissipative
    limit hbar*|Im chi_inv| exactly.  For a lossless probe the optimum is
    hbar^2 |chi_inv + kernel|^2 / (4 S) for every S.  These are the Im K = 0
    values of optimize_fixed_backaction with K = kernel, which computes them.
    """
    return optimize_fixed_backaction(chi_inv, _real_kernel(kernel), s_eff_ff, hbar=hbar)


def optimize_fixed_eff_backaction_sigma_zero(
    chi_inv: complex,
    kernel: complex,
    s_eff_ff: float,
    hbar: float = 1.0,
) -> OptimumReport:
    """Same resource convention, with the cross correlation forced real
    (sigma = 0).

    The optimum then follows the below-threshold expression for every
    budget: it has a single minimum, equal to the dissipative limit, exactly
    at the threshold, and grows on both sides.
    """
    return optimize_fixed_backaction(
        chi_inv, _real_kernel(kernel), s_eff_ff, allow_sigma=False, hbar=hbar
    )


def optimize_fixed_backaction(
    chi_inv: complex,
    k: complex,
    s_ff: float,
    allow_sigma: bool = True,
    hbar: float = 1.0,
) -> OptimumReport:
    """Minimize the sum noise at fixed physical back-action PSD and general
    complex dynamic back action K.

    With sigma free (allow_sigma=True) the optimum saturates at the
    dissipative limit for s_ff >= threshold, carried by
    sigma_opt = -sign(Im chi_inv) |Im chi_inv| (s_ff - thr)/|chi_K_inv|^2;
    with sigma pinned to zero the below-threshold expression applies for
    every s_ff.  A lossless probe has no threshold and returns the exact
    power-limited optimum (qcrb_lossless) instead.

    Requires s_ff >= hbar*|Im K| (meter FDT floor); boundary budgets equal
    to the threshold are classified as dissipation-limited.
    """
    kv = complex(k)
    d = complex(chi_inv)
    dk = d + kv
    s = _validate_budget(s_ff)
    if dk == 0:
        raise DomainError(f"chi_inv + K vanishes: chi_inv={d!r}, K={kv!r}")
    c = hbar * abs(kv.imag)
    if s < c:
        raise FdtViolationError(f"s_ff={s!r} below the meter FDT floor hbar*|Im K|={c!r}")

    if d.imag == 0.0:
        s_sum = qcrb_lossless(d, kv, s, hbar)
        triad = _subopt_triad(d, kv, s, 0.0, hbar)
        return OptimumReport(s_sum, Regime.QCRB_LIMITED, math.inf, triad, 0.0, not allow_sigma)

    dql_val = hbar * abs(d.imag)
    thr = threshold_full(d, kv, hbar)

    if allow_sigma and s >= thr:
        m = abs(dk)
        sig = -d.imag * (s - thr) / (m * m) or 0.0  # normalize -0.0 at the boundary
        triad = _subopt_triad(d, kv, s, sig, hbar)
        return OptimumReport(dql_val, Regime.DQL_LIMITED, thr, triad, sig, False)

    s_sum = _s_ub(d, kv, s, thr, hbar)
    triad = _subopt_triad(d, kv, s, 0.0, hbar)
    regime = Regime.DQL_LIMITED if s_sum <= dql_val else Regime.QCRB_LIMITED
    return OptimumReport(s_sum, regime, thr, triad, 0.0, not allow_sigma)


def _optimum_grid(d_re, d_im, k_re, k_im, s, allow_sigma, hbar: float) -> dict:
    """optimize_fixed_backaction over arrays of Re/Im chi_inv, Re/Im K, s_ff
    and allow_sigma, op for op: each value equals the scalar call's bit for bit.
    Returns the report's fields (the regime as "dql", True where the DQL binds, the triad
    as s_xx, s_xf_re, s_xf_im) and "bad", True where the scalar call raises, in the broadcast shape.
    Each operation broadcasts only its own operands, so scalar work runs once."""
    d_re, d_im, k_re, k_im, s = map(np.asarray, (d_re, d_im, k_re, k_im, s))  # ~ stays logical
    with np.errstate(all="ignore"):
        dk_re = d_re + k_re
        m = np.hypot(dk_re, d_im + k_im)  # abs(dk)
        lossless = d_im == 0.0
        dql_val = hbar * np.abs(d_im)
        thr = np.where(lossless, np.inf, 0.5 * hbar * (m * m - 2.0 * d_im * k_im) / np.abs(d_im))
        above = (s >= thr) & ~lossless & allow_sigma
        sig = np.where(above, -d_im * (s - thr) / (m * m), 0.0) + 0.0  # -0.0 as `or 0.0`
        # qcrb_lossless
        c = hbar * np.abs(k_im)
        root = np.where(c == 0.0, s, np.sqrt(s * s - c * c))
        qcrb = 0.5 * hbar * hbar * (m * m) / (s + root)
        # _s_ub; c * c is (hbar*Im K)^2 exactly, and np.maximum(x, y) is
        # Python's max(x, y) for y not NaN, signed zeros included
        c2 = c * c
        num = dql_val * (thr * thr + s * s - c2)
        ub = num / (thr * s + np.sqrt(np.maximum((thr * thr - c2) * (s * s - c2), 0.0)))
        ub = np.where(s == thr, dql_val, np.maximum(ub, dql_val))
        s_sum = np.where(lossless, qcrb, np.where(above, dql_val, ub))
        # _subopt_triad
        a = dk_re * dk_re + d_im * d_im - k_im * k_im
        dd2 = np.hypot(a, 2.0 * dk_re * k_im)
        center = s + 2.0 * k_im * sig
        g = 2.0 * np.abs(sig) + hbar
        r = np.sqrt(np.maximum(center * center - (k_im * g) * (k_im * g), 0.0))
        den = 2.0 * dd2 * (center * dd2 + a * r)
        s_xx = (a * a * (g * g) + 4.0 * (dk_re * dk_re) * center * center) / den
        s_xf_re = -dk_re * r / dd2
        s_xf_im = k_im * s_xx - sig
        bad = ~(np.isfinite(s) & (s > 0.0)) | (m == 0.0) | (s < c) | ~(den > 0.0)
        bad |= ~(s_xx >= 0.0) | ~np.isfinite(s_sum + sig + s_xx + s_xf_re + s_xf_im)
        dql = ~lossless & (s_sum <= dql_val)
    names = ("s_sum", "s_threshold", "sigma_opt", "s_xx", "s_xf_re", "s_xf_im", "bad", "dql")
    return dict(zip(names, np.broadcast_arrays(s_sum, thr, sig, s_xx, s_xf_re, s_xf_im, bad, dql)))


@dataclass(frozen=True)
class PhaseTransitionProbe:
    """One-sided finite-difference derivatives of the optimized sum noise in
    the back-action budget, straddling the threshold."""

    s_threshold: float
    step: float
    d1_below: float
    d1_above: float
    d1_jump: float
    d2_below: float
    d2_above: float
    im_s_xf_slope_below: float
    im_s_xf_slope_above: float
    im_s_xf_slope_jump: float


def phase_transition_probe(
    chi_inv: complex,
    k: complex = 0.0,
    hbar: float = 1.0,
    h: float | None = None,
    allow_sigma: bool = True,
) -> PhaseTransitionProbe:
    """Probe the regime boundary by one-sided finite differences.

    With sigma free, the optimized value and its first derivative are
    continuous across the threshold while the second derivative jumps from
    hbar*|Im chi_inv| / (thr^2 - hbar^2 Im^2 K) to zero, and the slope of
    Im S_xF jumps; with sigma pinned to zero both sides share the same
    smooth curve and there is no jump.

    Uses second-order one-sided stencils for first derivatives and
    three-point stencils for second derivatives; default step is
    1e-4 * threshold.
    """
    d = complex(chi_inv)
    kv = complex(k)
    if d.imag == 0.0:
        raise LosslessProbeError("lossless probe has no threshold to probe")
    thr = threshold_full(d, kv, hbar)
    if h is None:
        h = 1e-4 * thr
    h = float(h)
    floor = hbar * abs(kv.imag)
    if not (0.0 < 2.0 * h < thr - floor):
        raise DomainError(f"step {h!r} too large for threshold {thr!r} and FDT floor {floor!r}")

    def at(s: float) -> tuple[float, float]:
        report = optimize_fixed_backaction(d, kv, s, allow_sigma=allow_sigma, hbar=hbar)
        return report.s_sum, report.optimal_triad.s_xf.imag

    f0, g0 = at(thr)
    fm1, gm1 = at(thr - h)
    fm2, gm2 = at(thr - 2.0 * h)
    fp1, gp1 = at(thr + h)
    fp2, gp2 = at(thr + 2.0 * h)

    d1_below = (3.0 * f0 - 4.0 * fm1 + fm2) / (2.0 * h)
    d1_above = (-3.0 * f0 + 4.0 * fp1 - fp2) / (2.0 * h)
    d2_below = (f0 - 2.0 * fm1 + fm2) / (h * h)
    d2_above = (fp2 - 2.0 * fp1 + f0) / (h * h)
    gs_below = (3.0 * g0 - 4.0 * gm1 + gm2) / (2.0 * h)
    gs_above = (-3.0 * g0 + 4.0 * gp1 - gp2) / (2.0 * h)

    return PhaseTransitionProbe(
        s_threshold=thr,
        step=h,
        d1_below=d1_below,
        d1_above=d1_above,
        d1_jump=d1_above - d1_below,
        d2_below=d2_below,
        d2_above=d2_above,
        im_s_xf_slope_below=gs_below,
        im_s_xf_slope_above=gs_above,
        im_s_xf_slope_jump=gs_above - gs_below,
    )

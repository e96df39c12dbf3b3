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
one closed-form optimizer, the array kernel _optimum_grid, which the sweeps
call on whole grids.  optimize_fixed_backaction is that kernel at one point,
and the fixed-effective entry points validate the kernel and call it.

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

threshold_full and qcrb_lossless repeat the kernel's IEEE operations in
order: a budget at threshold_full's value is the kernel's boundary budget,
and tests compare qcrb_lossless with the optimizer by ==.  Hence they have
no float ** (libm pow; numpy squares by x*x) and no math.hypot (CPython's
own; abs(complex) and np.hypot call libm hypot).
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from ._record import Record
from .errors import DomainError, FdtViolationError, LosslessProbeError
from .meter import NoiseTriad


class Regime(str, Enum):
    """Which limit binds the optimized sensitivity."""

    QCRB_LIMITED = "qcrb"
    DQL_LIMITED = "dql"


class OptimumReport(Record):
    """Result of a sum-noise minimization at one frequency.

    s_sum is the minimized PSD, s_threshold the regime boundary of the
    back-action budget (inf for a lossless probe), optimal_triad a
    saturating triad achieving s_sum, and sigma_opt its cross term (0.0
    wherever sigma is pinned to zero).
    """

    s_sum: float
    regime: Regime
    s_threshold: float
    optimal_triad: NoiseTriad
    sigma_opt: float


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
        root = math.sqrt((s_ff - c) * (s_ff + c))
    m = abs(d + kv)
    return 0.5 * hbar * hbar * (m * m) / (s_ff + root)


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
    to the threshold are classified as dissipation-limited.  It is
    _optimum_grid at one point: about 60 us a call on a 2-core VM, where one
    _optimum_grid call on 1e5 points takes about 15 ms.
    """
    d, kv, s = complex(chi_inv), complex(k), float(s_ff)
    opt = _optimum_grid(d.real, d.imag, kv.real, kv.imag, s, bool(allow_sigma), hbar)
    s_sum, thr, sig, s_xx, x, y, _, dql, err = (v.item() for v in opt.values())
    if err:
        exc, text = _ERRORS[err - 1]
        raise exc(text.format(d=d, k=kv, s=s, floor=hbar * abs(kv.imag), s_sum=s_sum, sig=sig))
    try:
        triad = NoiseTriad(s_xx, complex(x, y), s)
    except DomainError as exc:  # an overflowed triad: name what it was solved for
        raise DomainError(
            f"optimal triad at s_ff={s!r} for chi_inv={d!r}, K={kv!r}: {exc}") from None
    return OptimumReport(s_sum, Regime.DQL_LIMITED if dql else Regime.QCRB_LIMITED, thr, triad, sig)


_ERRORS = (  # _optimum_grid's "err" codes 1-6, in the order of its checks
    (DomainError, "back-action PSD must be positive and finite, got {s!r}"),
    (DomainError, "chi_inv + K vanishes: chi_inv={d!r}, K={k!r}"),
    (FdtViolationError, "s_ff={s!r} below the meter FDT floor hbar*|Im K|={floor!r}"),
    (DomainError, "sum noise is not finite at s_ff={s!r}: {s_sum!r} for chi_inv={d!r}, K={k!r}"),
    (DomainError, "degenerate response chi_inv={d!r}, K={k!r}"),
    (DomainError, "no feasible saturating triad for chi_inv={d!r}, K={k!r}, s_ff={s!r}, "
                  "sigma={sig!r}"),
)


def _optimum_grid(d_re, d_im, k_re, k_im, s, allow_sigma, hbar: float) -> dict:
    """The closed-form optimum over arrays of Re/Im chi_inv, Re/Im K, s_ff and
    allow_sigma, in the broadcast shape: the report's fields (the regime as "dql",
    True where the DQL binds, the triad as s_xx, s_xf_re, s_xf_im), "bad", True where
    optimize_fixed_backaction raises, and "err", the int8 code of its first failing
    check (_ERRORS; 0 where only the triad's own validation fails), computed only
    when some point is bad and 0 everywhere otherwise.  Each operation broadcasts
    only its own operands, so scalar work runs once."""
    d_re, d_im, k_re, k_im, s = map(np.asarray, (d_re, d_im, k_re, k_im, s))  # ~ stays logical
    with np.errstate(all="ignore"):
        dk_re = d_re + k_re
        m = np.hypot(dk_re, d_im + k_im)  # abs(dk)
        m2, abs_im, re2 = m * m, np.abs(d_im), dk_re * dk_re
        lossless = d_im == 0.0
        dql_val = hbar * abs_im
        thr = np.where(lossless, np.inf, 0.5 * hbar * (m2 - 2.0 * d_im * k_im) / abs_im)
        above = (s >= thr) & ~lossless & allow_sigma
        sig = np.where(above, -d_im * (s - thr) / m2, 0.0) + 0.0  # no -0.0
        # x^2 - (hbar Im K)^2 as (x - c)(x + c), exact near the meter FDT floor
        c = hbar * np.abs(k_im)
        s2c = (s - c) * (s + c)
        # qcrb_lossless, the exact optimum of a lossless probe
        qcrb = 0.5 * hbar * hbar * m2 / (s + np.where(c == 0.0, s, np.sqrt(s2c)))
        # below the threshold, and at every budget with sigma pinned to zero; a
        # denominator that underflows to 0 gives NaN
        num = dql_val * (thr * thr + s * s - c * c)
        den = thr * s + np.sqrt(np.maximum(((thr - c) * (thr + c)) * s2c, 0.0))
        ub = num / np.where(den == 0.0, np.nan, den)
        ub = np.where(s == thr, dql_val, np.maximum(ub, dql_val))
        s_sum = np.where(lossless, qcrb, np.where(above, dql_val, ub))
        # the saturating triad minimizing the sum noise at fixed (S_FF, sigma), rationalized
        a = re2 + d_im * d_im - k_im * k_im
        dd2 = np.hypot(a, 2.0 * dk_re * k_im)
        center = s + 2.0 * k_im * sig
        g = 2.0 * np.abs(sig) + hbar
        r = np.sqrt(np.maximum(center * center - (k_im * g) * (k_im * g), 0.0))
        den = 2.0 * dd2 * (center * dd2 + a * r)
        s_xx = (a * a * (g * g) + 4.0 * re2 * center * center) / den
        s_xf_re = -dk_re * r / dd2
        s_xf_im = k_im * s_xx - sig
        invalid = ~(np.isfinite(s) & (s > 0.0))
        bad = invalid | (m2 == 0.0) | (s < c) | ~(den > 0.0)
        bad |= ~(s_xx >= 0.0) | ~np.isfinite(s_sum + sig + s_xx + s_xf_re + s_xf_im)
        dql = ~lossless & (s_sum <= dql_val)
        err = np.int8(0)
        if bad.any():  # the sum noise is checked wherever sigma does not carry the DQL
            err = np.select([invalid, m2 == 0.0, s < c, ~above & ~np.isfinite(s_sum),
                             dd2 == 0.0, den <= 0.0], np.arange(1, 7, dtype=np.int8), np.int8(0))
    names = ("s_sum", "s_threshold", "sigma_opt", "s_xx", "s_xf_re", "s_xf_im", "bad", "dql", "err")
    return dict(zip(names, np.broadcast_arrays(s_sum, thr, sig, s_xx, s_xf_re, s_xf_im, bad, dql,
                                               err)))


class PhaseTransitionProbe(Record):
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
    allow_sigma: bool = True,
) -> PhaseTransitionProbe:
    """Probe the regime boundary by one-sided finite differences.

    With sigma free, the optimized value and its first derivative are
    continuous across the threshold while the second derivative jumps from
    hbar*|Im chi_inv| / (thr^2 - hbar^2 Im^2 K) to zero, and the slope of
    Im S_xF jumps; with sigma pinned to zero both sides share the same
    smooth curve and there is no jump.

    Uses second-order one-sided stencils for first derivatives and
    three-point stencils for second derivatives; the step is 1e-4 *
    threshold, and FdtViolationError is raised where two steps below the
    threshold do not fit above the meter FDT floor hbar*|Im K|.
    """
    d, kv = complex(chi_inv), complex(k)
    if d.imag == 0.0:
        raise LosslessProbeError("lossless probe has no threshold to probe")
    thr = threshold_full(d, kv, hbar)
    h, floor = 1e-4 * thr, hbar * abs(kv.imag)
    if not (0.0 < 2.0 * h < thr - floor):
        raise FdtViolationError(
            f"step {h!r} too large for threshold {thr!r} and FDT floor {floor!r}")

    budgets = np.array([thr, thr - h, thr - 2.0 * h, thr + h, thr + 2.0 * h])
    opt = _optimum_grid(d.real, d.imag, kv.real, kv.imag, budgets, bool(allow_sigma), hbar)
    for s in budgets[opt["bad"]].tolist():  # the scalar call raises the error
        optimize_fixed_backaction(d, kv, s, allow_sigma=allow_sigma, hbar=hbar)
    f0, fm1, fm2, fp1, fp2 = opt["s_sum"].tolist()
    g0, gm1, gm2, gp1, gp2 = opt["s_xf_im"].tolist()

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

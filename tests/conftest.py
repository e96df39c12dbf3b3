"""Shared draw helpers for randomized checks, and scalar references.

Instances are kept at desk scale (response components of order unity,
|Im chi_inv| bounded away from zero, budgets within a couple of decades of
the threshold).  The force-referred sum noise is a cancellation of terms
that grow with s_ff/dql, so wildly conditioned instances would exhaust
double precision no matter the algorithm.
"""

import hashlib

import numpy as np

from qnl import gauge_transform, sigma, sum_noise_psd, threshold_full, uncertainty_slack


def rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def draw_lossy_chi_inv(rng: np.random.Generator, min_im: float = 0.05) -> complex:
    sign = 1.0 if rng.uniform() < 0.5 else -1.0
    return complex(rng.uniform(-2.0, 2.0), sign * rng.uniform(min_im, 2.0))


def draw_back_action(rng: np.random.Generator, im_scale: float = 1.0) -> complex:
    return complex(rng.uniform(-2.0, 2.0), rng.uniform(-im_scale, im_scale))


def draw_budget(rng: np.random.Generator, chi_inv: complex, k: complex,
                hbar: float = 1.0, decades: float = 1.5) -> float:
    """Back-action PSD spanning both regimes, above the meter FDT floor."""
    thr = threshold_full(chi_inv, k, hbar)
    floor = hbar * abs(k.imag)
    s = thr * 10.0 ** rng.uniform(-decades, decades)
    return max(s, floor * (1.0 + 10.0 ** rng.uniform(-4.0, 0.0)))


def kernel_draws(n: int, seed: int) -> list:
    """n draws (chi_inv, K, s_ff): a third with Im K = 0, every seventh probe
    lossless, every eleventh lossy budget exactly at the threshold."""
    rng = np.random.default_rng(seed)
    draws = []
    for i in range(n):
        d, k = draw_lossy_chi_inv(rng), draw_back_action(rng)
        if i % 3 == 0:
            k = complex(k.real, 0.0)
        if i % 7 == 0:
            d = complex(d.real, 0.0)
            s = max(abs(k.imag), 0.01) * 10.0 ** rng.uniform(0.0, 1.5)
        elif i % 11 == 0:
            s = threshold_full(d, k)
        else:
            s = draw_budget(rng, d, k)
        draws.append((d, k, s))
    return draws


def optimum_digest(rows) -> str:
    """sha256 of optimum reports, one row each: the regime's value, then the
    float.hex (the value and the sign of a zero) of s_sum, s_threshold, the
    triad's s_xx, Re s_xf, Im s_xf and s_ff, and sigma_opt."""
    text = "\n".join(" ".join([regime, *map(float.hex, values)]) for regime, *values in rows)
    return hashlib.sha256(text.encode()).hexdigest()


def gauge_deviations(chi_inv: complex, k: complex, triad, kernel: complex, hbar: float) -> tuple:
    """verify's gauge check at one point from the scalar meter functions: how far
    sum_noise_psd, uncertainty_slack and sigma move under gauge_transform, each
    relative to the terms summed on the larger side."""
    eff, gv = gauge_transform(triad, k, kernel)
    m, n = abs(chi_inv + k), abs(chi_inv + gv)
    sum_scale = max(m * m * triad.s_xx + 2.0 * m * abs(triad.s_xf) + triad.s_ff,
                    n * n * eff.s_xx + 2.0 * n * abs(eff.s_xf) + eff.s_ff)
    slack_scale = max(triad.s_xx * triad.s_ff + abs(triad.s_xf) * abs(triad.s_xf),
                      eff.s_xx * eff.s_ff + abs(eff.s_xf) * abs(eff.s_xf)) + hbar * hbar / 4.0
    sig_scale = max(abs(k.imag) * triad.s_xx + abs(triad.s_xf.imag),
                    abs(gv.imag) * eff.s_xx + abs(eff.s_xf.imag)) + hbar
    return (abs(sum_noise_psd(eff, chi_inv, gv) - sum_noise_psd(triad, chi_inv, k)) / sum_scale,
            abs(uncertainty_slack(eff, gv, hbar) - uncertainty_slack(triad, k, hbar)) / slack_scale,
            abs(sigma(eff, gv) - sigma(triad, k)) / sig_scale)

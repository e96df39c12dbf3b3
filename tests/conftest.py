"""Shared draw helpers, accuracy sets and digests for randomized checks, and
scalar references.

Instances are kept at desk scale (response components of order unity,
|Im chi_inv| bounded away from zero, budgets within a couple of decades of
the threshold).  The force-referred sum noise is a cancellation of terms
that grow with s_ff/dql, so wildly conditioned instances would exhaust
double precision no matter the algorithm.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from qnl import gauge_transform, sigma, sum_noise_psd, threshold_full, uncertainty_slack
from qnl.oracle import _oracle_grid

PINS = Path(__file__).resolve().parent / "data" / "oracle_pins.json"


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


def seeded_draws(rng, n, im_k=None, min_im=0.05):
    """n conftest draws (chi_inv, K, s_ff, hbar=1) with decades=1.5; im_k
    replaces Im K by +-im_k."""
    for _ in range(n):
        d, k = draw_lossy_chi_inv(rng, min_im), draw_back_action(rng)
        if im_k is not None:
            k = complex(k.real, im_k * rng.choice([-1.0, 1.0]))
        yield d, k, draw_budget(rng, d, k, decades=1.5), 1.0


def pin_input(case):
    """A pin's (chi_inv, k, s_ff, hbar)."""
    def unhex(pair):
        return complex(float.fromhex(pair[0]), float.fromhex(pair[1]))

    h = float.fromhex
    return unhex(case["chi_inv"]), unhex(case["k"]), h(case["s_ff"]), h(case["hbar"])


ACCURACY_SETS = ["seeded-900", "near-floor", "real-k-nearly-lossless", "tiny-im-k", "huge-budget",
                 "skip-boundary", "below-rule"]


def accuracy_set(name):
    """The instances of one accuracy set, as (chi_inv, K, s_ff, hbar); "pins" is
    the inputs of tests/data/oracle_pins.json."""
    if name == "pins":
        return [pin_input(case) for case in json.loads(PINS.read_text(encoding="utf-8"))]
    rng = np.random.default_rng(12345 if name == "seeded-900" else 48)
    if name == "seeded-900":
        return list(seeded_draws(rng, 900))
    if name in ("near-floor", "skip-boundary", "below-rule"):
        # s_ff from (1 + 1e-6) to 1.1 times hbar*|Im K|, from (1 + 1e-9) to
        # (1 + 1e-6) times it, or from (1 + 1e-15) to (1 + 1e-6) times it in
        # 600 draws each of seeds 8-11; rescaled
        n, low, high = {"near-floor": (600, -6.0, -1.0), "skip-boundary": (400, -9.0, -6.0),
                        "below-rule": (600, -15.0, -6.0)}[name]
        seeds = range(8, 12) if name == "below-rule" else [48]
        cases = []
        for rng in [rng for rng in map(np.random.default_rng, seeds) for _ in range(n)]:
            hbar, mu = 2.0 ** int(rng.integers(-100, 61)), 2.0 ** int(rng.integers(-20, 21))
            d, k = mu * draw_lossy_chi_inv(rng), mu * draw_back_action(rng)
            floor = hbar * abs(k.imag)
            cases.append((d, k, floor * (1.0 + 10.0 ** rng.uniform(low, high)), hbar))
        return cases
    if name == "real-k-nearly-lossless":
        # Im K = 0 below threshold, 96 of the 100 argmins beyond |S_xF| = 35*hbar*thr/s_ff,
        # with s_ff/f <= 2e5 so that the sum noise's own roundoff stays within
        # the undercut bound
        cases = []
        for ratio, low, high in ((1e-2, 0.85, 1.0), (1e-3, 0.3, 0.4)):
            for _ in range(50):
                re = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
                d = complex(re, ratio * abs(re) * rng.choice([-1.0, 1.0]))
                k = complex(0.1 * abs(re) * rng.uniform(-1.0, 1.0), 0.0)
                cases.append((d, k, threshold_full(d, k) * rng.uniform(low, high), 1.0))
        return cases
    if name == "tiny-im-k":
        return [c for im_k in (1e-6, 1e-9, 1e-12) for c in seeded_draws(rng, 50, im_k=im_k)]
    # complex K with s_ff up to 1e4 times the threshold, |S_xF| at the argmin up
    # to thousands of hbar; |Im chi_inv| >= 0.5 keeps s_ff/f below 1e5
    return [(d, k, threshold_full(d, k) * 10.0 ** rng.uniform(2.0, 4.0), 1.0)
            for d, k, _, _ in seeded_draws(rng, 100, min_im=0.5)]


def oracle_digest(names) -> str:
    """sha256 of one _oracle_grid call over each accuracy set in names, refine on
    then off: a row per instance of the float.hex of s_sum_min, s_xx, Re S_xF and
    Im S_xF, then 1 where a piece's vertex won, else 0."""
    rows = []
    for name in names:
        d, k, s_ff, hbar = (np.array(v) for v in zip(*accuracy_set(name)))
        for refine in (True, False):
            found = _oracle_grid(d.real, d.imag, k.real, k.imag, s_ff, hbar, refine)
            rows += zip(*(found[key].tolist() for key in ("s_sum_min", "s_xx", "s_xf_re",
                                                          "s_xf_im")), found["vertex"].tolist())
    text = "\n".join(" ".join([*map(float.hex, values), str(int(vertex))])
                     for *values, vertex in rows)
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

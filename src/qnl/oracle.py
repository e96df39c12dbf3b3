"""Brute-force minimization of the sum noise over physical meter triads.

This is the independent cross-check for the closed-form optimizers: it
searches the feasible set {(S_xx, Re S_xF, Im S_xF) : uncertainty slack >= 0}
directly and shares none of their algebra.  The objective increases with
S_xx at fixed S_xF, so the optimum lies on the slack = 0 surface, and the
search runs there only: a coarse grid scan over (Re S_xF, Im S_xF) followed
by Nelder-Mead refinement.  At each grid node the surface value is no larger
than that of any feasible triad with the same S_xF.  The |sigma| kink makes
the slack the smaller of two pieces linear in S_xx, with slopes
s_ff -+ hbar*Im K; above the meter FDT floor both are positive, and the
surface is exactly the larger of their zeros, max(S+, S-) (saturating_s_xx).

The refinement is a small Nelder-Mead on Python floats.  Each evaluation
solves the surface through a float copy of that formula, set up once per
call, and compare-and-swaps order the simplex in place of a sort; a call
makes about 340 evaluations.  The analytic threshold enters only as a
length scale for the search box, which alone sizes the start simplex and
the position tolerance; the value tolerance is relative to the best value.
The search is therefore unit-covariant: under hbar -> l*hbar, chi_inv ->
m*chi_inv, K -> m*K and s_ff -> l*m*s_ff the minimum scales by l*m up to
roundoff.  At the exact meter-FDT boundary s_ff = hbar*|Im K| a
denominator of max(S+, S-) is 0 and the feasible set collapses to a single
ray; the search loses accuracy within about 2 % of it (errors up to 3e-4;
brute_force_min gives the measured figures).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    EmptyFeasibleRegionError,
    FdtViolationError,
    SamplerError,
)
from .meter import NoiseTriad
from .optimize import threshold_full

COARSE_GRID_POINTS = 33
S_XF_BOX_SCALE = 50.0 * math.sqrt(2.0)
REFINE_ITERATIONS = 600


@dataclass(frozen=True)
class OracleConfig:
    """Search parameters for brute_force_min.

    The scan has COARSE_GRID_POINTS nodes per S_xF axis over the square
    |Re S_xF|, |Im S_xF| <= S_XF_BOX_SCALE * (hbar/2) * max(1, thr/s_ff),
    thr being the analytic threshold.  With refine=False the best scan node
    is returned as is; otherwise two Nelder-Mead runs of at most
    REFINE_ITERATIONS iterations each follow.
    """

    refine: bool = True


@dataclass(frozen=True)
class OracleResult:
    """brute_force_min's minimum, the triad that attains it, and the
    Nelder-Mead iterations summed over both runs (0 with refine=False)."""

    s_sum_min: float
    argmin_triad: NoiseTriad
    iterations: int


def _saturation_solver(s_ff: float, k_im: float, hbar: float):
    """solve(re, im): saturating_s_xx above the meter FDT floor on Python
    floats, op for op (bit for bit); the denominators are computed once."""
    quarter = hbar * hbar / 4.0
    den_plus = s_ff - hbar * k_im
    den_minus = s_ff + hbar * k_im

    def solve(re: float, im: float) -> float:
        m2 = re * re + im * im
        plus = (m2 - hbar * im + quarter) / den_plus
        minus = (m2 + hbar * im + quarter) / den_minus
        return plus if plus > minus else minus  # max(plus, minus), as np.maximum

    return solve


def saturating_s_xx(re_s_xf, im_s_xf, s_ff: float, k_im: float, hbar: float = 1.0):
    """Smallest S_xx with zero uncertainty slack at the given cross PSD:
    max(S+, S-), S+- = (|S_xF|^2 -+ hbar*Im S_xF + hbar^2/4)/(s_ff -+ hbar*k_im)
    being the zeros of the two one-sided slacks of local_uncertainty_pair.
    Works element-wise on arrays; a scalar input gives a Python float.  NaN
    at and below the meter FDT floor s_ff <= hbar*|k_im|.
    """
    re = np.asarray(re_s_xf, dtype=float)
    im = np.asarray(im_s_xf, dtype=float)
    if s_ff <= hbar * abs(k_im):
        s_xx = np.full(np.broadcast_shapes(re.shape, im.shape), math.nan)
    else:
        m2 = re * re + im * im
        quarter = hbar * hbar / 4.0
        plus = (m2 - hbar * im + quarter) / (s_ff - hbar * k_im)
        minus = (m2 + hbar * im + quarter) / (s_ff + hbar * k_im)
        s_xx = np.maximum(plus, minus)
    return float(s_xx) if s_xx.ndim == 0 else s_xx


def _nelder_mead(f, z0: complex, step: float, xatol: float, fatol: float, maxiter: int):
    """Minimize f over the plane, a point being the complex number re + i*im.

    Nelder-Mead on Python floats with the standard coefficients (reflect 1,
    expand 2, contract 1/2, shrink 1/2) from the simplex z0, z0 + step,
    z0 + i*step.  Stops when every vertex is within xatol of the best one in
    each coordinate and within fatol of it in value, or after maxiter
    iterations.  Returns the best vertex, its value and the iteration count.
    Compare-and-swaps order (fb, b), (fg, g), (fw, w) as a stable sort would.
    """
    b, g, w = z0, z0 + step, z0 + 1j * step
    fb, fg, fw = f(b), f(g), f(w)
    for nit in range(maxiter + 1):
        if fb > fg:
            fb, b, fg, g = fg, g, fb, b
        if fg > fw:
            fg, g, fw, w = fw, w, fg, g
            if fb > fg:
                fb, b, fg, g = fg, g, fb, b
        dg, dw = g - b, w - b
        spread = max(abs(dg.real), abs(dg.imag), abs(dw.real), abs(dw.imag))
        if nit == maxiter or (spread <= xatol and fw - fb <= fatol):
            return b, fb, nit
        c = 0.5 * (b + g)  # centroid of the two best vertices
        r = 2.0 * c - w
        fr = f(r)
        if fr < fb:
            e = 3.0 * c - 2.0 * w
            fe = f(e)
            fw, w = (fe, e) if fe < fr else (fr, r)
        elif fr < fg:
            fw, w = fr, r
        else:
            outside = fr < fw
            z = 0.5 * (c + (r if outside else w))
            fz = f(z)
            if fz <= fr if outside else fz < fw:
                fw, w = fz, z
            else:  # shrink towards the best vertex
                g, w = 0.5 * (b + g), 0.5 * (b + w)
                fg, fw = f(g), f(w)


def _checked_budget(s_ff, k_im: float, hbar: float, at_floor) -> float:
    """s_ff as a float, strictly above the meter FDT floor hbar*|k_im|.
    Raises FdtViolationError below the floor and at_floor exactly at it,
    where a denominator of the saturation surface is 0."""
    s_ff = float(s_ff)
    if not (math.isfinite(s_ff) and s_ff > 0):
        raise DomainError(f"s_ff must be positive and finite, got {s_ff!r}")
    floor = hbar * abs(k_im)
    if s_ff < floor:
        raise FdtViolationError(f"s_ff={s_ff!r} below the meter FDT floor hbar*|Im K|={floor!r}")
    if s_ff == floor:
        raise at_floor(f"s_ff={s_ff!r} at the meter FDT floor: no finite S_xx saturates")
    return s_ff


def brute_force_min(
    chi_inv: complex,
    k: complex,
    s_ff: float,
    cfg: OracleConfig | None = None,
    hbar: float = 1.0,
) -> OracleResult:
    """Minimize the sum noise over all physical triads at fixed s_ff.

    Start simplex and tolerances are relative to the search box and the best
    value, so the result is unit-covariant.  Every evaluated point is
    feasible, so the result never undercuts the true minimum beyond
    roundoff.  Over 900 random instances (|Re chi_inv|, |Re K| <= 2,
    0.05 <= |Im chi_inv| <= 2, |Im K| <= 1, s_ff within 1.5 decades of the
    threshold) the default configuration has median relative error 1.1e-14
    against the closed form and undercuts it by at most 2.6e-11.  It is
    worst near the meter FDT floor: 13 instances err by more than 1e-5, all
    with hbar*|Im K|/s_ff >= 0.984, the largest by 2.7e-4.  Where
    hbar*|Im K|/s_ff < 0.98 the largest error is 5e-8, and below 0.9 it is
    4e-10.  Exactly at the floor, s_ff = hbar*|Im K|, which the precondition
    s_ff >= hbar*|Im K| admits, no S_xx saturates and the call raises
    EmptyFeasibleRegionError before the scan.  A call takes 0.4-0.7 ms on a
    2-core VM, about 0.03 ms of it in the scan.
    """
    cfg = cfg or OracleConfig()
    kv = complex(k)
    d = complex(chi_inv)
    dk = d + kv
    s_ff = _checked_budget(s_ff, kv.imag, hbar, EmptyFeasibleRegionError)

    # half-width of the scan box; the threshold enters as a length scale only
    scale = max(1.0, threshold_full(d, kv, hbar) / s_ff) if d.imag != 0.0 else 1.0
    s_xf_max = S_XF_BOX_SCALE * (0.5 * hbar) * scale
    axis = np.linspace(-s_xf_max, s_xf_max, COARSE_GRID_POINTS)
    dk2, dk_re, dk_im = abs(dk) ** 2, dk.real, dk.imag

    re_g, im_g = axis[:, None], axis[None, :]
    values = dk2 * saturating_s_xx(re_g, im_g, s_ff, kv.imag, hbar)
    values = values + (2.0 * (dk_re * re_g - dk_im * im_g) + s_ff)
    i, j = np.unravel_index(int(np.argmin(values)), values.shape)

    solve = _saturation_solver(s_ff, kv.imag, hbar)

    def f(z: complex) -> float:  # the objective on the saturation surface
        re, im = z.real, z.imag
        return dk2 * solve(re, im) + (2.0 * (dk_re * re - dk_im * im) + s_ff)

    best_z = complex(axis[i], axis[j])
    best_val = f(best_z)
    iterations = 0
    if cfg.refine:
        step, xatol, fatol = 0.1 * s_xf_max, 1e-9 * s_xf_max, 1e-12 * abs(best_val)
        for _ in range(2):  # restart once; cheap and robust against the |sigma| kink
            z, val, nit = _nelder_mead(f, best_z, step, xatol, fatol, REFINE_ITERATIONS)
            iterations += nit
            if val <= best_val:
                best_val, best_z = val, z

    triad = NoiseTriad(solve(best_z.real, best_z.imag), best_z, s_ff)
    return OracleResult(best_val, triad, iterations)


def random_saturating_triad(
    k: complex, s_ff: float, seed: int, hbar: float = 1.0
) -> NoiseTriad:
    """Sample a triad on the equality surface of the uncertainty relation.

    (Re S_xF, Im S_xF) is drawn uniformly in the disc of radius 5*hbar (S_xF
    scales like hbar in every unit system) and S_xx solved from the
    zero-slack condition by saturating_s_xx.  Deterministic per seed.  At
    the meter FDT floor, s_ff = hbar*|Im K|, no S_xx saturates and the call
    raises SamplerError.
    """
    kv = complex(k)
    s_ff = _checked_budget(s_ff, kv.imag, hbar, SamplerError)
    rng = np.random.default_rng(seed)
    r = 5.0 * hbar * math.sqrt(rng.uniform())
    phi = rng.uniform(0.0, 2.0 * math.pi)
    re, im = r * math.cos(phi), r * math.sin(phi)
    return NoiseTriad(saturating_s_xx(re, im, s_ff, kv.imag, hbar), complex(re, im), s_ff)

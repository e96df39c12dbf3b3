"""Brute-force minimization of the sum noise over physical meter triads.

This is the independent cross-check for the closed-form optimizers: it
searches the feasible set {(S_xx, Re S_xF, Im S_xF) : uncertainty slack >= 0}
directly and shares none of their algebra.  The objective increases with
S_xx at fixed S_xF, so the optimum lies on the slack = 0 surface, and the
search runs there only: a coarse grid scan over (Re S_xF, Im S_xF) followed
by Nelder-Mead refinement.  At each grid node the surface value is no larger
than that of any feasible triad with the same S_xF.  The |sigma| kink makes
the surface piecewise linear in S_xx with two sign branches, both of which
are solved explicitly.

The refinement is a small Nelder-Mead on Python floats.  Each evaluation
solves the surface through one scalar solver, set up once per call and
shared with the scalar saturating_s_xx, and compare-and-swaps order the
simplex in place of a sort; a call makes about 330 evaluations.  The
analytic threshold enters only as a length scale for the search box, which
alone sizes the start simplex and the position tolerance; the value
tolerance is relative to the best value.  The search is therefore
unit-covariant: under hbar -> l*hbar, chi_inv -> m*chi_inv, K -> m*K and
s_ff -> l*m*s_ff the minimum scales by l*m up to roundoff.  The scan
degenerates at the exact meter-FDT boundary s_ff = hbar*|Im K|, where the
feasible set collapses to a single ray, and loses accuracy within about
2 % of it (errors up to 3e-4; brute_force_min gives the measured figures).
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
    """solve(re, im): saturating_s_xx on Python floats, op for op (bit for
    bit); what does not depend on S_xF is computed once."""
    quarter = hbar * hbar / 4.0
    den_a = s_ff - hbar * k_im
    den_b = s_ff + hbar * k_im
    min_slope = s_ff - hbar * abs(k_im)
    branch_a, branch_b, bump = den_a > 0, den_b > 0, min_slope > 0
    isfinite, inf = math.isfinite, math.inf

    def solve(re: float, im: float) -> float:
        m2 = re * re + im * im
        s_xx = inf
        if branch_a:
            cand = (m2 - hbar * im + quarter) / den_a  # sigma >= 0 branch
            if isfinite(cand) and k_im * cand - im >= -1e-12 * (abs(im) + abs(k_im * cand) + hbar):
                s_xx = cand
        if branch_b:
            cand = (m2 + hbar * im + quarter) / den_b  # sigma <= 0 branch
            if isfinite(cand) and k_im * cand - im <= 1e-12 * (abs(im) + abs(k_im * cand) + hbar):
                s_xx = cand if cand < s_xx else s_xx  # min(s_xx, cand)
        if s_xx == inf:
            return math.nan
        slack = s_xx * s_ff - m2 - hbar * abs(k_im * s_xx - im) - quarter
        if bump and slack < 0:
            s_xx = s_xx + (-slack) / min_slope
        return s_xx

    return solve


def saturating_s_xx(re_s_xf, im_s_xf, s_ff: float, k_im: float, hbar: float = 1.0):
    """Smallest S_xx with zero uncertainty slack at the given cross PSD.

    Works element-wise on arrays.  Returns NaN where no finite solution
    exists (possible only at the meter-FDT boundary).
    """
    if np.ndim(re_s_xf) == 0 and np.ndim(im_s_xf) == 0:
        solve = _saturation_solver(float(s_ff), float(k_im), float(hbar))
        return solve(float(re_s_xf), float(im_s_xf))
    re = np.asarray(re_s_xf, dtype=float)
    im = np.asarray(im_s_xf, dtype=float)
    m2 = re * re + im * im
    quarter = hbar * hbar / 4.0
    num_a = m2 - hbar * im + quarter  # sigma >= 0 branch
    num_b = m2 + hbar * im + quarter  # sigma <= 0 branch
    den_a = s_ff - hbar * k_im
    den_b = s_ff + hbar * k_im
    with np.errstate(divide="ignore", invalid="ignore"):
        cand_a = np.where(den_a > 0, num_a / den_a, np.inf)
        cand_b = np.where(den_b > 0, num_b / den_b, np.inf)
        tol_a = 1e-12 * (np.abs(im) + np.abs(k_im * cand_a) + hbar)
        tol_b = 1e-12 * (np.abs(im) + np.abs(k_im * cand_b) + hbar)
        ok_a = np.isfinite(cand_a) & (k_im * cand_a - im >= -tol_a)
        ok_b = np.isfinite(cand_b) & (k_im * cand_b - im <= tol_b)
    s_xx = np.minimum(np.where(ok_a, cand_a, np.inf), np.where(ok_b, cand_b, np.inf))
    s_xx = np.where(np.isfinite(s_xx), s_xx, np.nan)
    # One correction step on the exact piecewise slack: branch selection at
    # the |sigma| kink can land a few ulp on the infeasible side.  The slack
    # is concave in S_xx with slopes between s_ff -+ hbar|k_im|, so bumping
    # by deficit/min_slope guarantees slack >= 0.
    slack = s_xx * s_ff - m2 - hbar * np.abs(k_im * s_xx - im) - quarter
    min_slope = s_ff - hbar * abs(k_im)
    if min_slope > 0:
        s_xx = np.where(slack < 0, s_xx + (-slack) / min_slope, s_xx)
    return s_xx


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
    threshold) the default configuration has median relative error 2e-14
    against the closed form.  It is worst near the meter FDT floor: 13
    instances err by more than 1e-5, all with hbar*|Im K|/s_ff >= 0.984,
    the largest by 2.7e-4.  Where hbar*|Im K|/s_ff < 0.98 the largest error
    is 5e-8, and below 0.9 it is 4e-10.  Above the meter FDT floor every scan
    node has a finite saturating S_xx; exactly at the floor, s_ff =
    hbar*|Im K|, none has, and the call raises EmptyFeasibleRegionError.  A
    call takes about 1 ms on a 2-core VM, 0.15-0.2 ms of it in the scan.
    """
    cfg = cfg or OracleConfig()
    kv = complex(k)
    d = complex(chi_inv)
    dk = d + kv
    s_ff = float(s_ff)
    if not (math.isfinite(s_ff) and s_ff > 0):
        raise DomainError(f"s_ff must be positive and finite, got {s_ff!r}")
    floor = hbar * abs(kv.imag)
    if s_ff < floor:
        raise FdtViolationError(f"s_ff={s_ff!r} below the meter FDT floor hbar*|Im K|={floor!r}")

    # half-width of the scan box; the threshold enters as a length scale only
    scale = max(1.0, threshold_full(d, kv, hbar) / s_ff) if d.imag != 0.0 else 1.0
    s_xf_max = S_XF_BOX_SCALE * (0.5 * hbar) * scale
    axis = np.linspace(-s_xf_max, s_xf_max, COARSE_GRID_POINTS)
    dk2, dk_re, dk_im = abs(dk) ** 2, dk.real, dk.imag

    re_g, im_g = axis[:, None], axis[None, :]
    values = dk2 * saturating_s_xx(re_g, im_g, s_ff, kv.imag, hbar)
    values = values + (2.0 * (dk_re * re_g - dk_im * im_g) + s_ff)
    values = np.where(np.isnan(values), np.inf, values)
    if not np.isfinite(values).any():
        raise EmptyFeasibleRegionError("no feasible point in the surface scan")
    i, j = np.unravel_index(int(np.argmin(values)), values.shape)

    solve = _saturation_solver(s_ff, kv.imag, hbar)
    isfinite, inf = math.isfinite, math.inf

    def f(z: complex) -> float:  # the objective on the saturation surface
        re, im = z.real, z.imag
        s_xx = solve(re, im)
        if not isfinite(s_xx):
            return inf
        return dk2 * s_xx + (2.0 * (dk_re * re - dk_im * im) + s_ff)

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

    s_xx = solve(best_z.real, best_z.imag)
    if not math.isfinite(s_xx):
        raise EmptyFeasibleRegionError("refinement left the feasible region")
    triad = NoiseTriad(s_xx, best_z, s_ff)
    return OracleResult(best_val, triad, iterations)


def random_saturating_triad(
    k: complex, s_ff: float, seed: int, hbar: float = 1.0
) -> NoiseTriad:
    """Sample a triad on the equality surface of the uncertainty relation.

    (Re S_xF, Im S_xF) is drawn uniformly in the disc of radius 5*hbar (S_xF
    scales like hbar in every unit system) and S_xx solved from the
    zero-slack condition, branch by branch over the sign of sigma.
    Deterministic per seed; retries internally on the rare infeasible draw.
    """
    kv = complex(k)
    s_ff = float(s_ff)
    if not (math.isfinite(s_ff) and s_ff > 0):
        raise DomainError(f"s_ff must be positive and finite, got {s_ff!r}")
    floor = hbar * abs(kv.imag)
    if s_ff < floor:
        raise FdtViolationError(f"s_ff={s_ff!r} below the meter FDT floor hbar*|Im K|={floor!r}")
    rng = np.random.default_rng(seed)
    radius = 5.0 * hbar
    for _ in range(1000):
        r = radius * math.sqrt(rng.uniform())
        phi = rng.uniform(0.0, 2.0 * math.pi)
        re, im = r * math.cos(phi), r * math.sin(phi)
        s_xx = saturating_s_xx(re, im, s_ff, kv.imag, hbar)
        if math.isfinite(s_xx):
            return NoiseTriad(s_xx, complex(re, im), s_ff)
    raise SamplerError(f"no feasible saturating triad found after 1000 draws (seed={seed})")

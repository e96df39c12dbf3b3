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

The refinement is a small Nelder-Mead on pairs of Python floats, whose
arithmetic CPython specializes (complex arithmetic allocates an object per
operation; float pairs made a call 1.3-1.5 times faster, bit for bit).  Its
about 340 evaluations solve the surface through a float copy of that
formula.  The analytic threshold enters only as a length scale for the
search box, which alone sizes the start simplex and the position
tolerance; the value tolerance is relative to the best value.  The search
is therefore unit-covariant: under hbar -> l*hbar, chi_inv -> m*chi_inv,
K -> m*K and s_ff -> l*m*s_ff the minimum scales by l*m up to roundoff.
At the exact meter-FDT boundary s_ff = hbar*|Im K| a denominator of
max(S+, S-) is 0 and the feasible set collapses to a single ray; the
search loses accuracy within about 2 % of it (errors up to 3e-4;
brute_force_min gives the measured figures).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EmptyFeasibleRegionError, FdtViolationError
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


def _nelder_mead(f, x0: float, y0: float, step: float, xatol: float, fatol: float, maxiter: int):
    """Minimize f(x, y) by Nelder-Mead (reflect 1, expand 2, contract 1/2,
    shrink 1/2) from the simplex z0, z0 + step, z0 + i*step, z0 = x0 + i*y0.
    Stops when every vertex is within fatol of the best in value and within
    xatol of it in each coordinate, or after maxiter iterations; returns the
    best vertex, its value and the iteration count.  Points are float pairs,
    each step written out as CPython evaluates complex arithmetic (a*z as
    (a*x - 0.0*y, a*y + 0.0*x) for a float a), so the result is that of the
    same search on complex numbers bit for bit, signed zeros included.
    Compare-and-swaps order (fb, b), (fg, g), (fw, w) as a stable sort would.
    """
    bx, by = x0, y0
    gx, gy = x0 + step, y0 + 0.0
    wx, wy = x0 + (0.0 * step - 1.0 * 0.0), y0 + (0.0 * 0.0 + 1.0 * step)
    fb, fg, fw = f(bx, by), f(gx, gy), f(wx, wy)
    for nit in range(maxiter + 1):
        if fb > fg:
            fb, fg = fg, fb
            bx, gx = gx, bx
            by, gy = gy, by
        if fg > fw:
            fg, fw = fw, fg
            gx, wx = wx, gx
            gy, wy = wy, gy
            if fb > fg:
                fb, fg = fg, fb
                bx, gx = gx, bx
                by, gy = gy, by
        if nit == maxiter or (fw - fb <= fatol and max(
                abs(gx - bx), abs(gy - by), abs(wx - bx), abs(wy - by)) <= xatol):
            return bx, by, fb, nit
        sx, sy = bx + gx, by + gy
        cx, cy = 0.5 * sx - 0.0 * sy, 0.5 * sy + 0.0 * sx  # centroid of the two best
        rx, ry = (2.0 * cx - 0.0 * cy) - wx, (2.0 * cy + 0.0 * cx) - wy
        fr = f(rx, ry)
        if fr < fb:
            ex = (3.0 * cx - 0.0 * cy) - (2.0 * wx - 0.0 * wy)
            ey = (3.0 * cy + 0.0 * cx) - (2.0 * wy + 0.0 * wx)
            fe = f(ex, ey)
            fw, wx, wy = (fe, ex, ey) if fe < fr else (fr, rx, ry)
        elif fr < fg:
            fw, wx, wy = fr, rx, ry
        else:
            outside = fr < fw
            sx, sy = (cx + rx, cy + ry) if outside else (cx + wx, cy + wy)
            zx, zy = 0.5 * sx - 0.0 * sy, 0.5 * sy + 0.0 * sx
            fz = f(zx, zy)
            if fz <= fr if outside else fz < fw:
                fw, wx, wy = fz, zx, zy
            else:  # shrink towards the best vertex
                sx, sy, tx, ty = bx + gx, by + gy, bx + wx, by + wy
                gx, gy = 0.5 * sx - 0.0 * sy, 0.5 * sy + 0.0 * sx
                wx, wy = 0.5 * tx - 0.0 * ty, 0.5 * ty + 0.0 * tx
                fg, fw = f(gx, gy), f(wx, wy)


def _checked_budget(s_ff, k_im: float, hbar: float) -> float:
    """s_ff as a float, strictly above the meter FDT floor hbar*|k_im|.
    Raises FdtViolationError below the floor and EmptyFeasibleRegionError
    exactly at it, where a denominator of the saturation surface is 0."""
    s_ff = float(s_ff)
    if not (math.isfinite(s_ff) and s_ff > 0):
        raise DomainError(f"s_ff must be positive and finite, got {s_ff!r}")
    floor = hbar * abs(k_im)
    if s_ff < floor:
        raise FdtViolationError(f"s_ff={s_ff!r} below the meter FDT floor hbar*|Im K|={floor!r}")
    if s_ff == floor:
        raise EmptyFeasibleRegionError(
            f"s_ff={s_ff!r} at the meter FDT floor: no finite S_xx saturates")
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
    EmptyFeasibleRegionError before the scan.  A call takes 0.25-0.45 ms on
    a 2-core VM, about 0.03 ms of it in the scan.
    """
    cfg = cfg or OracleConfig()
    kv = complex(k)
    d = complex(chi_inv)
    dk = d + kv
    s_ff = _checked_budget(s_ff, kv.imag, hbar)

    # half-width of the scan box; the threshold enters as a length scale only
    scale = max(1.0, threshold_full(d, kv, hbar) / s_ff) if d.imag != 0.0 else 1.0
    s_xf_max = S_XF_BOX_SCALE * (0.5 * hbar) * scale
    axis = np.linspace(-s_xf_max, s_xf_max, COARSE_GRID_POINTS)
    dk2, dk_re, dk_im, k_im = abs(dk) ** 2, dk.real, dk.imag, kv.imag
    re_g, im_g = axis[:, None], axis[None, :]
    values = dk2 * saturating_s_xx(re_g, im_g, s_ff, k_im, hbar)
    values = values + (2.0 * (dk_re * re_g - dk_im * im_g) + s_ff)
    i, j = np.unravel_index(int(np.argmin(values)), values.shape)

    quarter, den_plus, den_minus = hbar * hbar / 4.0, s_ff - hbar * k_im, s_ff + hbar * k_im

    def f(re: float, im: float) -> float:  # on the surface, saturating_s_xx op for op
        m2, h_im = re * re + im * im, hbar * im
        plus = (m2 - h_im + quarter) / den_plus
        minus = (m2 + h_im + quarter) / den_minus
        s_xx = plus if plus > minus else minus
        return dk2 * s_xx + (2.0 * (dk_re * re - dk_im * im) + s_ff)

    bx, by = float(axis[i]), float(axis[j])
    best_val = f(bx, by)
    iterations = 0
    if cfg.refine:
        step, xatol, fatol = 0.1 * s_xf_max, 1e-9 * s_xf_max, 1e-12 * abs(best_val)
        for _ in range(2):  # restart once; cheap and robust against the |sigma| kink
            x, y, val, nit = _nelder_mead(f, bx, by, step, xatol, fatol, REFINE_ITERATIONS)
            iterations += nit
            if val <= best_val:
                best_val, bx, by = val, x, y

    triad = NoiseTriad(saturating_s_xx(bx, by, s_ff, k_im, hbar), complex(bx, by), s_ff)
    return OracleResult(best_val, triad, iterations)


def random_saturating_triad(
    k: complex, s_ff: float, seed: int, hbar: float = 1.0
) -> NoiseTriad:
    """Sample a triad on the equality surface of the uncertainty relation.

    (Re S_xF, Im S_xF) is drawn uniformly in the disc of radius 5*hbar (S_xF
    scales like hbar in every unit system) and S_xx solved from the
    zero-slack condition by saturating_s_xx.  Deterministic per seed.  At
    the meter FDT floor, s_ff = hbar*|Im K|, no S_xx saturates and the call
    raises EmptyFeasibleRegionError, as brute_force_min does.
    """
    kv = complex(k)
    s_ff = _checked_budget(s_ff, kv.imag, hbar)
    rng = np.random.default_rng(seed)
    r = 5.0 * hbar * math.sqrt(rng.uniform())
    phi = rng.uniform(0.0, 2.0 * math.pi)
    re, im = r * math.cos(phi), r * math.sin(phi)
    return NoiseTriad(saturating_s_xx(re, im, s_ff, kv.imag, hbar), complex(re, im), s_ff)

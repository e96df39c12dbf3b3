"""Brute-force minimization of the sum noise over physical meter triads.

This is the independent cross-check for the closed-form optimizers: it
searches the feasible set {(S_xx, Re S_xF, Im S_xF) : uncertainty slack >= 0}
directly and shares none of their algebra.  The search is a coarse grid scan
(full 3-D box by default, 2-D saturation-surface scan as a fast path)
followed by Nelder-Mead refinement on the saturation surface.  Eliminating
S_xx there is safe because the objective increases with S_xx at fixed S_xF,
so the optimum always lies on the slack = 0 surface; the |sigma| kink makes
that surface piecewise linear in S_xx with two sign branches, both of which
are solved explicitly.

The refinement is a small Nelder-Mead on Python floats.  The analytic
threshold enters only as a length scale for the search box, which alone
sizes the start simplex and the position tolerance; the value tolerance is
relative to the best value.  The search is therefore unit-covariant: under
hbar -> l*hbar, chi_inv -> m*chi_inv, K -> m*K and s_ff -> l*m*s_ff the
minimum scales by l*m up to roundoff.  The scan degenerates at the exact
meter-FDT boundary s_ff = hbar*|Im K|, where the feasible set collapses to
a single ray, and loses accuracy within about 1 % of it.
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
from .meter import KLike, NoiseTriad, k_value
from .optimize import threshold_full


@dataclass(frozen=True)
class OracleConfig:
    """Search parameters for brute_force_min.

    coarse_grid_points is the number of grid nodes per axis (>= 32); box
    scales multiply the dimensional-analysis ranges for S_xx and the S_xF
    components.  With surface_only=True the coarse scan runs on the
    saturation surface instead of the full box.
    """

    coarse_grid_points: int = 33
    refine_iterations: int = 600
    rel_tolerance: float = 1e-4
    s_xx_box_scale: float = 50.0
    s_xf_box_scale: float = 10.0
    surface_only: bool = False
    refine: bool = True

    def __post_init__(self) -> None:
        if self.coarse_grid_points < 32:
            raise DomainError(f"coarse_grid_points must be >= 32, got {self.coarse_grid_points}")
        if not (self.rel_tolerance > 0):
            raise DomainError(f"rel_tolerance must be > 0, got {self.rel_tolerance!r}")
        if self.refine_iterations < 1:
            raise DomainError("refine_iterations must be >= 1")
        if not (self.s_xx_box_scale > 0 and self.s_xf_box_scale > 0):
            raise DomainError("box scales must be > 0")


@dataclass(frozen=True)
class OracleResult:
    s_sum_min: float
    argmin_triad: NoiseTriad
    iterations: int
    feasible_fraction: float


def _saturating_s_xx_scalar(re: float, im: float, s_ff: float, k_im: float, hbar: float) -> float:
    """saturating_s_xx on Python floats, operation for operation, so the
    two paths agree bit for bit; the oracle's refinement calls it directly."""
    m2 = re * re + im * im
    quarter = hbar * hbar / 4.0
    den_a = s_ff - hbar * k_im
    den_b = s_ff + hbar * k_im
    s_xx = math.inf
    if den_a > 0:
        cand = (m2 - hbar * im + quarter) / den_a  # sigma >= 0 branch
        if math.isfinite(cand) and k_im * cand - im >= -1e-12 * (abs(im) + abs(k_im * cand) + hbar):
            s_xx = cand
    if den_b > 0:
        cand = (m2 + hbar * im + quarter) / den_b  # sigma <= 0 branch
        if math.isfinite(cand) and k_im * cand - im <= 1e-12 * (abs(im) + abs(k_im * cand) + hbar):
            s_xx = min(s_xx, cand)
    if s_xx == math.inf:
        return math.nan
    slack = s_xx * s_ff - m2 - hbar * abs(k_im * s_xx - im) - quarter
    min_slope = s_ff - hbar * abs(k_im)
    if min_slope > 0 and slack < 0:
        s_xx = s_xx + (-slack) / min_slope
    return s_xx


def saturating_s_xx(re_s_xf, im_s_xf, s_ff: float, k_im: float, hbar: float = 1.0):
    """Smallest S_xx with zero uncertainty slack at the given cross PSD.

    Works element-wise on arrays.  Returns NaN where no finite solution
    exists (possible only at the meter-FDT boundary).
    """
    if np.ndim(re_s_xf) == 0 and np.ndim(im_s_xf) == 0:
        return _saturating_s_xx_scalar(
            float(re_s_xf), float(im_s_xf), float(s_ff), float(k_im), float(hbar)
        )
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
    s_xx = np.minimum(
        np.where(ok_a, cand_a, np.inf), np.where(ok_b, cand_b, np.inf)
    )
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
    """
    pts = [(f(z), z) for z in (z0, z0 + step, z0 + 1j * step)]
    for nit in range(maxiter + 1):
        pts.sort(key=lambda p: p[0])
        (fb, b), (fg, g), (fw, w) = pts
        spread = max(abs(x) for d in (g - b, w - b) for x in (d.real, d.imag))
        if nit == maxiter or (spread <= xatol and fw - fb <= fatol):
            return b, fb, nit
        c = 0.5 * (b + g)  # centroid of the two best vertices
        r = 2.0 * c - w
        fr = f(r)
        if fr < fb:
            e = 3.0 * c - 2.0 * w
            fe = f(e)
            pts[2] = (fe, e) if fe < fr else (fr, r)
        elif fr < fg:
            pts[2] = (fr, r)
        else:
            outside = fr < fw
            z = 0.5 * (c + (r if outside else w))
            fz = f(z)
            if fz <= fr if outside else fz < fw:
                pts[2] = (fz, z)
            else:  # shrink towards the best vertex
                pts[1:] = [(f(z), z) for z in (0.5 * (b + g), 0.5 * (b + w))]


def _box(chi_inv: complex, kv: complex, s_ff: float, cfg: OracleConfig, hbar: float):
    d = complex(chi_inv)
    s_xx_max = cfg.s_xx_box_scale * hbar * hbar / (4.0 * s_ff)
    if d.imag != 0.0:
        thr = threshold_full(d, kv, hbar)  # length scale only
        s_xx_max *= max(1.0, thr / s_ff) ** 2
    s_xf_max = cfg.s_xf_box_scale * math.sqrt(s_xx_max * s_ff)
    return s_xx_max, s_xf_max


def brute_force_min(
    chi_inv: complex,
    k: KLike,
    s_ff: float,
    cfg: OracleConfig | None = None,
    hbar: float = 1.0,
) -> OracleResult:
    """Minimize the sum noise over all physical triads at fixed s_ff.

    Start simplex and tolerances are relative to the search box and the best
    value, so the result is unit-covariant.  Within cfg.rel_tolerance of the
    true minimum for the default configuration away from the meter FDT
    floor; every evaluated point is feasible, so the result can never
    undercut the true minimum beyond roundoff.
    """
    cfg = cfg or OracleConfig()
    kv = k_value(k)
    d = complex(chi_inv)
    dk = d + kv
    s_ff = float(s_ff)
    if not (math.isfinite(s_ff) and s_ff > 0):
        raise DomainError(f"s_ff must be positive and finite, got {s_ff!r}")
    floor = hbar * abs(kv.imag)
    if s_ff < floor:
        raise FdtViolationError(f"s_ff={s_ff!r} below the meter FDT floor hbar*|Im K|={floor!r}")

    s_xx_max, s_xf_max = _box(d, kv, s_ff, cfg, hbar)
    n = cfg.coarse_grid_points
    re_axis = np.linspace(-s_xf_max, s_xf_max, n)
    im_axis = np.linspace(-s_xf_max, s_xf_max, n)
    dk2 = abs(dk) ** 2

    def objective_terms(re, im):
        return 2.0 * (dk.real * re - dk.imag * im) + s_ff

    def surface_scan():
        re_g, im_g = np.meshgrid(re_axis, im_axis, indexing="ij")
        s_xx_g = saturating_s_xx(re_g, im_g, s_ff, kv.imag, hbar)
        values = dk2 * s_xx_g + objective_terms(re_g, im_g)
        values = np.where(np.isnan(values), np.inf, values)
        fraction = float(np.mean(np.isfinite(values)))
        if not np.isfinite(values).any():
            raise EmptyFeasibleRegionError("no feasible point in the surface scan")
        flat = int(np.argmin(values))
        i, j = np.unravel_index(flat, values.shape)
        return float(re_axis[i]), float(im_axis[j]), fraction

    if cfg.surface_only:
        best_re, best_im, feasible_fraction = surface_scan()
    else:
        s_xx_axis = np.linspace(0.0, s_xx_max, n)
        sxx = s_xx_axis[:, None, None]
        re_g = re_axis[None, :, None]
        im_g = im_axis[None, None, :]
        sig = kv.imag * sxx - im_g
        slack = sxx * s_ff - (re_g**2 + im_g**2) - hbar * np.abs(sig) - hbar * hbar / 4.0
        values = dk2 * sxx + objective_terms(re_g, im_g)
        values = np.where(slack >= 0.0, values, np.inf)
        feasible_fraction = float(np.mean(slack >= 0.0))
        if np.isfinite(values).any():
            flat = int(np.argmin(values))
            _, j, l = np.unravel_index(flat, values.shape)
            best_re, best_im = float(re_axis[j]), float(im_axis[l])
        else:
            # box too small near the meter FDT floor, where feasibility
            # requires S_xx ~ 1/(s_ff - hbar|Im K|); the surface scan has no
            # S_xx bound and stays usable there
            best_re, best_im, feasible_fraction = surface_scan()

    def surface_value(z: complex) -> float:
        s_xx = _saturating_s_xx_scalar(z.real, z.imag, s_ff, kv.imag, hbar)
        if not math.isfinite(s_xx):
            return math.inf
        return dk2 * s_xx + objective_terms(z.real, z.imag)

    best_z = complex(best_re, best_im)
    best_val = surface_value(best_z)
    iterations = 0
    if cfg.refine:
        step, xatol, fatol = 0.1 * s_xf_max, 1e-9 * s_xf_max, 1e-12 * abs(best_val)
        for _ in range(2):  # restart once; cheap and robust against the |sigma| kink
            z, val, nit = _nelder_mead(
                surface_value, best_z, step, xatol, fatol, cfg.refine_iterations
            )
            iterations += nit
            if val <= best_val:
                best_val, best_z = val, z

    s_xx = saturating_s_xx(best_z.real, best_z.imag, s_ff, kv.imag, hbar)
    if not math.isfinite(s_xx):
        raise EmptyFeasibleRegionError("refinement left the feasible region")
    triad = NoiseTriad(s_xx, best_z, s_ff)
    return OracleResult(best_val, triad, iterations, feasible_fraction)


def random_saturating_triad(
    k: KLike, s_ff: float, seed: int, hbar: float = 1.0
) -> NoiseTriad:
    """Sample a triad on the equality surface of the uncertainty relation.

    (Re S_xF, Im S_xF) is drawn uniformly in a disc and S_xx solved from the
    zero-slack condition, branch by branch over the sign of sigma.
    Deterministic per seed; retries internally on the rare infeasible draw.
    """
    kv = k_value(k)
    s_ff = float(s_ff)
    if not (math.isfinite(s_ff) and s_ff > 0):
        raise DomainError(f"s_ff must be positive and finite, got {s_ff!r}")
    floor = hbar * abs(kv.imag)
    if s_ff < floor:
        raise FdtViolationError(f"s_ff={s_ff!r} below the meter FDT floor hbar*|Im K|={floor!r}")
    rng = np.random.default_rng(seed)
    radius = 5.0 * max(hbar, math.sqrt(hbar * s_ff))
    for _ in range(1000):
        r = radius * math.sqrt(rng.uniform())
        phi = rng.uniform(0.0, 2.0 * math.pi)
        re, im = r * math.cos(phi), r * math.sin(phi)
        s_xx = saturating_s_xx(re, im, s_ff, kv.imag, hbar)
        if math.isfinite(s_xx):
            return NoiseTriad(s_xx, complex(re, im), s_ff)
    raise SamplerError(f"no feasible saturating triad found after 1000 draws (seed={seed})")

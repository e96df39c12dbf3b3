"""Brute-force minimization of the sum noise over physical meter triads.

This is the independent cross-check for the closed-form optimizers: it
searches the feasible set {(S_xx, Re S_xF, Im S_xF) : uncertainty slack >= 0}
directly and shares none of their algebra.  The optimum lies on the slack = 0
surface, S_xx = max(S+, S-) (saturating_s_xx), and the search evaluates only
points there.  The sum noise on it is f = max(F+, F-), each F+- a convex
isotropic quadratic in S_xF, kinked where S+ = S- (sigma = 0): a circle, or
the line Im S_xF = 0 at Im K = 0.

f is strictly convex, and off the kink it equals one piece, so its minimum
is either on the kink or at the vertex of the piece that is the larger one
there.  All three candidates come in closed form from the uncertainty
relation alone: on the circle S+ = S- = Im S_xF/Im K, so f is linear in
S_xF there, and each piece's vertex is where its gradient vanishes.  The
search evaluates f at the kink minimum and at both vertices and returns the
lowest; each candidate is the sum noise of an explicit physical triad, so
the search cannot undercut the true minimum beyond roundoff.  It runs on
arrays of points (_oracle_grid, which verify calls once for all its sampled
points); brute_force_min is that search at one point.  It is
unit-covariant: under hbar -> l*hbar, chi_inv -> m*chi_inv, K -> m*K and
s_ff -> l*m*s_ff the minimum scales by l*m up to roundoff.
"""

from __future__ import annotations

import math

import numpy as np

from ._record import Record
from .errors import DomainError, EmptyFeasibleRegionError, FdtViolationError
from .meter import NoiseTriad


class OracleConfig(Record):
    """Search parameters for brute_force_min: with refine=False the kink minimum
    is returned as is; otherwise f is also evaluated at the vertices of its two
    smooth pieces, and the lowest of the three values wins."""

    refine: bool = True


class OracleResult(Record):
    """brute_force_min's minimum, the triad that attains it, and which candidate
    won: iterations is 0 where the kink minimum wins (always with refine=False)
    and 1 where a smooth piece's vertex wins.  At a kink minimum with Im K != 0,
    s_sum_min takes S_xx = Im S_xF/Im K.  The triad's S_xx is saturating_s_xx at
    the rounded argmin; within about 1e-13 of the meter FDT floor, that rounding
    moves it by up to a few percent."""

    s_sum_min: float
    argmin_triad: NoiseTriad
    iterations: int


def saturating_s_xx(re_s_xf, im_s_xf, s_ff, k_im, hbar: float = 1.0):
    """Smallest S_xx with zero uncertainty slack at the given cross PSD:
    max(S+, S-), S+- = (|S_xF|^2 -+ hbar*Im S_xF + hbar^2/4)/(s_ff -+ hbar*k_im)
    being the zeros of the two one-sided slacks of local_uncertainty_pair.
    Works element-wise on arrays, s_ff and k_im included, which broadcast with
    the cross PSD; a scalar input gives a Python float.  NaN at and below the
    meter FDT floor s_ff <= hbar*|k_im|.
    """
    re, im, s_ff, k_im = (np.asarray(v, dtype=float) for v in (re_s_xf, im_s_xf, s_ff, k_im))
    m2, h_im, quarter = re * re + im * im, hbar * im, hbar * hbar / 4.0
    with np.errstate(divide="ignore"):  # a zero denominator at the floor, where NaN is returned
        plus = (m2 - h_im + quarter) / (s_ff - hbar * k_im)
        minus = (m2 + h_im + quarter) / (s_ff + hbar * k_im)
    s_xx = np.where(s_ff > hbar * np.abs(k_im), np.where(plus > minus, plus, minus), math.nan)
    return float(s_xx) if s_xx.ndim == 0 else s_xx


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


def _oracle_grid(d_re, d_im, k_re, k_im, s_ff, hbar, refine: bool = True) -> dict:
    """The search over 1-d arrays (or scalars) of Re/Im chi_inv and Re/Im K, with
    which s_ff and hbar broadcast: "s_sum_min", the argmin as "s_xx", "s_xf_re",
    "s_xf_im", "vertex", True where a piece's vertex wins, and "bad", True where
    brute_force_min raises.  brute_force_min is this search at one point."""
    d_re, d_im, k_re, k_im = np.atleast_1d(d_re, d_im, k_re, k_im)
    with np.errstate(all="ignore"):
        dk_re, dk_im = d_re + k_re, d_im + k_im
        m = np.hypot(dk_re, dk_im)
        dk2 = m * m
        # the kink S+ = S-: on the circle S+ = S- = Im S_xF/Im K, and f is linear in S_xF
        quarter, c = hbar * hbar / 4.0, hbar * np.abs(k_im)
        rho = np.sqrt((s_ff - c) / s_ff * (s_ff + c) / s_ff)  # sqrt(s_ff^2 - c^2)/s_ff
        center, radius = s_ff / (2.0 * k_im), s_ff * rho / (2.0 * np.abs(k_im))
        gx, gy = 2.0 * dk_re, dk2 / k_im - 2.0 * dk_im  # f's gradient on the kink
        g = np.hypot(gx, gy)
        ux = np.where(g != 0.0, gx / g, 0.0)  # f constant where g = 0
        uy = np.where(g != 0.0, gy / g, np.copysign(1.0, center))
        bx, ry = -radius * ux, radius * uy
        # y = center - ry, without cancellation: center^2 - radius^2 = hbar^2/4
        by = np.where(center * ry > 0.0, (quarter + bx * bx) / (center + ry), center - ry)
        # at Im K = 0 the line Im S_xF = 0, where f is a quadratic in Re S_xF
        line = k_im == 0.0
        bx, by = np.where(line, -dk_re * s_ff / dk2, bx), np.where(line, 0.0, by)
        # f on the surface at the kink minimum (at Im K = 0) and at the vertices of F+ and F-
        t = np.array([s_ff - hbar * k_im, s_ff + hbar * k_im]) / dk2
        x = np.array([bx, -dk_re * t[0], -dk_re * t[1]])
        y = np.array([by, 0.5 * hbar + dk_im * t[0], -0.5 * hbar + dk_im * t[1]])
        s_xx = saturating_s_xx(x, y, s_ff, k_im, hbar)
        f = dk2 * s_xx + (2.0 * (dk_re * x - dk_im * y) + s_ff)
        best = np.where(line, f[0], dk2 * (by / k_im) + (2.0 * (dk_re * bx - dk_im * by) + s_ff))
        pick = np.zeros(best.shape, dtype=int)
        for j in (1, 2) if refine else ():  # off the kink, f is least at a vertex
            won = f[j] < best
            best, pick = np.where(won, f[j], best), np.where(won, j, pick)
        bx, by, s_xx = (v[pick, np.arange(len(pick))] for v in (x, y, s_xx))
        bad = ~((s_ff > c) & (dk2 > 0.0) & (s_xx >= 0.0) & np.isfinite(best + s_xx + bx + by))
    return {"s_sum_min": best, "s_xx": s_xx, "s_xf_re": bx, "s_xf_im": by, "vertex": pick > 0,
            "bad": bad}


def brute_force_min(
    chi_inv: complex,
    k: complex,
    s_ff: float,
    cfg: OracleConfig | None = None,
    hbar: float = 1.0,
) -> OracleResult:
    """Minimize the sum noise over all physical triads at fixed s_ff.

    With x + iy = S_xF and D = chi_inv + K, the kink is the circle with
    centre (0, c), c = s_ff/(2 Im K), and radius
    R = sqrt(s_ff^2 - hbar^2 Im^2 K)/(2|Im K|); on it
    f = |D|^2*y/Im K + 2(Re D x - Im D y) + s_ff, whose minimum is the centre
    minus R times f's unit gradient (any kink point where the gradient is
    0).  At Im K = 0 the kink is the line y = 0, minimized at
    x = -Re D*s_ff/|D|^2.  The pieces are
    F+- = |D|^2*(x^2 + (y -+ hbar/2)^2)/den+- + 2(Re D x - Im D y) + s_ff,
    den+- = s_ff -+ hbar*Im K, with vertices x = -Re D*den+-/|D|^2,
    y = +-hbar/2 + Im D*den+-/|D|^2.  Over the tests' seeded 900-draw set the
    error against the closed form is at most 1.7e-11, the roundoff of the sum
    noise, and 4.7e-14 on 600 draws within 10 % of the meter FDT floor.  It
    is _oracle_grid at one point: about 0.16 ms a call on a 2-core VM, where
    one _oracle_grid call takes about 0.1 ms for 151 points.  Exactly at the
    floor, s_ff = hbar*|Im K|, it raises EmptyFeasibleRegionError.
    """
    d, kv = complex(chi_inv), complex(k)
    s_ff = _checked_budget(s_ff, kv.imag, hbar)
    dk2 = abs(d + kv) * abs(d + kv)  # not ** 2, which raises OverflowError
    if not 0.0 < dk2 < math.inf:
        what = "chi_inv + K vanishes" if dk2 == 0.0 else "|chi_inv + K|^2 is not finite"
        raise DomainError(f"{what}: chi_inv={d!r}, K={kv!r}")
    found = _oracle_grid(d.real, d.imag, kv.real, kv.imag, s_ff, hbar, cfg is None or cfg.refine)
    s_sum, s_xx, x, y, vertex, _ = (v.item() for v in found.values())
    return OracleResult(s_sum, NoiseTriad(s_xx, complex(x, y), s_ff), int(vertex))


def random_saturating_triad(
    k: complex, s_ff: float, seed: int, hbar: float = 1.0
) -> NoiseTriad:
    """Sample a triad on the equality surface of the uncertainty relation.

    (Re S_xF, Im S_xF) is drawn uniformly in the disc of radius 5*hbar (S_xF
    scales like hbar in every unit system) and S_xx solved from the
    zero-slack condition by saturating_s_xx.  Deterministic
    per seed.  At the meter FDT floor, s_ff = hbar*|Im K|, no S_xx saturates
    and the call raises EmptyFeasibleRegionError, as brute_force_min does.
    """
    kv = complex(k)
    s_ff = _checked_budget(s_ff, kv.imag, hbar)
    rng = np.random.default_rng(seed)
    r = 5.0 * hbar * math.sqrt(rng.random())
    phi = 2.0 * math.pi * rng.random()
    re, im = r * math.cos(phi), r * math.sin(phi)
    return NoiseTriad(saturating_s_xx(re, im, s_ff, kv.imag, hbar), complex(re, im), s_ff)

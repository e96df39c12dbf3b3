"""Interferometric position meter with an auxiliary negative-effective-mass
spin oscillator in series.

The light probes the mechanical position and the spin-oscillator position
with couplings theta_i and theta_s.  The couplings, the spin response chi_s
and the probe's chi_inv enter as plain numbers at the working frequency; the
caller evaluates a model of frequency such as negative_mass_oscillator, whose
shape depends on the spin system at hand.  A broadband resonance-tuned optical
meter with vacuum input (quadrature PSDs 1/2) is assumed, and the combined
triads are the same whichever subsystem the light meets first.

Two working points matter:

* the *matched* configuration theta_s*chi_s = -theta_i*chi cancels the
  back-action force but pays for the spin system's own thermal noise, so it
  stays above the true optimum at the same back-action budget.  The
  sigma-zero optimum lies below it only up to S_FF = 2*thr (thr the
  back-action threshold at K = 0) and above it beyond that point; and
* the *optimal* spin response, which mirrors only the real part of the
  probe response in the weak-back-action regime and undershoots the
  imaginary part by exactly 1/2 per unit coupling beyond it, reproducing
  the closed-form optimum at budget hbar*theta_i.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import DomainError
from .meter import NoiseTriad


def negative_mass_oscillator(mass: float, omega_s: float, gamma_s: float = 0.0) -> Callable[[float], complex]:
    """Spin response modeled as a sign-flipped damped oscillator:

        chi_s(w) = -1 / (m*(omega_s^2 - w^2 - 1j*gamma_s*w)).

    The sign makes the matching condition theta_s*chi_s = -theta_i*chi
    reachable with positive couplings near the mechanical resonance.
    """
    if not (math.isfinite(mass) and mass > 0):
        raise DomainError(f"mass must be > 0, got {mass!r}")
    if not (math.isfinite(omega_s) and omega_s >= 0):
        raise DomainError(f"omega_s must be >= 0, got {omega_s!r}")
    if not (math.isfinite(gamma_s) and gamma_s >= 0):
        raise DomainError(f"gamma_s must be >= 0, got {gamma_s!r}")

    def chi_s(omega: float) -> complex:
        return -1.0 / (mass * complex(omega_s**2 - omega**2, -gamma_s * omega))

    return chi_s


def spin_triad(theta_i: float, theta_s: float, chi_s: complex, *, hbar: float = 1.0) -> NoiseTriad:
    """Noise triad of the combined meter with couplings theta_i > 0 (light to
    mechanical probe) and theta_s >= 0 (light to spin oscillator), and spin
    response chi_s at the working frequency:

        S_xx = (hbar/4 theta_i) (1 + 4 theta_s^2 |chi_s|^2 + 4 theta_s |Im chi_s|)
        S_xF = hbar * theta_s * chi_s
        S_FF = hbar * theta_i

    Saturates the generalized uncertainty relation identically, with
    sigma = -hbar*theta_s*Im chi_s set by the spin system's dissipation.
    """
    if not (math.isfinite(theta_i) and theta_i > 0):
        raise DomainError(f"theta_i must be finite and > 0 for a functioning meter, got {theta_i!r}")
    if not (math.isfinite(theta_s) and theta_s >= 0):
        raise DomainError(f"theta_s must be finite and >= 0, got {theta_s!r}")
    theta_i, theta_s, cs = float(theta_i), float(theta_s), complex(chi_s)
    s_xx = hbar / (4.0 * theta_i) * (1.0 + 4.0 * theta_s**2 * abs(cs) ** 2 + 4.0 * theta_s * abs(cs.imag))
    return NoiseTriad(s_xx, hbar * theta_s * cs, hbar * theta_i)


def matched_sum_noise(theta_i: float, chi_inv: complex, *, hbar: float = 1.0) -> float:
    """Sum noise of the back-action-matched configuration
    theta_s*chi_s = -theta_i*chi:

        hbar*|Im chi_inv| + hbar^2 |chi_inv|^2 / (4 S_FF),  S_FF = hbar*theta_i.

    Approaches the dissipative limit only as theta_i -> infinity and never
    beats the closed-form optimum at the same budget.
    """
    if not (math.isfinite(theta_i) and theta_i > 0):
        raise DomainError(f"theta_i must be positive and finite, got {theta_i!r}")
    d = complex(chi_inv)
    if not (math.isfinite(d.real) and math.isfinite(d.imag)):
        raise DomainError(f"chi_inv must be finite (chi = 0 is degenerate), got {d!r}")
    s_ff = hbar * theta_i
    return hbar * abs(d.imag) + hbar * hbar * abs(d) ** 2 / (4.0 * s_ff)


def optimal_spin_response(theta_i: float, chi: complex) -> complex:
    """Product theta_s*chi_s that minimizes the total sum noise at budget
    hbar*theta_i, given the probe susceptibility chi (not its inverse):

        -theta_i*Re(chi)                          if theta_i*|Im chi| < 1/2
        -theta_i*chi + (i/2)*sign(Im chi)         otherwise.

    The two branches meet continuously at theta_i*|Im chi| = 1/2.  Feeding
    the result back through spin_triad reproduces the fixed-effective-
    back-action optimum at S = hbar*theta_i.
    """
    if not (math.isfinite(theta_i) and theta_i >= 0):
        raise DomainError(f"theta_i must be finite and >= 0, got {theta_i!r}")
    x = complex(chi)
    if theta_i * abs(x.imag) < 0.5:
        return complex(-theta_i * x.real, 0.0)
    return -theta_i * x + complex(0.0, 0.5 * math.copysign(1.0, x.imag))

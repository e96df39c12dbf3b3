"""Meter-side noise algebra at a single frequency.

Everything here is frequency-local: a noise triad, the dynamic back-action
value K and the gauge kernel are plain numbers at the working frequency.
The meter output is referenced to the probe position, so there is no gain
parameter anywhere in the data model.

Sign conventions: K follows the Hooke convention (Re K is a spring shift,
Im K a damping), and sigma = Im{K*S_xx + conj(S_xF)} = Im(K)*S_xx - Im(S_xF).
The generalized uncertainty product uses |sigma|, so the slack function is
non-smooth there; callers must not assume differentiability.

verify's gauge check calls _gauge_deviations, a numpy copy of these functions
that repeats their IEEE operations in order, bit for bit; hence they square a
modulus as m * m, not with float ** (libm pow, which numpy does not call).
"""

from __future__ import annotations

import math

import numpy as np

from ._record import Record
from .errors import DomainError


class NoiseTriad(Record):
    """Meter noise spectral densities at one frequency.

    s_xx: position-imprecision PSD (>= 0), s_xf: cross PSD (complex),
    s_ff: back-action-force PSD (>= 0).
    """

    s_xx: float
    s_xf: complex
    s_ff: float

    def __post_init__(self) -> None:
        s_xx = float(self.s_xx)
        s_xf = complex(self.s_xf)
        s_ff = float(self.s_ff)
        if not (math.isfinite(s_xx) and s_xx >= 0):
            raise DomainError(f"s_xx must be finite and >= 0, got {s_xx!r}")
        if not (math.isfinite(s_ff) and s_ff >= 0):
            raise DomainError(f"s_ff must be finite and >= 0, got {s_ff!r}")
        if not (math.isfinite(s_xf.real) and math.isfinite(s_xf.imag)):
            raise DomainError(f"s_xf must be finite, got {s_xf!r}")
        self.__dict__.update(s_xx=s_xx, s_xf=s_xf, s_ff=s_ff)


def sigma(triad: NoiseTriad, k: complex) -> float:
    """Cross term Im{K*S_xx + conj(S_xF)} entering the uncertainty product."""
    return complex(k).imag * triad.s_xx - triad.s_xf.imag


def uncertainty_slack(triad: NoiseTriad, k: complex, hbar: float = 1.0) -> float:
    """S_xx*S_FF - |S_xF|^2 - hbar*|sigma| - hbar^2/4.

    Non-negative iff the triad is physically allowed; zero for a
    quantum-limited (saturating) meter.
    """
    m = abs(triad.s_xf)
    return triad.s_xx * triad.s_ff - m * m - hbar * abs(sigma(triad, k)) - hbar * hbar / 4.0


def local_uncertainty_pair(triad: NoiseTriad, k: complex, hbar: float = 1.0) -> tuple[float, float]:
    """The two one-sided slacks whose joint non-negativity is equivalent to
    uncertainty_slack >= 0; their minimum equals uncertainty_slack."""
    k_im = complex(k).imag
    m = abs(triad.s_xf)
    common = -(m * m) - hbar * hbar / 4.0
    plus = triad.s_xx * (triad.s_ff - hbar * k_im) + hbar * triad.s_xf.imag + common
    minus = triad.s_xx * (triad.s_ff + hbar * k_im) - hbar * triad.s_xf.imag + common
    return plus, minus


def sum_noise_psd(triad: NoiseTriad, chi_inv: complex, k: complex = 0.0) -> float:
    """Force-referred sum noise |chi_K_inv|^2 S_xx + 2 Re{chi_K_inv S_xF} + S_FF
    with chi_K_inv = chi_inv + K."""
    ck = complex(chi_inv) + complex(k)
    m = abs(ck)
    return m * m * triad.s_xx + 2.0 * (ck * triad.s_xf).real + triad.s_ff


def gauge_transform(
    triad: NoiseTriad, k: complex, kernel: complex
) -> tuple[NoiseTriad, complex]:
    """Reassign sum-noise terms between imprecision and effective back action.

    Returns the effective triad (S_xx unchanged) and the kernel value to use
    in the replacement chi_K_inv -> chi_inv + kernel.  The sum noise, the
    uncertainty slack and sigma (in effective variables) are invariant.
    """
    gv = complex(kernel)
    d = complex(k) - gv
    s_xf_eff = d.conjugate() * triad.s_xx + triad.s_xf
    m = abs(d)
    s_ff_eff = m * m * triad.s_xx + 2.0 * (d * triad.s_xf).real + triad.s_ff
    return NoiseTriad(triad.s_xx, s_xf_eff, s_ff_eff), gv


def _gauge_deviations(d, kv, triad, gv, hbar: float) -> tuple:
    """verify's gauge check over arrays: how far sum_noise_psd, uncertainty_slack
    and sigma move under gauge_transform(triad, kv, gv) at chi_inv = d, each
    relative to the terms summed on the larger side.  d, kv and gv are
    (re, im) pairs of arrays, triad is (s_xx, Re s_xf, Im s_xf, s_ff); each
    deviation equals the one the scalar functions give, bit for bit."""
    (d_re, d_im), (k_re, k_im), (g_re, g_im) = d, kv, gv
    s_xx, xf_re, xf_im, s_ff = triad
    dd_re, dd_im = k_re - g_re, k_im - g_im  # gauge_transform's effective triad
    m = np.hypot(dd_re, dd_im)
    eff = (dd_re * s_xx + xf_re, -dd_im * s_xx + xf_im,
           m * m * s_xx + 2.0 * (dd_re * xf_re - dd_im * xf_im) + s_ff)

    def side(c_re, c_im, x_re, x_im, ff, k_im):
        """sum_noise_psd, uncertainty_slack and sigma at chi_inv + K = c, and
        the terms summed in each."""
        c, x, sig = np.hypot(c_re, c_im), np.hypot(x_re, x_im), k_im * s_xx - x_im
        return ((c * c * s_xx + 2.0 * (c_re * x_re - c_im * x_im) + ff,
                 s_xx * ff - x * x - hbar * np.abs(sig) - hbar * hbar / 4.0, sig),
                (c * c * s_xx + 2.0 * c * x + ff, s_xx * ff + x * x,
                 np.abs(k_im) * s_xx + np.abs(x_im)))

    (old, (sum_t, slack_t, sig_t)), (new, (sum_e, slack_e, sig_e)) = (
        side(d_re + k_re, d_im + k_im, xf_re, xf_im, s_ff, k_im),
        side(d_re + g_re, d_im + g_im, *eff, g_im))
    scales = (np.maximum(sum_t, sum_e), np.maximum(slack_t, slack_e) + hbar * hbar / 4.0,
              np.maximum(sig_t, sig_e) + hbar)
    return tuple(np.abs(b - a) / s for a, b, s in zip(old, new, scales))


def feedback_equivalent_gauge(k: complex, kappa: complex) -> complex:
    """Gauge kernel K - kappa realized physically by feeding the meter output
    back onto the probe with feedback factor kappa; the sum noise of the
    fed-back sensor equals the gauge-transformed one."""
    return complex(k) - complex(kappa)


def commutator_check(chi_inv: complex, k: complex, hbar: float = 1.0) -> tuple[float, float, float]:
    """Assemble the commutator spectrum of the force-referred sum noise and
    check that it cancels the probe thermal-force commutator.

    Returns (c_sum, c_thermal, residual) with residual = c_sum + c_thermal,
    which vanishes identically: the meter output is a classical record, so
    its total commutator must be zero.
    """
    # meter commutators: c_xx = 0, c_xF = -i*hbar, c_FF = -2*hbar*Im K (the
    # leading 0.0 is the c_xx term; it turns a -0.0 sum into +0.0)
    ck = complex(chi_inv) + complex(k)
    c_sum = 0.0 + 2.0 * (ck * complex(0.0, -hbar)).real - 2.0 * hbar * complex(k).imag
    c_thermal = -2.0 * hbar * complex(chi_inv).imag
    return c_sum, c_thermal, c_sum + c_thermal

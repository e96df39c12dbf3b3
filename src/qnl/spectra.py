"""Probe-side physics: susceptibility models and the frequency-local limits.

Conventions
-----------
* Natural units by default (hbar = k_B = 1); pass explicit constants to work
  in SI or any other unit system.
* A damped harmonic oscillator has the inverse response

      chi_inv(w) = m*(w0**2 - w**2) - 1j*m*gamma*w,

  so Im chi_inv <= 0 for w > 0.  The limits below depend only on
  |Im chi_inv| and are insensitive to this sign choice, but a fixed
  convention is required for the commutator bookkeeping in qnl.meter.
* Only w > 0 is exposed.  Negative frequencies carry no extra information
  for real-valued stationary noise (conjugate symmetry chi_inv(-w) =
  conj(chi_inv(w)) is implied, never stored).

All model objects are immutable and all functions are pure, so everything
here is safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, RangeError


@dataclass(frozen=True)
class PhysConstants:
    """Unit system: reduced Planck constant and Boltzmann constant."""

    hbar: float = 1.0
    k_b: float = 1.0

    def __post_init__(self) -> None:
        for name in ("hbar", "k_b"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise DomainError(f"{name} must be a positive finite number, got {value!r}")
            object.__setattr__(self, name, float(value))


def _check_omega(omega: float) -> float:
    omega = float(omega)
    if not (math.isfinite(omega) and omega > 0):
        raise DomainError(f"frequency must be positive and finite, got {omega!r}")
    return omega


@dataclass(frozen=True)
class ComplexTable:
    """Complex-valued function sampled on a strictly increasing grid.

    Interpolation is linear on the real and imaginary parts separately,
    which makes evaluation at a grid node reproduce the stored sample
    bit-for-bit.  Evaluation outside the grid raises RangeError.  The numpy
    arrays interpolated on are built once; omega and values stay the fields
    that equality and hashing see.
    """

    omega: tuple
    values: tuple

    def __init__(self, omega: Sequence[float], values: Sequence[complex]):
        omega_t = tuple(float(w) for w in omega)
        values_t = tuple(complex(v) for v in values)
        if len(omega_t) < 2:
            raise DomainError("tabulated grid needs at least two points")
        if len(omega_t) != len(values_t):
            raise DomainError(
                f"grid and samples differ in length: {len(omega_t)} vs {len(values_t)}"
            )
        if not all(math.isfinite(w) for w in omega_t):
            raise DomainError("tabulated grid contains non-finite frequencies")
        if any(b <= a for a, b in zip(omega_t, omega_t[1:])):
            raise DomainError("tabulated grid must be strictly increasing")
        if not all(math.isfinite(v.real) and math.isfinite(v.imag) for v in values_t):
            raise DomainError("tabulated samples contain non-finite values")
        object.__setattr__(self, "omega", omega_t)
        object.__setattr__(self, "values", values_t)
        object.__setattr__(self, "_grid", np.asarray(omega_t))
        object.__setattr__(self, "_re", np.asarray([v.real for v in values_t]))
        object.__setattr__(self, "_im", np.asarray([v.imag for v in values_t]))

    def __call__(self, omega: float) -> complex:
        omega = float(omega)
        if not (self.omega[0] <= omega <= self.omega[-1]):
            raise RangeError(
                f"frequency {omega!r} outside tabulated range "
                f"[{self.omega[0]!r}, {self.omega[-1]!r}]"
            )
        re = float(np.interp(omega, self._grid, self._re))
        return complex(re, float(np.interp(omega, self._grid, self._im)))

    def _on_grid(self, omega: np.ndarray) -> tuple:
        """__call__ over an array as (re, im, True where __call__ raises)."""
        outside = ~((self.omega[0] <= omega) & (omega <= self.omega[-1]))
        re = np.interp(omega, self._grid, self._re)
        return re, np.interp(omega, self._grid, self._im), outside


class Susceptibility:
    """Base class for probe models; subclasses implement chi_inv(omega)."""

    def chi_inv(self, omega: float) -> complex:
        """Inverse response chi_inv(omega) at a single frequency omega > 0."""
        raise NotImplementedError

    def _chi_inv_grid(self, omega: np.ndarray) -> tuple:
        """chi_inv per frequency, bit for bit: (re, im, raises-mask), or the error."""
        z = np.array([self.chi_inv(w) for w in omega.tolist()], complex)
        return z.real, z.imag, False


@dataclass(frozen=True)
class DampedOscillator(Susceptibility):
    """Damped harmonic oscillator: chi_inv = m*(w0^2 - w^2) - i*m*gamma*w."""

    mass: float
    omega0: float
    gamma: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mass) and self.mass > 0):
            raise DomainError(f"mass must be > 0, got {self.mass!r}")
        if not (math.isfinite(self.omega0) and self.omega0 >= 0):
            raise DomainError(f"omega0 must be >= 0, got {self.omega0!r}")
        if not (math.isfinite(self.gamma) and self.gamma >= 0):
            raise DomainError(f"gamma must be >= 0, got {self.gamma!r}")
        for name in ("mass", "omega0", "gamma"):
            object.__setattr__(self, name, float(getattr(self, name)))

    def chi_inv(self, omega: float) -> complex:
        omega = _check_omega(omega)
        return complex(
            self.mass * (self.omega0 * self.omega0 - omega * omega),
            -self.mass * self.gamma * omega,
        )

    def _chi_inv_grid(self, omega: np.ndarray) -> tuple:
        re = self.mass * (self.omega0 * self.omega0 - omega * omega)
        return re, -self.mass * self.gamma * omega, False


@dataclass(frozen=True)
class FreeMass(Susceptibility):
    """Free (or velocity-damped) mass: chi_inv = -m*w^2 - i*m*gamma*w."""

    mass: float
    gamma: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mass) and self.mass > 0):
            raise DomainError(f"mass must be > 0, got {self.mass!r}")
        if not (math.isfinite(self.gamma) and self.gamma >= 0):
            raise DomainError(f"gamma must be >= 0, got {self.gamma!r}")
        object.__setattr__(self, "mass", float(self.mass))
        object.__setattr__(self, "gamma", float(self.gamma))

    def chi_inv(self, omega: float) -> complex:
        omega = _check_omega(omega)
        return complex(-self.mass * (omega * omega), -self.mass * self.gamma * omega)

    def _chi_inv_grid(self, omega: np.ndarray) -> tuple:
        return -self.mass * (omega * omega), -self.mass * self.gamma * omega, False


@dataclass(frozen=True)
class TabulatedSusceptibility(Susceptibility):
    """chi_inv sampled on a frequency grid, interpolated linearly.  Where Im
    chi_inv changes sign between nodes, rounding leaves a point near the zero
    a tiny Im (5.55e-17 at 0.8 for Im = (0.3, -0.2, 0.1) at (0.5, 1, 1.5)): a
    huge finite threshold, regime qcrb.  Only an exact 0 is lossless."""

    table: ComplexTable

    def __init__(self, omega: Sequence[float], chi_inv_values: Sequence[complex]):
        object.__setattr__(self, "table", ComplexTable(omega, chi_inv_values))

    def chi_inv(self, omega: float) -> complex:
        omega = _check_omega(omega)
        return self.table(omega)

    def _chi_inv_grid(self, omega: np.ndarray) -> tuple:
        return self.table._on_grid(omega)


class ThermalModel:
    """Base class for bath models; subclasses implement temperature_at(omega)."""

    def temperature_at(self, omega: float) -> float:
        raise NotImplementedError

    def _temperature_grid(self, omega: np.ndarray) -> tuple:
        """temperature_at per frequency, bit for bit: (values, raises-mask), or the error."""
        return np.array([self.temperature_at(w) for w in omega.tolist()], float), False


@dataclass(frozen=True)
class ZeroTemperature(ThermalModel):
    """Bath at T = 0: the thermal force PSD sits exactly on its floor."""

    def temperature_at(self, omega: float) -> float:
        return 0.0

    def _temperature_grid(self, omega: np.ndarray) -> tuple:
        return np.full(omega.shape, 0.0), False


@dataclass(frozen=True)
class UniformTemperature(ThermalModel):
    temperature: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise DomainError(f"temperature must be >= 0, got {self.temperature!r}")
        object.__setattr__(self, "temperature", float(self.temperature))

    def temperature_at(self, omega: float) -> float:
        return self.temperature

    def _temperature_grid(self, omega: np.ndarray) -> tuple:
        return np.full(omega.shape, self.temperature), False


@dataclass(frozen=True)
class EffectiveTemperature(ThermalModel):
    """Frequency-dependent effective temperature T_eff(omega), tabulated.

    Covers non-equilibrium baths, e.g. a mechanical mode damped by an
    auxiliary optical mode.
    """

    table: ComplexTable

    def __init__(self, omega: Sequence[float], t_eff: Sequence[float]):
        t = tuple(float(x) for x in t_eff)
        if any(x < 0 or not math.isfinite(x) for x in t):
            raise DomainError("effective temperatures must be finite and >= 0")
        object.__setattr__(self, "table", ComplexTable(omega, t))

    def temperature_at(self, omega: float) -> float:
        return self.table(omega).real

    def _temperature_grid(self, omega: np.ndarray) -> tuple:
        return self.table._on_grid(omega)[::2]  # (Re T_eff, outside)


def sql(chi_inv: complex, *, hbar: float = 1.0) -> float:
    """Standard quantum limit hbar*|chi_inv|, chi_inv being the value at one frequency:
    the force-noise floor of an uncorrelated meter with balanced imprecision and back action."""
    return hbar * abs(chi_inv)


def dql(chi_inv: complex, *, hbar: float = 1.0) -> float:
    """Dissipative quantum limit hbar*|Im chi_inv|, chi_inv being the value at one frequency:
    zero iff the probe is lossless there, and a floor for every stationary meter."""
    return hbar * abs(chi_inv.imag)


def fdt_psd(chi_inv: complex, thermal: ThermalModel, omega: float,
            constants: PhysConstants = PhysConstants()) -> float:
    """Thermal force PSD hbar*|Im chi_inv|*coth(hbar*w / 2 kB T), chi_inv being the value
    at omega; the bath's temperature T is also taken at omega.

    At T = 0, and where 2*kB*T underflows to 0, the coth factor is exactly 1
    and the result coincides with the DQL at the same frequency.  Where hbar*w / 2 kB T
    underflows to 0 instead, coth overflows: DomainError names omega.
    """
    omega = _check_omega(omega)
    floor = constants.hbar * abs(chi_inv.imag)
    two_kt = 2.0 * constants.k_b * thermal.temperature_at(omega)
    if two_kt == 0.0:
        return floor
    if (tanh := math.tanh(constants.hbar * omega / two_kt)) == 0.0:
        raise DomainError(f"omega={omega!r}: hbar*omega/(2*k_B*T) underflows to 0, "
                          "so the thermal PSD overflows (the bath is too hot for these units)")
    return floor / tanh

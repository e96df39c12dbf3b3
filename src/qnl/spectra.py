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
from typing import Sequence, Union

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


class Susceptibility:
    """Base class for probe models; subclasses implement chi_inv(omega)."""

    def chi_inv(self, omega: float) -> complex:
        """Inverse response chi_inv(omega) at a single frequency omega > 0."""
        raise NotImplementedError


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
            self.mass * (self.omega0**2 - omega**2),
            -self.mass * self.gamma * omega,
        )


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
        return complex(-self.mass * omega**2, -self.mass * self.gamma * omega)


@dataclass(frozen=True)
class TabulatedSusceptibility(Susceptibility):
    """chi_inv sampled on a frequency grid, interpolated linearly."""

    table: ComplexTable

    def __init__(self, omega: Sequence[float], chi_inv_values: Sequence[complex]):
        object.__setattr__(self, "table", ComplexTable(omega, chi_inv_values))

    def chi_inv(self, omega: float) -> complex:
        omega = _check_omega(omega)
        return self.table(omega)


def chi_inv_at(model: Union[Susceptibility, complex], omega: float | None = None) -> complex:
    """Coerce either a susceptibility model (evaluated at omega) or a bare
    complex chi_inv value to a complex number."""
    if isinstance(model, Susceptibility):
        if omega is None:
            raise DomainError("a frequency is required to evaluate a susceptibility model")
        return model.chi_inv(omega)
    return complex(model)


class ThermalModel:
    """Base class for bath models; subclasses implement temperature_at(omega)."""

    def temperature_at(self, omega: float) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class ZeroTemperature(ThermalModel):
    """Bath at T = 0: the thermal force PSD sits exactly on its floor."""

    def temperature_at(self, omega: float) -> float:
        return 0.0


@dataclass(frozen=True)
class UniformTemperature(ThermalModel):
    temperature: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise DomainError(f"temperature must be >= 0, got {self.temperature!r}")
        object.__setattr__(self, "temperature", float(self.temperature))

    def temperature_at(self, omega: float) -> float:
        return self.temperature


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


def sql(model: Union[Susceptibility, complex], omega: float | None = None, hbar: float = 1.0) -> float:
    """Standard quantum limit hbar*|chi_inv(omega)|: the force-noise floor of
    an uncorrelated meter with balanced imprecision and back action."""
    return hbar * abs(chi_inv_at(model, omega))


def dql(model: Union[Susceptibility, complex], omega: float | None = None, hbar: float = 1.0) -> float:
    """Dissipative quantum limit hbar*|Im chi_inv(omega)|: zero iff the probe
    is lossless at omega, and a floor for every stationary meter."""
    return hbar * abs(chi_inv_at(model, omega).imag)


def fdt_psd(
    model: Union[Susceptibility, complex],
    thermal: ThermalModel,
    omega: float,
    constants: PhysConstants = PhysConstants(),
) -> float:
    """Thermal force PSD hbar*|Im chi_inv|*coth(hbar*w / 2 kB T).

    At T = 0 the coth factor is exactly 1 and the result coincides with the
    DQL at the same frequency.
    """
    omega = _check_omega(omega)
    floor = constants.hbar * abs(chi_inv_at(model, omega).imag)
    temperature = thermal.temperature_at(omega)
    if temperature == 0.0:
        return floor
    x = constants.hbar * omega / (2.0 * constants.k_b * temperature)
    return floor / math.tanh(x)

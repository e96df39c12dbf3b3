import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp

from qnl import (
    ComplexTable,
    DampedOscillator,
    DomainError,
    EffectiveTemperature,
    FreeMass,
    PhysConstants,
    RangeError,
    TabulatedSusceptibility,
    UniformTemperature,
    ZeroTemperature,
    dql,
    fdt_psd,
    sql,
)

OSC = DampedOscillator(mass=1.0, omega0=1.0, gamma=0.2)


def steady_state_response(mass, omega0, gamma, omega, t_end=600.0):
    """Independent oracle for the sign convention: integrate
    m x'' + m*gamma*x' + m*omega0^2 x = cos(omega t) to steady state and fit
    x(t) = Re{chi(omega)} cos(wt) + Im{chi(omega)} sin(wt)."""

    def rhs(t, y):
        x, v = y
        return [v, (math.cos(omega * t) - mass * gamma * v - mass * omega0**2 * x) / mass]

    sol = solve_ivp(rhs, (0.0, t_end), [0.0, 0.0], rtol=1e-10, atol=1e-12, dense_output=True)
    t = np.linspace(t_end - 6 * 2 * math.pi / omega, t_end, 400)
    x = sol.sol(t)[0]
    basis = np.stack([np.cos(omega * t), np.sin(omega * t)], axis=1)
    coef, *_ = np.linalg.lstsq(basis, x, rcond=None)
    # x(t) = Re{chi e^{-iwt}} = Re(chi) cos(wt) + Im(chi) sin(wt)
    return complex(coef[0], coef[1])


def test_inv_susceptibility_resonance_cancels_real_part():
    assert OSC.chi_inv(1.0) == complex(0.0, -0.2)


def test_inv_susceptibility_matches_time_domain_oracle():
    # frozen from the steady-state oracle below: chi_inv(2) = -3 - 0.4i
    expected = complex(-3.0, -0.4)
    assert OSC.chi_inv(2.0) == expected
    chi = steady_state_response(1.0, 1.0, 0.2, 2.0)
    assert abs(1.0 / chi - expected) < 1e-5


def test_free_mass_is_purely_real_without_damping():
    fm = FreeMass(mass=1.0)
    for omega in (0.3, 1.0, 2.7):
        assert fm.chi_inv(omega) == complex(-(omega**2), 0.0)


def test_eval_rejects_nonpositive_frequency():
    for omega in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError):
            OSC.chi_inv(omega)


def test_sql_examples():
    assert sql(OSC.chi_inv(1.0)) == 0.2
    assert_allclose(sql(OSC.chi_inv(2.0)), math.sqrt(9.16), rtol=1e-15)
    lossless = DampedOscillator(mass=1.0, omega0=1.0, gamma=0.0)
    assert sql(lossless.chi_inv(2.0)) == abs(lossless.chi_inv(2.0).real)


def test_dql_examples():
    assert dql(OSC.chi_inv(1.0)) == 0.2
    assert dql(OSC.chi_inv(2.0)) == 0.4
    assert dql(DampedOscillator(1.0, 1.0, 0.0).chi_inv(1.7)) == 0.0


def test_dql_below_sql_with_equality_iff_reactive_part_vanishes():
    rng = np.random.default_rng(11)
    for _ in range(300):
        model = DampedOscillator(
            mass=rng.uniform(0.2, 3.0),
            omega0=rng.uniform(0.1, 3.0),
            gamma=rng.uniform(0.0, 1.0),
        )
        omega = rng.uniform(0.05, 4.0)
        lo, hi = dql(model.chi_inv(omega)), sql(model.chi_inv(omega))
        assert lo <= hi
        if model.chi_inv(omega).real == 0.0:
            assert lo == hi
        elif lo == hi:
            assert model.chi_inv(omega).real == 0.0


def coth_continued_fraction(x: float, depth: int = 40) -> float:
    # tanh x = x / (1 + x^2/(3 + x^2/(5 + ...)))
    acc = 2.0 * depth + 1.0
    for k in range(depth - 1, -1, -1):
        acc = (2.0 * k + 1.0) + x * x / acc
    return acc / x


def test_fdt_frozen_value():
    # oracle: 0.2 * coth(1) = 0.26260705709986624 via the continued fraction
    expected = 0.26260705709986624
    assert_allclose(coth_continued_fraction(1.0) * 0.2, expected, rtol=1e-13)
    got = fdt_psd(OSC.chi_inv(1.0), UniformTemperature(0.5), 1.0)
    assert_allclose(got, expected, rtol=1e-12)


def test_fdt_zero_temperature_is_exactly_the_dissipative_limit():
    rng = np.random.default_rng(5)
    zero = ZeroTemperature()
    for _ in range(200):
        model = DampedOscillator(rng.uniform(0.2, 2.0), rng.uniform(0.0, 2.0), rng.uniform(0.0, 1.0))
        omega = rng.uniform(0.05, 3.0)
        d = model.chi_inv(omega)
        assert fdt_psd(d, zero, omega) == dql(d)
    assert fdt_psd(OSC.chi_inv(1.0), UniformTemperature(0.0), 1.0) == dql(OSC.chi_inv(1.0))


def test_fdt_underflowing_bath_energy_is_the_zero_temperature_limit():
    # 2*kB*T underflows to 0 with T > 0: coth -> 1, the floor, and no ZeroDivisionError
    consts = PhysConstants(hbar=1.0, k_b=1e-30)
    d = OSC.chi_inv(1.0)
    assert fdt_psd(d, UniformTemperature(1e-300), 1.0, consts) == dql(d)


def test_fdt_underflowing_coth_argument_raises_domain_error():
    # hbar*omega/(2*kB*T) underflows to 0 (a hot bath in small units): coth of
    # it overflows, so the PSD is no float; lossless or not, it names omega
    consts = PhysConstants(hbar=1e-30, k_b=1.0)
    for d in (OSC.chi_inv(0.5), complex(0.75, 0.0)):
        with pytest.raises(DomainError) as exc:
            fdt_psd(d, UniformTemperature(1e300), 0.5, consts)
        assert str(exc.value) == ("omega=0.5: hbar*omega/(2*k_B*T) underflows to 0, so the "
                                  "thermal PSD overflows (the bath is too hot for these units)")


def test_fdt_high_temperature_limit():
    temperature = 1e8
    got = fdt_psd(OSC.chi_inv(1.0), UniformTemperature(temperature), 1.0)
    assert_allclose(got, 2.0 * temperature * 0.2 / 1.0, rtol=1e-9)


def test_fdt_monotone_in_temperature():
    d = OSC.chi_inv(0.7)
    values = [fdt_psd(d, UniformTemperature(t), 0.7) for t in np.linspace(0.0, 3.0, 13)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_fdt_respects_custom_constants():
    consts = PhysConstants(hbar=0.5, k_b=2.0)
    got = fdt_psd(OSC.chi_inv(1.0), UniformTemperature(0.25), 1.0, consts)
    x = 0.5 * 1.0 / (2.0 * 2.0 * 0.25)
    assert_allclose(got, 0.5 * 0.2 / math.tanh(x), rtol=1e-14)


def test_effective_temperature_interpolates_and_rejects_outside():
    thermal = EffectiveTemperature([0.5, 1.0, 2.0], [0.1, 0.4, 0.4])
    assert thermal.temperature_at(1.0) == 0.4
    assert_allclose(thermal.temperature_at(0.75), 0.25, rtol=1e-15)
    with pytest.raises(RangeError):
        fdt_psd(OSC.chi_inv(3.0), thermal, 3.0)


def test_tabulated_reproduces_nodes_bit_for_bit():
    rng = np.random.default_rng(3)
    grid = np.sort(rng.uniform(0.1, 5.0, size=17))
    samples = [complex(rng.standard_normal(), rng.standard_normal()) for _ in grid]
    model = TabulatedSusceptibility(grid, samples)
    for w, s in zip(grid, samples):
        assert model.chi_inv(float(w)) == s
    inside = 0.5 * (grid[3] + grid[4])
    direct = complex(
        np.interp(inside, grid, [s.real for s in samples]),
        np.interp(inside, grid, [s.imag for s in samples]),
    )
    assert model.chi_inv(inside) == direct


def test_tabulated_rejects_out_of_grid_and_bad_grids():
    model = TabulatedSusceptibility([1.0, 2.0], [1 + 1j, 2 + 2j])
    with pytest.raises(RangeError):
        model.chi_inv(0.5)
    with pytest.raises(RangeError):
        model.chi_inv(2.5)
    with pytest.raises(DomainError):
        ComplexTable([1.0, 1.0], [0j, 0j])
    with pytest.raises(DomainError):
        ComplexTable([2.0, 1.0], [0j, 0j])
    with pytest.raises(DomainError):
        ComplexTable([1.0], [0j])


def test_constructor_validation():
    with pytest.raises(DomainError):
        DampedOscillator(mass=-1.0, omega0=1.0, gamma=0.1)
    with pytest.raises(DomainError):
        DampedOscillator(mass=1.0, omega0=-0.1, gamma=0.1)
    with pytest.raises(DomainError):
        FreeMass(mass=1.0, gamma=-0.5)
    with pytest.raises(DomainError):
        UniformTemperature(-0.1)
    with pytest.raises(DomainError):
        PhysConstants(hbar=0.0)
    with pytest.raises(DomainError):
        EffectiveTemperature([0.5, 1.0], [-0.1, 0.2])

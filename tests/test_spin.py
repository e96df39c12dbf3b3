import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qnl import (
    DampedOscillator,
    DomainError,
    SpinMeterParams,
    matched_sum_noise,
    negative_mass_oscillator,
    optimal_spin_response,
    optimize_fixed_eff_backaction,
    optimize_fixed_eff_backaction_sigma_zero,
    sigma,
    spin_triad,
    sum_noise_psd,
    threshold_eff,
    uncertainty_slack,
)
from conftest import draw_lossy_chi_inv, rel

D_RES = complex(0.0, -0.2)  # chi = 5j


def random_params(rng):
    return SpinMeterParams(
        theta_i=rng.uniform(0.05, 4.0),
        theta_s=rng.uniform(0.0, 3.0),
        chi_s=complex(rng.normal(), rng.normal()),
    )


class TestSpinTriad:
    def test_plain_interferometer_without_spin(self):
        for theta_i, hbar in ((0.5, 1.0), (2.0, 0.7)):
            triad = spin_triad(SpinMeterParams(theta_i, 0.0, 0j), hbar=hbar)
            assert triad.s_xf == 0.0
            assert triad.s_ff == hbar * theta_i
            assert_allclose(triad.s_xx * triad.s_ff, hbar**2 / 4.0, rtol=1e-15)

    def test_frozen_example(self):
        triad = spin_triad(SpinMeterParams(1.0, 1.0, complex(-0.5, 0.1)))
        assert_allclose(triad.s_xx, 0.61, rtol=1e-15)
        assert triad.s_xf == complex(-0.5, 0.1)
        assert triad.s_ff == 1.0

    def test_saturation_identity_over_random_draws(self):
        rng = np.random.default_rng(51)
        for _ in range(200):
            p = random_params(rng)
            hbar = rng.choice([1.0, 0.7, 2.0])
            triad = spin_triad(p, hbar=hbar)
            cs = complex(p.chi_s)
            lhs = triad.s_xx * triad.s_ff - abs(triad.s_xf) ** 2
            rhs = hbar**2 * p.theta_s * abs(cs.imag) + hbar**2 / 4.0
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)
            assert abs(uncertainty_slack(triad, 0.0, hbar)) <= 1e-12 * (lhs + 1.0)

    def test_sigma_tracks_spin_dissipation(self):
        rng = np.random.default_rng(52)
        for _ in range(100):
            p = random_params(rng)
            triad = spin_triad(p)
            assert_allclose(sigma(triad, 0.0), -p.theta_s * complex(p.chi_s).imag, rtol=1e-13,
                            atol=1e-15)

    def test_requires_functioning_interferometer(self):
        with pytest.raises(DomainError):
            spin_triad(SpinMeterParams(0.0, 1.0, 1j))
        with pytest.raises(DomainError):
            SpinMeterParams(-1.0, 0.0, 0j)

    def test_callable_spin_response_evaluated_at_frequency(self):
        chi_s = negative_mass_oscillator(mass=1.0, omega_s=1.0, gamma_s=0.2)
        assert chi_s(1.0) == -1.0 / complex(0.0, -0.2)
        p = SpinMeterParams(1.0, 0.5, chi_s)
        triad = spin_triad(p, omega=1.0)
        assert triad.s_xf == 0.5 * chi_s(1.0)
        with pytest.raises(DomainError):
            spin_triad(p)  # frequency required for a callable model


class TestMatched:
    def test_frozen_example(self):
        assert_allclose(matched_sum_noise(2.5, D_RES), 0.204, rtol=1e-15)

    def test_approaches_dissipative_limit_at_large_coupling(self):
        assert rel(matched_sum_noise(1e9, D_RES), 0.2) <= 1e-8

    def test_equals_direct_triad_computation(self):
        # matching condition theta_s*chi_s = -theta_i*chi, fed through the
        # generic machinery
        rng = np.random.default_rng(53)
        for _ in range(50):
            d = complex(rng.uniform(-1.5, 1.5), -rng.uniform(0.05, 1.5))
            theta_i = rng.uniform(0.1, 5.0)
            chi = 1.0 / d
            product = -theta_i * chi
            triad = spin_triad(SpinMeterParams(theta_i, 1.0, product))
            assert rel(sum_noise_psd(triad, d, 0.0), matched_sum_noise(theta_i, d)) <= 1e-12

    def test_dominates_the_optimum_on_a_coupling_sweep(self):
        for theta_i in np.geomspace(0.01, 100.0, 100):
            matched = matched_sum_noise(theta_i, D_RES)
            best = optimize_fixed_eff_backaction(D_RES, 0.0, theta_i).s_sum
            assert matched >= best * (1.0 - 1e-12)

    def test_sigma_zero_optimum_crosses_matched_at_twice_the_threshold(self):
        # At K = 0, with D = |Im chi_inv| and thr = |chi_inv|^2 / (2D),
        #     sigma_zero - matched = D * (s / (2 thr) - 1),
        # so the two spin-figure curves cross at exactly s = 2 thr for every
        # lossy probe; acceptance criterion 08's ordering fails beyond it.
        rng = np.random.default_rng(54)
        probe = DampedOscillator(1.0, 1.0, 0.2)
        lossy = [probe.chi_inv(w) for w in (0.5, 1.0, 1.5)]
        lossy += [draw_lossy_chi_inv(rng) for _ in range(20)]
        for d in lossy:
            dql = abs(d.imag)
            thr = threshold_eff(d, 0.0)
            for ratio in (0.25, 0.5, 1.0, 1.5, 1.9, 2.0, 2.1, 3.0, 4.0):
                s = ratio * thr
                zero = optimize_fixed_eff_backaction_sigma_zero(d, 0.0, s).s_sum
                gap = zero - matched_sum_noise(s, d)
                assert abs(gap - dql * (s / (2.0 * thr) - 1.0)) <= 8.0 * math.ulp(dql)

    def test_rejects_degenerate_arguments(self):
        with pytest.raises(DomainError):
            matched_sum_noise(0.0, D_RES)
        with pytest.raises(DomainError):
            matched_sum_noise(1.0, complex(math.inf, 0.0))


class TestOptimalSpinResponse:
    def test_branches_meet_continuously(self):
        chi = complex(0.7, 0.5 / 1.3)  # theta_i*|Im chi| = 0.5 exactly at theta_i=1.3
        theta_i = 1.3
        lo = optimal_spin_response(theta_i * (1.0 - 1e-12), chi)
        hi = optimal_spin_response(theta_i, chi)
        assert abs(lo - hi) <= 1e-9

    def test_frozen_branch_values(self):
        assert optimal_spin_response(1.0, 5j) == complex(0.0, -4.5)
        assert optimal_spin_response(1.0, complex(0.3, 0.1)) == complex(-0.3, 0.0)

    def test_weak_branch_is_real_strong_branch_undershoots(self):
        rng = np.random.default_rng(54)
        for _ in range(100):
            chi = complex(rng.normal(), rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 2.0))
            theta_i = rng.uniform(0.05, 5.0)
            resp = optimal_spin_response(theta_i, chi)
            if theta_i * abs(chi.imag) < 0.5:
                assert resp.imag == 0.0
            else:
                expected_im = -theta_i * chi.imag + 0.5 * math.copysign(1.0, chi.imag)
                assert_allclose(resp.imag, expected_im, rtol=1e-13)
                assert abs(resp.imag) < theta_i * abs(chi.imag)

    @pytest.mark.parametrize("hbar", [1.0, 0.7])
    @pytest.mark.parametrize(
        "chi", [5j, complex(0.3, 0.1), complex(-0.8, -0.4), complex(1.2, 2.5)]
    )
    def test_reproduces_the_closed_form_optimum(self, chi, hbar):
        d = 1.0 / chi
        for theta_i in np.geomspace(0.05, 20.0, 25):
            product = optimal_spin_response(theta_i, chi)
            triad = spin_triad(SpinMeterParams(theta_i, 1.0, product), hbar=hbar)
            s_eff = hbar * theta_i
            best = optimize_fixed_eff_backaction(d, 0.0, s_eff, hbar=hbar)
            assert rel(sum_noise_psd(triad, d, 0.0), best.s_sum) <= 1e-10

    def test_negative_mass_model_validation(self):
        with pytest.raises(DomainError):
            negative_mass_oscillator(mass=0.0, omega_s=1.0)
        with pytest.raises(DomainError):
            negative_mass_oscillator(mass=1.0, omega_s=-1.0)

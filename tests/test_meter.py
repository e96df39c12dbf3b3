import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qnl import (
    DomainError,
    NoiseTriad,
    commutator_check,
    feedback_equivalent_gauge,
    gauge_transform,
    local_uncertainty_pair,
    random_saturating_triad,
    sigma,
    sum_noise_psd,
    uncertainty_slack,
)
from qnl.meter import _gauge_deviations
from conftest import draw_back_action, gauge_deviations


def random_triad(rng):
    """Arbitrary (not necessarily physical) triad for algebraic identities."""
    return NoiseTriad(
        rng.uniform(0.0, 3.0),
        complex(rng.normal(), rng.normal()),
        rng.uniform(0.0, 3.0),
    )


def test_sigma_vanishes_for_real_k_and_real_cross_psd():
    triad = NoiseTriad(1.3, complex(0.7, 0.0), 0.9)
    assert sigma(triad, 0.5) == 0.0


def test_sigma_frozen_example():
    triad = NoiseTriad(2.0, complex(0.5, 0.4), 1.0)
    assert_allclose(sigma(triad, complex(0.3, -0.1)), -0.6, rtol=1e-15)


def test_uncertainty_slack_saturates_at_symmetric_minimum():
    for hbar in (1.0, 0.5, 2.0):
        triad = NoiseTriad(hbar / 2, 0j, hbar / 2)
        assert uncertainty_slack(triad, 0.0, hbar) == 0.0


def test_uncertainty_slack_frozen_example():
    assert uncertainty_slack(NoiseTriad(1.0, 0j, 1.0), 0.0) == 0.75


def test_local_pair_reduces_to_slack_when_symmetric():
    triad = NoiseTriad(1.2, complex(0.3, 0.0), 0.8)
    plus, minus = local_uncertainty_pair(triad, 0.0)
    assert plus == minus == uncertainty_slack(triad, 0.0)


def test_local_pair_detects_meter_fdt_violation():
    # S_FF below hbar*|Im K| with nonzero S_xx: one side must go negative
    triad = NoiseTriad(2.0, 0j, 0.1)
    plus, minus = local_uncertainty_pair(triad, complex(0.0, 0.5))
    assert min(plus, minus) < 0.0


def test_local_pair_minimum_equals_slack_and_is_zero_on_saturating_triads():
    rng = np.random.default_rng(21)
    for i in range(200):
        k = draw_back_action(rng)
        s_ff = abs(k.imag) * (1.0 + rng.uniform(0.01, 3.0)) + rng.uniform(0.01, 1.0)
        triad = random_saturating_triad(k, s_ff, seed=1000 + i)
        plus, minus = local_uncertainty_pair(triad, k)
        scale = triad.s_xx * triad.s_ff + abs(triad.s_xf) ** 2 + 0.25
        assert abs(min(plus, minus) - uncertainty_slack(triad, k)) <= 1e-12 * scale
        assert abs(min(plus, minus)) <= 1e-12 * scale


def test_local_pair_nonnegativity_iff_slack_nonnegative():
    rng = np.random.default_rng(22)
    for _ in range(500):
        triad = random_triad(rng)
        k = draw_back_action(rng)
        plus, minus = local_uncertainty_pair(triad, k)
        assert (min(plus, minus) >= 0.0) == (uncertainty_slack(triad, k) >= 0.0)


def test_sum_noise_back_action_limited_meter():
    triad = NoiseTriad(0.0, 0j, 0.7)
    assert sum_noise_psd(triad, complex(1.0, -0.3), complex(0.2, 0.1)) == 0.7


def test_sum_noise_frozen_example():
    triad = NoiseTriad(0.25, 0j, 1.0)
    assert_allclose(sum_noise_psd(triad, complex(0.0, -0.2), 0.0), 1.01, rtol=1e-15)


def test_uncorrelated_undriven_case_reduces_to_plain_product_bound():
    rng = np.random.default_rng(23)
    for _ in range(200):
        s_xx, s_ff = rng.uniform(0.01, 2.0, size=2)
        triad = NoiseTriad(s_xx, 0j, s_ff)
        assert (uncertainty_slack(triad, 0.0) >= 0.0) == (s_xx * s_ff >= 0.25)


def test_gauge_identity_when_kernel_equals_k():
    triad = NoiseTriad(2.0, complex(0.5, 0.4), 1.0)
    k = complex(0.3, -0.1)
    eff, shift = gauge_transform(triad, k, k)
    assert eff == triad
    assert shift == k


def test_gauge_transform_frozen_example_and_invariants():
    triad = NoiseTriad(2.0, complex(0.5, 0.4), 1.0)
    k = complex(0.3, -0.1)
    chi_inv = complex(1.0, -0.2)
    eff, gv = gauge_transform(triad, k, 0.0)
    assert_allclose(eff.s_ff, abs(k) ** 2 * 2.0 + 2.0 * (k * triad.s_xf).real + 1.0, rtol=1e-15)
    assert_allclose([eff.s_xf.real, eff.s_xf.imag], [1.1, 0.6], rtol=1e-15)
    assert eff.s_xx == triad.s_xx
    assert_allclose(sum_noise_psd(eff, chi_inv, gv), sum_noise_psd(triad, chi_inv, k), rtol=1e-12)
    assert_allclose(uncertainty_slack(eff, gv), uncertainty_slack(triad, k), rtol=1e-12)
    assert_allclose(sigma(eff, gv), sigma(triad, k), rtol=1e-12)


def test_gauge_invariance_over_random_draws():
    # physical triads only: a negative effective back-action PSD is
    # meaningless (and rejected) for triads violating the uncertainty bound
    rng = np.random.default_rng(24)
    for i in range(300):
        k = draw_back_action(rng)
        s_ff = abs(k.imag) * (1.0 + rng.uniform(0.01, 2.0)) + rng.uniform(0.01, 1.0)
        base = random_saturating_triad(k, s_ff, seed=3000 + i)
        triad = NoiseTriad(base.s_xx * rng.uniform(1.0, 3.0), base.s_xf, base.s_ff)
        kernel = complex(rng.normal(), rng.normal())
        chi_inv = complex(rng.normal(), rng.normal())
        eff, gv = gauge_transform(triad, k, kernel)
        sum_scale = abs(chi_inv + k) ** 2 * triad.s_xx + 2 * abs(triad.s_xf) + triad.s_ff + 1.0
        assert abs(sum_noise_psd(triad, chi_inv, k) - sum_noise_psd(eff, chi_inv, gv)) \
            <= 1e-12 * sum_scale
        slack_scale = triad.s_xx * triad.s_ff + abs(triad.s_xf) ** 2 + 1.0
        assert abs(uncertainty_slack(triad, k) - uncertainty_slack(eff, gv)) \
            <= 1e-12 * slack_scale
        sig_scale = abs(k.imag) * triad.s_xx + abs(triad.s_xf.imag) + 1.0
        assert abs(sigma(triad, k) - sigma(eff, gv)) <= 1e-12 * sig_scale


def test_gauge_deviations_are_the_scalar_functions_bit_for_bit():
    # verify's array gauge pass against the scalar meter functions on 5,000
    # physical triads per unit scale, with ==: the two share every IEEE
    # operation, each squared modulus m * m included
    rng = np.random.default_rng(31)
    n = 5000
    for hbar in (1.0, 0.7, 2.0**-40):
        d, kv, gv, xf = (hbar * rng.normal(size=(2, n)) * 10.0 ** rng.uniform(-2, 2, n)
                         for _ in range(4))
        s_xx = hbar * 10.0 ** rng.uniform(-2, 2, n)
        s_ff = (xf[0] * xf[0] + xf[1] * xf[1]) / s_xx * rng.uniform(1.01, 3.0, n) + hbar
        got = _gauge_deviations(d, kv, (s_xx, *xf, s_ff), gv, hbar)
        want = [gauge_deviations(complex(*p[0:2]), complex(*p[2:4]),
                                 NoiseTriad(p[4], complex(*p[5:7]), p[7]), complex(*p[8:10]), hbar)
                for p in zip(*(a.tolist() for a in (*d, *kv, s_xx, *xf, s_ff, *gv)))]
        assert list(zip(*(a.tolist() for a in got))) == want


def test_time_symmetric_gauge_strips_the_noncommuting_back_action():
    # the real kernel Re K has c_FF = -2*hbar*Im(Re K) = 0, so only the c_xF
    # term is left, and it cancels the thermal commutator exactly
    chi_inv, k = complex(0.3, -0.7), complex(0.8, 0.4)
    c_sum, c_thermal, residual = commutator_check(chi_inv, k.real)
    assert c_sum == 2.0 * chi_inv.imag == -c_thermal and residual == 0.0


def test_feedback_equivalent_gauge():
    k = complex(0.4, 0.2)
    assert feedback_equivalent_gauge(k, 0.0) == k
    assert feedback_equivalent_gauge(k, k) == 0.0
    assert feedback_equivalent_gauge(k, 2.0 * k) == -k
    assert type(feedback_equivalent_gauge(k, 1)) is complex


def test_feedback_gauge_composition_is_bit_consistent():
    rng = np.random.default_rng(25)
    for i in range(100):
        k = draw_back_action(rng)
        kappa = complex(rng.normal(), rng.normal())
        s_ff = abs(k.imag) * 1.5 + rng.uniform(0.1, 1.0)
        triad = random_saturating_triad(k, s_ff, seed=2000 + i)
        via_feedback = gauge_transform(triad, k, feedback_equivalent_gauge(k, kappa))
        direct = gauge_transform(triad, k, k - kappa)
        assert via_feedback == direct


def test_commutator_check_lossless():
    c_sum, c_thermal, residual = commutator_check(complex(-3.0, 0.0), complex(0.5, 0.7))
    assert c_sum == c_thermal == residual == 0.0


def test_commutator_check_frozen_example():
    c_sum, c_thermal, residual = commutator_check(complex(-3.0, -0.4), complex(1.0, 0.5))
    assert_allclose(c_sum, -0.8, rtol=1e-15)
    assert_allclose(c_thermal, 0.8, rtol=1e-15)
    assert residual == 0.0


def test_commutator_real_k_cancellation_via_cross_terms_only():
    chi_inv = complex(0.3, -0.7)
    c_sum, c_thermal, residual = commutator_check(chi_inv, 2.5)
    # c_FF = 0 for real K, so c_sum is the c_xF cross term 2*hbar*Im(chi_inv + K)
    assert c_sum == 2.0 * (chi_inv + 2.5).imag
    assert abs(residual) <= 1e-15


def test_commutator_check_does_not_overflow_at_large_scale():
    # |chi_inv + K|^2 overflows a float, but it only ever multiplies c_xx = 0
    assert commutator_check(complex(1e200, -3e199), 2e199j) == (-6e199, 6e199, 0.0)


def test_commutator_residual_vanishes_over_random_draws():
    rng = np.random.default_rng(26)
    for _ in range(500):
        chi_inv = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        k = draw_back_action(rng)
        assert abs(commutator_check(chi_inv, k)[2]) <= 1e-14


def test_triad_validation():
    with pytest.raises(DomainError):
        NoiseTriad(-0.1, 0j, 1.0)
    with pytest.raises(DomainError):
        NoiseTriad(1.0, 0j, -0.1)
    with pytest.raises(DomainError):
        NoiseTriad(1.0, complex(math.nan, 0.0), 1.0)

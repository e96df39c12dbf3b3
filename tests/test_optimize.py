import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qnl import (
    DomainError,
    FdtViolationError,
    LosslessProbeError,
    Regime,
    optimize_fixed_backaction,
    optimize_fixed_eff_backaction,
    optimize_fixed_eff_backaction_sigma_zero,
    phase_transition_probe,
    qcrb_lossless,
    qcrb_simple,
    sum_noise_psd,
    threshold_eff,
    threshold_full,
    uncertainty_slack,
)
from qnl.optimize import _optimum_grid
from conftest import draw_back_action, draw_budget, draw_lossy_chi_inv, rel

D_RES = complex(0.0, -0.2)  # oscillator at resonance
K_FULL = complex(0.1, 0.3)


def check_report(report, chi_inv, k):
    """Every optimum must come with a saturating triad reproducing it."""
    triad = report.optimal_triad
    scale = triad.s_xx * triad.s_ff + abs(triad.s_xf) ** 2 + 0.25
    assert abs(uncertainty_slack(triad, k)) <= 1e-10 * scale
    assert rel(sum_noise_psd(triad, chi_inv, k), report.s_sum) <= 1e-10


def effective_closed_form(d, g, s, allow_sigma, hbar=1.0):
    """The paper's fixed-effective optimum at real kernel g, written out
    here as an independent reference: (s_sum, regime, triad s_xx, s_xf)."""
    dk = d + g
    chi_eff = 1.0 / dk
    thr = hbar * abs(dk) ** 2 / (2.0 * abs(d.imag)) if d.imag != 0.0 else math.inf
    excess = max(0.0, s - thr) if allow_sigma else 0.0
    s_xf = complex(-s * chi_eff.real, -chi_eff.imag * excess)
    s_xx = (abs(s_xf) ** 2 + hbar * abs(s_xf.imag) + hbar * hbar / 4.0) / s
    dql = hbar * abs(d.imag)
    if d.imag == 0.0:
        return hbar * hbar * dk.real**2 / (4.0 * s), Regime.QCRB_LIMITED, s_xx, s_xf
    if allow_sigma and s >= thr:
        return dql, Regime.DQL_LIMITED, s_xx, s_xf
    s_sum = max(0.5 * dql * (thr / s + s / thr), dql)
    regime = Regime.DQL_LIMITED if s_sum <= dql else Regime.QCRB_LIMITED
    return s_sum, regime, s_xx, s_xf


class TestThresholds:
    def test_threshold_eff_values(self):
        assert_allclose(threshold_eff(D_RES, 0.0), 0.1, rtol=1e-15)
        assert_allclose(threshold_eff(complex(-3.0, -0.4), 3.0), 0.2, rtol=1e-15)

    def test_threshold_eff_equivalent_form(self):
        # hbar |chi_inv + g|^2 / (2 |Im chi_inv|) == hbar / (2 |Im chi_eff|)
        rng = np.random.default_rng(30)
        for _ in range(100):
            d = draw_lossy_chi_inv(rng)
            g = rng.uniform(-3.0, 3.0)
            alt = 1.0 / (2.0 * abs((1.0 / (d + g)).imag))
            assert rel(threshold_eff(d, g), alt) <= 1e-12

    def test_threshold_eff_with_fully_compensated_real_part(self):
        d = complex(1.7, -0.6)
        assert_allclose(threshold_eff(d, -d.real), 0.5 * abs(d.imag), rtol=1e-15)

    def test_threshold_eff_rejects_lossless_and_complex_kernels(self):
        with pytest.raises(LosslessProbeError):
            threshold_eff(complex(-3.0, 0.0), 0.0)
        with pytest.raises(DomainError):
            threshold_eff(D_RES, complex(0.0, 0.1))
        assert threshold_eff(D_RES, 0.0 + 0.0j) == threshold_eff(D_RES, 0.0)

    def test_threshold_full_reduces_to_eff_at_k_zero(self):
        assert threshold_full(D_RES, 0.0) == threshold_eff(D_RES, 0.0)

    def test_threshold_full_frozen_example_and_equivalent_form(self):
        thr = threshold_full(D_RES, K_FULL)
        assert_allclose(thr, 0.35, rtol=1e-15)
        # same number from (Re^2 chi_K_inv + Im^2 chi_inv + Im^2 K) / (2 |Im chi_inv|)
        dk = D_RES + K_FULL
        alt = (dk.real**2 + D_RES.imag**2 + K_FULL.imag**2) / (2.0 * abs(D_RES.imag))
        assert_allclose(thr, alt, rtol=1e-15)

    def test_threshold_asymmetric_in_damping_sign(self):
        plus = threshold_full(D_RES, complex(0.1, 0.3))
        minus = threshold_full(D_RES, complex(0.1, -0.3))
        assert plus != minus
        s_ff = max(plus, minus) * 0.9
        a = optimize_fixed_backaction(D_RES, complex(0.1, 0.3), s_ff).s_sum
        b = optimize_fixed_backaction(D_RES, complex(0.1, -0.3), s_ff).s_sum
        assert a != b

    def test_threshold_never_below_meter_fdt_floor(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            d = draw_lossy_chi_inv(rng)
            k = draw_back_action(rng)
            assert threshold_full(d, k) >= abs(k.imag)


class TestFixedEffective:
    def test_boundary_budget_sits_at_the_dissipative_limit(self):
        # evaluate exactly at the computed threshold (no fuzz margin)
        thr = threshold_eff(D_RES, 0.0)
        assert_allclose(thr, 0.1, rtol=1e-15)
        report = optimize_fixed_eff_backaction(D_RES, 0.0, thr)
        assert report.s_sum == 0.2
        assert report.regime is Regime.DQL_LIMITED
        assert report.optimal_triad.s_xf.imag == 0.0
        check_report(report, D_RES, 0.0)

    def test_flat_above_threshold_with_nonzero_cross_imag(self):
        report = optimize_fixed_eff_backaction(D_RES, 0.0, 0.2)
        assert report.s_sum == 0.2
        assert report.optimal_triad.s_xf.imag != 0.0
        assert report.sigma_opt != 0.0
        check_report(report, D_RES, 0.0)

    def test_below_threshold_frozen_value(self):
        report = optimize_fixed_eff_backaction(D_RES, 0.0, 0.05)
        assert_allclose(report.s_sum, 0.25, rtol=1e-15)
        assert report.regime is Regime.QCRB_LIMITED
        check_report(report, D_RES, 0.0)

    def test_lossless_probe_power_limited_for_all_budgets(self):
        d = complex(-3.0, 0.0)
        for s in (0.01, 1.0, 100.0):
            report = optimize_fixed_eff_backaction(d, 0.0, s)
            assert_allclose(report.s_sum, 9.0 / (4.0 * s), rtol=1e-15)
            assert report.regime is Regime.QCRB_LIMITED
            assert math.isinf(report.s_threshold)
            check_report(report, d, 0.0)

    def test_rejects_nonpositive_budget(self):
        for bad in (0.0, -1.0, math.inf):
            with pytest.raises(DomainError):
                optimize_fixed_eff_backaction(D_RES, 0.0, bad)

    def test_triads_saturate_over_random_draws(self):
        rng = np.random.default_rng(32)
        for _ in range(300):
            d = draw_lossy_chi_inv(rng)
            g = rng.uniform(-2.0, 2.0)
            s = threshold_eff(d, g) * 10 ** rng.uniform(-1.5, 1.5)
            report = optimize_fixed_eff_backaction(d, g, s)
            check_report(report, d, g)
            assert report.s_sum >= abs(d.imag) * (1.0 - 1e-12)

    def test_gauge_independence_of_the_unconstrained_minimum(self):
        # minimum over budgets equals the dissipative limit for any kernel
        rng = np.random.default_rng(33)
        for _ in range(50):
            d = draw_lossy_chi_inv(rng)
            g = rng.uniform(-3.0, 3.0)
            thr = threshold_eff(d, g)
            best = min(
                optimize_fixed_eff_backaction(d, g, s).s_sum
                for s in thr * np.geomspace(0.2, 5.0, 21)
            )
            assert_allclose(best, abs(d.imag), rtol=1e-12)


class TestFixedEffectiveSigmaZero:
    def test_minimum_at_threshold_equals_dissipative_limit(self):
        thr = threshold_eff(D_RES, 0.0)
        report = optimize_fixed_eff_backaction_sigma_zero(D_RES, 0.0, thr)
        assert report.s_sum == 0.2
        assert report.regime is Regime.DQL_LIMITED
        assert report.constrained_sigma_zero
        check_report(report, D_RES, 0.0)

    def test_frozen_value_at_twice_threshold(self):
        report = optimize_fixed_eff_backaction_sigma_zero(D_RES, 0.0, 0.2)
        assert_allclose(report.s_sum, 0.25, rtol=1e-15)
        assert report.regime is Regime.QCRB_LIMITED
        assert report.optimal_triad.s_xf.imag == 0.0
        check_report(report, D_RES, 0.0)

    def test_diverges_linearly_for_large_budgets(self):
        thr = 0.1
        s = 1e6 * thr
        report = optimize_fixed_eff_backaction_sigma_zero(D_RES, 0.0, s)
        assert_allclose(report.s_sum, 0.1 * s / thr, rtol=1e-5)


class TestFixedBackAction:
    def test_real_k_matches_effective_optimizer_for_all_budgets(self):
        rng = np.random.default_rng(34)
        draws = []
        for _ in range(100):
            d = draw_lossy_chi_inv(rng)
            k = complex(rng.uniform(-2.0, 2.0), 0.0)
            draws.append((d, k, threshold_full(d, k) * 10 ** rng.uniform(-1.5, 1.5)))
        for _ in range(20):
            d = complex(rng.uniform(-2.0, 2.0), 0.0)
            k = complex(rng.uniform(-2.0, 2.0), 0.0)
            draws.append((d, k, abs(d + k) ** 2 * 10 ** rng.uniform(-1.5, 1.5)))
        for d, k, s in draws:
            for allow_sigma, eff_opt in (
                (True, optimize_fixed_eff_backaction),
                (False, optimize_fixed_eff_backaction_sigma_zero),
            ):
                s_sum, regime, s_xx, s_xf = effective_closed_form(d, k.real, s, allow_sigma)
                for got in (
                    optimize_fixed_backaction(d, k, s, allow_sigma=allow_sigma),
                    eff_opt(d, k.real, s),
                ):
                    assert rel(got.s_sum, s_sum) <= 1e-13
                    assert got.regime is regime
                    assert rel(got.optimal_triad.s_xx, s_xx) <= 1e-11
                    assert abs(got.optimal_triad.s_xf - s_xf) <= 1e-11 * (1.0 + abs(s_xf))

    def test_dissipative_limit_exactly_at_threshold(self):
        report = optimize_fixed_backaction(D_RES, K_FULL, 0.35)
        assert report.s_sum == 0.2
        assert report.regime is Regime.DQL_LIMITED
        check_report(report, D_RES, K_FULL)

    def test_flat_at_dissipative_limit_above_threshold(self):
        for s in (0.35, 0.5, 0.7, 5.0):
            report = optimize_fixed_backaction(D_RES, K_FULL, s)
            assert report.s_sum == 0.2
            check_report(report, D_RES, K_FULL)

    def test_sigma_opt_magnitude_and_sign(self):
        report = optimize_fixed_backaction(D_RES, K_FULL, 0.7)
        expected = abs(D_RES.imag) * (0.7 - 0.35) / abs(D_RES + K_FULL) ** 2
        assert_allclose(report.sigma_opt, expected, rtol=1e-12)  # sign = -sign(Im chi_inv) = +
        assert math.copysign(1.0, report.sigma_opt) == -math.copysign(1.0, D_RES.imag)

    def test_fdt_violation_rejected(self):
        with pytest.raises(FdtViolationError):
            optimize_fixed_backaction(D_RES, K_FULL, 0.2)  # hbar*|Im K| = 0.3

    def test_lossless_probe_routes_to_exact_power_limit(self):
        d = complex(-3.0, 0.0)
        k = complex(0.5, 0.4)
        for s in (0.5, 1.0, 10.0):
            report = optimize_fixed_backaction(d, k, s)
            assert report.s_sum == qcrb_lossless(d, k, s)
            assert math.isinf(report.s_threshold)
            assert report.regime is Regime.QCRB_LIMITED
            check_report(report, d, k)

    def test_monotone_decreasing_then_flat_with_sigma(self):
        rng = np.random.default_rng(35)
        for _ in range(50):
            d = draw_lossy_chi_inv(rng)
            k = draw_back_action(rng)
            thr = threshold_full(d, k)
            floor = abs(k.imag)
            grid = np.linspace(max(floor * 1.01, thr * 0.05), thr * 3.0, 41)
            values = [optimize_fixed_backaction(d, k, s).s_sum for s in grid]
            for s, a, b in zip(grid, values, values[1:]):
                assert b <= a * (1.0 + 1e-12)
            for s, v in zip(grid, values):
                if s >= thr:
                    assert v == abs(d.imag)

    def test_sigma_zero_variant_has_single_minimum_at_threshold(self):
        rng = np.random.default_rng(36)
        for _ in range(50):
            d = draw_lossy_chi_inv(rng)
            k = draw_back_action(rng)
            thr = threshold_full(d, k)
            floor = abs(k.imag)
            lo = max(floor * 1.05, thr * 0.1)
            grid = np.concatenate([np.linspace(lo, thr, 21), np.linspace(thr, 4.0 * thr, 21)])
            values = [
                optimize_fixed_backaction(d, k, s, allow_sigma=False).s_sum for s in grid
            ]
            i_thr = 20
            for a, b in zip(values[:i_thr], values[1 : i_thr + 1]):
                assert b <= a * (1.0 + 1e-12)
            for a, b in zip(values[i_thr + 1 :], values[i_thr + 2 :]):
                assert b >= a * (1.0 - 1e-12)
            assert_allclose(values[i_thr], abs(d.imag), rtol=1e-12)

    def test_regime_tag_tracks_the_value(self):
        # dissipation-limited iff the optimum equals the dissipative limit
        rng = np.random.default_rng(38)
        for _ in range(200):
            d = draw_lossy_chi_inv(rng)
            k = draw_back_action(rng)
            s = draw_budget(rng, d, k)
            for allow in (True, False):
                result = optimize_fixed_backaction(d, k, s, allow_sigma=allow)
                assert (result.regime is Regime.DQL_LIMITED) == (result.s_sum == abs(d.imag))
            eff = optimize_fixed_eff_backaction(d, k.real, s)
            assert (eff.regime is Regime.DQL_LIMITED) == (eff.s_sum == abs(d.imag))

    def test_sigma_dominance(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            d = draw_lossy_chi_inv(rng)
            k = draw_back_action(rng)
            s = draw_budget(rng, d, k)
            free = optimize_fixed_backaction(d, k, s, allow_sigma=True)
            pinned = optimize_fixed_backaction(d, k, s, allow_sigma=False)
            assert free.s_sum <= pinned.s_sum * (1.0 + 1e-12)
            assert pinned.constrained_sigma_zero and not free.constrained_sigma_zero
            check_report(free, d, k)
            check_report(pinned, d, k)


class TestQcrb:
    def test_simple_frozen_value_and_decay(self):
        assert_allclose(qcrb_simple(D_RES, 0.0, 0.01), 1.0, rtol=1e-15)
        assert qcrb_simple(D_RES, 0.0, 1e12) < 1e-12

    def test_lossless_equals_simple_without_damping(self):
        d = complex(-3.0, 0.0)
        for s in (0.2, 1.0, 7.0):
            assert qcrb_lossless(d, 0.5, s) == qcrb_simple(d, 0.5, s)

    def test_lossless_doubles_at_the_meter_fdt_boundary(self):
        d = complex(2.0, 0.0)
        k = complex(0.3, 0.8)
        s = 0.8  # = hbar*|Im K|
        assert qcrb_lossless(d, k, s) == 2.0 * qcrb_simple(d, k, s)

    def test_lossless_intermediate_ratio(self):
        d = complex(1.5, 0.0)
        k = complex(0.0, 0.6)
        s = 1.0
        ratio = qcrb_lossless(d, k, s) / qcrb_simple(d, k, s)
        assert_allclose(ratio, 2.0 / 1.8, rtol=1e-12)

    def test_lossless_rejects_lossy_probe_and_fdt_violation(self):
        with pytest.raises(DomainError):
            qcrb_lossless(D_RES, 0.0, 1.0)
        with pytest.raises(FdtViolationError):
            qcrb_lossless(complex(1.0, 0.0), complex(0.0, 2.0), 1.0)


class TestPhaseTransition:
    def test_canonical_instance(self):
        probe = phase_transition_probe(D_RES, 0.0)
        assert probe.step == pytest.approx(1e-5)
        assert abs(probe.d2_below - 20.0) <= 0.02 * 20.0
        assert abs(probe.d2_above) <= 1e-6
        assert abs(probe.d1_jump) <= 1e-6
        # Im S_xF slope jumps from 0 to -Im chi_eff = -5
        assert_allclose(probe.im_s_xf_slope_below, 0.0, atol=1e-9)
        assert_allclose(probe.im_s_xf_slope_above, -5.0, rtol=1e-6)

    def test_general_k_curvature_matches_analytic_value(self):
        probe = phase_transition_probe(D_RES, K_FULL)
        thr = probe.s_threshold
        expected = abs(D_RES.imag) / (thr**2 - K_FULL.imag**2)
        assert abs(probe.d2_below - expected) <= 0.02 * expected
        assert abs(probe.d2_above) <= 1e-6
        assert abs(probe.d1_jump) <= 1e-6
        assert abs(probe.im_s_xf_slope_jump) > 0.1

    def test_sigma_zero_variant_is_smooth(self):
        probe = phase_transition_probe(D_RES, 0.0, allow_sigma=False)
        assert probe.d2_below > 0.0 and probe.d2_above > 0.0
        assert abs(probe.d2_above - probe.d2_below) <= 5e-3 * probe.d2_below
        assert abs(probe.d1_jump) <= 1e-6

    def test_lossless_probe_rejected(self):
        with pytest.raises(LosslessProbeError):
            phase_transition_probe(complex(-3.0, 0.0), 0.0)


def _kernel_draws(n: int, seed: int):
    """Conftest draws; a third with Im K = 0, every seventh probe lossless,
    every eleventh lossy budget exactly at the threshold."""
    rng = np.random.default_rng(seed)
    draws = []
    for i in range(n):
        d, k = draw_lossy_chi_inv(rng), draw_back_action(rng)
        if i % 3 == 0:
            k = complex(k.real, 0.0)
        if i % 7 == 0:
            d = complex(d.real, 0.0)
            s = max(abs(k.imag), 0.01) * 10.0 ** rng.uniform(0.0, 1.5)
        elif i % 11 == 0:
            s = threshold_full(d, k)
        else:
            s = draw_budget(rng, d, k)
        draws.append((d, k, s))
    return draws


def _bits(x: float) -> tuple:
    return float(x), math.copysign(1.0, x)  # == on the value and on the sign of a zero


@pytest.mark.parametrize("allow_sigma", [True, False])
def test_array_kernel_matches_scalar_optimizer_bit_for_bit(allow_sigma):
    # the sweep kernel repeats optimize_fixed_backaction op for op; compared
    # with ==, never a tolerance, so a float ** or math.hypot in the scalar
    # path (or any reordering) shows up as a mismatch
    draws = _kernel_draws(20000, 2024)
    d, k, s = (np.array(col) for col in zip(*draws))
    got = _optimum_grid(d.real, d.imag, k.real, k.imag, s, allow_sigma, 1.0)
    assert not got["bad"].any()
    regimes, mismatches = set(), []
    for i, (di, ki, si) in enumerate(draws):
        r = optimize_fixed_backaction(di, ki, si, allow_sigma=allow_sigma)
        want = (r.s_sum, r.s_threshold, r.sigma_opt, r.optimal_triad.s_xx,
                r.optimal_triad.s_xf.real, r.optimal_triad.s_xf.imag)
        have = tuple(got[key][i] for key in
                     ("s_sum", "s_threshold", "sigma_opt", "s_xx", "s_xf_re", "s_xf_im"))
        if [_bits(x) for x in have] != [_bits(x) for x in want] or \
                got["dql"][i] != (r.regime is Regime.DQL_LIMITED):
            mismatches.append((di, ki, si))
        regimes.add((r.regime, math.isinf(r.s_threshold), r.sigma_opt != 0.0))
    assert mismatches == []
    # every branch was exercised: lossless, both lossy regimes, and (sigma
    # free) the dissipation-limited plateau with sigma != 0
    assert (Regime.QCRB_LIMITED, True, False) in regimes
    assert (Regime.QCRB_LIMITED, False, False) in regimes
    assert (Regime.DQL_LIMITED, False, allow_sigma) in regimes


def test_array_kernel_marks_every_point_the_scalar_optimizer_rejects():
    d = np.array([complex(0.3, -0.2), complex(0.3, -0.2), complex(-0.1, 0.0), complex(0.3, -0.2),
                  complex(0.3, -0.2), complex(0.3, -0.2)])
    k = np.array([complex(0.1, 0.5), complex(-0.3, 0.2), complex(0.2, 0.0), 0j, 0j, 0j])
    s = np.array([0.1, 0.5, 0.4, 0.0, math.inf, math.nan])
    got = _optimum_grid(d.real, d.imag, k.real, k.imag, s, True, 1.0)
    for i, bad in enumerate(got["bad"]):
        try:
            optimize_fixed_backaction(d[i], k[i], s[i])
            raised = False
        except (DomainError, FdtViolationError):
            raised = True
        assert bool(bad) == raised, i
    # the FDT violation, a vanishing chi_inv + K, and three invalid budgets
    assert got["bad"].tolist() == [True, True, False, True, True, True]


def test_array_kernel_on_scalar_inputs_equals_the_fully_broadcast_call():
    # each operation broadcasts only its own operands; scalar chi_inv and K
    # with an array of budgets (the spin sweep), and arrays with one budget
    # (the budget sweep, Im K dropped in the fixed-effective mode) must give
    # what the fully broadcast call gives, bit for bit, in the full shape;
    # allow_sigma as a column evaluates both series in one pass
    d, k, s = (np.array(col) for col in zip(*_kernel_draws(2000, 7)))
    cases = [(d[i].real, d[i].imag, k[i].real, k[i].imag, s) for i in (0, 1, 2)]
    cases += [(d.real, d.imag, k.real, k.imag, s[i]) for i in (1, 11)]
    cases += [(d.real, d.imag, k.real, 0.0, s[2])]
    for args in cases:
        for allow_sigma in (True, False, np.array([[True], [False]])):
            got = _optimum_grid(*args, allow_sigma, 1.0)
            full = np.broadcast_arrays(*args, allow_sigma)
            want = _optimum_grid(*full, 1.0)
            assert got.keys() == want.keys()
            for key, value in got.items():
                assert value.shape == full[0].shape, key
                # bytes: the value and the sign of every zero
                assert value.dtype == want[key].dtype and value.tobytes() == want[key].tobytes(), key

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qnl import (
    DomainError,
    FdtViolationError,
    OracleConfig,
    brute_force_min,
    local_uncertainty_pair,
    optimize_fixed_backaction,
    qcrb_simple,
    random_saturating_triad,
    saturating_s_xx,
    uncertainty_slack,
)
from conftest import draw_back_action, draw_budget, draw_lossy_chi_inv, rel

D_RES = complex(0.0, -0.2)


def test_agrees_with_closed_form_below_threshold():
    result = brute_force_min(D_RES, 0.0, 0.05)
    assert rel(result.s_sum_min, 0.25) <= 1e-3
    assert result.feasible_fraction > 0.0


def test_agrees_with_closed_form_at_dissipative_plateau():
    for k, s_ff in ((complex(0.1, 0.3), 0.35), (complex(0.2, -0.1), 0.3)):
        result = brute_force_min(D_RES, k, s_ff)
        assert rel(result.s_sum_min, 0.2) <= 1e-3
        assert rel(result.s_sum_min, optimize_fixed_backaction(D_RES, k, s_ff).s_sum) <= 1e-3


def test_agrees_with_simple_qcrb_for_lossless_probe():
    result = brute_force_min(complex(-3.0, 0.0), 0.0, 1.0)
    assert rel(result.s_sum_min, qcrb_simple(-3.0, 0.0, 1.0)) <= 1e-3
    assert rel(result.s_sum_min, 2.25) <= 1e-3


def test_never_undercuts_the_closed_form():
    rng = np.random.default_rng(41)
    for _ in range(25):
        d = draw_lossy_chi_inv(rng, min_im=0.1)
        k = draw_back_action(rng)
        s_ff = draw_budget(rng, d, k, decades=1.0)
        closed = optimize_fixed_backaction(d, k, s_ff).s_sum
        got = brute_force_min(d, k, s_ff).s_sum_min
        assert got >= closed * (1.0 - 1e-3)
        assert rel(got, closed) <= 1e-3


def test_argmin_lies_on_the_saturation_surface():
    rng = np.random.default_rng(42)
    for _ in range(10):
        d = draw_lossy_chi_inv(rng, min_im=0.1)
        k = draw_back_action(rng)
        s_ff = draw_budget(rng, d, k, decades=1.0)
        result = brute_force_min(d, k, s_ff)
        triad = result.argmin_triad
        assert uncertainty_slack(triad, k) >= -1e-12
        scale = s_ff * triad.s_xx + abs(triad.s_xf) ** 2 + 0.25
        assert abs(uncertainty_slack(triad, k)) <= 1e-6 * scale


def test_grid_refinement_converges_monotonically():
    # nested grids (n, 2n-1, ...) with refinement off: the best feasible
    # value can only improve, and approaches the closed form from above
    d = complex(0.4, -0.3)
    k = complex(0.2, 0.15)
    instances = (
        (d, k, 1.3 * optimize_fixed_backaction(d, k, 0.4).s_threshold),
        (D_RES, 0j, 0.05),
    )
    for d, k, s_ff in instances:
        closed = optimize_fixed_backaction(d, k, s_ff).s_sum
        errors = []
        for n in (33, 65, 129):
            cfg = OracleConfig(coarse_grid_points=n, refine=False)
            errors.append(brute_force_min(d, k, s_ff, cfg).s_sum_min - closed)
        assert all(e >= -1e-12 for e in errors)
        assert errors[1] <= errors[0] and errors[2] <= errors[1]


def test_fdt_violation_rejected():
    with pytest.raises(FdtViolationError):
        brute_force_min(D_RES, complex(0.0, 0.5), 0.4)
    with pytest.raises(FdtViolationError):
        random_saturating_triad(complex(0.0, 0.5), 0.4, seed=0)


def test_config_validation():
    with pytest.raises(DomainError):
        OracleConfig(coarse_grid_points=16)
    with pytest.raises(DomainError):
        OracleConfig(s_xf_box_scale=-1.0)


class TestSaturatingSampler:
    def test_seed_reproducibility_bit_for_bit(self):
        k = complex(0.3, -0.2)
        a = random_saturating_triad(k, 0.8, seed=123)
        b = random_saturating_triad(k, 0.8, seed=123)
        assert a == b
        c = random_saturating_triad(k, 0.8, seed=124)
        assert a != c

    def test_zero_k_solves_the_closed_relation(self):
        triad = random_saturating_triad(0.0, 1.0, seed=7)
        expected = (abs(triad.s_xf) ** 2 + abs(triad.s_xf.imag) + 0.25) / 1.0
        assert_allclose(triad.s_xx, expected, rtol=1e-14)

    def test_sampled_triads_saturate_both_local_inequalities(self):
        rng = np.random.default_rng(43)
        for i in range(200):
            k = draw_back_action(rng)
            s_ff = abs(k.imag) * (1.0 + rng.uniform(0.05, 2.0)) + rng.uniform(0.01, 1.0)
            triad = random_saturating_triad(k, s_ff, seed=i)
            plus, minus = local_uncertainty_pair(triad, k)
            scale = triad.s_xx * triad.s_ff + abs(triad.s_xf) ** 2 + 0.25
            assert abs(min(plus, minus)) <= 1e-12 * scale

    def test_custom_hbar(self):
        triad = random_saturating_triad(complex(0.1, 0.2), 1.5, seed=5, hbar=0.7)
        assert abs(uncertainty_slack(triad, complex(0.1, 0.2), hbar=0.7)) <= 1e-12 * (
            triad.s_xx * triad.s_ff + 1.0
        )


def test_saturating_s_xx_vectorized_matches_scalar():
    # the scalar path is a separate float implementation of the array path;
    # both must agree bit for bit, NaN included, at any unit scale
    rng = np.random.default_rng(44)
    seen_nan = seen_value = False
    for hbar, mu in ((1.0, 1.0), (1.054e-34, 1e-3), (1e10, 1e6)):
        for k_im in (0.35, -0.35, 0.0):
            k = k_im * mu
            # s_ff above, exactly at and below the meter FDT floor hbar*|k|
            for extra in (0.55, 0.0, -0.15):
                s_ff = hbar * abs(k) + hbar * mu * extra
                re = hbar * rng.normal(size=50)
                im = hbar * rng.normal(size=50)
                # points on the sigma = 0 kink, Im S_xF = k_im * S_xx(S_xF), and
                # just off it, inside the branch-selection tolerance and beyond
                c = re[:10] ** 2 + hbar * hbar / 4.0
                if k_im == 0.0:
                    im[:10] = 0.0
                elif s_ff * s_ff > 4.0 * k * k * c.max():
                    im[:10] = (s_ff - np.sqrt(s_ff * s_ff - 4.0 * k * k * c)) / (2.0 * k)
                re[10:20] = re[:10]
                im[10:20] = im[:10] + hbar * np.geomspace(1e-13, 1e-9, 10) * (-1.0) ** np.arange(10)
                vec = saturating_s_xx(re, im, s_ff, k, hbar)
                for r, i, v in zip(re, im, vec):
                    s = saturating_s_xx(float(r), float(i), s_ff, k, hbar)
                    assert (np.isnan(v) and np.isnan(s)) or v == s
                    seen_nan |= bool(np.isnan(v))
                    seen_value |= not np.isnan(v)
    assert seen_nan and seen_value


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    log_lam=st.floats(-40.0, 10.0),
    log_mu=st.floats(-6.0, 6.0),
)
def test_oracle_is_unit_covariant(seed, log_lam, log_mu):
    # hbar -> lam*hbar, chi_inv -> mu*chi_inv, K -> mu*K, s_ff -> lam*mu*s_ff
    # scales every sum noise by lam*mu and leaves the regime alone
    rng = np.random.default_rng(seed)
    d = draw_lossy_chi_inv(rng)
    k = draw_back_action(rng)
    s_ff = max(draw_budget(rng, d, k), 1.05 * abs(k.imag))
    lam, mu = 10.0**log_lam, 10.0**log_mu
    base = brute_force_min(d, k, s_ff).s_sum_min
    got = brute_force_min(mu * d, mu * k, lam * mu * s_ff, hbar=lam).s_sum_min
    assert rel(got, lam * mu * base) <= 1e-6
    closed = optimize_fixed_backaction(mu * d, mu * k, lam * mu * s_ff, hbar=lam)
    assert rel(got, closed.s_sum) <= 1e-3
    assert closed.regime == optimize_fixed_backaction(d, k, s_ff).regime

"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are fixed here, not calibrated.
"""

import time

import numpy as np

from qnl import (
    DampedOscillator,
    FreeMass,
    TabulatedSusceptibility,
    UniformTemperature,
    ZeroTemperature,
    brute_force_min,
    dql,
    fdt_psd,
    feedback_equivalent_gauge,
    gauge_transform,
    commutator_check,
    matched_sum_noise,
    optimal_spin_response,
    optimize_fixed_backaction,
    optimize_fixed_eff_backaction,
    parse_config,
    phase_transition_probe,
    qcrb_lossless,
    qcrb_simple,
    random_saturating_triad,
    run_spin_figure,
    sigma,
    spin_triad,
    sum_noise_psd,
    threshold_eff,
    threshold_full,
    uncertainty_slack,
)
from conftest import draw_back_action, draw_lossy_chi_inv, rel

D_RES = complex(0.0, -0.2)


def report(number: int, name: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] acceptance {number:02d} {name}")
    assert not failures, f"criterion {number}: " + "; ".join(failures[:5])


def test_criterion_01_dql_floor_and_saturation():
    rng = np.random.default_rng(101)
    failures = []
    for i in range(200):
        d = draw_lossy_chi_inv(rng)
        k = draw_back_action(rng)
        thr = threshold_full(d, k)
        floor = abs(k.imag)
        if i % 2 == 0:
            s_ff = thr * 10 ** rng.uniform(0.0, 1.2)  # at or above threshold
        else:
            s_ff = max(floor * (1.0 + 10 ** rng.uniform(-3, 0)), thr * 10 ** rng.uniform(-1.5, 0.0))
        result = optimize_fixed_backaction(d, k, s_ff, allow_sigma=True)
        floor_value = abs(d.imag)
        if result.s_sum < floor_value - 1e-12:
            failures.append(f"s_sum {result.s_sum} below floor {floor_value} at {d}, {k}, {s_ff}")
        if s_ff >= thr and rel(result.s_sum, floor_value) > 1e-10:
            failures.append(f"plateau missed at {d}, {k}, {s_ff}: {result.s_sum} vs {floor_value}")
    report(1, "dissipative floor and plateau", failures)


def test_criterion_02_oracle_equivalence():
    rng = np.random.default_rng(102)
    failures = []
    worst_time = 0.0
    for i in range(100):
        d = draw_lossy_chi_inv(rng, min_im=0.1)
        k = complex(rng.uniform(-1.5, 1.5), rng.uniform(-0.75, 0.75))
        thr = threshold_full(d, k)
        side = 10 ** rng.uniform(0.05, 1.0) if i % 2 == 0 else 10 ** rng.uniform(-1.0, -0.05)
        s_ff = max(thr * side, abs(k.imag) * (1.0 + 10 ** rng.uniform(-2, 0)))
        closed = optimize_fixed_backaction(d, k, s_ff).s_sum
        start = time.perf_counter()
        got = brute_force_min(d, k, s_ff).s_sum_min
        elapsed = time.perf_counter() - start
        worst_time = max(worst_time, elapsed)
        if rel(got, closed) > 1e-3:
            failures.append(f"disagreement {rel(got, closed):.2e} at {d}, {k}, {s_ff}")
        if got < closed * (1.0 - 1e-3):
            failures.append(f"undercut at {d}, {k}, {s_ff}")
        if elapsed > 0.3:
            failures.append(f"instance took {elapsed:.2f}s")
    print(f"    (oracle worst instance time {worst_time*1e3:.0f} ms)")
    report(2, "brute-force oracle equivalence", failures)


def test_criterion_03_qcrb_endpoints():
    rng = np.random.default_rng(103)
    failures = []
    for _ in range(100):
        d = complex(rng.uniform(-3, 3), 0.0)
        re_k = rng.uniform(-2, 2)
        if abs(d + re_k) < 1e-3:
            continue
        s_ff = 10 ** rng.uniform(-2, 2)
        im_k = rng.choice([-1.0, 1.0]) * s_ff  # FDT boundary: hbar*|Im K| = S_FF
        a = qcrb_lossless(d, complex(re_k, 0.0), s_ff)
        b = qcrb_simple(d, complex(re_k, 0.0), s_ff)
        if rel(a, b) > 1e-12:
            failures.append(f"Im K = 0 endpoint off by {rel(a, b):.2e}")
        a = qcrb_lossless(d, complex(re_k, im_k), s_ff)
        b = 2.0 * qcrb_simple(d, complex(re_k, im_k), s_ff)
        if rel(a, b) > 1e-12:
            failures.append(f"doubling endpoint off by {rel(a, b):.2e}")
    report(3, "power-limit endpoints", failures)


def test_criterion_04_gauge_feedback_invariance():
    rng = np.random.default_rng(104)
    failures = []
    for i in range(500):
        k = draw_back_action(rng)
        s_ff = abs(k.imag) * (1.0 + rng.uniform(0.05, 2.0)) + rng.uniform(0.02, 1.5)
        triad = random_saturating_triad(k, s_ff, seed=40_000 + i)
        kernel = complex(rng.normal(), rng.normal())
        d = draw_lossy_chi_inv(rng)
        eff, gv = gauge_transform(triad, k, kernel)

        # deviations are relative to the terms actually summed on the larger
        # of the two sides (the identities are exact in real arithmetic)
        sum_scale = max(
            abs(d + k) ** 2 * triad.s_xx + 2 * abs(triad.s_xf) + triad.s_ff,
            abs(d + gv) ** 2 * eff.s_xx + 2 * abs(eff.s_xf) + eff.s_ff,
        ) + 1.0
        if abs(sum_noise_psd(eff, d, gv) - sum_noise_psd(triad, d, k)) > 1e-12 * sum_scale:
            failures.append(f"sum noise not invariant at draw {i}")
        slack_scale = max(
            triad.s_xx * triad.s_ff + abs(triad.s_xf) ** 2,
            eff.s_xx * eff.s_ff + abs(eff.s_xf) ** 2,
        ) + 0.25
        if abs(uncertainty_slack(eff, gv) - uncertainty_slack(triad, k)) > 1e-12 * slack_scale:
            failures.append(f"slack not invariant at draw {i}")
        sig_scale = max(
            abs(k.imag) * triad.s_xx + abs(triad.s_xf.imag),
            abs(gv.imag) * eff.s_xx + abs(eff.s_xf.imag),
        ) + 1.0
        if abs(sigma(eff, gv) - sigma(triad, k)) > 1e-12 * sig_scale:
            failures.append(f"sigma not invariant at draw {i}")

        kappa = complex(rng.normal(), rng.normal())
        via = gauge_transform(triad, k, feedback_equivalent_gauge(k, kappa))
        direct = gauge_transform(triad, k, k - kappa)
        if via != direct:
            failures.append(f"feedback composition not bit-consistent at draw {i}")
    report(4, "gauge and feedback invariance", failures)


def test_criterion_05_phase_transition():
    failures = []
    thr = threshold_eff(D_RES, 0.0)
    probe = phase_transition_probe(D_RES, 0.0)
    if probe.step != 1e-4 * thr:
        failures.append(f"step {probe.step} is not 1e-4 of the threshold {thr}")
    if abs(probe.d2_below - 20.0) > 0.02 * 20.0:
        failures.append(f"d2 below {probe.d2_below} not within 2% of 20")
    if abs(probe.d2_above) > 1e-6:
        failures.append(f"d2 above {probe.d2_above} not flat")
    if abs(probe.d1_jump) > 1e-6:
        failures.append(f"first derivative jump {probe.d1_jump}")
    smooth = phase_transition_probe(D_RES, 0.0, allow_sigma=False)
    if not (smooth.d2_below > 0.0 and smooth.d2_above > 0.0):
        failures.append("sigma-zero curvature not positive")
    if abs(smooth.d2_above - smooth.d2_below) > 5e-3 * smooth.d2_below:
        failures.append(
            f"sigma-zero variant shows a jump: {smooth.d2_below} vs {smooth.d2_above}"
        )
    report(5, "threshold phase transition", failures)


def test_criterion_06_spin_meter_identities():
    rng = np.random.default_rng(106)
    failures = []
    for i in range(200):
        theta_i = rng.uniform(0.05, 4.0)
        theta_s = rng.uniform(0.0, 3.0)
        cs = complex(rng.normal(), rng.normal())
        triad = spin_triad(theta_i, theta_s, cs)
        residual = (
            triad.s_xx * triad.s_ff
            - abs(triad.s_xf) ** 2
            - theta_s * abs(cs.imag)
            - 0.25
        )
        if abs(residual) > 1e-12:
            failures.append(f"saturation identity residual {residual} at draw {i}")

    for theta_i in np.geomspace(0.01, 100.0, 100):
        matched = matched_sum_noise(theta_i, D_RES)
        best = optimize_fixed_eff_backaction(D_RES, 0.0, theta_i).s_sum
        if matched < best * (1.0 - 1e-12):
            failures.append(f"matched below optimum at theta_i={theta_i}")

    for chi in (5j, complex(0.3, 0.1), complex(-1.1, -0.6), complex(0.2, 2.0)):
        d = 1.0 / chi
        for theta_i in np.geomspace(0.05, 20.0, 40):
            product = optimal_spin_response(theta_i, chi)
            branch2 = theta_i * abs(chi.imag) >= 0.5
            triad = spin_triad(theta_i, 1.0, product)
            got = sum_noise_psd(triad, d, 0.0)
            want = optimize_fixed_eff_backaction(d, 0.0, theta_i).s_sum
            if rel(got, want) > 1e-10:
                failures.append(
                    f"optimal response (branch {2 if branch2 else 1}) off by "
                    f"{rel(got, want):.2e} at chi={chi}, theta_i={theta_i:.3f}"
                )
    report(6, "spin-meter identities", failures)


def test_criterion_07_commutator_cancellation():
    rng = np.random.default_rng(107)
    failures = []
    for i in range(1000):
        d = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        k = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        residual = commutator_check(d, k)[2]
        if abs(residual) > 1e-14:
            failures.append(f"residual {residual} at draw {i}")
    report(7, "commutator cancellation", failures)


def test_criterion_08_figure_structure():
    cfg = parse_config(
        {
            "probe": {"type": "oscillator", "mass": 1.0, "omega0": 1.0, "gamma": 0.2},
            "thermal": {"type": "zero"},
            "mode": "sweep_SFF_at_fixed_omega",
            "omega": 1.0,
        }
    )
    fig = run_spin_figure(cfg)
    thr0 = threshold_eff(D_RES, 0.0)
    dql_value = 0.2
    s = np.array([p.s_ff for p in fig.points])
    full = np.array([p.s_sum_full for p in fig.points])
    zero = np.array([p.s_sum_sigma_zero for p in fig.points])
    matched = np.array([p.s_sum_spin_matched for p in fig.points])
    failures = []

    bad = np.nonzero(full > zero * (1.0 + 1e-12))[0]
    if bad.size:
        failures.append(f"full > sigma-zero first at s_ff={s[bad[0]]:.4g}")
    bad = np.nonzero(full > matched * (1.0 + 1e-12))[0]
    if bad.size:
        failures.append(
            f"full > spin-matched at {bad.size}/{s.size} points, "
            f"first at s_ff={s[bad[0]]:.4g} (= {s[bad[0]]/thr0:.3g} thresholds)"
        )
    # the sigma-zero curve crosses the matched one at s_ff = 2*thr0: below it
    # the constrained optimum lies under the matched configuration, beyond it
    # the constrained optimum keeps growing while the matched configuration
    # keeps approaching the dissipative limit
    below = s <= 2.0 * thr0
    bad = np.nonzero(below & (zero > matched * (1.0 + 1e-12)))[0]
    if bad.size:
        failures.append(
            f"sigma-zero > spin-matched below the crossing at {bad.size}/{s.size} points, "
            f"first at s_ff={s[bad[0]]:.4g} (= {s[bad[0]]/thr0:.3g} thresholds)"
        )
    bad = np.nonzero(~below & ~(zero > matched))[0]
    if bad.size:
        failures.append(
            f"sigma-zero <= spin-matched beyond the crossing at {bad.size}/{s.size} points, "
            f"first at s_ff={s[bad[0]]:.4g} (= {s[bad[0]]/thr0:.3g} thresholds)"
        )

    plateau = s >= thr0
    if not np.all(full[plateau] == dql_value):
        failures.append("full series not constant at the dissipative limit beyond threshold")

    i_min = int(np.argmin(zero))
    if rel(s[i_min], thr0) > 1e-12:
        failures.append(f"sigma-zero minimum at s_ff={s[i_min]} not at threshold")
    if rel(zero[i_min], dql_value) > 1e-10:
        failures.append(f"sigma-zero minimum {zero[i_min]} not at the dissipative limit")
    if np.sum(zero == zero[i_min]) != 1:
        failures.append("sigma-zero minimum not unique")

    if rel(full[-1], dql_value) > 1e-10:
        failures.append("full series does not end at the dissipative limit")
    if not (matched[-1] <= 1.01 * dql_value and np.all(np.diff(matched) < 0)):
        failures.append("matched series does not decrease toward the dissipative limit")
    if zero[-1] < 10.0 * dql_value:
        failures.append("sigma-zero series unexpectedly converges too")
    report(8, "three-series figure structure", failures)


def test_criterion_09_fdt_consistency():
    rng = np.random.default_rng(109)
    failures = []
    zero = ZeroTemperature()
    for i in range(1000):
        kind = i % 3
        if kind == 0:
            model = DampedOscillator(rng.uniform(0.2, 3.0), rng.uniform(0.0, 2.0),
                                     rng.uniform(0.0, 1.0))
        elif kind == 1:
            model = FreeMass(rng.uniform(0.2, 3.0), rng.uniform(0.0, 1.0))
        else:
            grid = np.sort(rng.uniform(0.1, 4.0, size=5))
            while np.any(np.diff(grid) == 0.0):
                grid = np.sort(rng.uniform(0.1, 4.0, size=5))
            samples = [complex(rng.normal(), rng.normal()) for _ in grid]
            model = TabulatedSusceptibility(grid, samples)
            omega = rng.uniform(grid[0], grid[-1])
        if kind != 2:
            omega = rng.uniform(0.05, 4.0)
        d = model.chi_inv(omega)
        if fdt_psd(d, zero, omega) != dql(d):
            failures.append(f"zero-temperature floor mismatch at draw {i}")

    ladder = np.linspace(0.0, 3.0, 10)
    d = DampedOscillator(1.0, 1.0, 0.2).chi_inv(0.8)
    values = [fdt_psd(d, UniformTemperature(t), 0.8) for t in ladder]
    if not all(b >= a for a, b in zip(values, values[1:])):
        failures.append("thermal PSD not monotone in temperature")
    report(9, "thermal-floor consistency", failures)

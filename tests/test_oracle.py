import json
import math
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qnl import (
    DomainError,
    EmptyFeasibleRegionError,
    FdtViolationError,
    NoiseTriad,
    OracleConfig,
    brute_force_min,
    local_uncertainty_pair,
    optimize_fixed_backaction,
    qcrb_simple,
    random_saturating_triad,
    saturating_s_xx,
    uncertainty_slack,
)
from qnl.oracle import _oracle_grid
from conftest import (ACCURACY_SETS, PINS, accuracy_set, draw_back_action, draw_budget,
                      draw_lossy_chi_inv, oracle_digest, pin_input, rel)

D_RES = complex(0.0, -0.2)
ORACLE_DIGEST = Path(__file__).resolve().parent / "data" / "oracle_digest.json"


def test_agrees_with_closed_form_below_threshold():
    result = brute_force_min(D_RES, 0.0, 0.05)
    assert rel(result.s_sum_min, 0.25) <= 1e-3


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


def test_results_are_pinned_bit_for_bit():
    # 50 calls with every result field stored as float.hex: 33 draws of the
    # seeded 900-draw set (default_rng(12345), decades=1.5), 14 of them with
    # hbar*|Im K|/s_ff >= 0.98, near the meter FDT floor; 15 calls end at
    # a piece's vertex, the others at the kink minimum; 5 draws
    # scaled to SI (hbar=1.054e-34, chi_inv and K x 1e3);
    # a lossless probe; one refine=False call; 7 edge cases whose
    # argmins hold exact zeros (chi_inv=-0.2i with K=0, Re(chi_inv+K)=0 with
    # a real K, a real K, s_ff at the threshold, two of them at hbar=2^+-60,
    # and refine=False); and f constant on the kink, chi_inv = K = 0.1i (a
    # degenerate response to the closed form) and chi_inv = K = 0.5i (f's
    # gradient on the kink exactly 0), the latter with refine on and off.
    # tests/regen_fixtures.py rewrites the file from its stored inputs, or
    # checks it with --check.
    for case in json.loads(PINS.read_text()):
        d, k, s_ff, hbar = pin_input(case)
        result = brute_force_min(d, k, s_ff, OracleConfig(refine=case["refine"]), hbar=hbar)
        assert pin_fields(result) == {key: case[key] for key in PIN_FIELDS}, case["label"]


PIN_FIELDS = ("s_sum_min", "s_xx", "s_xf", "s_ff_out", "iterations")


def pin_fields(result):
    """Every field of an OracleResult, floats as float.hex."""
    h, t = float.hex, result.argmin_triad
    return {"s_sum_min": h(result.s_sum_min), "s_xx": h(t.s_xx),
            "s_xf": [h(t.s_xf.real), h(t.s_xf.imag)], "s_ff_out": h(t.s_ff),
            "iterations": result.iterations}


def sum_noise_on(d, k, s_ff, hbar, side=None):
    """The sum noise at S_xF = x + iy as a float function f(x, y): on the
    saturation surface, S_xx = max(S+, S-), or with side +1 or -1 on the
    piece S_xx = S+ or S- alone."""
    dk, k_im = d + k, k.imag
    dk2, quarter = abs(dk) ** 2, hbar * hbar / 4.0

    def f(x, y):
        m2, h_im = x * x + y * y, hbar * y
        plus = (m2 - h_im + quarter) / (s_ff - hbar * k_im)
        minus = (m2 + h_im + quarter) / (s_ff + hbar * k_im)
        s_xx = max(plus, minus) if side is None else plus if side > 0 else minus
        return dk2 * s_xx + (2.0 * (dk.real * x - dk.imag * y) + s_ff)

    return f


def search_bound(d, k, s_ff, hbar):
    """B: every S_xF where f is no worse than at the kink point with
    Re S_xF = 0 has |S_xF| <= B, by f >= a*(|S_xF| - hbar/2)^2 -
    2|chi_inv + K|*|S_xF| + s_ff with a = |chi_inv + K|^2/(s_ff + hbar*|Im K|)."""
    dk2, c = abs(d + k) ** 2, hbar * abs(k.imag)
    rho = math.sqrt((s_ff - c) / s_ff * (s_ff + c) / s_ff)
    y0 = 2.0 * k.imag * (hbar * hbar / 4.0) / (s_ff + s_ff * rho)
    a, m = dk2 / (s_ff + c), math.sqrt(dk2)
    f0 = sum_noise_on(d, k, s_ff, hbar)(0.0, y0)
    return 0.5 * hbar + (m + math.sqrt(max(dk2 + hbar * a * m + a * (f0 - s_ff), 0.0))) / a


def terms_magnitude(d, k, triad):
    """|chi_inv + K|^2*S_xx + 2|chi_inv + K|*|S_xF| + s_ff: the sum of the
    magnitudes of the sum noise's terms, the scale of its roundoff."""
    m = abs(d + k)
    return m * m * triad.s_xx + 2.0 * m * abs(triad.s_xf) + triad.s_ff


COARSE_GRID_POINTS, GOLDEN_STEPS = 65, 60


def scalar_kink_search(d, k, s_ff, hbar):
    """The reference kink minimum: f on the surface, scanned at
    COARSE_GRID_POINTS nodes along the kink and refined by GOLDEN_STEPS
    golden-section steps around the best node; in angle around the kink's
    circle where its radius is at most 2B, else along its branch nearest the
    origin over |Re S_xF| <= B, B being search_bound."""
    k_im = k.imag
    quarter, c = hbar * hbar / 4.0, hbar * abs(k_im)
    rho = math.sqrt((s_ff - c) / s_ff * (s_ff + c) / s_ff)
    surface, bound = sum_noise_on(d, k, s_ff, hbar), search_bound(d, k, s_ff, hbar)

    def on_branch(t):  # the branch nearest the origin, at Re S_xF = t
        u = 2.0 * k_im * t / s_ff
        return t, 2.0 * k_im * (t * t + quarter) / (s_ff + s_ff * math.sqrt(rho * rho - u * u))

    def on_circle(t):
        radius, center = s_ff * rho / (2.0 * abs(k_im)), s_ff / (2.0 * k_im)
        return radius * math.cos(t), center + radius * math.sin(t)

    circle = s_ff * rho <= 4.0 * abs(k_im) * bound  # radius <= 2B

    def f(t):
        return surface(*(on_circle(t) if circle else on_branch(t)))

    lo = -math.pi if circle else -bound
    h = -2.0 * lo / (COARSE_GRID_POINTS - 1)
    best_val, t = min((f(lo + h * i), lo + h * i) for i in range(COARSE_GRID_POINTS))
    lo, hi = t - h, t + h
    tc = lo + 0.5 * (math.sqrt(5.0) - 1.0) * (hi - lo)
    fc = f(tc)
    for _ in range(GOLDEN_STEPS):
        tu = lo + hi - tc
        (p, fp), (q, fq) = sorted(((tc, fc), (tu, f(tu))))
        lo, hi, tc, fc = (lo, q, p, fp) if fp < fq else (p, hi, q, fq)
    return min(fc, best_val)


@pytest.mark.parametrize("name", ["seeded-900", "near-floor"])
def test_kink_minimum_is_no_worse_than_the_scan_and_golden_section(name):
    # with refine=False the oracle returns its closed-form kink minimum, which
    # never reads above the scan-and-golden-section reference by more than
    # 1e-12 relative (measured: 6.0e-13 on seeded-900 and 7.0e-16 on
    # near-floor, both sides' roundoff of f, which a 60-digit evaluation puts
    # on either side)
    cfg = OracleConfig(refine=False)
    for j, (d, k, s_ff, hbar) in enumerate(accuracy_set(name)):
        got = brute_force_min(d, k, s_ff, cfg, hbar=hbar)
        ref = scalar_kink_search(d, k, s_ff, hbar)
        assert got.iterations == 0
        assert got.s_sum_min - ref <= 1e-12 * ref, j


def kink_sum_noise(d, k, s_ff, hbar, s_xf):
    """The sum noise to 60 digits at the sigma = 0 kink point with Re S_xF =
    Re s_xf nearest s_xf, where S_xx = Im S_xF/Im K: a value some triad
    attains.  Needs Im K != 0."""
    with localcontext() as ctx:
        ctx.prec = 60
        x, hbar, s_ff, k_im = map(Decimal, (s_xf.real, hbar, s_ff, k.imag))
        dk_re, dk_im = Decimal(d.real) + Decimal(k.real), Decimal(d.imag) + k_im
        # Im K*(x^2 + y^2 + hbar^2/4) = s_ff*y
        root = max(s_ff * s_ff - 4 * k_im * k_im * (x * x + hbar * hbar / 4), Decimal(0)).sqrt()
        y = min(((s_ff + sign * root) / (2 * k_im) for sign in (1, -1)),
                key=lambda y: abs(y - Decimal(s_xf.imag)))
        dk2 = dk_re * dk_re + dk_im * dk_im
        return float(dk2 * (y / k_im) + 2 * (dk_re * x - dk_im * y) + s_ff)


def triad_sum_noise(d, k, s_ff, hbar, s_xf):
    """The sum noise to 60 digits at S_xF = s_xf on the saturation surface,
    S_xx = max(S+, S-): the value the triad (S_xx, s_xf, s_ff) attains."""
    with localcontext() as ctx:
        ctx.prec = 60
        x, y, hbar, s_ff, k_im = map(Decimal, (s_xf.real, s_xf.imag, hbar, s_ff, k.imag))
        dk_re, dk_im = Decimal(d.real) + Decimal(k.real), Decimal(d.imag) + k_im
        m2, quarter = x * x + y * y, hbar * hbar / 4
        s_xx = max((m2 - hbar * y + quarter) / (s_ff - hbar * k_im),
                   (m2 + hbar * y + quarter) / (s_ff + hbar * k_im))
        return float((dk_re * dk_re + dk_im * dk_im) * s_xx + 2 * (dk_re * x - dk_im * y) + s_ff)


KERNEL_FIELDS = ("s_sum_min", "s_xx", "s_xf_re", "s_xf_im", "vertex")


def oracle_grid(cases, refine=True):
    """The rows (s_sum_min, S_xx, Re S_xF, Im S_xF, vertex won) of one _oracle_grid
    call over the arrays of the (chi_inv, K, s_ff, hbar) cases; no row is flagged."""
    d, k, s_ff, hbar = (np.array(v) for v in zip(*cases))
    found = _oracle_grid(d.real, d.imag, k.real, k.imag, s_ff, hbar, refine)
    assert not found["bad"].any()
    return list(zip(*(found[key].tolist() for key in KERNEL_FIELDS)))


@pytest.mark.parametrize("name", ACCURACY_SETS)
def test_accuracy_sets(name):
    # each set errs by at most 1e-8 against the closed form and undercuts it
    # by at most 1e-10; the search resolves
    # the sigma = 0 kink near the meter FDT floor, at tiny Im K and with the
    # argmin far from the origin.  Every result is the sum noise, to 60
    # digits, that a triad attains at its argmin, within 1e-15 of its terms'
    # magnitude sum (measured: 6.0e-16): the argmin triad's own where a
    # piece's vertex wins or Im K = 0, else the kink triad's (kink_sum_noise).
    # The set is searched by one kernel call, brute_force_min's bit for bit
    # (test_the_kernel_is_brute_force_min_point_by_point).
    worst = undercut = 0.0
    cases = accuracy_set(name)
    for j, ((d, k, s_ff, hbar), row) in enumerate(zip(cases, oracle_grid(cases))):
        got, s_xx, x, y, vertex = row
        closed = optimize_fixed_backaction(d, k, s_ff, hbar=hbar).s_sum
        t = NoiseTriad(s_xx, complex(x, y), s_ff)
        arbiter = kink_sum_noise if not vertex and k.imag != 0.0 else triad_sum_noise
        exact = arbiter(d, k, s_ff, hbar, t.s_xf)
        assert abs(got - exact) <= 1e-15 * terms_magnitude(d, k, t), (j, got, exact)
        worst = max(worst, rel(got, closed))
        undercut = max(undercut, (closed - got) / closed)
    assert worst <= 1e-8, (worst, undercut)
    assert undercut <= 1e-10, (worst, undercut)


def test_closed_form_holds_the_60_digit_value_near_the_fdt_floor():
    # from (1 + 1e-15) to (1 + 1e-6) times the meter FDT floor, where s_ff^2 and
    # thr^2 - (hbar Im K)^2 would cancel, the closed form forms them as products
    # and stays within 1e-14 of the sum noise, to 60 digits, that the oracle's
    # argmin attains (measured: 8.2e-16)
    cases = accuracy_set("below-rule")
    worst = 0.0
    for (d, k, s_ff, hbar), (_, _, x, y, vertex) in zip(cases, oracle_grid(cases)):
        closed = optimize_fixed_backaction(d, k, s_ff, hbar=hbar).s_sum
        arbiter = kink_sum_noise if not vertex and k.imag != 0.0 else triad_sum_noise
        worst = max(worst, rel(closed, arbiter(d, k, s_ff, hbar, complex(x, y))))
    assert worst <= 1e-14, worst


@pytest.mark.parametrize("name", [*ACCURACY_SETS, "pins"])
def test_the_kernel_is_brute_force_min_point_by_point(name):
    # _oracle_grid over a whole set as arrays, each draw with its own hbar,
    # against one brute_force_min call per draw, with refine on and off: every
    # field is equal bit for bit (float.hex tells -0.0 from 0.0).  The sets hold
    # Im K = 0 (real-k-nearly-lossless and pins), and the pins chi_inv = K = 0.5i,
    # where f's gradient on the kink is exactly 0
    cases = accuracy_set(name)
    if name == "pins":
        assert any(k.imag == 0.0 for _, k, _, _ in cases)
        assert any(k.imag and 2.0 * (d + k).real == abs(d + k) ** 2 / k.imag - 2.0 * (d + k).imag
                   == 0.0 for d, k, _, _ in cases)
    for refine in (True, False):
        for j, ((d, k, s_ff, hbar), row) in enumerate(zip(cases, oracle_grid(cases, refine))):
            result = brute_force_min(d, k, s_ff, OracleConfig(refine=refine), hbar=hbar)
            t = result.argmin_triad
            want = (result.s_sum_min, t.s_xx, t.s_xf.real, t.s_xf.imag)
            assert [*map(float.hex, row[:4]), row[4]] == [*map(float.hex, want),
                                                          result.iterations == 1], (j, refine)


def test_the_kernel_is_pinned_by_its_digest():
    # one _oracle_grid call over each accuracy set and the pins, refine on and
    # off, every argmin field as float.hex and the vertex flag: the digest that
    # tests/data/oracle_digest.json pins and tests/regen_fixtures.py recomputes
    pin = json.loads(ORACLE_DIGEST.read_text(encoding="utf-8"))
    assert pin["sets"] == [*ACCURACY_SETS, "pins"]
    assert oracle_digest(pin["sets"]) == pin["sha256"]


def complex_nelder_mead(f, z0: complex, step: float, xatol: float, fatol: float, maxiter: int):
    """The reference minimizer: Nelder-Mead (reflect 1, expand 2, contract
    1/2, shrink 1/2) from the simplex z0, z0 + step, z0 + i*step.  Stops when
    every vertex is within fatol of the best in value and within xatol of it
    in each coordinate, or after maxiter iterations; returns the best vertex,
    its value and the iteration count."""
    b, g, w = z0, z0 + step, z0 + 1j * step
    fb, fg, fw = f(b), f(g), f(w)
    for nit in range(maxiter + 1):
        if fb > fg:
            fb, b, fg, g = fg, g, fb, b
        if fg > fw:
            fg, g, fw, w = fw, w, fg, g
            if fb > fg:
                fb, b, fg, g = fg, g, fb, b
        dg, dw = g - b, w - b
        spread = max(abs(dg.real), abs(dg.imag), abs(dw.real), abs(dw.imag))
        if nit == maxiter or (spread <= xatol and fw - fb <= fatol):
            return b, fb, nit
        c = 0.5 * (b + g)
        r = 2.0 * c - w
        fr = f(r)
        if fr < fb:
            e = 3.0 * c - 2.0 * w
            fe = f(e)
            fw, w = (fe, e) if fe < fr else (fr, r)
        elif fr < fg:
            fw, w = fr, r
        else:
            outside = fr < fw
            z = 0.5 * (c + (r if outside else w))
            fz = f(z)
            if fz <= fr if outside else fz < fw:
                fw, w = fz, z
            else:
                g, w = 0.5 * (b + g), 0.5 * (b + w)
                fg, fw = f(g), f(w)


@pytest.mark.parametrize("name", ["seeded-900", "tiny-im-k", "huge-budget"])
def test_piece_vertex_is_no_worse_than_nelder_mead(name):
    # where a piece's vertex wins, the oracle reads at most 1e-15 of its
    # terms' magnitude sum above the reference Nelder-Mead run on that piece
    # (measured: 2.0e-16), run from 1e-7*B off the kink minimum on the
    # piece's side with step 0.1*B, xatol 1e-9*B, fatol 1e-12*|f_kink| and
    # 600 iterations.  The bound is not relative to the value: Nelder-Mead
    # lands where roundoff makes f read up to 8.9e-12 low.
    wins = 0
    for j, (d, k, s_ff, hbar) in enumerate(accuracy_set(name)):
        got = brute_force_min(d, k, s_ff, hbar=hbar)
        if got.iterations == 0:
            continue
        wins += 1
        kink = brute_force_min(d, k, s_ff, OracleConfig(refine=False), hbar=hbar)
        x, y = kink.argmin_triad.s_xf.real, kink.argmin_triad.s_xf.imag
        t = got.argmin_triad
        plus, minus = (sum_noise_on(d, k, s_ff, hbar, s)(t.s_xf.real, t.s_xf.imag) for s in (1, -1))
        side = 1 if plus >= minus else -1  # the piece f equals at the argmin
        bound = search_bound(d, k, s_ff, hbar)
        nx, ny = 2.0 * k.imag * x, 2.0 * k.imag * y - s_ff  # the kink's normal, towards S+ > S-
        step = side * 1e-7 * bound / math.hypot(nx, ny)
        piece = sum_noise_on(d, k, s_ff, hbar, side)
        _, ref, _ = complex_nelder_mead(
            lambda z: piece(z.real, z.imag), complex(x + step * nx, y + step * ny),
            0.1 * bound, 1e-9 * bound, 1e-12 * abs(kink.s_sum_min), 600)
        assert got.s_sum_min <= ref + 1e-15 * terms_magnitude(d, k, t), (j, got.s_sum_min, ref)
    assert wins


def test_returns_above_and_raises_exactly_at_the_fdt_floor():
    # above the meter FDT floor the minimum is finite; exactly at the floor,
    # which the precondition s_ff >= hbar*|Im K| admits, no finite S_xx
    # saturates and the call raises
    rng = np.random.default_rng(46)
    for _ in range(200):
        d, k = draw_lossy_chi_inv(rng), draw_back_action(rng)
        assert np.isfinite(brute_force_min(d, k, draw_budget(rng, d, k)).s_sum_min)
        with pytest.raises(EmptyFeasibleRegionError):
            brute_force_min(d, k, abs(k.imag))


def test_vanishing_chi_inv_plus_k_rejected():
    # f is the constant s_ff and its pieces have no vertex: the oracle raises what
    # the closed form raises
    d = complex(0.3, -0.2)
    for call in (brute_force_min, optimize_fixed_backaction):
        with pytest.raises(DomainError) as exc:
            call(d, -d, 1.0)
        assert str(exc.value) == f"chi_inv + K vanishes: chi_inv={d!r}, K={-d!r}"


@pytest.mark.parametrize("d", [complex(1e200, -1.0), complex(1e155, -1.0), complex(math.inf, 1.0),
                               complex(math.nan, 1.0)])
def test_a_chi_inv_plus_k_whose_square_is_not_finite_is_rejected(d):
    # |chi_inv + K|^2 overflows (or is inf or NaN): a DomainError, where the
    # 0-d kernel would return s_sum_min = inf with its bad flag set
    with pytest.raises(DomainError) as exc:
        brute_force_min(d, 0j, 1.0)
    assert str(exc.value) == f"|chi_inv + K|^2 is not finite: chi_inv={d!r}, K=0j"
    assert _oracle_grid(d.real, d.imag, 0.0, 0.0, 1.0, 1.0)["bad"].all()
    # an underflowing square still vanishes
    tiny = complex(1e-170, -1e-170)
    with pytest.raises(DomainError, match=r"^chi_inv \+ K vanishes: chi_inv=\(1e-170-1e-170j\)"):
        brute_force_min(tiny, 0j, 1.0)


def test_fdt_violation_rejected():
    with pytest.raises(FdtViolationError):
        brute_force_min(D_RES, complex(0.0, 0.5), 0.4)
    with pytest.raises(FdtViolationError):
        random_saturating_triad(complex(0.0, 0.5), 0.4, seed=0)


@pytest.mark.parametrize("s_ff", [0.0, -1.0, math.inf, math.nan])
def test_a_budget_that_is_not_positive_and_finite_is_rejected(s_ff):
    for call in (lambda: brute_force_min(D_RES, 0.1j, s_ff),
                 lambda: random_saturating_triad(0.1j, s_ff, seed=0)):
        with pytest.raises(DomainError) as exc:
            call()
        assert str(exc.value) == f"s_ff must be positive and finite, got {s_ff!r}"


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

    def test_raises_exactly_at_the_fdt_floor(self):
        for k, hbar in ((complex(0.3, -0.2), 1.0), (complex(0.0, 0.5), 0.7), (1e-3j, 1.054e-34)):
            floor = hbar * abs(k.imag)
            with pytest.raises(EmptyFeasibleRegionError) as exc:
                random_saturating_triad(k, floor, seed=3, hbar=hbar)
            assert str(exc.value) == (f"s_ff={floor!r} at the meter FDT floor: "
                                      "no finite S_xx saturates")
            triad = random_saturating_triad(k, math.nextafter(floor, math.inf), seed=3, hbar=hbar)
            assert math.isfinite(triad.s_xx)

    def test_custom_hbar(self):
        triad = random_saturating_triad(complex(0.1, 0.2), 1.5, seed=5, hbar=0.7)
        assert abs(uncertainty_slack(triad, complex(0.1, 0.2), hbar=0.7)) <= 1e-12 * (
            triad.s_xx * triad.s_ff + 1.0
        )


def test_saturating_s_xx_vectorized_matches_scalar():
    # a scalar input gives the array path's value as a Python float; the
    # oracle's objective is a float copy of the formula, so at any unit scale
    # its argmin's S_xx is the formula's value bit for bit, and so is its
    # minimum, except at a kink minimum with Im K != 0, which takes
    # S_xx = Im S_xF/Im K;
    # at and below the meter FDT floor the array path (scalar inputs
    # included) gives NaN
    rng = np.random.default_rng(44)
    draws = np.random.default_rng(45)
    for hbar, mu in ((1.0, 1.0), (1.054e-34, 1e-3), (1e10, 1e6)):
        for k_im in (0.35, -0.35, 0.0):
            k = k_im * mu
            # s_ff above, exactly at and below the meter FDT floor hbar*|k|
            for extra in (0.55, 0.0, -0.15):
                s_ff = hbar * abs(k) + hbar * mu * extra
                re = hbar * rng.normal(size=50)
                im = hbar * rng.normal(size=50)
                # points on the sigma = 0 kink, Im S_xF = k_im * S_xx(S_xF), and
                # just off it on either side
                c = re[:10] ** 2 + hbar * hbar / 4.0
                if k_im == 0.0:
                    im[:10] = 0.0
                elif s_ff * s_ff > 4.0 * k * k * c.max():
                    im[:10] = (s_ff - np.sqrt(s_ff * s_ff - 4.0 * k * k * c)) / (2.0 * k)
                re[10:20] = re[:10]
                im[10:20] = im[:10] + hbar * np.geomspace(1e-13, 1e-9, 10) * (-1.0) ** np.arange(10)
                vec = saturating_s_xx(re, im, s_ff, k, hbar)
                if extra <= 0.0:
                    assert np.isnan(vec).all()
                    assert math.isnan(saturating_s_xx(float(re[0]), float(im[0]), s_ff, k, hbar))
                    continue
                for r, i, v in zip(re.tolist(), im.tolist(), vec.tolist()):
                    got = saturating_s_xx(r, i, s_ff, k, hbar)
                    assert type(got) is float and got == v
                for refine in (True, False):
                    d = mu * draw_lossy_chi_inv(draws)
                    kv = complex(mu * draws.uniform(-2.0, 2.0), k)
                    result = brute_force_min(d, kv, s_ff, OracleConfig(refine=refine), hbar=hbar)
                    x, y = result.argmin_triad.s_xf.real, result.argmin_triad.s_xf.imag
                    s_xx = saturating_s_xx(x, y, s_ff, k, hbar)
                    dk = d + kv
                    dk2, dk_re, dk_im = abs(dk) ** 2, dk.real, dk.imag
                    assert result.argmin_triad.s_xx == s_xx
                    if result.iterations == 0 and k != 0.0:  # the kink, where S_xx = Im S_xF/Im K
                        s_xx = y / k
                    assert result.s_sum_min == dk2 * s_xx + (2.0 * (dk_re * x - dk_im * y) + s_ff)


def test_saturating_s_xx_broadcasts_the_budget_and_k():
    # array s_ff and k_im, each point above, exactly at or below its own meter
    # FDT floor: an element above it is the scalar call's value, a Python
    # float, with ==; one at or below it is NaN, as the scalar call is
    rng = np.random.default_rng(47)
    for hbar in (1.0, 0.7, 1.054e-34):
        k_im = rng.uniform(0.05, 0.5, 30) * rng.choice([-1.0, 1.0], 30) * rng.uniform(0.1, 10.0)
        s_ff = hbar * np.abs(k_im) * np.tile([1.5, 1.0, 0.5], 10)
        re, im = hbar * rng.normal(size=(2, 30))
        got = saturating_s_xx(re, im, s_ff, k_im, hbar)
        assert got.shape == (30,)
        assert np.isnan(got).tolist() == [False, True, True] * 10
        for r, i, s, k, g in zip(*(a.tolist() for a in (re, im, s_ff, k_im, got))):
            want = saturating_s_xx(r, i, s, k, hbar)
            assert type(want) is float
            assert g == want if s > hbar * abs(k) else math.isnan(want)
        # a column of cross PSDs against a row of budgets and K
        grid = saturating_s_xx(re[:, None], im[:, None], s_ff[::3], k_im[::3], hbar)
        assert grid.shape == (30, 10)
        assert grid.tolist() == [[saturating_s_xx(r, i, s, k, hbar)
                                  for s, k in zip(s_ff[::3].tolist(), k_im[::3].tolist())]
                                 for r, i in zip(re.tolist(), im.tolist())]


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    log2_hbar=st.integers(-20, 20),
    k_im=st.one_of(st.just(0.0), st.floats(-2.0, -1e-3), st.floats(1e-3, 2.0)),
    log_excess=st.floats(-6.0, 2.0),
)
def test_saturating_s_xx_is_the_larger_zero_of_the_local_pair(seed, log2_hbar, k_im, log_excess):
    # max(S+, S-) with S+- = (|S_xF|^2 -+ hbar Im S_xF + hbar^2/4)/(s_ff -+ hbar Im K),
    # saturating to roundoff, from (1 + 1e-6) times the meter FDT floor up;
    # NaN at and below the floor
    hbar = 2.0**log2_hbar
    rng = np.random.default_rng(seed)
    floor = hbar * abs(k_im)
    s_ff = floor * (1.0 + 10.0**log_excess) if floor else hbar * 10.0**log_excess
    re = hbar * rng.normal(size=64) * 10.0 ** rng.uniform(-3.0, 2.0, size=64)
    im = hbar * rng.normal(size=64) * 10.0 ** rng.uniform(-3.0, 2.0, size=64)
    got = saturating_s_xx(re, im, s_ff, k_im, hbar)
    quarter = hbar * hbar / 4.0
    for r, i, s_xx in zip(re.tolist(), im.tolist(), got.tolist()):
        m2 = r * r + i * i
        assert s_xx == max((m2 - hbar * i + quarter) / (s_ff - hbar * k_im),
                           (m2 + hbar * i + quarter) / (s_ff + hbar * k_im))
        triad = NoiseTriad(s_xx, complex(r, i), s_ff)
        scale = s_xx * s_ff + abs(triad.s_xf) ** 2 + quarter
        assert min(local_uncertainty_pair(triad, complex(0.0, k_im), hbar)) / scale >= -1e-15
    for below in (floor, floor * (1.0 - 10.0**log_excess)):
        assert np.isnan(saturating_s_xx(re, im, below, k_im, hbar)).all()


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
    s_ff = max(draw_budget(rng, d, k), 1.001 * abs(k.imag))
    lam, mu = 10.0**log_lam, 10.0**log_mu
    base = brute_force_min(d, k, s_ff).s_sum_min
    got = brute_force_min(mu * d, mu * k, lam * mu * s_ff, hbar=lam).s_sum_min
    assert rel(got, lam * mu * base) <= 1e-6
    closed = optimize_fixed_backaction(mu * d, mu * k, lam * mu * s_ff, hbar=lam)
    assert rel(got, closed.s_sum) <= 1e-3
    assert closed.regime == optimize_fixed_backaction(d, k, s_ff).regime

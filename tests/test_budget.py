import json
import math
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qnl import (
    BudgetTable,
    ConfigError,
    FdtViolationError,
    LosslessProbeError,
    SpinFigureTable,
    load_config,
    load_table,
    optimize_fixed_backaction,
    optimize_fixed_eff_backaction,
    parse_config,
    run_budget,
    run_spin_figure,
    threshold_eff,
    verify,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def osc_config(**overrides):
    cfg = {
        "probe": {"type": "oscillator", "mass": 1.0, "omega0": 1.0, "gamma": 0.2},
        "back_action": {"type": "constant", "re": 0.0, "im": 0.0},
        "thermal": {"type": "zero"},
        "hbar": 1.0,
        "k_boltzmann": 1.0,
        "mode": "fixed_SFF",
        "s_ff": 0.1,
        "frequency": {"start": 0.5, "stop": 1.5, "points": 101, "spacing": "linear"},
    }
    cfg.update(overrides)
    return cfg


def rescaled_oscillator(k, lam, mu):
    """configs/oscillator_budget.json with constant back action K, rescaled by
    hbar = k_B -> lam, chi_inv (mass) and K -> mu, s_ff -> lam*mu."""
    raw = json.loads((CONFIGS / "oscillator_budget.json").read_text(encoding="utf-8"))
    raw["back_action"] = {"type": "constant", "re": k.real * mu, "im": k.imag * mu}
    raw["probe"]["mass"] *= mu
    raw["s_ff"] *= lam * mu
    raw["hbar"] = raw["k_boltzmann"] = lam
    return parse_config(raw)


def spin_config(**overrides):
    cfg = {
        "probe": {"type": "oscillator", "mass": 1.0, "omega0": 1.0, "gamma": 0.2},
        "thermal": {"type": "zero"},
        "mode": "sweep_SFF_at_fixed_omega",
        "omega": 1.0,
    }
    cfg.update(overrides)
    return cfg


class TestConfigParsing:
    def test_json_errors_carry_line_and_column(self):
        with pytest.raises(ConfigError, match=r"line 2 column"):
            parse_config('{\n  "mode": oops\n}')

    def test_unknown_field_rejected_with_path(self):
        with pytest.raises(ConfigError, match=r"config\.walrus"):
            parse_config(json.dumps(osc_config(walrus=1)))

    def test_missing_required_field(self):
        cfg = osc_config()
        del cfg["frequency"]
        with pytest.raises(ConfigError, match=r"config\.frequency"):
            parse_config(json.dumps(cfg))

    def test_bad_mode(self):
        with pytest.raises(ConfigError, match=r"config\.mode"):
            parse_config(json.dumps(osc_config(mode="sideways")))

    def test_bad_probe_parameter_path(self):
        cfg = osc_config(probe={"type": "oscillator", "mass": -1.0, "omega0": 1.0})
        with pytest.raises(ConfigError, match=r"config\.probe"):
            parse_config(json.dumps(cfg))

    def test_bad_grid(self):
        cfg = osc_config(frequency={"start": 2.0, "stop": 1.0, "points": 5})
        with pytest.raises(ConfigError, match="start must be < stop"):
            parse_config(json.dumps(cfg))

    def test_sweep_mode_requires_omega(self):
        cfg = spin_config()
        del cfg["omega"]
        with pytest.raises(ConfigError, match=r"config\.omega"):
            parse_config(json.dumps(cfg))

    def test_back_action_shorthand_number(self):
        cfg = parse_config(json.dumps(osc_config(back_action=0.25)))
        assert cfg.k_of_omega(1.0) == complex(0.25, 0.0)

    def test_tabulated_back_action(self):
        spec = {"type": "tabulated", "omega": [0.5, 1.5], "re": [0.1, 0.3], "im": [0.0, 0.2]}
        cfg = parse_config(json.dumps(osc_config(back_action=spec)))
        assert cfg.k_of_omega(0.5) == complex(0.1, 0.0)
        assert_allclose(
            [cfg.k_of_omega(1.0).real, cfg.k_of_omega(1.0).imag], [0.2, 0.1], rtol=1e-14
        )

    def test_effective_temperature_thermal_model(self):
        spec = {"type": "effective", "omega": [0.5, 1.5], "t_eff": [0.2, 0.6]}
        cfg = parse_config(json.dumps(osc_config(thermal=spec)))
        assert cfg.thermal.temperature_at(1.0) == pytest.approx(0.4, rel=1e-14)
        table = run_budget(cfg)
        assert all(p.s_fdt > p.dql for p in table.points)


class TestRunBudget:
    def test_canonical_resonance_row(self):
        table = run_budget(parse_config(osc_config()))
        row = table.points[50]
        assert row.omega == 1.0
        assert row.sql == 0.2
        assert row.dql == 0.2
        assert_allclose(row.s_thr, 0.1, rtol=1e-14)
        assert row.s_sum_opt == 0.2
        assert row.regime == "dql"
        assert row.s_fdt == 0.2  # T = 0: thermal floor equals the DQL
        assert row.s_total == 0.4

    def test_zero_thermal_total_is_sum_plus_dql(self):
        table = run_budget(parse_config(osc_config()))
        for row in table.points:
            assert row.s_fdt == row.dql
            assert row.s_total == row.s_sum_opt + row.dql

    def test_rows_internally_consistent(self):
        table = run_budget(parse_config(osc_config(thermal={"type": "uniform", "temperature": 0.7})))
        for row in table.points:
            assert row.s_total == row.s_sum_opt + row.s_fdt
            assert row.s_sum_opt >= row.dql * (1.0 - 1e-12)
            assert row.s_fdt >= row.dql * (1.0 - 1e-15)
            assert row.dql <= row.sql

    def test_transition_rows_straddle_the_threshold(self):
        cfg = parse_config(osc_config())
        table = run_budget(cfg)
        transitions = table.meta.transitions
        assert transitions  # resonance region is budget-saturated
        omegas = [p.omega for p in table.points]
        for omega in transitions:
            i = omegas.index(omega)
            before, after = table.points[i - 1], table.points[i]
            assert before.regime != after.regime
            # the budget 0.1 crosses s_thr between the flanking rows
            # (ulp tolerance: the flip row can sit exactly on the boundary)
            assert min(before.s_thr, after.s_thr) <= 0.1 * (1.0 + 1e-9)
            assert max(before.s_thr, after.s_thr) >= 0.1 * (1.0 - 1e-9)

    def test_log_spaced_frequency_grid(self):
        cfg = parse_config(
            osc_config(frequency={"start": 0.5, "stop": 2.0, "points": 9, "spacing": "log"})
        )
        table = run_budget(cfg)
        omegas = [p.omega for p in table.points]
        ratios = [b / a for a, b in zip(omegas, omegas[1:])]
        assert_allclose(ratios, ratios[0], rtol=1e-12)
        assert omegas[0] == 0.5 and omegas[-1] == 2.0

    def test_deterministic_and_jobs_invariant(self):
        cfg = parse_config(osc_config())
        a = run_budget(cfg, jobs=1)
        b = run_budget(cfg, jobs=4)
        assert a == b
        assert a.to_csv() == b.to_csv()

    def test_fixed_effective_mode_uses_real_part_of_k(self):
        cfg = parse_config(
            osc_config(mode="fixed_effective", back_action={"type": "constant", "re": 0.4, "im": 0.9})
        )
        table = run_budget(cfg)
        row = table.points[50]
        d = complex(0.0, -0.2)
        expected = optimize_fixed_eff_backaction(d, 0.4, 0.1)
        assert row.s_sum_opt == expected.s_sum
        assert row.s_thr == threshold_eff(d, 0.4)

    def test_sigma_zero_flag_never_beats_the_free_optimum(self):
        cfg = parse_config(osc_config(mode="fixed_effective", sigma_zero=True))
        table = run_budget(cfg)
        assert table.points[50].s_sum_opt == 0.2  # resonance sits at the threshold
        constrained = [p.s_sum_opt for p in table.points]
        free = [p.s_sum_opt for p in run_budget(parse_config(osc_config(mode="fixed_effective"))).points]
        assert all(c >= f * (1.0 - 1e-12) for c, f in zip(constrained, free))

    def test_allow_sigma_false_equivalent_to_sigma_zero(self):
        a = run_budget(parse_config(osc_config(allow_sigma=False)))
        b = run_budget(parse_config(osc_config(sigma_zero=True)))
        assert [p.s_sum_opt for p in a.points] == [p.s_sum_opt for p in b.points]

    def test_lossless_probe_reports_infinite_threshold(self):
        cfg = parse_config(osc_config(probe={"type": "free_mass", "mass": 1.0, "gamma": 0.0}))
        table = run_budget(cfg)
        for row in table.points:
            assert math.isinf(row.s_thr)
            assert row.regime == "qcrb"
            assert row.dql == 0.0
            assert row.s_fdt == 0.0
        csv_text = table.to_csv()
        assert ",inf," in csv_text.splitlines()[5]
        json_rows = json.loads(table.to_json())["rows"]
        assert json_rows[0]["s_thr"] is None

    def test_fdt_violation_surfaces_the_offending_frequency(self):
        cfg = parse_config(
            osc_config(back_action={"type": "constant", "re": 0.0, "im": 0.5}, s_ff=0.1)
        )
        with pytest.raises(FdtViolationError, match="omega=0.5"):
            run_budget(cfg)

    def test_hash_stability_and_sensitivity(self):
        a = parse_config(osc_config())
        b = parse_config(osc_config())
        c = parse_config(osc_config(s_ff=0.2))
        assert a.config_hash == b.config_hash
        assert a.config_hash != c.config_hash


class TestRoundTrips:
    @pytest.fixture()
    def table(self):
        return run_budget(parse_config(osc_config(thermal={"type": "uniform", "temperature": 0.3})))

    def test_csv_byte_identical(self, table):
        text = table.to_csv()
        again = BudgetTable.from_csv(text)
        assert again.to_csv() == text
        assert again == table

    def test_json_byte_identical(self, table):
        text = table.to_json()
        again = BudgetTable.from_json(text)
        assert again.to_json() == text
        assert again == table

    def test_csv_with_infinities_round_trips(self):
        cfg = parse_config(osc_config(probe={"type": "free_mass", "mass": 1.0}))
        table = run_budget(cfg)
        for loader, text in ((BudgetTable.from_csv, table.to_csv()),
                             (BudgetTable.from_json, table.to_json())):
            again = loader(text)
            assert math.isinf(again.points[0].s_thr)
            assert again == table

    def test_load_table_sniffs_format(self, table):
        assert load_table(table.to_csv()) == table
        assert load_table(table.to_json()) == table
        fig = run_spin_figure(parse_config(spin_config()))
        assert load_table(fig.to_csv()) == fig
        assert load_table(fig.to_json()) == fig

    @pytest.mark.parametrize(
        "case", ["truncated", "not-an-object", "no-rows", "row-missing-column", "unknown-kind"]
    )
    def test_malformed_json_table_raises_config_error(self, table, case):
        text = table.to_json()
        payload = json.loads(text)
        if case == "truncated":
            text = text[: len(text) // 2]
        elif case == "not-an-object":
            text = json.dumps(payload["rows"])
        else:
            if case == "no-rows":
                del payload["rows"]
            elif case == "row-missing-column":
                del payload["rows"][3]["s_thr"]
            else:
                payload["kind"] = "walrus"
            text = json.dumps(payload)
        for loader in (load_table, BudgetTable.from_json):
            with pytest.raises(ConfigError):
                loader(text)


class TestSpinFigure:
    def test_default_grid_hits_the_threshold_exactly(self):
        cfg = parse_config(spin_config())
        fig = run_spin_figure(cfg)
        assert len(fig.points) == 201
        thr0 = threshold_eff(complex(0.0, -0.2), 0.0)
        mid = fig.points[100]
        assert_allclose(mid.s_ff, thr0, rtol=1e-14)
        assert mid.s_sum_sigma_zero == pytest.approx(0.2, rel=1e-12)

    def test_series_structure(self):
        fig = run_spin_figure(parse_config(spin_config()))
        full = np.array([p.s_sum_full for p in fig.points])
        zero = np.array([p.s_sum_sigma_zero for p in fig.points])
        matched = np.array([p.s_sum_spin_matched for p in fig.points])
        assert np.all(full <= zero * (1.0 + 1e-12))
        assert np.all(full <= matched * (1.0 + 1e-12))
        assert np.all(full >= 0.2 * (1.0 - 1e-12))
        # full saturates at the dissipative limit beyond threshold
        beyond = [p for p in fig.points if p.s_ff >= 0.11]
        assert all(p.s_sum_full == 0.2 for p in beyond)
        assert all(p.regime_full == "dql" for p in beyond)

    def test_sweep_in_absolute_units(self):
        cfg = parse_config(
            spin_config(s_ff={"start": 0.01, "stop": 1.0, "points": 21, "spacing": "log",
                              "units": "absolute"})
        )
        fig = run_spin_figure(cfg)
        assert fig.points[0].s_ff == pytest.approx(0.01, rel=1e-14)
        assert fig.points[-1].s_ff == pytest.approx(1.0, rel=1e-14)

    def test_lossless_probe_rejected(self):
        cfg = parse_config(spin_config(probe={"type": "free_mass", "mass": 1.0}))
        with pytest.raises(LosslessProbeError):
            run_spin_figure(cfg)

    def test_run_budget_dispatches_sweep_mode(self):
        cfg = parse_config(spin_config())
        assert isinstance(run_budget(cfg), SpinFigureTable)


class TestVerify:
    def test_invariant_suite_passes_on_canonical_config(self):
        report = verify(parse_config(osc_config()), seed=3)
        assert report.passed
        rendered = report.render()
        assert "verification PASSED" in rendered
        assert "[PASS] gauge-invariance" in rendered
        assert "oracle-agreement" in rendered

    def test_verify_spin_sweep_config(self):
        report = verify(parse_config(spin_config()), seed=1, samples=4)
        assert report.passed

    def test_golden_comparison_detects_tampering(self, tmp_path):
        cfg = parse_config(osc_config(frequency={"start": 0.5, "stop": 1.5, "points": 11}))
        table = run_budget(cfg)
        golden = tmp_path / "golden.csv"
        golden.write_text(table.to_csv(), encoding="utf-8")
        report = verify(cfg, golden_path=str(golden))
        assert report.passed

        lines = table.to_csv().splitlines()
        row = lines[7].split(",")
        row[4] = repr(float(row[4]) * 1.001)
        lines[7] = ",".join(row)
        tampered = tmp_path / "tampered.csv"
        tampered.write_text("\n".join(lines) + "\n", encoding="utf-8")
        report = verify(cfg, golden_path=str(tampered))
        assert not report.passed
        failing = [c for c in report.checks if not c.passed]
        assert len(failing) == 1
        assert failing[0].name == "golden-match"
        assert "row 2" in failing[0].detail
        assert "s_sum_opt" in failing[0].detail

    def test_fdt_violation_reported_with_frequency(self):
        cfg = parse_config(
            osc_config(back_action={"type": "constant", "re": 0.0, "im": 0.5})
        )
        with pytest.raises(FdtViolationError, match="omega="):
            verify(cfg, samples=3)

    def test_verify_skips_probe_when_threshold_hugs_the_fdt_floor(self):
        cfg = parse_config(
            {
                "probe": {"type": "tabulated", "omega": [0.5, 2.0],
                          "re": [0.001, 0.001], "im": [-0.2, -0.2]},
                "back_action": {"type": "constant", "re": -0.00099, "im": -0.2},
                "thermal": {"type": "zero"},
                "mode": "fixed_SFF",
                "s_ff": 0.5,
                "frequency": {"start": 0.5, "stop": 2.0, "points": 5},
            }
        )
        report = verify(cfg, seed=2, samples=3)
        assert report.passed
        detail = {c.name: c.detail for c in report.checks}
        assert "probeable" in detail["threshold-derivatives"]

    def test_verify_lossless_probe_config(self):
        cfg = parse_config(
            osc_config(
                probe={"type": "free_mass", "mass": 1.0, "gamma": 0.0},
                back_action={"type": "constant", "re": 0.2, "im": 0.05},
                s_ff=0.5,
            )
        )
        report = verify(cfg, seed=5, samples=4)
        assert report.passed

    @pytest.mark.parametrize("k", [0j, complex(0.3, -0.05)])
    def test_verdicts_do_not_depend_on_the_unit_system(self, k):
        # hbar = k_B -> lam, chi_inv (mass) and K -> mu, s_ff -> lam*mu leave
        # every check's verdict unchanged
        def verdicts(lam, mu):
            return [(c.name, c.passed) for c in verify(rescaled_oscillator(k, lam, mu)).checks]

        expected = verdicts(1.0, 1.0)
        assert all(passed for _, passed in expected)
        assert verdicts(1.054e-34, 1e-3) == expected
        assert verdicts(1e10, 1e6) == expected

    @pytest.mark.parametrize("k", [0j, complex(0.3, -0.05)])
    def test_gauge_check_is_unit_covariant(self, k):
        # power-of-two scales are exact in floating point, so a gauge check
        # whose sampled triads and kernels scale with the units measures the
        # same value bit for bit
        def gauge(lam, mu):
            checks = verify(rescaled_oscillator(k, lam, mu), seed=1).checks
            return next(c.measured for c in checks if c.name == "gauge-invariance")

        expected = gauge(1.0, 1.0)
        assert expected > 0.0
        for lam, mu in ((2.0**30, 2.0**20), (2.0**-100, 2.0**-10), (2.0**40, 2.0**-15)):
            assert gauge(lam, mu) == expected

    def test_si_config_passes(self):
        report = verify(load_config(str(CONFIGS / "si_oscillator.json")), samples=6)
        assert report.passed, report.render()


def test_budget_matches_module_level_optimizer_pointwise():
    cfg = parse_config(osc_config(back_action={"type": "constant", "re": 0.1, "im": 0.05},
                                  s_ff=0.3))
    table = run_budget(cfg)
    for row in (table.points[10], table.points[50], table.points[90]):
        d = complex(1.0 - row.omega**2, -0.2 * row.omega)
        report = optimize_fixed_backaction(d, complex(0.1, 0.05), 0.3)
        assert row.s_sum_opt == report.s_sum
        assert row.s_xx_opt == report.optimal_triad.s_xx

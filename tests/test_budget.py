import dataclasses
import functools
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qnl import (
    BudgetPoint,
    BudgetTable,
    ConfigError,
    DomainError,
    FdtViolationError,
    LosslessProbeError,
    QnlError,
    RangeError,
    SffSweepSpec,
    SpinFigurePoint,
    SpinFigureTable,
    brute_force_min,
    dql,
    fdt_psd,
    load_config,
    load_table,
    matched_sum_noise,
    optimize_fixed_backaction,
    optimize_fixed_eff_backaction,
    optimize_fixed_eff_backaction_sigma_zero,
    parse_config,
    run_budget,
    run_spin_figure,
    sql,
    threshold_eff,
    verify,
)
from qnl import budget, tables

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
REPORTS = Path(__file__).resolve().parent / "data" / "verify_reports.json"
DIGESTS = Path(__file__).resolve().parent / "data" / "table_digests.json"


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


def rescaled_config(raw: dict, lam: float, mu: float):
    """The config in other units: hbar and k_B -> lam, the probe mass (or its
    tabulated chi_inv) and a constant or tabulated K -> mu, a fixed s_ff -> lam*mu;
    temperatures and frequencies stay."""
    raw = json.loads(json.dumps(raw))
    raw["hbar"] = raw.get("hbar", 1.0) * lam
    raw["k_boltzmann"] = raw.get("k_boltzmann", 1.0) * lam
    if raw["probe"]["type"] != "tabulated":
        raw["probe"]["mass"] *= mu
    for spec in (raw["probe"], raw.get("back_action", {})):
        for part in ("re", "im"):
            if part in spec:
                spec[part] = np.multiply(spec[part], mu).tolist()
    if not isinstance(raw["s_ff"], dict):
        raw["s_ff"] *= lam * mu
    return parse_config(raw)


def rescaled_oscillator(k, lam, mu):
    """configs/oscillator_budget.json with constant back action K, rescaled by
    hbar = k_B -> lam, chi_inv (mass) and K -> mu, s_ff -> lam*mu."""
    raw = json.loads((CONFIGS / "oscillator_budget.json").read_text(encoding="utf-8"))
    raw["back_action"] = {"type": "constant", "re": k.real, "im": k.imag}
    return rescaled_config(raw, lam, mu)


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

    @pytest.mark.parametrize("field, spec, typo", [
        ("probe", {"type": "oscillator", "mass": 1, "omega0": 1, "gamma": 0.2}, "gama"),
        ("probe", {"type": "free_mass", "mass": 1}, "omega0"),
        ("probe", {"type": "tabulated", "omega": [0.4, 1.6], "re": [1, 0], "im": [0, 0]}, "Im"),
        ("back_action", {"type": "constant", "re": 0.1}, "imag"),
        ("back_action", {"type": "tabulated", "omega": [0.4, 1.6], "re": [0, 0], "im": [0, 0]},
         "type_"),
        ("thermal", {"type": "zero"}, "temperature"),
        ("thermal", {"type": "uniform", "temperature": 0.5}, "temprature"),
        ("thermal", {"type": "effective", "omega": [0.4, 1.6], "t_eff": [0.1, 0.2]}, "T_eff"),
        ("frequency", {"start": 0.5, "stop": 1.5, "points": 11}, "units"),
        ("s_ff", {"points": 5}, "unit"),
        ("output", {"format": "csv"}, "fromat"),
    ], ids=lambda v: v if isinstance(v, str) else v.get("type", "-"))
    def test_nested_unknown_field_rejected_with_path(self, field, spec, typo):
        # every object rejects a key it does not read, as the top level does
        make = spin_config if field == "s_ff" else osc_config
        parse_config(make(**{field: spec}))
        with pytest.raises(ConfigError) as exc:
            parse_config(make(**{field: dict(spec, **{typo: 1})}))
        assert str(exc.value) == f"config.{field}.{typo}: unknown field"

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

    @pytest.mark.parametrize("key, value", [
        ("frequency", {"start": 5, "stop": 1, "pionts": 3}),
        ("back_action", {"type": "constant", "re": 0.5, "im": 0.3}),
        ("allow_sigma", True),
        ("sigma_zero", True),
    ], ids=["frequency", "back_action", "allow_sigma", "sigma_zero"])
    def test_sweep_mode_rejects_keys_it_does_not_read(self, key, value):
        # the spin sweep has K = 0 and emits both sigma series; a fixed-mode
        # omega stays accepted
        with pytest.raises(ConfigError,
                           match=rf"^config\.{key}: not read in mode 'sweep_SFF_at_fixed_omega'$"):
            parse_config(spin_config(**{key: value}))
        assert parse_config(osc_config(omega=1.0)).omega == 1.0

    def test_back_action_shorthand_number(self):
        cfg = parse_config(json.dumps(osc_config(back_action=0.25)))
        assert cfg.k_of_omega(1.0) == complex(0.25, 0.0)

    @pytest.mark.parametrize("value", ["Infinity", "-Infinity", "NaN"])
    @pytest.mark.parametrize("form", ["number", "re", "im"])
    def test_non_finite_constant_back_action_rejected(self, value, form):
        # json.loads accepts these tokens, so the check sits in the config parser
        spec = '{"type": "constant", "%s": %s}' % (form, value) if form != "number" else value
        text = json.dumps(osc_config(back_action="K")).replace('"K"', spec)
        with pytest.raises(ConfigError, match=r"config\.back_action: K must be finite"):
            parse_config(text)

    def test_fixed_effective_mode_keeps_only_re_k(self):
        # the effective convention's gauge kernel is Re K, for the sweep and verify alike
        raw = json.loads((CONFIGS / "oscillator_budget.json").read_text())
        cfg = parse_config(dict(raw, mode="fixed_effective", s_ff=0.3,
                                back_action={"type": "constant", "re": 0.1, "im": 0.5}))
        for w in cfg.frequency.values().tolist():
            assert cfg.k_of_omega(w) == complex(0.1, 0.0) and cfg.k_of_omega(w).imag == 0.0
        spec = {"type": "tabulated", "omega": [0.5, 1.5], "re": [0.1, 0.3], "im": [0.4, 0.2]}
        cfg = parse_config(osc_config(mode="fixed_effective", back_action=spec))
        assert [cfg.k_of_omega(w) for w in (0.5, 1.0, 1.5)] == [0.1, 0.2, 0.3]
        assert all(cfg.k_of_omega(w).imag == 0.0 for w in cfg.frequency.values().tolist())
        # Im K is still validated
        text = json.dumps(osc_config(mode="fixed_effective", back_action=dict(spec, im="IM")))
        with pytest.raises(ConfigError, match="non-finite"):
            parse_config(text.replace('"IM"', "[1e400, 0.2]"))

    @pytest.mark.parametrize("allow, zero", [(True, False), (False, False), (True, True),
                                             (False, True)])
    def test_either_sigma_key_pins_sigma(self, allow, zero):
        cfg = parse_config(osc_config(allow_sigma=allow, sigma_zero=zero))
        assert cfg.allow_sigma is (allow and not zero)

    @pytest.mark.parametrize("key, other", [("allow_sigma", "sigma_zero"),
                                            ("sigma_zero", "allow_sigma")])
    def test_both_sigma_keys_are_validated(self, key, other):
        # also when the other key already pins sigma
        with pytest.raises(ConfigError, match=rf"config\.{key}"):
            parse_config(osc_config(**{key: "yes", other: other == "sigma_zero"}))

    @pytest.mark.parametrize("overrides", [{}, {"s_ff": None}, {"s_ff": {}}],
                             ids=["missing", "null", "empty"])
    def test_sweep_s_ff_missing_or_null_means_the_default_range(self, overrides):
        assert parse_config(spin_config(**overrides)).s_ff_sweep == SffSweepSpec()

    @pytest.mark.parametrize("points", [10**6 + 1, 2**63, 10**400], ids=["1e6+1", "2^63", "1e400"])
    @pytest.mark.parametrize("grid", ["frequency", "s_ff"])
    def test_grid_point_count_is_capped(self, grid, points):
        # counts are checked at parse time; no sweep is built
        if grid == "frequency":
            cfg = osc_config(frequency={"start": 0.5, "stop": 1.5, "points": points})
        else:
            cfg = spin_config(s_ff={"points": points})
        with pytest.raises(ConfigError, match="at most 1000000 points"):
            parse_config(json.dumps(cfg))
        assert parse_config(json.dumps(osc_config(
            frequency={"start": 0.5, "stop": 1.5, "points": 10**6}))).frequency.points == 10**6

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

    @pytest.mark.parametrize("overrides, field", [
        ({"hbar": 10**400}, r"config\.hbar"),
        ({"s_ff": 10**400}, r"config\.s_ff"),
        ({"back_action": 10**400}, r"config\.back_action\.re"),
        ({"probe": {"re": ["a", 1.0]}}, r"config\.probe\.re\[0\]"),
        ({"probe": {"re": [None, 1.0]}}, r"config\.probe\.re\[0\]"),
        ({"probe": {"re": [10**400, 1.0]}}, r"config\.probe\.re\[0\]"),
        ({"probe": {"re": [True, 1.0]}}, r"config\.probe\.re\[0\]"),
        ({"probe": {"omega": ["a", 1.5]}}, r"config\.probe\.omega\[0\]"),
        ({"thermal": {"t_eff": ["a", 0.6]}}, r"config\.thermal\.t_eff\[0\]"),
        ({"thermal": {"t_eff": [None, 0.6]}}, r"config\.thermal\.t_eff\[0\]"),
        ({"thermal": {"t_eff": [10**400, 0.6]}}, r"config\.thermal\.t_eff\[0\]"),
    ], ids=["hbar-huge", "s_ff-huge", "back_action-huge", "re-string", "re-null", "re-huge",
            "re-bool", "omega-string", "t_eff-string", "t_eff-null", "t_eff-huge"])
    def test_bad_numbers_raise_config_error_naming_the_field(self, overrides, field):
        # a string, null, bool or an integer too large for a float, in a scalar
        # field or in a tabulated list
        cfg = osc_config(
            probe={"type": "tabulated", "omega": [0.5, 1.5], "re": [1.0, 1.0], "im": [-0.1, -0.1]},
            thermal={"type": "effective", "omega": [0.5, 1.5], "t_eff": [0.2, 0.6]})
        for key, value in overrides.items():
            cfg[key] = dict(cfg[key], **value) if isinstance(value, dict) else value
        with pytest.raises(ConfigError, match=field):
            parse_config(json.dumps(cfg))

    @pytest.mark.parametrize("field, spec, text", [
        ("probe", {"type": "oscillator", "omega0": 1.0}, "probe.mass: required field missing"),
        ("probe", {"type": "oscillator", "mass": 1.0}, "probe.omega0: required field missing"),
        ("probe", {"type": "oscillator", "mass": "x", "omega0": 1.0},
         "probe.mass: expected a number, got 'x'"),
        ("probe", {"type": "oscillator", "mass": 1.0, "omega0": 1.0, "gamma": True},
         "probe.gamma: expected a number, got True"),
        ("probe", {"type": "oscillator", "mass": -1.0, "omega0": 1.0},
         "probe: mass must be > 0, got -1.0"),
        ("probe", {"type": "oscillator", "mass": 1.0, "omega0": -1.0},
         "probe: omega0 must be >= 0, got -1.0"),
        ("probe", {"type": "oscillator", "mass": 1.0, "omega0": 1.0, "gamma": -1},
         "probe: gamma must be >= 0, got -1.0"),
        ("probe", {"type": "free_mass", "gamma": 0.2}, "probe.mass: required field missing"),
        ("probe", {"type": "free_mass", "mass": 1.0, "gamma": "x"},
         "probe.gamma: expected a number, got 'x'"),
        ("probe", {"type": "free_mass", "mass": 0.0}, "probe: mass must be > 0, got 0.0"),
        ("probe", {"type": "tabulated", "omega": [0.4, 1.6], "re": [1.0, 0.0]},
         "probe.im: required field missing"),
        ("probe", {"type": "tabulated", "omega": "x", "re": [1.0], "im": [0.0]},
         "probe.omega: expected list, got 'x'"),
        ("probe", {"type": "tabulated", "omega": [1.0, 0.5], "re": [1.0, 0.0], "im": [0.0, 0.0]},
         "probe: tabulated grid must be strictly increasing"),
        ("probe", {"type": "tabulated", "omega": [0.4, 1.6], "re": [1.0], "im": [0.0, 0.0]},
         "probe: re and im must have equal length"),
        ("probe", {"type": "bogus", "mass": 1.0}, "probe.type: unknown probe type 'bogus'"),
        ("probe", {"mass": 1.0}, "probe.type: required field missing"),
        ("probe", {"type": 3}, "probe.type: expected str, got 3"),
        ("probe", None, "probe: expected an object, got None"),
        ("thermal", {}, "thermal.type: required field missing"),
        ("thermal", {"type": True}, "thermal.type: expected str, got True"),
        ("thermal", {"type": "uniform"}, "thermal.temperature: required field missing"),
        ("thermal", {"type": "uniform", "temperature": "x"},
         "thermal.temperature: expected a number, got 'x'"),
        ("thermal", {"type": "uniform", "temperature": -1},
         "thermal: temperature must be >= 0, got -1.0"),
        ("thermal", {"type": "effective", "omega": [0.4, 1.6]},
         "thermal.t_eff: required field missing"),
        ("thermal", {"type": "effective", "omega": True, "t_eff": [0.1, 0.2]},
         "thermal.omega: expected list, got True"),
        ("thermal", {"type": "effective", "omega": [0.4, 1.6], "t_eff": [1.0, -2.0]},
         "thermal: effective temperatures must be finite and >= 0"),
        ("thermal", {"type": "effective", "omega": [0.4, 1.6], "t_eff": [1.0, 2.0, 3.0]},
         "thermal: grid and samples differ in length: 2 vs 3"),
        ("thermal", {"type": "bogus"}, "thermal.type: unknown thermal type 'bogus'"),
        ("thermal", "x", "thermal: expected an object, got 'x'"),
    ])
    def test_model_error_texts_are_pinned(self, field, spec, text):
        # each probe and bath kind: a missing or wrong-typed field, an unknown
        # type, and a value its model rejects, wrapped as config.<object>: ...
        with pytest.raises(ConfigError) as exc:
            parse_config(osc_config(**{field: spec}))
        assert str(exc.value) == f"config.{text}"

    @pytest.mark.parametrize("field, spec, kind, digest", [
        ("thermal", None, "ZeroTemperature", "caa49b56c0fd"),
        ("thermal", {"type": "zero"}, "ZeroTemperature", "fb8e41a9893b"),
        ("thermal", {"type": "uniform", "temperature": 0}, "UniformTemperature", "f9a6dc6445c5"),
        ("thermal", {"type": "effective", "omega": [0.4, 1.6], "t_eff": [0.1, 0.2]},
         "EffectiveTemperature", "2a3eacccbc9a"),
        ("probe", {"type": "free_mass", "mass": 2}, "FreeMass", "853963ae889e"),
        ("probe", {"type": "oscillator", "mass": 1.0, "omega0": 1}, "DampedOscillator",
         "d144f341ad50"),
        ("probe", {"type": "tabulated", "omega": [0.4, 1.6], "re": [1, 0], "im": [0, -0.1]},
         "TabulatedSusceptibility", "a3457205b5d7"),
    ])
    def test_accepted_models_and_their_config_hashes(self, field, spec, kind, digest):
        # thermal null, like a missing thermal, is the T = 0 bath
        raw = osc_config(**{field: spec})
        cfg = parse_config(raw)
        assert type(getattr(cfg, field)).__name__ == kind
        assert cfg.config_hash[:12] == digest
        if spec is None:
            del raw[field]
            assert type(parse_config(raw).thermal).__name__ == kind


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

    def test_underflowing_bath_energy_gives_the_zero_temperature_rows(self):
        # 2*kB*T underflows to 0 with T > 0: the T = 0 table, no ZeroDivisionError
        cold = parse_config(osc_config(thermal={"type": "uniform", "temperature": 1e-300},
                                       k_boltzmann=1e-30))
        zero = parse_config(osc_config(k_boltzmann=1e-30))
        assert run_budget(cold).columns == run_budget(zero).columns
        assert verify(cold).passed

    def test_a_bath_too_hot_for_the_units_names_the_first_frequency(self):
        # hbar*omega/(2*kB*T) underflows to 0 from the second grid point on: the
        # sweep re-runs those rows through fdt_psd, which raises for the first
        cfg = parse_config(osc_config(hbar=1e-30, thermal={
            "type": "effective", "omega": [0.5, 1.5], "t_eff": [1.0, 1e300]}))
        first = float(cfg.frequency.values()[1])
        with pytest.raises(DomainError) as exc:
            run_budget(cfg)
        assert str(exc.value).startswith(f"omega={first!r}: hbar*omega/(2*k_B*T) underflows to 0")
        with pytest.raises(DomainError, match="underflows to 0"):
            verify(cfg)

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

    @pytest.mark.parametrize("line", [3, 6, 9])
    def test_malformed_csv_number_raises_config_error(self, table, line):
        lines = table.to_csv().splitlines()
        if line == 3:
            lines[2] = "# transitions=x"
        else:
            lines[line - 1] = "abc" + lines[line - 1][lines[line - 1].index(","):]
        for loader in (load_table, BudgetTable.from_csv):
            with pytest.raises(ConfigError, match=f"^line {line}: "):
                loader("\n".join(lines) + "\n")

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

    @pytest.mark.parametrize("case", ["value-then-count", "count-then-value", "two-columns"])
    def test_malformed_csv_reports_the_first_bad_line_and_field(self, table, case):
        # columns are parsed whole, but the error is the one a row-by-row read meets first
        lines = table.to_csv().splitlines()
        first, second = (6, 7) if case != "count-then-value" else (7, 6)
        row = lines[first].split(",")
        row[3 if case == "two-columns" else 1] = "abc"
        row[4] = "xyz" if case == "two-columns" else row[4]
        lines[first] = ",".join(row)
        if case == "two-columns":
            lines[second] = lines[second].replace(",", ",pqr", 1)
        else:
            lines[second] = lines[second].rsplit(",", 1)[0]
        expected = {
            "value-then-count": "line 7: could not convert string to float: 'abc'",
            "count-then-value": "line 7: expected 12 fields, got 11",
            "two-columns": "line 7: could not convert string to float: 'abc'",
        }[case]
        for loader in (load_table, BudgetTable.from_csv):
            with pytest.raises(ConfigError) as exc:
                loader("\n".join(lines) + "\n")
            assert str(exc.value) == expected

    @pytest.mark.parametrize("case", ["value-then-missing", "missing-then-value", "row-order"])
    def test_malformed_json_reports_the_first_bad_entry(self, table, case):
        payload = json.loads(table.to_json())
        rows = payload["rows"]
        if case == "value-then-missing":
            rows[1]["regime"], rows[1]["s_fdt"] = "qcrb", "abc"
            del rows[2]["omega"]
            expected = "could not convert string to float: 'abc'"
        elif case == "missing-then-value":
            del rows[1]["im_s_xf_opt"]
            rows[2]["omega"] = "abc"
            expected = "missing field 'im_s_xf_opt'"
        else:
            rows[1]["s_total"] = [1.0]
            rows[2]["omega"] = "abc"
            expected = "float() argument must be a string or a real number, not 'list'"
        for loader in (load_table, BudgetTable.from_json):
            with pytest.raises(ConfigError) as exc:
                loader(json.dumps(payload))
            assert str(exc.value) == f"malformed budget table: {expected}"

    @pytest.mark.parametrize("regime", ["foo", None, 5, [1], "DQL"])
    def test_a_regime_must_be_a_regime_value(self, table, regime):
        # the regime column is stored as a dql mask: any other value is malformed,
        # reported at the first bad line or entry in row order
        lines = table.to_csv().splitlines()
        row = lines[7].split(",")
        row[5] = str(regime)
        lines[7] = ",".join(row)
        for loader in (load_table, BudgetTable.from_csv):
            with pytest.raises(ConfigError) as exc:
                loader("\n".join(lines) + "\n")
            assert str(exc.value) == f"line 8: unknown regime {str(regime)!r}"
        lines[8] = "abc" + lines[8][lines[8].index(","):]
        lines[6], lines[8] = lines[8], lines[6]  # a bad number before the bad regime
        with pytest.raises(ConfigError, match="^line 7: could not convert string to float: 'abc'$"):
            load_table("\n".join(lines) + "\n")
        payload = json.loads(table.to_json())
        payload["rows"][1]["regime"] = regime
        payload["rows"][2]["omega"] = "abc"
        for loader in (load_table, BudgetTable.from_json):
            with pytest.raises(ConfigError) as exc:
                loader(json.dumps(payload))
            assert str(exc.value) == f"malformed budget table: unknown regime {regime!r}"
        odd = dataclasses.replace(table.points[0], regime=regime)
        with pytest.raises(ValueError, match="^unknown regime "):
            BudgetTable(points=[table.points[1], odd], meta=table.meta)


def reference_csv(table) -> str:
    """The row-by-row CSV writer the column writer replaced."""
    meta = table.meta
    lines = [f"# qnl {meta.kind} v{meta.version}", f"# config_hash={meta.config_hash}",
             "# transitions=" + ",".join(repr(float(t)) for t in meta.transitions),
             "# lossless thresholds serialize as inf (null in JSON)", ",".join(table.COLUMNS)]
    for p in table.points:
        values = [getattr(p, c) for c in table.COLUMNS]
        lines.append(",".join(v if isinstance(v, str) else repr(float(v)) for v in values))
    return "\n".join(lines) + "\n"


def reference_json(table) -> str:
    """json.dumps of the whole payload, non-finite numbers as null."""
    meta = table.meta
    payload = {
        "kind": meta.kind,
        "version": meta.version,
        "config_hash": meta.config_hash,
        "transitions": list(meta.transitions),
        "columns": list(table.COLUMNS),
        "rows": [
            {c: (None if isinstance(v, float) and not math.isfinite(v) else v)
             for c in table.COLUMNS for v in [getattr(p, c)]}
            for p in table.points
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


class TestColumnarTables:
    """Tables hold columns; the writers emit them in the fixed layout, and
    row objects are built only when .points is read."""

    @staticmethod
    def tables():
        meta = run_budget(parse_config(osc_config())).meta
        odd = BudgetPoint(0.5, -0.0, 5e-324, math.inf, 1.7976931348623157e308, "dql",
                          -math.inf, math.nan, 1e-320, 2.5, -1.25e-17, 3)
        spin_meta = run_spin_figure(parse_config(spin_config())).meta
        return {
            "multi_transitions": run_budget(load_config(str(CONFIGS / "oscillator_budget.json"))),
            "no_transitions_si": run_budget(load_config(str(CONFIGS / "si_oscillator.json"))),
            "lossless_inf_thresholds": run_budget(parse_config(osc_config(
                probe={"type": "free_mass", "mass": 1.0}))),
            "sigma_zero": run_budget(PINNED_CONFIGS["sigma_zero"]()),
            "spin": run_spin_figure(load_config(str(CONFIGS / "spin_figure.json"))),
            "spin_si": run_budget(PINNED_CONFIGS["spin_si"]()),
            "points_odd_values": BudgetTable(points=(odd, odd), meta=meta),
            "points_empty": BudgetTable(points=(), meta=meta),
            "spin_points": SpinFigureTable(
                points=[SpinFigurePoint(-0.0, math.nan, 1e300, -math.inf, "qcrb")], meta=spin_meta),
        }

    def test_writers_match_the_reference_encoders_byte_for_byte(self):
        tables = self.tables()
        assert len(tables["multi_transitions"].meta.transitions) > 1
        assert tables["no_transitions_si"].meta.transitions == ()
        assert math.isinf(tables["lossless_inf_thresholds"].columns[3][0])
        for name, table in tables.items():
            assert table.to_csv() == reference_csv(table), name
            assert table.to_json() == reference_json(table), name

    def test_built_from_points_equals_built_from_columns(self):
        table = run_budget(parse_config(osc_config()))
        again = BudgetTable(points=table.points, meta=table.meta)
        assert again == table and again.rows() == table.rows()
        assert again.to_csv() == table.to_csv() and again.to_json() == table.to_json()
        assert table != BudgetTable(points=table.points[:-1], meta=table.meta)

    def test_hot_paths_build_no_row_objects(self, monkeypatch):
        calls = []
        for point in (BudgetPoint, SpinFigurePoint):
            original = point.__post_init__
            monkeypatch.setattr(point, "__post_init__",
                                lambda self, _o=original: (calls.append(1), _o(self))[1])
        for table in (run_budget(parse_config(osc_config())),
                      run_spin_figure(load_config(str(CONFIGS / "spin_figure.json")))):
            csv, js = table.to_csv(), table.to_json()
            loaded = [load_table(csv), load_table(js), type(table).from_csv(csv),
                      type(table).from_json(js)]
            assert calls == []
            n = len(table.rows())
            points = table.points
            assert len(calls) == n
            assert table.points is points and len(calls) == n  # built once
            assert points == tuple(table._POINT(*r) for r in table.rows())
            for again in loaded:
                assert again == table
            calls.clear()

    def test_hot_paths_build_no_list_view(self):
        # the arrays are the storage: a sweep, both emits, both loads and their
        # re-emits never build .columns, the list view (36 MB at 1e5 budget rows)
        for table in (run_budget(parse_config(osc_config())),
                      run_spin_figure(load_config(str(CONFIGS / "spin_figure.json")))):
            loaded = [load_table(table.to_csv()), load_table(table.to_json())]
            for t in (table, *loaded):
                t.to_csv(), t.to_json()
            assert loaded == [table, table]
            assert all("columns" not in vars(t) for t in (table, *loaded))
            assert table.columns is table.columns and "columns" in vars(table)  # built once


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

    def test_verify_checks_the_kernel_the_table_uses(self, monkeypatch):
        # fixed_effective with hbar*|Im K| > s_ff: the table is computed at Re K,
        # so every sampled point reaches the oracle
        raw = json.loads((CONFIGS / "oscillator_budget.json").read_text())
        cfg = parse_config(dict(raw, mode="fixed_effective", s_ff=0.3,
                                back_action={"type": "constant", "re": 0.1, "im": 0.5}))
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return brute_force_min(*args, **kwargs)

        monkeypatch.setattr(budget, "brute_force_min", counted)
        report = verify(cfg, samples=20)
        assert len(calls) == 20 and all(complex(k).imag == 0.0 for _, k, *_ in calls)
        assert report.passed
        assert next(c for c in report.checks if c.name == "oracle-agreement").measured > 0.0

    def test_spin_figure_requires_the_sweep_mode(self):
        with pytest.raises(ConfigError, match="sweep_SFF_at_fixed_omega.*'fixed_SFF'"):
            run_spin_figure(parse_config(osc_config(omega=1.0)))

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

    def test_golden_check_texts(self, tmp_path):
        cfg = parse_config(osc_config(frequency={"start": 0.5, "stop": 1.5, "points": 11}))
        lines = run_budget(cfg).to_csv().splitlines()

        def golden_detail(text):
            path = tmp_path / "golden.csv"
            path.write_text(text, encoding="utf-8")
            check = verify(cfg, samples=1, golden_path=str(path)).checks[-1]
            assert check.name == "golden-match"
            return check.passed, check.detail

        assert golden_detail("\n".join(lines) + "\n") == (True, "11 rows identical")
        tampered = [line.split(",") for line in lines]
        tampered[9][0] = "0.75"  # row 4: omega
        tampered[8][8] = "1.5"  # row 3: sigma_opt, s_xx_opt
        tampered[8][9] = "2.5"
        assert golden_detail("\n".join(map(",".join, tampered)) + "\n") == (
            False, "first differing row 3 (columns: sigma_opt, s_xx_opt)")
        assert golden_detail("\n".join(lines[:-2]) + "\n") == (False, "row count 9 vs 11")
        spin = run_spin_figure(parse_config(spin_config()))
        assert golden_detail(spin.to_csv()) == (False, "table kind differs")

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

    def test_sigma_zero_config_passes(self):
        # the table holds the sigma-pinned optimum; the oracle is compared with
        # the unconstrained one, which it searches for
        report = verify(PINNED_CONFIGS["sigma_zero"](), seed=1, samples=12)
        assert report.passed, report.render()

    def test_si_config_passes(self):
        report = verify(load_config(str(CONFIGS / "si_oscillator.json")), samples=6)
        assert report.passed, report.render()

    @pytest.mark.parametrize("name", ["oscillator_budget.json", "si_oscillator.json"])
    def test_report_text_is_pinned(self, name):
        # every check's measured value as rendered, so drift in any of them shows
        expected = json.loads(REPORTS.read_text())[name]
        assert verify(load_config(str(CONFIGS / name)), seed=1).render() == expected


def scalar_rows(cfg) -> list:
    """Every row of the config's table, one point at a time through the
    scalar public API."""
    hbar = cfg.constants.hbar
    rows = []
    if cfg.mode == "sweep_SFF_at_fixed_omega":
        d = cfg.probe.chi_inv(cfg.omega)
        for s in cfg.s_ff_sweep.values(threshold_eff(d, 0.0, hbar)):
            s = float(s)
            full = optimize_fixed_eff_backaction(d, 0.0, s, hbar)
            zero = optimize_fixed_eff_backaction_sigma_zero(d, 0.0, s, hbar)
            matched = matched_sum_noise(s / hbar, d, hbar=hbar)
            rows.append([s, full.s_sum, zero.s_sum, matched, full.regime.value])
        return rows
    for w in cfg.frequency.values():
        w = float(w)
        d = cfg.probe.chi_inv(w)
        k = complex(cfg.k_of_omega(w))
        r = optimize_fixed_backaction(d, k, cfg.s_ff, allow_sigma=cfg.allow_sigma, hbar=hbar)
        s_fdt = fdt_psd(d, cfg.thermal, w, cfg.constants)
        t = r.optimal_triad
        rows.append([w, sql(d, hbar=hbar), dql(d, hbar=hbar), r.s_threshold, r.s_sum,
                     r.regime.value, s_fdt, r.s_sum + s_fdt, r.sigma_opt, t.s_xx,
                     t.s_xf.real, t.s_xf.imag])
    return rows


def tabulated_effective_config(**overrides):
    """fixed_effective with tabulated chi_inv, K (Im K != 0) and T_eff."""
    nodes = np.linspace(0.4, 1.6, 61)
    chi = (1.0 - nodes**2) * (1.0 + 0.01 * np.sin(7.0 * nodes)) - 0.2j * nodes
    return osc_config(
        mode="fixed_effective", s_ff=0.25,
        probe={"type": "tabulated", "omega": nodes.tolist(), "re": chi.real.tolist(),
               "im": chi.imag.tolist()},
        back_action={"type": "tabulated", "omega": nodes.tolist(),
                     "re": (0.05 * np.cos(3.0 * nodes)).tolist(),
                     "im": (0.02 * np.sin(2.0 * nodes)).tolist()},
        thermal={"type": "effective", "omega": nodes.tolist(),
                 "t_eff": (0.3 + 0.1 * np.sin(nodes) ** 2).tolist()},
        **overrides,
    )


PINNED_CONFIGS = {
    "oscillator_budget": lambda: load_config(str(CONFIGS / "oscillator_budget.json")),
    "si_oscillator": lambda: load_config(str(CONFIGS / "si_oscillator.json")),
    "spin_figure": lambda: load_config(str(CONFIGS / "spin_figure.json")),
    "tabulated_fixed_effective": lambda: parse_config(tabulated_effective_config()),
    "free_mass_lossless": lambda: parse_config(osc_config(
        probe={"type": "free_mass", "mass": 1.0, "gamma": 0.0}, s_ff=0.3,
        back_action={"type": "constant", "re": 0.1, "im": 0.05},
        thermal={"type": "uniform", "temperature": 0.5})),
    "sigma_zero": lambda: parse_config(osc_config(
        sigma_zero=True, s_ff=0.3, back_action={"type": "constant", "re": 0.1, "im": 0.05})),
    "complex_k": lambda: parse_config(osc_config(
        s_ff=0.3, back_action={"type": "constant", "re": 0.1, "im": 0.05},
        thermal={"type": "uniform", "temperature": 0.5},
        frequency={"start": 0.5, "stop": 1.5, "points": 4001})),
    "spin_si": lambda: parse_config(spin_config(
        probe={"type": "oscillator", "mass": 1e-3, "omega0": 1e6, "gamma": 100.0},
        hbar=1.054e-34, k_boltzmann=1.380649e-23, omega=1.0001e6,
        s_ff={"start": 0.01, "stop": 100.0, "points": 2001})),
}


def as_emitted(table) -> list:
    return [[repr(v) for v in row] for row in table.rows()]


def scalar_table(cfg):
    """The table as the scalar rows would emit it (row classes coerce)."""
    if cfg.mode == "sweep_SFF_at_fixed_omega":
        kind, point = SpinFigureTable, SpinFigurePoint
    else:
        kind, point = BudgetTable, BudgetPoint
    return kind(points=tuple(point(*row) for row in scalar_rows(cfg)), meta=None)


def test_budget_matches_module_level_optimizer_pointwise():
    # the array sweep against the scalar public API, every row and column,
    # compared through repr so a signed zero or a last-bit change shows
    for name, make in PINNED_CONFIGS.items():
        cfg = make()
        got = as_emitted(run_budget(cfg))
        assert got == as_emitted(scalar_table(cfg)), name
        assert len(got) == (cfg.frequency or cfg.s_ff_sweep).points, name


def out_of_range_config(table: str, stop: float = 1.2) -> dict:
    """tabulated_effective_config with the probe, K or bath table ending at stop,
    inside the 0.5..1.5 frequency grid."""
    raw = tabulated_effective_config()
    short = {"omega": [0.4, stop]}
    if table == "thermal":
        raw["thermal"] = dict(raw["thermal"], **short, t_eff=[0.3, 0.3])
    else:
        raw[table] = dict(raw[table], **short, re=[0.1, 0.2], im=[-0.1, -0.3])
    raw["frequency"] = {"start": 0.5, "stop": 1.5, "points": 101}
    return raw


REJECTED_CONFIGS = {  # configs that run_budget rejects, each at a point inside its grid
    "fdt-floor": osc_config(s_ff=0.1, back_action={
        "type": "tabulated", "omega": [0.5, 1.5], "re": [0.0, 0.0], "im": [0.0, 0.2]}),
    **{f"{table}-range": out_of_range_config(table) for table in ("probe", "back_action",
                                                                  "thermal")},
    "too-hot-bath": osc_config(hbar=1e-30, thermal={
        "type": "effective", "omega": [0.5, 1.5], "t_eff": [1.0, 1e300]}),
    "vanishing-chi-inv-plus-k": osc_config(
        probe={"type": "oscillator", "mass": 1.0, "omega0": 1.0, "gamma": 0.0},
        back_action=-(1.0 - float(np.linspace(0.5, 1.5, 101)[30]) ** 2)),
    "overflowing-dql": osc_config(hbar=1e200, probe={
        "type": "oscillator", "mass": 1e150, "omega0": 1.0, "gamma": 0.2}),
    "lossless-spin-probe": spin_config(probe={"type": "free_mass", "mass": 1.0}),
}


class TestArraySweepErrors:
    """A point the scalar path rejects is re-run through it: same error type,
    same text, at the same first frequency."""

    def test_fdt_violation_names_the_first_offending_frequency(self):
        # Im K grows with omega and crosses s_ff = 0.1 inside the grid
        cfg = parse_config(REJECTED_CONFIGS["fdt-floor"])
        omegas = [float(w) for w in cfg.frequency.values()]
        first = next(w for w in omegas if abs(cfg.k_of_omega(w).imag) > 0.1)
        assert omegas[0] < first < omegas[-1]
        floor = abs(cfg.k_of_omega(first).imag)
        with pytest.raises(FdtViolationError) as exc:
            run_budget(cfg)
        assert str(exc.value) == (
            f"omega={first!r}: s_ff=0.1 below the meter FDT floor hbar*|Im K|={floor!r}"
        )

    @pytest.mark.parametrize("table", ["probe", "back_action", "thermal"])
    def test_out_of_range_tabulated_frequency(self, table):
        cfg = parse_config(out_of_range_config(table))
        first = next(float(w) for w in cfg.frequency.values() if w > 1.2)
        with pytest.raises(RangeError) as exc:
            run_budget(cfg)
        assert str(exc.value) == f"frequency {first!r} outside tabulated range [0.4, 1.2]"

    @pytest.mark.parametrize("stop", [1.5, 1.2])
    def test_verify_names_the_first_infeasible_frequency(self, stop):
        # Im K falls through s_ff = 0.1 inside the grid; with stop=1.2 the K
        # table also ends before the grid does, after the first violation
        nodes = [0.4, stop]
        cfg = parse_config(osc_config(
            s_ff=0.1, back_action={"type": "tabulated", "omega": nodes, "re": [0.0, 0.0],
                                   "im": [0.3, 0.0]}))
        first = next(float(w) for w in cfg.frequency.values()
                     if abs(cfg.k_of_omega(float(w)).imag) > 0.1)
        floor = abs(cfg.k_of_omega(first).imag)
        with pytest.raises(FdtViolationError) as exc:
            verify(cfg, samples=2)
        assert str(exc.value) == (
            f"omega={first!r}: s_ff=0.1 below the meter FDT floor hbar*|Im K|={floor!r}")
        cfg = parse_config(osc_config(
            s_ff=0.4, back_action={"type": "tabulated", "omega": nodes, "re": [0.0, 0.0],
                                   "im": [0.3, 0.0]}))
        beyond = [float(w) for w in cfg.frequency.values() if w > stop]
        if beyond:
            with pytest.raises(RangeError) as exc:
                verify(cfg, samples=2)
            assert str(exc.value) == f"frequency {beyond[0]!r} outside tabulated range [0.4, 1.2]"

    def test_an_overflowing_dql_column_raises_without_a_warning(self):
        # hbar*|Im chi_inv| overflows: the kernel flags the rows without a numpy
        # warning (warnings are errors here) and the first re-run raises
        with pytest.raises(DomainError) as exc:
            run_budget(parse_config(REJECTED_CONFIGS["overflowing-dql"]))
        assert str(exc.value) == "s_xx must be finite and >= 0, got nan"

    @pytest.mark.parametrize("thermal", [{"type": "zero"}, {"type": "uniform", "temperature": 0.5}])
    def test_constant_k_and_bath_are_not_evaluated_per_point(self, thermal, monkeypatch):
        cfg = parse_config(osc_config(back_action={"type": "constant", "re": 0.1, "im": 0.05},
                                      thermal=thermal))
        expected = run_budget(cfg).to_csv()
        calls = []
        for cls, name in ((type(cfg.k_of_omega), "__call__"), (type(cfg.thermal), "temperature_at")):
            method = getattr(cls, name)
            monkeypatch.setattr(cls, name, lambda self, w, m=method: calls.append(w) or m(self, w))
        assert run_budget(cfg).to_csv() == expected
        assert calls == []
        verify(cfg, samples=3)  # the sampled checks call K and the bath at their points only
        assert 0 < len(calls) <= 2 * 3

    def test_vanishing_chi_inv_plus_k(self):
        # lossless oscillator and real K = -chi_inv at the 31st grid point
        w = float(np.linspace(0.5, 1.5, 101)[30])
        cfg = parse_config(osc_config(
            probe={"type": "oscillator", "mass": 1.0, "omega0": 1.0, "gamma": 0.0},
            back_action=-(1.0 - w * w)))
        d = cfg.probe.chi_inv(w)
        with pytest.raises(DomainError) as exc:
            run_budget(cfg)
        assert str(exc.value) == f"chi_inv + K vanishes: chi_inv={d!r}, K={-d!r}"


@pytest.mark.parametrize("name", list(REJECTED_CONFIGS))
@pytest.mark.parametrize("golden", [False, True])
def test_verify_raises_what_budget_raises(name, golden, tmp_path):
    # verify runs the sweep first: the same error type and text, also with a
    # golden table given and whatever points the seeded picks fall on
    cfg = parse_config(REJECTED_CONFIGS[name])
    with pytest.raises(QnlError) as want:
        run_budget(cfg)
    path = tmp_path / "golden.csv"
    path.write_text("not read", encoding="utf-8")
    with pytest.raises(QnlError) as got:
        verify(cfg, samples=2, golden_path=str(path) if golden else None)
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


def test_verify_rejects_a_table_ending_inside_the_grid_between_the_picks():
    # the probe table ends at 1.2, row 70 of 101; the one seeded pick lies below it
    cfg = parse_config(out_of_range_config("probe"))
    assert np.random.default_rng(1).choice(101, size=1, replace=False)[0] < 70
    with pytest.raises(RangeError, match="outside tabulated range"):
        verify(cfg, seed=1, samples=1)


@pytest.mark.parametrize("config", [osc_config(), spin_config()], ids=["fixed", "spin"])
def test_verify_runs_the_sweep_once(config, tmp_path, monkeypatch):
    cfg = parse_config(config)
    golden = tmp_path / "golden.csv"
    golden.write_text(run_budget(cfg).to_csv(), encoding="utf-8")
    calls, kernel = [], budget._optimum_grid
    monkeypatch.setattr(budget, "_optimum_grid", lambda *args: calls.append(1) or kernel(*args))
    assert verify(cfg, samples=3).passed and len(calls) == 1
    assert verify(cfg, samples=3, golden_path=str(golden)).passed and len(calls) == 2


def test_rows_coerce_numbers_and_regime():
    p = BudgetPoint(1, -0.0, 0.0, np.float64(2.5), 3, np.str_("dql"), -0.0, 1.0, -0.0, 2.0,
                    -0.0, np.float32(0.5))
    values = [getattr(p, c) for c in BudgetTable.COLUMNS]
    assert all(type(v) is float for i, v in enumerate(values) if i != 5)
    assert type(p.regime) is str and p.regime == "dql"
    # -0.0 becomes 0.0, so emitted tables never show "-0.0"
    assert all(math.copysign(1.0, v) == 1.0 for i, v in enumerate(values) if i != 5)
    q = SpinFigurePoint(np.float64(0.5), 1, 2.0, np.float32(3.0), np.str_("qcrb"))
    assert [type(getattr(q, c)) for c in SpinFigureTable.COLUMNS] == [float] * 4 + [str]
    # rows built in bulk by a sweep go through the same coercion
    table = run_budget(parse_config(osc_config()))
    assert table.points[3] == BudgetPoint(*table.rows()[3])
    # columns loaded from text coerce as the rows do: -0.0 becomes 0.0 in a budget table only
    payload = json.loads(table.to_json())
    payload["rows"][0].update(sql=-0.0, dql=2)
    loaded = BudgetTable.from_json(json.dumps(payload))
    assert repr(loaded.columns[1][0]) == "0.0" and repr(loaded.columns[2][0]) == "2.0"
    assert loaded.points[0] == BudgetPoint(*loaded.rows()[0])
    fig = run_spin_figure(parse_config(spin_config()))
    text = fig.to_csv().splitlines()
    text[5] = "-0.0" + text[5][text[5].index(","):]
    assert repr(SpinFigureTable.from_csv("\n".join(text)).columns[0][0]) == "-0.0"


B = tables.BLOCK_ROWS


@functools.cache
def edge_table(kind: str):
    """A 2B+1-row table; the budget one has lossless rows (s_thr = inf, null in
    JSON) on block edges, set by hand: emit and load do not look at the physics."""
    if kind == "spin":
        return run_spin_figure(parse_config(spin_config(s_ff={"points": 2 * B + 1})))
    table = run_budget(parse_config(osc_config(
        thermal={"type": "uniform", "temperature": 0.5}, back_action=0.05,
        frequency={"start": 0.5, "stop": 1.5, "points": 2 * B + 1})))
    arrays = [np.array(a) for a in table.arrays]
    arrays[3][[0, B - 1, B, 2 * B]] = math.inf
    return BudgetTable._of(arrays, table.meta)


@pytest.mark.parametrize("kind", ["budget", "spin"])
@pytest.mark.parametrize("rows", [0, 1, B - 1, B, B + 1, 2 * B + 1])
def test_block_wise_emit_equals_the_whole_table_text(kind, rows):
    # the texts are made BLOCK_ROWS rows at a time; joined, they are the
    # row-by-row writers' text (json.dumps(payload, indent=2) + "\n" for JSON,
    # nulls included) at every block edge, and each loads back to the table
    whole = edge_table(kind)
    table = type(whole)._of([a[:rows] for a in whole.arrays], whole.meta)
    csv, js = table.to_csv(), table.to_json()
    assert csv == reference_csv(table) and js == reference_json(table)
    assert len(list(tables._emit_csv(table))) == 1 + -(-rows // B)  # the header, then blocks
    assert (js.count("null") >= 1) == (kind == "budget" and rows > 0)
    for text in (csv, js):
        again = load_table(text)
        assert again == table and again.to_csv() == csv and again.to_json() == js


@pytest.mark.parametrize("name", list(json.loads(DIGESTS.read_text(encoding="utf-8"))))
def test_emitted_tables_match_the_pinned_digests(name):
    # sha256 of both texts of every committed config and of five generated
    # ones (1e4 analytic points, a lossless probe whose scalar triads hold
    # -0.0, fixed_effective, 5e3 spin budgets, oscillator_budget.json at 1e5
    # points), pinned from earlier trees
    pin = json.loads(DIGESTS.read_text(encoding="utf-8"))[name]
    table = run_budget(parse_config(pin["config"]) if "config" in pin else
                       load_config(str(CONFIGS.parent / name)))
    assert hashlib.sha256(table.to_csv().encode()).hexdigest() == pin["csv"]
    assert hashlib.sha256(table.to_json().encode()).hexdigest() == pin["json"]


def test_sweep_columns_are_in_the_table_form():
    # sweeps hand their arrays to the table as built: float64 and one bool dql
    # mask, no -0.0 in a budget table, and unchanged by the coercion loads apply
    lossless = parse_config(osc_config(
        probe={"type": "oscillator", "mass": 1.0, "omega0": 1.0, "gamma": 0.0},
        back_action={"type": "constant", "re": 0.0, "im": 0.05}))
    # at resonance the scalar path's triad has Re S_xF = -0.0
    assert "-0.0" in [repr(row[10]) for row in scalar_rows(lossless)]
    configs = [make() for make in PINNED_CONFIGS.values()] + [lossless]
    for cfg in configs:
        table = run_budget(cfg)
        for name, a in zip(table.COLUMNS, table.arrays):
            assert a.dtype == (bool if name == table._REGIME else np.float64), name
            if isinstance(table, BudgetTable) and a.dtype != bool:
                assert not np.signbit(a[a == 0.0]).any(), name
        for name, col in zip(table.COLUMNS, table.columns):
            kind = str if name == table._REGIME else float
            assert type(col) is list and all(type(v) is kind for v in col), name
        coerced = type(table)._coerced(table.columns)  # the list view, coerced back
        assert [a.tobytes() for a in coerced] == [a.tobytes() for a in table.arrays]
        assert table == type(table)._of(coerced, table.meta)


def resonance_config(gamma: float):
    """An oscillator through resonance with K = 0.05i; lossless, at gamma = 0, its
    scalar triad has Re S_xF = -0.0 at resonance and its table no transition."""
    return parse_config(osc_config(
        probe={"type": "oscillator", "mass": 1.0, "omega0": 1.0, "gamma": gamma}, s_ff=0.2,
        back_action={"type": "constant", "re": 0.0, "im": 0.05}))


RERUN_CONFIGS = dict(PINNED_CONFIGS, **{f"resonance_gamma_{gamma}": functools.partial(
    resonance_config, gamma) for gamma in (0.0, 0.2)})


def rerun_counter(monkeypatch) -> list:
    """The list each scalar re-run of a sweep row appends its omega or budget to."""
    reruns, point, full = [], budget._budget_point, budget.optimize_fixed_eff_backaction
    monkeypatch.setattr(budget, "_budget_point", lambda cfg, w: reruns.append(w) or point(cfg, w))
    monkeypatch.setattr(budget, "optimize_fixed_eff_backaction",
                        lambda d, k, s, hbar: reruns.append(s) or full(d, k, s, hbar))
    return reruns


@pytest.mark.parametrize("name", list(RERUN_CONFIGS))
def test_scalar_reruns_give_the_array_columns(name, monkeypatch):
    # the kernel flags every row but keeps its columns: each row is re-run once,
    # in order, through the scalar path, which accepts it, and the table keeps
    # the sweep's arrays: the same table and texts, signs of zero included
    cfg = RERUN_CONFIGS[name]()
    want = run_budget(cfg)
    if name.startswith("resonance"):
        assert bool(want.meta.transitions) == name.endswith("0.2")
    kernel = budget._optimum_grid

    def all_bad(*args):
        opt = kernel(*args)
        return dict(opt, bad=np.ones_like(opt["bad"]))

    monkeypatch.setattr(budget, "_optimum_grid", all_bad)
    reruns = rerun_counter(monkeypatch)
    got = run_budget(cfg)
    assert reruns == want.arrays[0].tolist()
    assert got == want
    assert got.to_csv() == want.to_csv() and got.to_json() == want.to_json()


def test_flagged_rows_the_scalar_path_accepts_hold_its_values(monkeypatch):
    # with a mass of 1e-300 the kernel flags all 101 rows; the scalar path accepts
    # each one, s_sum_opt = nan included, and the table holds its values as made
    raw = json.loads((CONFIGS / "oscillator_budget.json").read_text(encoding="utf-8"))
    raw["probe"]["mass"] = 1e-300
    cfg = parse_config(dict(raw, back_action={"type": "constant", "re": 0.1, "im": 0.05}))
    assert budget._budget_columns(cfg, cfg.frequency.values())[1].all()
    reruns = rerun_counter(monkeypatch)
    table = run_budget(cfg)
    assert reruns == table.arrays[0].tolist()
    assert np.isnan(table.arrays[4]).all()
    scalar = scalar_table(cfg)
    assert as_emitted(table) == as_emitted(scalar)
    assert all(map(functools.partial(np.array_equal, equal_nan=True), table.arrays, scalar.arrays))
    assert hashlib.sha256(table.to_csv().encode()).hexdigest().startswith("e7e6f2905b1d0ff8")


LOSSLESS = {  # oscillator_budget.json with gamma = 0 and K = 0.1+0.05i, in both modes
    f"lossless-{mode}": {"probe": {"type": "oscillator", "mass": 1.0, "omega0": 1.0, "gamma": 0.0},
                         "back_action": {"type": "constant", "re": 0.1, "im": 0.05}, "mode": mode}
    for mode in ("fixed_SFF", "fixed_effective")
}
# tabulated chi_inv, K and T_eff, in both modes: linear interpolation is exact
# under power-of-two scaling too
TABULATED = {f"tabulated-{mode}": dict(tabulated_effective_config(), mode=mode)
             for mode in ("fixed_SFF", "fixed_effective")}


@pytest.mark.parametrize("lam, mu", [(2.0**40, 2.0**-10), (2.0**-100, 2.0**20), (2.0**7, 2.0**7)])
@pytest.mark.parametrize("name", ["oscillator_budget.json", "si_oscillator.json",
                                  "spin_figure.json", *LOSSLESS, *TABULATED])
def test_tables_are_exactly_unit_covariant(name, lam, mu):
    # power-of-two scales are exact in floating point, so every column is the
    # unscaled one times its dimension factor, bit for bit
    if name in TABULATED:
        raw = TABULATED[name]
    else:
        base = "oscillator_budget.json" if name in LOSSLESS else name
        raw = json.loads((CONFIGS / base).read_text(encoding="utf-8"))
        raw.update(LOSSLESS.get(name, {}))
    base, scaled = run_budget(parse_config(raw)), run_budget(rescaled_config(raw, lam, mu))
    if isinstance(base, BudgetTable):
        factors = {"omega": 1.0, "sigma_opt": lam, "re_s_xf_opt": lam, "im_s_xf_opt": lam,
                   "s_xx_opt": lam / mu, "regime": None}
        assert scaled.meta.transitions == base.meta.transitions
    else:
        factors = {"regime_full": None}
        assert scaled.meta.transitions == tuple(t * (lam * mu) for t in base.meta.transitions)
    for column, want, got in zip(base.COLUMNS, base.columns, scaled.columns):
        factor = factors.get(column, lam * mu)
        assert got == (want if factor is None else [v * factor for v in want]), column


def test_tabulated_chi_inv_whose_im_part_changes_sign():
    # linear interpolation lands near, not on, Im chi_inv = 0 between nodes of
    # opposite sign: that row keeps a huge finite threshold and stays qcrb;
    # only a node with Im chi_inv = 0 exactly is a lossless row (s_thr = inf)
    def config(im):
        probe = {"type": "tabulated", "omega": [0.5, 1.0, 1.5], "re": [1.0, 1.0, 1.0], "im": im}
        return parse_config(osc_config(probe=probe, s_ff=0.5, frequency={
            "start": 0.5, "stop": 1.5, "points": 11, "spacing": "linear"}))

    cfg = config([0.3, -0.2, 0.1])
    assert abs(cfg.probe.chi_inv(0.8).imag) == pytest.approx(5.55e-17, rel=1e-3)
    table = run_budget(cfg)
    omega, s_thr, regime = (table.rows()[3][i] for i in (0, 3, 5))
    assert omega == pytest.approx(0.8) and regime == "qcrb"
    assert s_thr == pytest.approx(9.0e15, rel=1e-2)
    assert all(math.isfinite(v) for v in table.columns[3])
    assert set(table.columns[5]) == {"qcrb"} and table.meta.transitions == ()
    at_node = run_budget(config([0.3, 0.0, 0.1]))
    assert [omega for omega, s_thr in zip(at_node.columns[0], at_node.columns[3])
            if s_thr == math.inf] == [1.0]
    assert set(at_node.columns[5]) == {"qcrb"}

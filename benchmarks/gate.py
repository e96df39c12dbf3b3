"""Output-correctness gate.

Every check is one attempted operation in a Tally; a check that does not
hold is a failed operation.  Checks of the emitted tables set
`incorrect`; a `[FAIL]` line of `qnl verify` is a failed operation but
not an incorrect output, because it is the program correctly reporting a
check that did not hold.

Rows are recomputed from inputs derived here (the closed-form oscillator
response, numpy interpolation of the generated tables) through the scalar
public API, so a sweep, kernel or table-assembly change that moves a row
by more than REL_TOL shows here.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, field

import numpy as np

REL_TOL = 1e-12  # recomputed row against emitted row
SLACK_TOL = 1e-9  # relative uncertainty slack of an emitted triad
SUM_TOL = 1e-9  # sum_noise_psd(triad) against s_sum_opt
SAMPLE_ROWS = 64

CHECK_LINE = re.compile(r"^\[(PASS|FAIL)\] ([\w-]+): measured=(\S+) tol=(\S+)(?: \((.*)\))?$")


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    incorrect: bool = False
    notes: list = field(default_factory=list)

    def check(self, ok: bool, what: str, output: bool = True) -> bool:
        """Record one operation; `output` marks a check of program output."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if output:
                self.incorrect = True
            if len(self.notes) < 20:
                self.notes.append(what)
        return ok


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _close(a: float, b: float, scale: float = 0.0, tol: float = REL_TOL) -> bool:
    if a == b:
        return True
    if not (math.isfinite(a) and math.isfinite(b)):
        return False
    return abs(a - b) <= tol * max(abs(a), abs(b), scale)


# --------------------------------------------------------------- inputs


def _inputs(w, x: float):
    """(chi_inv, K or kernel, budget, temperature) at sweep value x."""
    raw = w.raw
    probe = raw["probe"]
    if probe["type"] == "oscillator":
        omega = raw.get("omega", x)
        m, w0, g = probe["mass"], probe["omega0"], probe["gamma"]
        d = complex(m * (w0**2 - omega**2), -m * g * omega)
    else:
        nodes = probe["omega"]
        d = complex(float(np.interp(x, nodes, probe["re"])), float(np.interp(x, nodes, probe["im"])))
    ba = raw.get("back_action", 0.0)
    if isinstance(ba, dict) and ba["type"] == "tabulated":
        kv = complex(float(np.interp(x, ba["omega"], ba["re"])),
                     float(np.interp(x, ba["omega"], ba["im"])))
    elif isinstance(ba, dict):
        kv = complex(ba.get("re", 0.0), ba.get("im", 0.0))
    else:
        kv = complex(float(ba), 0.0)
    th = raw.get("thermal") or {"type": "zero"}
    if th["type"] == "uniform":
        temp = float(th["temperature"])
    elif th["type"] == "effective":
        temp = float(np.interp(x, th["omega"], th["t_eff"]))
    else:
        temp = 0.0
    return d, kv, temp


def _grid(w) -> np.ndarray:
    """The sweep values the program should emit, from the config alone."""
    raw = w.raw
    if raw["mode"] == "sweep_SFF_at_fixed_omega":
        return w.grid
    f = raw["frequency"]
    if f.get("spacing", "linear") == "log":
        return np.geomspace(f["start"], f["stop"], f["points"])
    return np.linspace(f["start"], f["stop"], f["points"])


# ----------------------------------------------------------------- rows


def _budget_row_ok(qnl, w, row, constants) -> tuple:
    """Recompute one budget row; returns (ok, reason)."""
    raw = w.raw
    hbar = constants.hbar
    omega = row.omega
    d, kv, temp = _inputs(w, omega)
    s = raw["s_ff"]
    if raw["mode"] == "fixed_effective":
        k_used = kv.real
        if raw.get("sigma_zero") or not raw.get("allow_sigma", True):
            rep = qnl.optimize_fixed_eff_backaction_sigma_zero(d, k_used, s, hbar)
        else:
            rep = qnl.optimize_fixed_eff_backaction(d, k_used, s, hbar)
        thr = qnl.threshold_eff(d, k_used, hbar) if d.imag != 0.0 else math.inf
    else:
        k_used = kv
        rep = qnl.optimize_fixed_backaction(
            d, kv, s, allow_sigma=not (raw.get("sigma_zero") or not raw.get("allow_sigma", True)),
            hbar=hbar)
        thr = rep.s_threshold
    thermal = qnl.UniformTemperature(temp) if temp > 0 else qnl.ZeroTemperature()
    s_fdt = qnl.fdt_psd(d, thermal, omega, constants)
    t = rep.optimal_triad
    tri_scale = abs(t.s_xx) + abs(t.s_xf.real) + abs(t.s_xf.imag)
    want = {
        "sql": (hbar * abs(d), 0.0),
        "dql": (hbar * abs(d.imag), 0.0),
        "s_thr": (thr, 0.0),
        "s_sum_opt": (rep.s_sum, 0.0),
        "s_fdt": (s_fdt, 0.0),
        "s_total": (rep.s_sum + s_fdt, 0.0),
        "sigma_opt": (rep.sigma_opt, tri_scale),
        "s_xx_opt": (t.s_xx, 0.0),
        "re_s_xf_opt": (t.s_xf.real, tri_scale),
        "im_s_xf_opt": (t.s_xf.imag, tri_scale),
    }
    for col, (value, scale) in want.items():
        if not _close(getattr(row, col), value, scale):
            return False, f"omega={omega!r} column {col}: {getattr(row, col)!r} vs {value!r}"
    if row.regime != rep.regime.value:
        return False, f"omega={omega!r} regime {row.regime} vs {rep.regime.value}"
    # the emitted triad itself must saturate and reproduce the optimum
    triad = qnl.NoiseTriad(row.s_xx_opt, complex(row.re_s_xf_opt, row.im_s_xf_opt), s)
    slack = qnl.uncertainty_slack(triad, k_used, hbar)
    sig = qnl.sigma(triad, k_used)
    scale = triad.s_xx * triad.s_ff + abs(triad.s_xf) ** 2 + hbar * abs(sig) + hbar * hbar / 4.0
    if abs(slack) > SLACK_TOL * scale:
        return False, f"omega={omega!r} triad slack {slack!r} (scale {scale!r})"
    total = qnl.sum_noise_psd(triad, d, k_used)
    if abs(total - row.s_sum_opt) > SUM_TOL * row.s_sum_opt:
        return False, f"omega={omega!r} sum_noise_psd {total!r} vs s_sum_opt {row.s_sum_opt!r}"
    return True, ""


def _spin_row_ok(qnl, w, row, constants) -> tuple:
    hbar = constants.hbar
    d, _, _ = _inputs(w, row.s_ff)
    s = row.s_ff
    full = qnl.optimize_fixed_eff_backaction(d, 0.0, s, hbar)
    zero = qnl.optimize_fixed_eff_backaction_sigma_zero(d, 0.0, s, hbar)
    matched = qnl.matched_sum_noise(s / hbar, d, hbar=hbar)
    for col, value in (("s_sum_full", full.s_sum), ("s_sum_sigma_zero", zero.s_sum),
                       ("s_sum_spin_matched", matched)):
        if not _close(getattr(row, col), value):
            return False, f"s_ff={s!r} column {col}: {getattr(row, col)!r} vs {value!r}"
    if row.regime_full != full.regime.value:
        return False, f"s_ff={s!r} regime {row.regime_full} vs {full.regime.value}"
    if not (full.s_sum <= zero.s_sum * (1 + REL_TOL) and full.s_sum <= matched * (1 + REL_TOL)):
        return False, f"s_ff={s!r} unconstrained optimum above a constrained one"
    return True, ""


def sample_rows(n: int, w, seed: int) -> list:
    """Seeded sample of row indices, plus both neighbours of each
    predicted transition."""
    rng = np.random.default_rng([seed, 99])
    picks = set(int(i) for i in rng.choice(n, size=min(SAMPLE_ROWS, n), replace=False))
    grid = w.grid
    for t in w.transitions:
        i = int(np.searchsorted(grid, t))
        picks.update(j for j in (i - 1, i) if 0 <= j < n)
    return sorted(picks)


# ---------------------------------------------------------------- table


def check_table(qnl, w, text: str, fmt: str, tally: Tally, reference: str | None = None,
                loaded=None):
    """Gate one emitted table.  `reference` is the library's own emission
    of the same table; `loaded` the result of a timed load_table(text).
    Returns the loaded table, or None when it does not load."""
    table = loaded
    if table is None:
        try:
            table = qnl.load_table(text)
        except qnl.QnlError as exc:
            tally.check(False, f"{w.name}: table does not load: {exc}")
            return None
    re_emit = table.to_json() if fmt == "json" else table.to_csv()
    tally.check(re_emit == text, f"{w.name}: re-emitted {fmt} differs from the emitted bytes")
    if reference is not None:
        tally.check(reference == text,
                    f"{w.name}: CLI table differs from the library's emission")
    points = table.points
    if not tally.check(len(points) == w.rows, f"{w.name}: {len(points)} rows, expected {w.rows}"):
        return table

    spin = w.raw["mode"] == "sweep_SFF_at_fixed_omega"
    constants = qnl.PhysConstants(w.raw.get("hbar", 1.0), w.raw.get("k_boltzmann", 1.0))
    hbar = constants.hbar

    # whole-table checks, vectorized
    x = np.array([p.s_ff if spin else p.omega for p in points])
    tally.check(np.array_equal(x, _grid(w)), f"{w.name}: sweep values differ from the grid")
    if spin:
        regimes = [p.regime_full for p in points]
    else:
        regimes = [p.regime for p in points]
        cols = {c: np.array([getattr(p, c) for p in points])
                for c in ("sql", "dql", "s_sum_opt", "s_fdt", "s_total")}
        tot = cols["s_sum_opt"] + cols["s_fdt"]
        tally.check(bool(np.all(np.abs(cols["s_total"] - tot) <= REL_TOL * np.abs(tot))),
                    f"{w.name}: s_total != s_sum_opt + s_fdt")
        tally.check(bool(np.all(cols["s_sum_opt"] >= cols["dql"] * (1 - REL_TOL))),
                    f"{w.name}: an optimum below the DQL")
        tally.check(bool(np.all(cols["sql"] >= cols["dql"] * (1 - REL_TOL))),
                    f"{w.name}: SQL below the DQL")
        is_dql = np.array([r == "dql" for r in regimes])
        at_floor = cols["s_sum_opt"] <= cols["dql"]
        tally.check(bool(np.array_equal(is_dql, at_floor)),
                    f"{w.name}: regime tag disagrees with s_sum_opt == dql")

    # transitions: count, meta, and position within one grid step
    got = [float(t) for t in table.meta.transitions]
    xs = [x[i] for i in range(1, len(x)) if regimes[i] != regimes[i - 1]]
    ok = len(got) == len(w.transitions) and got == xs
    if ok:
        step = float(np.max(np.diff(x)))
        ok = all(abs(a - b) <= step for a, b in zip(got, w.transitions))
    tally.check(ok, f"{w.name}: transitions {got} vs predicted {w.transitions}")

    # sampled rows through the scalar public API
    row_ok = _spin_row_ok if spin else _budget_row_ok
    for i in sample_rows(len(points), w, w.seed):
        ok, why = row_ok(qnl, w, points[i], constants)
        tally.check(ok, f"{w.name}: row {i}: {why}")
    return table


# --------------------------------------------------------------- verify


def check_verify(stdout: str, returncode: int, expect_checks: int, tally: Tally) -> int:
    """Gate one `qnl verify` run; returns its number of [FAIL] lines."""
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    checks = [CHECK_LINE.match(ln) for ln in lines[:-1]]
    well_formed = (bool(lines) and all(checks) and len(checks) == expect_checks
                   and lines[-1] in ("verification PASSED", "verification FAILED"))
    if not tally.check(well_formed, f"verify output malformed: {lines[-1:]!r}"):
        return 0
    fails = 0
    for m in checks:
        passed = m.group(1) == "PASS"
        fails += not passed
        # golden-match compares emitted tables: a failure there is an
        # incorrect output, the other checks report on the library
        tally.check(passed, f"verify [FAIL] {m.group(2)} measured={m.group(3)} tol={m.group(4)}",
                    output=m.group(2) == "golden-match")
    want_rc = 0 if fails == 0 else 2
    tally.check(lines[-1] == ("verification PASSED" if fails == 0 else "verification FAILED")
                and returncode == want_rc,
                f"verify exit code {returncode} with {fails} failed checks")
    return fails

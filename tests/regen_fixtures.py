"""Rewrite the pinned fixtures from the inputs stored in them.

Usage: PYTHONPATH=src python tests/regen_fixtures.py

Recomputes the outputs of tests/data/oracle_pins.json (each brute_force_min
call from its stored chi_inv, k, s_ff, hbar and refine) and of
tests/data/verify_reports.json (each config's verify report at seed 1), and
prints every entry that moved with its relative change.  Pytest does not
collect this file.
"""

import json
from pathlib import Path

from qnl import OracleConfig, brute_force_min, load_config, verify

DATA = Path(__file__).resolve().parent / "data"
CONFIGS = Path(__file__).resolve().parent.parent / "configs"
OUTPUTS = ("s_sum_min", "s_xx", "s_xf", "s_ff_out", "iterations")


def unhex(pair):
    return complex(float.fromhex(pair[0]), float.fromhex(pair[1]))


def relative_change(was, now) -> float:
    """|now - was| / |was| for float.hex strings or [re, im] pairs of them."""
    was, now = (unhex(v) if isinstance(v, list) else float.fromhex(v) for v in (was, now))
    return abs(now - was) / abs(was)


def pin_outputs(case: dict) -> dict:
    result = brute_force_min(
        unhex(case["chi_inv"]), unhex(case["k"]), float.fromhex(case["s_ff"]),
        OracleConfig(refine=case["refine"]), hbar=float.fromhex(case["hbar"]),
    )
    t, h = result.argmin_triad, float.hex
    return {
        "s_sum_min": h(result.s_sum_min), "s_xx": h(t.s_xx),
        "s_xf": [h(t.s_xf.real), h(t.s_xf.imag)], "s_ff_out": h(t.s_ff),
        "iterations": result.iterations,
    }


def regen_pins(path: Path) -> None:
    cases = json.loads(path.read_text())
    inputs = [{key: v for key, v in case.items() if key not in OUTPUTS + ("feasible_fraction",)}
              for case in cases]
    fresh = [dict(case, **pin_outputs(case)) for case in inputs]
    for old, new in zip(cases, fresh):
        if any(old.get(key) != new[key] for key in OUTPUTS):
            changes = ", ".join(f"{key} {relative_change(old[key], new[key]):.2e}"
                                for key in ("s_sum_min", "s_xx", "s_xf"))
            print(f"{path.name}: {new['label']}: moved by {changes} relative, "
                  f"iterations {old['iterations']} -> {new['iterations']}")
    path.write_text(json.dumps(fresh, indent=1) + "\n")


def regen_reports(path: Path) -> None:
    reports = json.loads(path.read_text())
    fresh = {name: verify(load_config(str(CONFIGS / name)), seed=1).render() for name in reports}
    for name, text in fresh.items():
        for old, new in zip(reports[name].splitlines(), text.splitlines()):
            if old != new:
                was, now = (float(line.split("measured=")[1].split()[0]) for line in (old, new))
                change = abs(now - was) / abs(was) if was else float("inf")
                print(f"{path.name}: {name}: {new.split(':')[0]} moved by {change:.2e} relative "
                      f"({was:.3e} -> {now:.3e})")
    path.write_text(json.dumps(fresh, indent=1) + "\n")


if __name__ == "__main__":
    regen_pins(DATA / "oracle_pins.json")
    regen_reports(DATA / "verify_reports.json")

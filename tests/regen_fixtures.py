"""Rewrite the pinned fixtures from the inputs stored in them, or check them.

Usage: PYTHONPATH=src python tests/regen_fixtures.py [--check]

Recomputes the outputs of tests/data/oracle_pins.json (each brute_force_min
call from its stored chi_inv, k, s_ff, hbar and refine), of
tests/data/verify_reports.json (each config's verify report at seed 1) and of
tests/data/table_digests.json (the sha256 of each table's CSV and JSON text),
and prints every entry that moved, each moved oracle pin with its relative
error against the closed form before and after, every new pin (an entry
that holds only inputs), and each report line that moved, was added or was
removed.  It also recomputes tests/data/optimum_digests.json, the digest of
optimize_fixed_backaction's reports over the seeded draws stored in it, for
each allow_sigma, tests/data/oracle_digest.json, the digest of
_oracle_grid's argmins over the accuracy sets named in it, and
tests/data/table_corpus.json, the outcome of loading each table of the
seeded malformed-table corpus.  Without --check it rewrites the six files;
with --check it writes nothing and exits 1 if any entry moved.  Pytest does
not collect this file.
"""

import hashlib
import json
import re
import sys
from pathlib import Path

from conftest import kernel_draws, optimum_digest, oracle_digest
from qnl import (OracleConfig, QnlError, brute_force_min, load_config,
                 optimize_fixed_backaction, parse_config, run_budget, verify)
from test_table_corpus import corpus_outcomes

DATA = Path(__file__).resolve().parent / "data"
CONFIGS = Path(__file__).resolve().parent.parent / "configs"
OUTPUTS = ("s_sum_min", "s_xx", "s_xf", "s_ff_out", "iterations")
CHECK_LINE = re.compile(r"^\[(PASS|FAIL)\] ([\w-]+): measured=(\S+)")


def unhex(pair):
    return complex(float.fromhex(pair[0]), float.fromhex(pair[1]))


def relative_change(was, now) -> float:
    """|now - was| / |was| for float.hex strings or [re, im] pairs of them."""
    was, now = (unhex(v) if isinstance(v, list) else float.fromhex(v) for v in (was, now))
    return abs(now - was) / abs(was) if was else float("inf") if now else 0.0


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


def regen_pins(cases: list) -> tuple[list, list]:
    inputs = [{key: v for key, v in case.items() if key not in OUTPUTS} for case in cases]
    fresh = [dict(case, **pin_outputs(case)) for case in inputs]
    moved = []
    for old, new in zip(cases, fresh):
        if "s_sum_min" not in old:
            moved.append(f"{new['label']}: new pin, s_sum_min {float.fromhex(new['s_sum_min'])!r}")
        elif any(old[key] != new[key] for key in OUTPUTS):
            changes = ", ".join(f"{key} {relative_change(old[key], new[key]):.2e}"
                                for key in ("s_sum_min", "s_xx", "s_xf"))
            try:
                closed = optimize_fixed_backaction(
                    unhex(new["chi_inv"]), unhex(new["k"]), float.fromhex(new["s_ff"]),
                    hbar=float.fromhex(new["hbar"])).s_sum
            except QnlError as exc:
                errors = f"the closed form raises {type(exc).__name__}"
            else:
                was, now = (abs(float.fromhex(c["s_sum_min"]) - closed) / closed
                            for c in (old, new))
                errors = f"error against the closed form {was:.2e} -> {now:.2e}"
            moved.append(f"{new['label']}: moved by {changes} relative, "
                         f"iterations {old['iterations']} -> {new['iterations']}, {errors}")
    return fresh, moved


def report_lines(text: str) -> dict:
    """A report's lines by key: a check line's check name, any other line its text."""
    return {(m.group(2) if (m := CHECK_LINE.match(line)) else line): line
            for line in text.splitlines()}


def regen_reports(reports: dict) -> tuple[dict, list]:
    fresh = {name: verify(load_config(str(CONFIGS / name)), seed=1).render() for name in reports}
    moved = []
    for name, text in fresh.items():
        old, new = report_lines(reports[name]), report_lines(text)
        for key, line in new.items():
            if key not in old:
                moved.append(f"{name}: added {line!r}")
            elif old[key] != line:  # a check line, as key names a check
                (was_verdict, was), (verdict, now) = (CHECK_LINE.match(x).group(1, 3)
                                                      for x in (old[key], line))
                if was == now:  # the detail or the tolerance changed
                    moved.append(f"{name}: {old[key]!r} -> {line!r}")
                    continue
                was, now = float(was), float(now)
                change = abs(now - was) / abs(was) if was else float("inf")
                flip = f", was {was_verdict}" if was_verdict != verdict else ""
                moved.append(f"{name}: [{verdict}] {key} moved by {change:.2e} relative "
                             f"({was:.3e} -> {now:.3e}{flip})")
        moved += [f"{name}: removed {line!r}" for key, line in old.items() if key not in new]
    return fresh, moved


def regen_digests(pins: dict) -> tuple[dict, list]:
    fresh, moved = {}, []
    for name, pin in pins.items():
        table = run_budget(parse_config(pin["config"]) if "config" in pin else
                           load_config(str(CONFIGS.parent / name)))
        fresh[name] = dict(pin, csv=hashlib.sha256(table.to_csv().encode()).hexdigest(),
                           json=hashlib.sha256(table.to_json().encode()).hexdigest())
        moved += [f"{name}: {fmt} digest moved" for fmt in ("csv", "json")
                  if fresh[name][fmt] != pin[fmt]]
    return fresh, moved


def report_row(report) -> tuple:
    t = report.optimal_triad
    return (report.regime.value, report.s_sum, report.s_threshold, t.s_xx, t.s_xf.real,
            t.s_xf.imag, t.s_ff, report.sigma_opt)


def regen_optimum_digests(pin: dict) -> tuple[dict, list]:
    draws = kernel_draws(pin["n"], pin["seed"])
    fresh = dict(pin, sha256={
        flag: optimum_digest(report_row(optimize_fixed_backaction(d, k, s, allow_sigma=sigma_free))
                             for d, k, s in draws)
        for flag, sigma_free in (("True", True), ("False", False))})
    old = pin.get("sha256", {})
    moved = [f"allow_sigma={flag}: " + ("digest moved" if flag in old else "new digest")
             for flag, digest in fresh["sha256"].items() if digest != old.get(flag)]
    return fresh, moved


def regen_oracle_digest(pin: dict) -> tuple[dict, list]:
    fresh = dict(pin, sha256=oracle_digest(pin["sets"]))
    return fresh, [] if fresh["sha256"] == pin.get("sha256") else [
        "digest moved" if "sha256" in pin else "new digest"]


def regen_corpus(pin: dict) -> tuple[dict, list]:
    fresh = dict(pin, outcomes=corpus_outcomes(pin["tables"], pin["seed"]))
    old = pin.get("outcomes", {})
    moved = [f"{label}: " + (f"{old[label]!r} -> {now!r}" if label in old else "new table")
             for label, now in fresh["outcomes"].items() if old.get(label) != now]
    return fresh, moved + [f"{label}: removed" for label in old if label not in fresh["outcomes"]]


def main(argv: list) -> int:
    check = argv == ["--check"]
    if argv and not check:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    moved_any = False
    for name, regen in (("oracle_pins.json", regen_pins),
                        ("verify_reports.json", regen_reports),
                        ("table_digests.json", regen_digests),
                        ("optimum_digests.json", regen_optimum_digests),
                        ("oracle_digest.json", regen_oracle_digest),
                        ("table_corpus.json", regen_corpus)):
        path = DATA / name
        fresh, moved = regen(json.loads(path.read_text(encoding="utf-8")))
        for line in moved:
            print(f"{name}: {line}")
        moved_any = moved_any or bool(moved)
        if not check:
            path.write_text(json.dumps(fresh, indent=1) + "\n", encoding="utf-8")
    if check and not moved_any:
        print("no entry moved")
    return 1 if check and moved_any else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

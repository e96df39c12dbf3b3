"""Run every workload, collect sets of runs, and compare sets.

    python3 benchmarks/suite.py all [--seconds S] [--seed N] [--trace 0|1] [--workload NAME ...]
        one run of each workload; prints every metric with unit, sample
        count and the correctness verdict
    python3 benchmarks/suite.py collect DIR [--runs 10] [--first-seed 1] [--workload NAME ...]
        runs each workload on --runs seeds and keeps each full result in DIR

Both default to the workloads of BENCHMARK.json; --workload NAME adds any
workload of workloads.py, including the two kept out of BENCHMARK.json.
    python3 benchmarks/suite.py spread DIR
        quartile spread of each end-to-end metric within one set, against
        a third of its bound (the steadiness target) and the bound
    python3 benchmarks/suite.py compare DIR_A DIR_B
        A/A or A/B comparison, metric by metric and workload by workload,
        against the bounds in BENCHMARK.json

A pairing whose spread exceeds its bound in either set is reported as
unresolved; bounds are read from BENCHMARK.json and never widened here.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_one(name: str, seed: int, seconds: float, trace: int, out: Path | None) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if out is not None:
        argv += ["--out", str(out)]
    proc = subprocess.run(argv, cwd=str(ROOT), capture_output=True, text=True, timeout=600)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{name} seed {seed}: exit {proc.returncode}")
    if out is not None:
        with open(out, encoding="utf-8") as fh:
            return json.load(fh)
    return dict(json.loads(proc.stdout.strip().splitlines()[-1]), samples_n={})


def benchmark_workloads() -> list:
    return [w["name"] for w in spec()["workloads"]]


def cmd_all(args) -> int:
    seconds = args.seconds or spec()["run_seconds"]
    for name in args.workload or benchmark_workloads():
        out = ROOT / ".bench_results" / f"all-{name}-{args.seed}.json"
        out.parent.mkdir(exist_ok=True)
        r = run_one(name, args.seed, seconds, args.trace, out)
        print(f"{name}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']} "
              f"fail_ratio={r['failed'] / r['attempted']:.6g}")
        for metric, m in r["metrics"].items():
            print(f"  {metric:28s} {m['value']:>14.6g} {m['unit']:6s} "
                  f"n={r['samples_n'].get(metric, '')}")
    return 0


def cmd_collect(args) -> int:
    d = Path(args.dir)
    d.mkdir(parents=True, exist_ok=True)
    seconds = args.seconds or spec()["run_seconds"]
    names = args.workload or benchmark_workloads()
    for name in names:
        for seed in range(args.first_seed, args.first_seed + args.runs):
            r = run_one(name, seed, seconds, 0, d / f"{name}-{seed}.json")
            print(f"{name} seed {seed}: correct={r['correct']} failed={r['failed']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in r["metrics"].items()),
                  flush=True)
    return 0


def load_set(d: str) -> dict:
    """{workload: {metric: [values in seed order]}}"""
    out: dict = {}
    for path in sorted(Path(d).glob("*.json"), key=lambda p: (p.name.rsplit("-", 1)[0],
                                                                 int(p.stem.rsplit("-", 1)[1]))):
        with open(path, encoding="utf-8") as fh:
            r = json.load(fh)
        if r.get("trace"):
            continue
        for metric, m in r["metrics"].items():
            out.setdefault(r["workload"], {}).setdefault(metric, []).append(m["value"])
    return out


def quartiles(xs: list) -> tuple:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def rel_spread(xs: list) -> float:
    q1, med, q3 = quartiles(xs)
    return (q3 - q1) / med if med else 0.0


def cmd_spread(args) -> int:
    bounds = {m["name"]: m["bound"] for m in spec()["end_to_end"]}
    data = load_set(args.dir)
    worst = 0
    for name, metrics in data.items():
        for metric, xs in metrics.items():
            s = rel_spread(xs)
            b = bounds[metric]
            flag = "ok" if s <= b / 3 else ("above target" if s <= b else "ABOVE BOUND")
            worst = max(worst, 0 if flag == "ok" else 1 if flag == "above target" else 2)
            print(f"{name:17s} {metric:12s} n={len(xs):2d} median={statistics.median(xs):<12.6g} "
                  f"spread={s:7.2%} bound={b:g} {flag}")
    return 1 if worst == 2 else 0


def cmd_compare(args) -> int:
    e2e = {m["name"]: m for m in spec()["end_to_end"]}
    a, b = load_set(args.a), load_set(args.b)
    regressed = False
    print(f"{'workload':17s} {'metric':12s} {'A median [q1, q3]':34s} {'B median [q1, q3]':34s} "
          f"{'change':>8s} verdict")
    for name in sorted(set(a) & set(b)):
        for metric, m in e2e.items():
            xa, xb = a[name].get(metric), b[name].get(metric)
            if not xa or not xb:
                continue
            qa, qb = quartiles(xa), quartiles(xb)
            change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            worse = change if m["better"] == "lower" else -change
            sa, sb = rel_spread(xa), rel_spread(xb)
            pairs = list(zip(xa, xb))
            wins = sum((y < x) if m["better"] == "lower" else (y > x) for x, y in pairs)
            if worse > m["bound"] and not (sa > m["bound"] or sb > m["bound"]):
                verdict = "REGRESSED"
                regressed = True
            elif sa > m["bound"] or sb > m["bound"]:
                verdict = f"unresolved (spread {max(sa, sb):.1%} > bound {m['bound']:g})"
            elif wins >= 0.9 * len(pairs) and abs(qb[1] - qa[1]) > qa[2] - qa[0]:
                verdict = f"improved ({wins}/{len(pairs)} pairs)"
            else:
                verdict = f"within bound {m['bound']:g}"
            print(f"{name:17s} {metric:12s} "
                  f"{qa[1]:<10.5g} [{qa[0]:.5g}, {qa[2]:.5g}]".ljust(65)
                  + f"{qb[1]:<10.5g} [{qb[0]:.5g}, {qb[2]:.5g}]".ljust(35)
                  + f"{change:+8.2%} {verdict}")
    return 1 if regressed else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="command", required=True)
    s = sub.add_parser("all")
    s.add_argument("--seconds", type=float)
    s.add_argument("--seed", type=int, default=1)
    s.add_argument("--trace", type=int, choices=(0, 1), default=0)
    s.add_argument("--workload", action="append", choices=workloads.NAMES)
    s = sub.add_parser("collect")
    s.add_argument("dir")
    s.add_argument("--runs", type=int, default=10)
    s.add_argument("--first-seed", type=int, default=1)
    s.add_argument("--seconds", type=float)
    s.add_argument("--workload", action="append", choices=workloads.NAMES)
    s = sub.add_parser("spread")
    s.add_argument("dir")
    s = sub.add_parser("compare")
    s.add_argument("a")
    s.add_argument("b")
    args = p.parse_args(argv)
    return {"all": cmd_all, "collect": cmd_collect, "spread": cmd_spread,
            "compare": cmd_compare}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())

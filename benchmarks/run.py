"""Benchmark for qnl: one workload per run, closed loop, one client.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out PATH]

Run from the root of a source checkout; the program is imported from
./src and its CLI run as `python -m qnl.cli` with PYTHONPATH=./src.

With --trace 0 the run prints the end-to-end metrics of BENCHMARK.json,
with --trace 1 the per-layer metrics from a separate traced run (see
tracing.py).  Either way it checks every output (gate.py) and prints, as its
last line, one JSON object with the keys correct, attempted, failed and
metrics.  Lines before it give each metric with its sample count, the
correctness verdict and the run's provenance.  --out also writes all of
it, with the raw samples, to a JSON file.

Exit codes: 0 on a completed run, 2 when the checkout has no qnl sources
or the inputs cannot be generated, 1 on any other error.
"""

from __future__ import annotations

import os

# One thread per numeric library, here and in every child: the load shape
# is one client on a 2-core machine.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import compileall
import json
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import workloads  # noqa: E402

LOAD_SECONDS = 0.3  # least time spent on load samples in each round
CALL_SECONDS = 0.8  # least time spent on library-call samples in each round
CHILD_TIMEOUT_S = 150.0
MIN_ROUNDS = 3


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env.pop("QNL_LOG", None)
    return env


def run_child(argv: list, cwd: Path, tag: str) -> dict:
    """Run one child to completion; wall time from spawn to reap, and the
    child's own peak RSS from wait4."""
    out_path = cwd / f"{tag}.stdout"
    err_path = cwd / f"{tag}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=str(ROOT))
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "rc": proc.returncode,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "stdout": out_path.read_text(encoding="utf-8", errors="replace"),
        "stderr": err_path.read_text(encoding="utf-8", errors="replace"),
    }


def cli_argv(args: list) -> list:
    return [sys.executable, "-m", "qnl.cli"] + list(args)


def median(xs: list) -> float:
    return float(statistics.median(xs))


def lower_quartile(xs: list) -> float:
    return float(statistics.quantiles(xs, n=4)[0]) if len(xs) > 1 else float(xs[0])


def upper_quartile(xs: list) -> float:
    return float(statistics.quantiles(xs, n=4)[2]) if len(xs) > 1 else float(xs[0])


# ----------------------------------------------------------- provenance


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    if not (ROOT / ".git").exists():  # git would search the parent directories
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(qnl) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "qnl": qnl.__version__,
        "git_commit": git_commit(),
        "loadavg_start": list(os.getloadavg()),
    }


def warn_load(when: str) -> list:
    load = os.getloadavg()[0]
    nproc = os.cpu_count() or 1
    if load > nproc:
        print(f"warning: load average {load:.2f} exceeds nproc {nproc} at {when}; "
              "the machine is shared and timings may be disturbed", file=sys.stderr)
    return list(os.getloadavg())


# ------------------------------------------------------------ workloads


class Runner:
    """The in-process library calls of one generated workload."""

    def __init__(self, qnl, w):
        self.qnl = qnl
        self.w = w
        self.cfg = qnl.load_config(w.config)

    def library_call(self):
        """The warm library call that items_per_s times."""
        qnl, w = self.qnl, self.w
        if w.name == "verify_oracle":
            return [qnl.verify(self.cfg, seed=s, samples=n, golden_path=w.golden, jobs=1)
                    for s, n in w.verify_calls]
        if w.name == "spin_figure":
            return qnl.run_spin_figure(self.cfg, jobs=w.jobs)
        return qnl.run_budget(self.cfg, jobs=w.jobs)

    def emit(self, table) -> str:
        fmt = self.w.commands[0].fmt
        return table.to_json() if fmt == "json" else table.to_csv()

    def table_text(self) -> str:
        """Text of the table load_s reads: the workload's emitted table."""
        path = self.w.golden if self.w.name == "verify_oracle" else self.w.commands[0].output
        with open(path, encoding="utf-8") as fh:
            return fh.read()

    def in_process_repetition(self):
        """Parse, compute and emit in this process: what the CLI does once
        its interpreter and imports are up.  Returns the emitted text."""
        qnl, w = self.qnl, self.w
        if w.name == "verify_oracle":
            for cmd, (s, n) in zip(w.commands, w.verify_calls):
                qnl.verify(qnl.load_config(cmd.config), seed=s, samples=n,
                           golden_path=w.golden, jobs=1).render()
            qnl.verify(qnl.load_config(w.commands[-1].config), seed=w.verify_calls[0][0],
                       samples=workloads.SI_SAMPLES, jobs=1).render()
            return None
        cfg = qnl.load_config(w.config)
        table = (qnl.run_spin_figure(cfg, jobs=w.jobs) if w.name == "spin_figure"
                 else qnl.run_budget(cfg, jobs=w.jobs))
        return self.emit(table)


def prepare(qnl, w) -> None:
    """Workload set-up that is not the program's own: the golden table
    verify compares against is emitted here, through the library."""
    if w.golden:
        table = qnl.run_budget(qnl.load_config(w.config))
        with open(w.golden, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(table.to_csv())


def measure_setup(w, work: Path, tag: str) -> float:
    """One cold start: a fresh interpreter imports qnl and loads the config."""
    code = "import sys, qnl; qnl.load_config(sys.argv[1])"
    r = run_child([sys.executable, "-c", code, w.config], work, tag)
    if r["rc"] != 0:
        raise RuntimeError(f"set-up child failed: {r['stderr'][-500:]}")
    return r["wall_s"]


class CommandLog:
    """The workload's CLI commands, run once per round.

    The first round's outputs are gated; every later round must reproduce
    them exactly.  That is one check per run, so `attempted` and `failed`
    do not depend on how many rounds fit in the run."""

    def __init__(self, w, work: Path):
        self.w = w
        self.work = work
        self.first = None
        self.same = True

    def run(self, tag: str) -> tuple:
        """One round; returns (wall seconds, peak RSS of its children)."""
        wall = rss = 0.0
        outs = []
        for j, cmd in enumerate(self.w.commands):
            r = run_child(cli_argv(cmd.args), self.work, f"{tag}-{j}")
            wall += r["wall_s"]
            rss = max(rss, r["rss_mb"])
            digest = None
            if cmd.output is not None:
                try:
                    with open(cmd.output, encoding="utf-8") as fh:
                        digest = gate.sha256(fh.read())
                except OSError:
                    pass
            outs.append((r["rc"], r["stdout"], digest, r["stderr"]))
        if self.first is None:
            self.first = outs
        elif [o[:3] for o in outs] != [o[:3] for o in self.first]:
            self.same = False
        return wall, rss

    def gate(self, tally) -> list:
        """Gate the first round; returns the sha256 of each emitted table."""
        for cmd, (rc, out, digest, err) in zip(self.w.commands, self.first):
            if cmd.output is None:
                gate.check_verify(out, rc, cmd.expect_checks, tally)
            else:
                tally.check(rc == 0 and digest is not None,
                            f"{cmd.args[0]} exit code {rc}, table "
                            f"{'written' if digest else 'missing'}: {err[-300:]}")
        tally.check(self.same, f"{self.w.name}: CLI outputs differ between rounds")
        return [o[2] for o in self.first if o[2] is not None]


def end_to_end(qnl, w, work: Path, seconds: float, tally) -> tuple:
    runner = Runner(qnl, w)
    log = CommandLog(w, work)
    samples = {"setup_s": [], "wall_s": [], "items_per_s": [], "load_s": [], "peak_rss_mb": []}

    # warm-up: caches, lazy imports and allocator pools fill before timing
    runner.library_call()

    t_end = time.perf_counter() + seconds
    rounds = 0
    last = 0.0
    while rounds < MIN_ROUNDS or time.perf_counter() + last <= t_end:
        t_round = time.perf_counter()
        samples["setup_s"].append(measure_setup(w, work, f"setup{rounds}"))
        wall, rss = log.run(f"r{rounds}")
        samples["wall_s"].append(wall)
        samples["peak_rss_mb"].append(rss)

        t_call = time.perf_counter() + CALL_SECONDS
        while True:
            t0 = time.perf_counter()
            result = runner.library_call()
            samples["items_per_s"].append(w.items / (time.perf_counter() - t0))
            if time.perf_counter() >= t_call:
                break

        text = runner.table_text()
        if rounds == 0:
            qnl.load_table(text)  # warm-up
        t_load = time.perf_counter() + LOAD_SECONDS
        while True:
            t0 = time.perf_counter()
            loaded = qnl.load_table(text)
            samples["load_s"].append(time.perf_counter() - t0)
            if time.perf_counter() >= t_load:
                break
        rounds += 1
        last = time.perf_counter() - t_round

    record = {"rounds": rounds, "sha256": log.gate(tally)}
    if w.name == "verify_oracle":
        gate.check_table(qnl, w, text, "csv", tally, loaded=loaded)
    else:
        gate.check_table(qnl, w, text, w.commands[0].fmt, tally, reference=runner.emit(result),
                         loaded=loaded)
    return samples, record


# How each metric is reduced over a run's samples.  Every kind of sample
# is taken once per round, so each spans the whole run.  A shared 2-core
# VM slows down in phases: sometimes a few slow seconds in a run, sometimes
# a slow run with a few fast seconds.  The lower quartile of the
# times (upper quartile of the rates) was the steadiest from run to run
# under both, for the CLI and the library call; loads are short and many,
# and their best sample was the steadiest.  setup_s is the median of its
# cold starts.
REDUCE = {"setup_s": median, "wall_s": lower_quartile, "items_per_s": upper_quartile,
          "load_s": min, "peak_rss_mb": median}
UNITS = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s", "load_s": "s", "peak_rss_mb": "MB"}


def summarize(samples: dict, tally) -> dict:
    """{name: (value, unit, sample count, median)}"""
    metrics = {}
    for name, unit in UNITS.items():
        xs = samples[name]
        metrics[name] = (float(REDUCE[name](xs)), unit, len(xs), median(xs))
    ratio = 1.0 - tally.failed / tally.attempted
    metrics["pass_ratio"] = (ratio, "1", tally.attempted, ratio)
    return metrics


# ----------------------------------------------------------------- main


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="also write the full result, with raw samples, here")
    p.add_argument("--spans", help="with --trace 1, write every span here as CSV")
    return p.parse_args(argv)


def import_qnl():
    if not (SRC / "qnl" / "__init__.py").is_file():
        raise FileNotFoundError(f"no qnl sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import qnl

    if Path(qnl.__file__).resolve().parent != (SRC / "qnl").resolve():
        raise ImportError(f"imported qnl from {qnl.__file__}, not from {SRC}")
    return qnl


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        qnl = import_qnl()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # the build step: byte-compile once so no timed child compiles
    compileall.compile_dir(str(SRC), quiet=1)

    prov = provenance(qnl)
    warn_load("start")
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=False)
    try:
        try:
            w = workloads.generate(args.workload, args.seed, str(work))
            workloads.check_generated(w)
        except (RuntimeError, ValueError) as exc:
            print(f"error: cannot generate inputs: {exc}", file=sys.stderr)
            return 2
        prepare(qnl, w)
        tally = gate.Tally()
        if args.trace:
            import tracing

            metrics, raw, tracer = tracing.traced_run(qnl, w, Runner(qnl, w), work, args.seconds,
                                                      tally, run_child, CommandLog)
            if args.spans:
                tracer.write(args.spans)
        else:
            samples, raw = end_to_end(qnl, w, work, args.seconds, tally)
            raw["samples"] = samples
            metrics = summarize(samples, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass
    prov["loadavg_end"] = warn_load("end")

    correct = not tally.incorrect
    for name, (value, unit, n, med) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit} (n={n}, median {med:.6g})")
    print(f"{args.workload} correct={correct} attempted={tally.attempted} failed={tally.failed}"
          f" fail_ratio={tally.failed / tally.attempted:.6g}")
    for note in tally.notes:
        print(f"{args.workload} failure: {note}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()},
    }
    if args.out:
        full = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                    trace=args.trace, samples_n={k: v[2] for k, v in metrics.items()},
                    notes=tally.notes, provenance=prov, raw=raw)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(full, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

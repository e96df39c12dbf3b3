"""Traced run: per-layer numbers from wrappers around qnl's public functions.

The wrappers are installed from outside, by replacing the public
functions and methods in every qnl module that holds them, and removed
again afterwards; nothing under src/ knows about them.  Each call records a
span (name, start, end, parent span, run id) in memory; counts are
recorded at the same wrappers.  A span opened on a worker thread with no
open span of its own takes the innermost open span of the main thread as
its parent, so the thread-pool sweep nests under the call that started it.

A layer's self time is its spans' duration minus the part of each span
that its child spans cover (see self_times).  The end-to-end metrics never
come from here: run.py measures them in untraced runs.
"""

from __future__ import annotations

import functools
import importlib
import re
import statistics
import sys
import threading
import time
from array import array
from collections import Counter
from pathlib import Path

import gate

# (span name, module or class path under qnl, attribute)
FUNCTION_TARGETS = (
    ("budget.parse_config", "budget", "parse_config"),
    ("budget.sweep", "budget", "run_budget"),
    ("budget.sweep", "budget", "run_spin_figure"),
    ("budget.verify", "budget", "verify"),
    ("spectra.fdt_psd", "spectra", "fdt_psd"),
    ("optimize.opt", "optimize", "optimize_fixed_backaction"),
    ("optimize.opt", "optimize", "optimize_fixed_eff_backaction"),
    ("optimize.opt", "optimize", "optimize_fixed_eff_backaction_sigma_zero"),
    ("optimize.probe", "optimize", "phase_transition_probe"),
    ("meter.algebra", "meter", "sum_noise_psd"),
    ("meter.algebra", "meter", "uncertainty_slack"),
    ("meter.algebra", "meter", "sigma"),
    ("meter.algebra", "meter", "gauge_transform"),
    ("meter.algebra", "meter", "commutator_check"),
    ("oracle.brute_force", "oracle", "brute_force_min"),
    ("oracle.sampler", "oracle", "random_saturating_triad"),
    ("spin.call", "spin", "matched_sum_noise"),
    ("spin.call", "spin", "spin_triad"),
    ("spin.call", "spin", "optimal_spin_response"),
    ("tables.load", "tables", "load_table"),
)
METHOD_TARGETS = (
    ("spectra.chi_inv", "DampedOscillator", "chi_inv"),
    ("spectra.chi_inv", "FreeMass", "chi_inv"),
    ("spectra.chi_inv", "TabulatedSusceptibility", "chi_inv"),
    ("spectra.table_interp", "ComplexTable", "__call__"),
    ("meter.triad", "NoiseTriad", "__post_init__"),
    ("tables.row", "BudgetPoint", "__post_init__"),
    ("tables.row", "SpinFigurePoint", "__post_init__"),
    ("tables.emit", "BudgetTable", "to_csv"),
    ("tables.emit", "BudgetTable", "to_json"),
    ("tables.emit", "SpinFigureTable", "to_csv"),
    ("tables.emit", "SpinFigureTable", "to_json"),
)
MODULES = ("budget", "cli", "meter", "optimize", "oracle", "spectra", "spin", "tables")


class Tracer:
    """In-memory span store; one run id per traced repetition."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("i")
        self.run = array("i")
        self.run_id = 0
        self.counts: Counter = Counter()
        self.oracle_calls: list = []  # (run id, args, kwargs, result)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif stack is not self._main_stack and self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = -1
        with self._lock:
            nid = self._ids.get(name)
            if nid is None:
                nid = self._ids[name] = len(self.names)
                self.names.append(name)
            idx = len(self.start)
            self.parent.append(parent)
            self.name.append(nid)
            self.run.append(self.run_id)
            self.end.append(0.0)
            self.start.append(time.perf_counter())
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack().pop()

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[(self.run_id, key)] += n

    def wrap(self, fn, name: str, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("run,span,parent,name,start,end\n")
            for i in range(len(self.start)):
                fh.write(f"{self.run[i]},{i},{self.parent[i]},{self.names[self.name[i]]},"
                         f"{self.start[i]!r},{self.end[i]!r}\n")


def self_times(start, end, parent) -> list:
    """Self time of each span: its duration minus the union of its
    children's intervals, each clipped to the parent.  Children of one
    parent may overlap (worker threads) or outlive it."""
    n = len(start)
    covered = [0.0] * n
    order = sorted((p, s, i) for i, (p, s) in enumerate(zip(parent, start)) if p >= 0)
    cur_parent, cur_end = -1, 0.0
    for p, s, i in order:
        p_end = end[p]
        if p != cur_parent:
            cur_parent, cur_end = p, start[p]
        lo = max(s, cur_end)
        hi = min(end[i], p_end)
        if hi > lo:
            covered[p] += hi - lo
        cur_end = max(cur_end, min(end[i], p_end))
    return [end[i] - start[i] - covered[i] for i in range(n)]


def install(qnl, tracer: Tracer):
    """Wrap every target in every qnl module that holds it; returns the
    list of (owner, attribute, original) to restore."""
    modules = [qnl] + [importlib.import_module(f"qnl.{m}") for m in MODULES]
    undo = []

    def after_opt(args, kwargs, result):
        tracer.count("regime." + result.regime.value)

    def after_oracle(args, kwargs, result):
        with tracer._lock:
            tracer.oracle_calls.append((tracer.run_id, args, kwargs, result))
        tracer.count("oracle.nm_iterations", result.iterations)

    def after_sweep(args, kwargs, result):
        tracer.count("budget.points", len(result.points))

    def after_emit(args, kwargs, result):
        tracer.count("tables.rows", len(args[0].points))
        tracer.count("tables.bytes", len(result.encode()))

    afters = {"optimize.opt": after_opt, "oracle.brute_force": after_oracle,
              "budget.sweep": after_sweep, "tables.emit": after_emit}
    for span, mod, attr in FUNCTION_TARGETS:
        original = getattr(getattr(qnl, mod), attr)
        wrapped = tracer.wrap(original, span, afters.get(span))
        for m in modules:
            if getattr(m, attr, None) is original:
                undo.append((m, attr, original))
                setattr(m, attr, wrapped)
    for span, cls_name, attr in METHOD_TARGETS:
        cls = getattr(qnl, cls_name)
        original = cls.__dict__[attr]
        undo.append((cls, attr, original))
        setattr(cls, attr, tracer.wrap(original, span, afters.get(span)))
    return undo


def uninstall(undo) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


# --------------------------------------------------------------- import


IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s+(.*)$")


def import_times(run_child, work: Path, reps: int = 3) -> dict:
    """Cumulative import time of qnl and of scipy.optimize, from
    `python -X importtime -c "import qnl"`, median over reps."""
    qnl_s, scipy_s = [], []
    for i in range(reps):
        r = run_child([sys.executable, "-X", "importtime", "-c", "import qnl"], work,
                      f"importtime{i}")
        cumulative = {}
        for line in r["stderr"].splitlines():
            m = IMPORTTIME.match(line)
            if m:
                cumulative[m.group(3).strip()] = int(m.group(2)) * 1e-6
        qnl_s.append(cumulative.get("qnl", 0.0))
        scipy_s.append(cumulative.get("scipy.optimize", 0.0))
    return {"import.qnl_s": statistics.median(qnl_s),
            "import.scipy_optimize_s": statistics.median(scipy_s)}


# ------------------------------------------------------------- the run


PER_LAYER_UNITS = {
    "import.qnl_s": "s", "import.scipy_optimize_s": "s",
    "budget.parse_config_s": "s", "budget.sweep_self_s": "s", "budget.verify_self_s": "s",
    "budget.points": "count",
    "spectra.chi_inv_calls": "count", "spectra.chi_inv_self_s": "s",
    "spectra.table_interp_calls": "count", "spectra.table_interp_self_s": "s",
    "spectra.fdt_psd_self_s": "s",
    "optimize.calls": "count", "optimize.self_s": "s", "optimize.us_per_call": "us",
    "optimize.dql_rows": "count", "optimize.qcrb_rows": "count",
    "meter.triads": "count", "meter.self_s": "s",
    "oracle.calls": "count", "oracle.self_s": "s", "oracle.ms_per_call": "ms",
    "oracle.coarse_ms_per_call": "ms", "oracle.nm_iterations": "count",
    "oracle.max_rel_err": "1",
    "spin.calls": "count", "spin.self_s": "s",
    "tables.rows": "count", "tables.bytes": "B", "tables.row_objects": "count",
    "tables.emit_s": "s", "tables.load_s": "s",
    "cli.overhead_s": "s", "cli.jobs": "count",
    "trace.overhead_ratio": "1",
}


def layer_metrics(tracer: Tracer, run_id: int) -> dict:
    """Per-layer numbers of one traced repetition."""
    sel = [i for i in range(len(tracer.run)) if tracer.run[i] == run_id]
    pos = {i: k for k, i in enumerate(sel)}
    start = [tracer.start[i] for i in sel]
    end = [tracer.end[i] for i in sel]
    parent = [pos.get(tracer.parent[i], -1) for i in sel]
    names = [tracer.names[tracer.name[i]] for i in sel]
    selfs = self_times(start, end, parent)
    self_by, total_by, calls_by = Counter(), Counter(), Counter()
    for nm, st, s, e in zip(names, selfs, start, end):
        self_by[nm] += st
        total_by[nm] += e - s
        calls_by[nm] += 1

    def layer_self(prefix):
        return sum(v for k, v in self_by.items() if k.startswith(prefix + "."))

    def counted(key):
        return tracer.counts.get((run_id, key), 0)

    opt_calls = calls_by["optimize.opt"]
    oracle_calls = calls_by["oracle.brute_force"]
    return {
        "budget.parse_config_s": self_by["budget.parse_config"],
        "budget.sweep_self_s": self_by["budget.sweep"],
        "budget.verify_self_s": self_by["budget.verify"],
        "budget.points": counted("budget.points"),
        "spectra.chi_inv_calls": calls_by["spectra.chi_inv"],
        "spectra.chi_inv_self_s": self_by["spectra.chi_inv"],
        "spectra.table_interp_calls": calls_by["spectra.table_interp"],
        "spectra.table_interp_self_s": self_by["spectra.table_interp"],
        "spectra.fdt_psd_self_s": self_by["spectra.fdt_psd"],
        "optimize.calls": opt_calls,
        "optimize.self_s": layer_self("optimize"),
        "optimize.us_per_call": 1e6 * layer_self("optimize") / opt_calls if opt_calls else 0.0,
        "optimize.dql_rows": counted("regime.dql"),
        "optimize.qcrb_rows": counted("regime.qcrb"),
        "meter.triads": calls_by["meter.triad"],
        "meter.self_s": layer_self("meter"),
        "oracle.calls": oracle_calls,
        "oracle.self_s": layer_self("oracle"),
        "oracle.ms_per_call": (1e3 * total_by["oracle.brute_force"] / oracle_calls
                               if oracle_calls else 0.0),
        "oracle.nm_iterations": counted("oracle.nm_iterations"),
        "spin.calls": calls_by["spin.call"],
        "spin.self_s": layer_self("spin"),
        "tables.rows": counted("tables.rows"),
        "tables.bytes": counted("tables.bytes"),
        "tables.row_objects": calls_by["tables.row"],
        "tables.emit_s": total_by["tables.emit"],
        "tables.load_s": total_by["tables.load"],
    }


def oracle_checks(qnl, tracer: Tracer, run_id: int) -> dict:
    """Coarse-scan cost and closed-form agreement of the oracle calls one
    traced repetition made, replayed untraced."""
    calls = [c[1:] for c in tracer.oracle_calls if c[0] == run_id]
    if not calls:
        return {"oracle.coarse_ms_per_call": 0.0, "oracle.max_rel_err": 0.0}
    coarse = qnl.OracleConfig(refine=False)
    t0 = time.perf_counter()
    for args, kwargs, _ in calls:
        qnl.brute_force_min(*args[:3], coarse, **{k: v for k, v in kwargs.items() if k == "hbar"})
    coarse_ms = 1e3 * (time.perf_counter() - t0) / len(calls)
    worst = 0.0
    for args, kwargs, result in calls:
        hbar = kwargs.get("hbar", args[4] if len(args) > 4 else 1.0)
        closed = qnl.optimize_fixed_backaction(args[0], args[1], args[2], hbar=hbar).s_sum
        worst = max(worst, abs(result.s_sum_min - closed) / closed)
    return {"oracle.coarse_ms_per_call": coarse_ms, "oracle.max_rel_err": worst}


def traced_run(qnl, w, runner, work: Path, seconds: float, tally, run_child, command_log):
    """Closed loop of rounds [CLI untraced, repetition untraced, repetition
    traced] for about `seconds`; per-layer metrics are medians over the
    traced repetitions."""
    imports = import_times(run_child, work)
    text_fmt = None if w.name == "verify_oracle" else w.commands[0].fmt

    def repetition():
        t0 = time.perf_counter()
        text = runner.in_process_repetition()
        t1 = time.perf_counter()
        loaded = qnl.load_table(text) if text is not None else None
        return t1 - t0, time.perf_counter() - t0, text, loaded

    repetition()  # warm-up
    tracer = Tracer()
    log = command_log(w, work)
    cli_walls, untraced_pce, untraced_total, traced_total, per_rep = [], [], [], [], []
    t_end = time.perf_counter() + seconds
    rounds = 0
    last = 0.0
    text = None
    while rounds < 1 or time.perf_counter() + last <= t_end:
        t_round = time.perf_counter()
        wall, _ = log.run(f"t{rounds}")
        cli_walls.append(wall)
        pce, total, _, _ = repetition()
        untraced_pce.append(pce)
        untraced_total.append(total)

        tracer.run_id = rounds
        undo = install(qnl, tracer)
        try:
            _, total, text, _ = repetition()
        finally:
            uninstall(undo)
        traced_total.append(total)
        per_rep.append(layer_metrics(tracer, rounds))
        rounds += 1
        last = time.perf_counter() - t_round

    metrics = {}
    for key in per_rep[0]:
        metrics[key] = statistics.median(r[key] for r in per_rep)
    metrics.update(oracle_checks(qnl, tracer, rounds - 1))
    metrics.update(imports)
    metrics["cli.overhead_s"] = statistics.median(cli_walls) - statistics.median(untraced_pce)
    metrics["cli.jobs"] = w.jobs
    metrics["trace.overhead_ratio"] = (statistics.median(traced_total)
                                       / statistics.median(untraced_total))

    sha = log.gate(tally)
    if text_fmt is None:
        with open(w.golden, encoding="utf-8") as fh:
            gate.check_table(qnl, w, fh.read(), "csv", tally)
    else:
        with open(w.commands[0].output, encoding="utf-8") as fh:
            gate.check_table(qnl, w, fh.read(), text_fmt, tally, reference=text)
    raw = {"rounds": rounds, "per_rep": per_rep, "cli_walls": cli_walls,
           "untraced_total": untraced_total, "traced_total": traced_total, "sha256": sha}
    out = {k: (metrics[k], unit, rounds, metrics[k]) for k, unit in PER_LAYER_UNITS.items()}
    return out, raw, tracer

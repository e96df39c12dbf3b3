"""Self-tests of the benchmark: the gate catches corrupted output, the
verify parser counts failures, and the self-time arithmetic is right.

    python3 benchmarks/selftest.py

Named so that the repository's pytest run does not collect it: these test
the benchmark, not qnl.
"""

from __future__ import annotations

import os
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gate  # noqa: E402
import qnl  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORK = HERE.parent / ".bench_work"  # scratch space inside the checkout
SMALL = {"ANALYTIC_POINTS": 2001, "TABULATED_NODES": 200, "TABULATED_POINTS": 101,
         "SPIN_POINTS": 401}


class SelfTimes(unittest.TestCase):
    def test_nested(self):
        # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9]
        start = [0.0, 1.0, 2.0, 5.0]
        end = [10.0, 4.0, 3.0, 9.0]
        parent = [-1, 0, 1, 0]
        self.assertEqual(tracing.self_times(start, end, parent), [3.0, 2.0, 1.0, 4.0])

    def test_overlapping_and_outliving_children(self):
        # worker-thread children overlap each other and one outlives the parent
        start = [0.0, 1.0, 2.0, 4.0, 20.0]
        end = [10.0, 3.0, 5.0, 12.0, 21.0]
        parent = [-1, 0, 0, 0, -1]
        self.assertEqual(tracing.self_times(start, end, parent), [1.0, 2.0, 3.0, 8.0, 1.0])

    def test_tracer_records_nesting_and_restores(self):
        original = qnl.budget.optimize_fixed_backaction
        tracer = tracing.Tracer()
        undo = tracing.install(qnl, tracer)
        try:
            self.assertIsNot(qnl.budget.optimize_fixed_backaction, original)
            qnl.optimize_fixed_backaction(-0.2j, 0.1 + 0.02j, 0.5)
        finally:
            tracing.uninstall(undo)
        self.assertIs(qnl.budget.optimize_fixed_backaction, original)
        m = tracing.layer_metrics(tracer, 0)
        self.assertEqual(m["optimize.calls"], 1)
        self.assertEqual(m["meter.triads"], 1)  # the optimal triad, nested in the call
        self.assertEqual(m["optimize.dql_rows"], 1)
        names = [tracer.names[i] for i in tracer.name]
        triad = names.index("meter.triad")
        self.assertEqual(names[tracer.parent[triad]], "optimize.opt")


class Gate(unittest.TestCase):
    def setUp(self):
        self.saved = {k: getattr(workloads, k) for k in SMALL}
        for k, v in SMALL.items():
            setattr(workloads, k, v)
        WORK.mkdir(exist_ok=True)
        self.tmp = tempfile.TemporaryDirectory(dir=WORK)

    def tearDown(self):
        for k, v in self.saved.items():
            setattr(workloads, k, v)
        self.tmp.cleanup()

    def emitted(self, name: str, seed: int = 5):
        w = workloads.generate(name, seed, self.tmp.name)
        workloads.check_generated(w)
        cfg = qnl.load_config(w.config)
        fmt = "csv" if name == "verify_oracle" else w.commands[0].fmt
        table = qnl.run_spin_figure(cfg) if name == "spin_figure" else qnl.run_budget(cfg)
        return w, (table.to_json() if fmt == "json" else table.to_csv()), fmt

    def gate(self, w, text, fmt, reference=None) -> gate.Tally:
        tally = gate.Tally()
        gate.check_table(qnl, w, text, fmt, tally, reference=reference)
        return tally

    def test_clean_tables_pass(self):
        for name in workloads.NAMES:
            w, text, fmt = self.emitted(name)
            tally = self.gate(w, text, fmt, reference=text)
            self.assertEqual((tally.failed, tally.incorrect), (0, False), (name, tally.notes))
            self.assertGreater(tally.attempted, gate.SAMPLE_ROWS)

    @staticmethod
    def _edit_row(text: str, row: int, column: int, edit) -> str:
        lines = text.split("\n")
        data = [i for i, ln in enumerate(lines) if ln and not ln.startswith("#")][1:]
        fields = lines[data[row]].split(",")
        fields[column] = edit(fields[column])
        lines[data[row]] = ",".join(fields)
        return "\n".join(lines)

    def test_flipped_digit_is_caught(self):
        w, text, fmt = self.emitted("budget_analytic")
        unsampled = next(i for i in range(w.rows)
                         if i not in gate.sample_rows(w.rows, w, w.seed))

        def flip_last_digit(field):
            mantissa, _, exp = field.partition("e")
            i = max(k for k, c in enumerate(mantissa) if c.isdigit())
            new = mantissa[:i] + str((int(mantissa[i]) + 1) % 10) + mantissa[i + 1:]
            return new + ("e" + exp if exp else "")

        # a last-digit flip in a row no check recomputes: the byte comparison
        bad = self._edit_row(text, unsampled, 9, flip_last_digit)
        self.assertNotEqual(bad, text)
        tally = self.gate(w, bad, fmt, reference=text)
        self.assertTrue(tally.incorrect)
        self.assertTrue(any("differs from the library" in n for n in tally.notes), tally.notes)

        # a leading-digit flip in a sampled row: the scalar recomputation
        sampled = gate.sample_rows(w.rows, w, w.seed)[0]
        bad = self._edit_row(text, sampled, 9, lambda f: str((int(f[0]) + 1) % 10) + f[1:])
        tally = self.gate(w, bad, fmt)
        self.assertTrue(tally.incorrect)
        self.assertTrue(any(f"row {sampled}:" in n for n in tally.notes), tally.notes)

    def test_dropped_row_is_caught(self):
        w, text, fmt = self.emitted("budget_analytic")
        lines = text.split("\n")
        del lines[10]
        tally = self.gate(w, "\n".join(lines), fmt)
        self.assertTrue(tally.incorrect)
        self.assertTrue(any("rows, expected" in n for n in tally.notes), tally.notes)

    def test_wrong_optimum_is_caught(self):
        # s_sum_opt and s_total moved together, so only the recomputation
        # of the optimum can see it
        w, text, fmt = self.emitted("budget_analytic")
        row = gate.sample_rows(w.rows, w, w.seed)[3]
        bad = self._edit_row(text, row, 4, lambda f: repr(float(f) * 1.001))
        total = float(bad.split("\n")[5 + row].split(",")[4]) + float(
            bad.split("\n")[5 + row].split(",")[6])
        bad = self._edit_row(bad, row, 7, lambda f: repr(total))
        tally = self.gate(w, bad, fmt)
        self.assertTrue(tally.incorrect)
        self.assertTrue(any(f"row {row}:" in n and "s_sum_opt" in n for n in tally.notes),
                        tally.notes)

    def test_wrong_regime_in_spin_table_is_caught(self):
        w, text, fmt = self.emitted("spin_figure")
        bad = text.replace('"regime_full": "qcrb"', '"regime_full": "dql"', 1)
        self.assertNotEqual(bad, text)
        self.assertTrue(self.gate(w, bad, fmt).incorrect)


class VerifyParser(unittest.TestCase):
    PASS = "[PASS] gauge-invariance: measured=1.000e-16 tol=1.000e-12"
    FAIL = "[FAIL] oracle-agreement: measured=9.474e+03 tol=1.000e-03"

    def test_failed_check_counts_but_is_not_incorrect(self):
        tally = gate.Tally()
        out = "\n".join([self.PASS, self.FAIL, "verification FAILED"]) + "\n"
        self.assertEqual(gate.check_verify(out, 2, 2, tally), 1)
        self.assertEqual((tally.attempted, tally.failed, tally.incorrect), (4, 1, False))

    def test_exit_code_must_match(self):
        tally = gate.Tally()
        gate.check_verify("\n".join([self.PASS, "verification PASSED"]), 2, 1, tally)
        self.assertEqual(tally.failed, 1)

    def test_malformed_or_short_output_is_incorrect(self):
        for out in ("", self.PASS + "\nverification PASSED", "garbage\nverification PASSED"):
            tally = gate.Tally()
            gate.check_verify(out, 0, 2, tally)
            self.assertTrue(tally.incorrect, out)

    def test_golden_mismatch_is_incorrect(self):
        tally = gate.Tally()
        out = "[FAIL] golden-match: measured=1.000e+00 tol=0.000e+00 (first differing row 3)\n"
        gate.check_verify(out + "verification FAILED", 2, 1, tally)
        self.assertTrue(tally.incorrect)


class EmptyCheckout(unittest.TestCase):
    def test_exits_nonzero_without_result(self):
        import shutil
        import subprocess

        WORK.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=WORK) as d:
            shutil.copytree(HERE, Path(d) / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload", "spin_figure",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=d, capture_output=True, text=True, timeout=120,
                env=dict(os.environ, PYTHONPATH=""))
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()

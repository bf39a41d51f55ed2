#!/usr/bin/env python3
"""Unit tests for tools/check_quantum_speedup.py (run as CTest
lint.quantum_speedup_unit).

Covers the verdicts of the parallel gate: OK at or above the bound, a
REGRESSION below it, the visible SKIP on a runner with fewer than 4
hardware threads, the visible SKIP on a --smoke report (which times only
threads {1, 2}), and the failure of a gate-mode report that lacks its
4-thread "gates" row.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check_quantum_speedup  # noqa: E402


def report(mode: str = "gate", hardware_threads: int = 4,
           threads: tuple[int, ...] = (1, 2, 4),
           speedup_at_4: float = 3.0) -> dict:
    results = []
    for t in threads:
        speedup = 1.0 if t == 1 else (speedup_at_4 if t == 4 else 1.8)
        results.append({"threads": t, "seconds": 1.0 / speedup,
                        "ops_per_sec": 100.0 * speedup, "speedup": speedup})
    return {
        "bench": "quantum_scaling",
        "schema_version": 3,
        "smoke": mode == "smoke",
        "mode": mode,
        "hardware_threads": hardware_threads,
        "cases": [{"name": "gates", "qubits": 22, "ops": 152,
                   "checksum": "0x4a85abe1baecd844", "results": results}],
    }


class CheckQuantumSpeedupTest(unittest.TestCase):
    def run_main(self, doc: dict) -> tuple[int, str]:
        """Runs the checker's main() on `doc`; returns (status, output)."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "BENCH_quantum.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(out):
                status = check_quantum_speedup.main([str(path)])
        return status, out.getvalue()

    def test_speedup_above_bound_passes(self):
        status, out = self.run_main(report(speedup_at_4=3.0))
        self.assertEqual(status, 0)
        self.assertIn("OK", out)

    def test_speedup_below_bound_is_a_regression(self):
        status, out = self.run_main(report(speedup_at_4=1.2))
        self.assertEqual(status, 1)
        self.assertIn("REGRESSION", out)

    def test_bound_is_1_3x(self):
        self.assertEqual(check_quantum_speedup.MIN_SPEEDUP, 1.3)
        self.assertEqual(self.run_main(report(speedup_at_4=1.3))[0], 0)
        self.assertEqual(self.run_main(report(speedup_at_4=1.29))[0], 1)

    def test_fewer_than_four_cores_skips_visibly(self):
        status, out = self.run_main(
            report(hardware_threads=2, threads=(1, 2)))
        self.assertEqual(status, 0)
        self.assertIn("SKIPPED", out)

    def test_smoke_report_skips_visibly(self):
        status, out = self.run_main(
            report(mode="smoke", hardware_threads=8, threads=(1, 2)))
        self.assertEqual(status, 0)
        self.assertIn("SKIPPED", out)
        self.assertIn("smoke", out)

    def test_gate_report_without_four_thread_row_fails(self):
        status, out = self.run_main(report(mode="gate", threads=(1, 2)))
        self.assertEqual(status, 1)
        self.assertIn("threads=4", out)

    def test_full_report_without_four_thread_row_fails(self):
        status, _ = self.run_main(report(mode="full", threads=(1, 2)))
        self.assertEqual(status, 1)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""CI regression gate for the statevector kernels.

Usage:

    python3 tools/check_quantum_speedup.py BENCH_quantum.json [--min-speedup X]

Reads the report written by `bench_quantum_scaling --gate` (or a full
run) and asserts the parallel gate: "gates" speedup at 4 threads >= 1.3x.
The bar is lower than the engine gate's 1.5x: the gate kernels stream
every amplitude through memory once per gate, so they saturate bandwidth
well before the embarrassingly-parallel round engine does. SKIPS with a
visible notice when the report says the machine has fewer than 4 hardware
threads — a 1-core runner cannot measure parallel speedup, and a silent
pass would be indistinguishable from a real one — and when the report is
a `--smoke` run, which times only threads {1, 2}. A gate or full report
without a 4-thread "gates" row fails.

Exit status: 0 when the gate passes or skips, 1 on a regression or a
malformed report.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

MIN_SPEEDUP = 1.3
GATE_THREADS = 4
GATE_CASE = "gates"


def find_result(doc: dict, case_name: str, threads: int):
    """Returns the result row for (case, threads), or None."""
    for case in doc.get("cases", []):
        if case.get("name") != case_name:
            continue
        for res in case.get("results", []):
            if res.get("threads") == threads:
                return res
    return None


def check_parallel_gate(doc: dict, hw: int, min_speedup: float) -> int:
    if hw < GATE_THREADS:
        print(f"check_quantum_speedup: SKIPPED parallel gate — runner has "
              f"only {hw} hardware thread(s), needs >= {GATE_THREADS} to "
              f"measure parallel speedup. The >= {min_speedup}x gate did "
              f"NOT run.")
        return 0
    if doc.get("mode") == "smoke":
        print(f"check_quantum_speedup: SKIPPED parallel gate — smoke report "
              f"times only threads {{1, 2}}; run bench_quantum_scaling "
              f"--gate to measure it. The >= {min_speedup}x gate did NOT "
              f"run.")
        return 0
    res = find_result(doc, GATE_CASE, GATE_THREADS)
    if res is None:
        print(f"check_quantum_speedup: no {GATE_CASE} result at "
              f"threads={GATE_THREADS}", file=sys.stderr)
        return 1
    speedup = res.get("speedup")
    if not isinstance(speedup, (int, float)):
        print(f"check_quantum_speedup: {GATE_CASE} has no speedup value at "
              f"threads={GATE_THREADS}", file=sys.stderr)
        return 1
    if speedup < min_speedup:
        print(f"check_quantum_speedup: REGRESSION — {GATE_CASE} speedup at "
              f"{GATE_THREADS} threads is {speedup:.2f}x, gate requires "
              f">= {min_speedup}x")
        return 1
    print(f"check_quantum_speedup: OK — {GATE_CASE} speedup at "
          f"{GATE_THREADS} threads is {speedup:.2f}x (>= {min_speedup}x)")
    return 0


def main(argv: list[str]) -> int:
    min_speedup = MIN_SPEEDUP
    args = list(argv)
    if "--min-speedup" in args:
        i = args.index("--min-speedup")
        try:
            min_speedup = float(args[i + 1])
        except (IndexError, ValueError):
            print("check_quantum_speedup: --min-speedup wants a number",
                  file=sys.stderr)
            return 2
        del args[i:i + 2]
    if len(args) != 1:
        print("usage: check_quantum_speedup.py BENCH_quantum.json "
              "[--min-speedup X]", file=sys.stderr)
        return 2
    path = Path(args[0])
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"check_quantum_speedup: cannot parse {path}: {exc}",
              file=sys.stderr)
        return 1

    hw = doc.get("hardware_threads")
    if not isinstance(hw, int):
        print(f"check_quantum_speedup: {path} has no hardware_threads",
              file=sys.stderr)
        return 1

    return check_parallel_gate(doc, hw, min_speedup)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

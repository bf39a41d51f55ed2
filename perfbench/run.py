#!/usr/bin/env python3
"""The repo benchmark: one command for every workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds
perfbench/ (the qdc libraries plus the perfbench_workloads runner) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls
rebuild only what changed. The runner runs the workload, this script
checks its outputs, computes the metrics (perfbench/metrics.py), writes
the full report with its environment block to
<target>/perfbench-out/<workload>-seed<N>-trace<T>.json and prints every
metric with its unit. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}, carrying the end-to-end
metrics with --trace 0 and the per-layer metrics with --trace 1.

Exit status: 0 when every output check passed, 1 when a check failed or
the runner crashed, 2 when the build failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

RUNNER_TIMEOUT_S = 170


def target_dir(root: Path) -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else root / target


def build(build_dir: Path, log: Path, env: dict) -> bool:
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", "perfbench_workloads"])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              env=env).returncode:
                return False
    return True


def cache_entry(cache: str, key: str) -> str:
    m = re.search(rf"^{re.escape(key)}:[A-Z]+=(.*)$", cache, re.M)
    return m.group(1).strip() if m else ""


def environment(root: Path, build_dir: Path, raw_env: dict) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache = (build_dir / "CMakeCache.txt").read_text()
    compiler = cache_entry(cache, "CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    build_type = cache_entry(cache, "CMAKE_BUILD_TYPE")
    flags = " ".join(filter(None, [
        cache_entry(cache, "CMAKE_CXX_FLAGS"),
        cache_entry(cache, f"CMAKE_CXX_FLAGS_{build_type.upper()}"),
        "-std=c++20 -Wall -Wextra -Wno-missing-field-initializers",
    ]))
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                capture_output=True, text=True).stdout.strip()
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "compiler": f"{compiler} ({version})",
        "build_type": build_type,
        "flags": flags,
        "git_commit": commit,
        **raw_env,
    }


def unit_of(name: str) -> str:
    for catalogue in (metrics.END_TO_END, metrics.SERVICE_END_TO_END,
                      metrics.PER_LAYER):
        for metric, unit, _ in catalogue:
            if metric == name:
                return unit
    raise KeyError(name)


def print_report(report: dict) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"trace {report['trace']}")
    for key, value in report["environment"].items():
        print(f"  env {key}: {value}")
    for name, value in report["metrics"].items():
        line = f"  {name:<36} {value:>16.6g} {unit_of(name)}"
        d = report["detail"].get(name)
        if d:
            line += (f"   (median of {d['n']}; q1 {d['q1']:.6g}, "
                     f"q3 {d['q3']:.6g}, min {d['min']:.6g})")
        print(line)
    print(f"  {'error_rate':<36} {report['error_rate']:>16.6g} fraction"
          f"   ({report['failed']} of {report['attempted']} failed)")
    for failure in report["failures"]:
        print(f"  CHECK FAILED: {failure}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=metrics.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = HERE.parent
    target = target_dir(root)
    build_dir, out_dir = target / "perfbench", target / "perfbench-out"
    out_dir.mkdir(parents=True, exist_ok=True)
    # Compiler and runner temporaries stay inside the target directory.
    (target / "tmp").mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(target / "tmp"))
    log = out_dir / "build.log"
    if not build(build_dir, log, env):
        sys.stderr.write(log.read_text()[-4000:])
        sys.stderr.write(f"perfbench: build failed (log: {log})\n")
        return 2

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    raw_path = out_dir / f"{stem}.raw.json"
    socket = os.path.relpath(out_dir / f"svc-{os.getpid()}.sock", root)
    cmd = [str(build_dir / "perfbench_workloads"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(raw_path),
           "--socket", socket]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"perfbench: runner exceeded {RUNNER_TIMEOUT_S} s\n")
        return 1
    if proc.returncode != 0:
        sys.stderr.write(f"perfbench: runner exited with {proc.returncode}\n")
        return 1
    raw = json.loads(raw_path.read_text())

    try:
        if args.trace:
            published, detail = metrics.per_layer(raw), {}
        else:
            published, detail = metrics.end_to_end(raw)
    except metrics.TooFewSamples as e:
        sys.stderr.write(f"perfbench: {e}; run longer (--seconds)\n")
        return 1
    attempted, failed = raw["attempted"], raw["failed"]
    correct = failed == 0 and not raw["failures"] and attempted > 0
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(root, build_dir, raw["env"]),
        "metrics": published,
        "detail": detail,
        "error_rate": failed / attempted if attempted else 1.0,
        "attempted": attempted,
        "failed": failed,
        "failures": raw["failures"],
        "counts": raw["values"],
    }
    report_path = out_dir / f"{stem}.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n")
    if args.trace:
        (out_dir / f"{stem}.spans.json").write_text(json.dumps(raw["spans"]))
    print_report(report)

    names = [name for name, _, _ in
             (metrics.PER_LAYER if args.trace else metrics.END_TO_END)]
    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": published[name], "unit": unit_of(name)}
                    for name in names},
    }
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

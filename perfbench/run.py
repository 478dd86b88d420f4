#!/usr/bin/env python3
"""Build the HILOS simulator benchmark from source and run a workload.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

`--workload all` runs every workload in turn, each in its own process,
and ends with a summary of the end-to-end metrics. A single-workload run
ends with its JSON result line instead.

The benchmark binary is configured from perfbench/CMakeLists.txt, which
compiles the simulator library from the checkout's src/ tree. The build
goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench,
relative to the checkout root); a traced run also writes its Chrome
trace there, under traces/. Build logs go to standard error. See
perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def build(build_dir):
    """Configure once, then (re)build the perfbench target."""
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "perfbench",
         "-j", "4"],
        stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)


def expected_metrics(spec, traced):
    return [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]


def run_workload(build_dir, spec, workload, seed, seconds, trace):
    """Run one workload; returns (exit code, parsed result or None)."""
    cmd = [str(build_dir / "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if trace:
        traces = build_dir / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}-seed{seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail(f"{workload}: run exceeded {RUN_TIMEOUT_S} s", 3), None
    lines = proc.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    try:
        result = json.loads(lines[-1])
        names = list(result["metrics"])
    except (ValueError, KeyError, TypeError):
        return fail(f"{workload}: the benchmark printed no result line",
                    3), None
    if names != expected_metrics(spec, trace):
        return fail(f"{workload}: result metrics do not match "
                    "BENCHMARK.json", 3), None
    print(lines[-1], flush=True)
    return proc.returncode, result


def print_summary(results):
    """One row per workload: every end-to-end metric, by name and unit."""
    print("\nsummary (end-to-end, host time):")
    for workload, result in results:
        if result is None:
            print(f"  {workload}: no result")
            continue
        cells = [f"{name} {m['value']:.6g} {m['unit']}"
                 for name, m in result["metrics"].items()]
        share = result["failed"] / result["attempted"]
        cells.append(f"ops_failed_share {share:.6g} ratio")
        print(f"  {workload}: " + ", ".join(cells))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        return fail(f"simulator sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        return fail("cmake is not on PATH")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        return fail(f"unknown workload '{args.workload}'")

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    build_dir = build_dir / "perfbench"
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        return fail(f"build failed: {e}")

    if args.workload != "all":
        rc, _ = run_workload(build_dir, spec, args.workload, args.seed,
                             args.seconds, args.trace)
        return rc
    results, worst = [], 0
    for workload in names:
        rc, result = run_workload(build_dir, spec, workload, args.seed,
                                  args.seconds, args.trace)
        results.append((workload, result))
        worst = max(worst, rc)
    if not args.trace:
        print_summary(results)
    return worst


if __name__ == "__main__":
    sys.exit(main())

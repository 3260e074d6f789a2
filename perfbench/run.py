#!/usr/bin/env python3
"""Build and run the sigsetdb wall-clock benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload paper_mem --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

The first call builds perfbench/ (and with it the engine under src/) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; traced runs leave
their span dumps in .bench_build/perfbench-traces.  A run prints the
perfbench binary's notes and every metric with its unit, then, as its last line,
one JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1.  `--workload all` runs every workload and ends with a table instead.

Exit status: 0 when every operation succeeded and matched the brute-force
oracle; 1 when one failed or answered wrong; 2 when the benchmark cannot be
built or run (for example, when the engine sources are missing).
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_mem", "paper_disk", "student_churn")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_root():
    root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return root if os.path.isabs(root) else os.path.join(ROOT, root)


def build(deadline):
    """Configures and builds the perfbench binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("engine sources (src/) not found next to perfbench/")
    out = os.path.join(build_root(), "perfbench")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(build_root(), "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", out,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            run_build_step(configure, deadline)
        run_build_step(["cmake", "--build", out, "--target", "perfbench",
                        "--parallel", str(min(4, os.cpu_count() or 1))],
                       deadline)
    binary = os.path.join(out, "perfbench")
    if not os.access(binary, os.X_OK):
        raise RuntimeError("build produced no perfbench binary")
    return binary


def run_build_step(cmd, deadline):
    remaining = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=remaining, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"build step failed: {' '.join(cmd)}")


def run_workload(binary, workload, args, work_dir):
    """Runs one workload; returns (exit code, notes, full result dict)."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir,
           "--spans-dir", os.path.join(build_root(), "perfbench-traces")]
    if args.replay_seed is not None:
        cmd += ["--replay-seed", str(args.replay_seed)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S, check=False)
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
            lines = lines[:-1]
        except json.JSONDecodeError:
            result = None
    return proc.returncode, lines, result


def contract_line(result, trace):
    """Keeps exactly the BENCHMARK.json metrics of this trace mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        raise RuntimeError(f"{result['workload']} did not report {missing}")
    return {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {n: result["metrics"][n] for n in names},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--replay-seed", type=int, default=None,
                        help="also check exact-count replay for this seed")
    args = parser.parse_args()

    start = time.monotonic()
    try:
        binary = build(start + BUILD_TIMEOUT_S)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as error:
        log(f"cannot build: {error}")
        return 2

    work_dir = os.path.join(build_root(), "perfbench-work", f"run-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        results, worst = [], 0
        for workload in workloads:
            try:
                code, notes, result = run_workload(binary, workload, args,
                                                   work_dir)
            except subprocess.TimeoutExpired:
                log(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
                return 2
            for line in notes:
                # With all workloads, the closing table replaces the per-run
                # metric lines.
                if args.workload != "all" or line.startswith("#"):
                    print(line)
            if result is None:
                log(f"{workload} printed no result (exit {code})")
                return 2
            results.append(result)
            worst = max(worst, 0 if code == 0 else 1)
        if args.workload == "all":
            print_table(results)
        else:
            try:
                print(json.dumps(contract_line(results[0], args.trace)))
            except (RuntimeError, OSError, ValueError, KeyError) as error:
                log(str(error))
                return 2
        return worst
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def print_table(results):
    names = []
    for result in results:
        for name in result["metrics"]:
            if name not in names:
                names.append(name)
    header = f"{'metric':34}" + "".join(f"{r['workload']:>18}" for r in results)
    print(header + "  unit")
    for name in names:
        row, unit = f"{name:34}", ""
        for result in results:
            metric = result["metrics"].get(name)
            row += f"{metric['value']:>18.6g}" if metric else f"{'-':>18}"
            unit = metric["unit"] if metric else unit
        print(row + "  " + unit)
    print("correct: " + ", ".join(
        f"{r['workload']}={str(r['correct']).lower()} "
        f"({r['failed']}/{r['attempted']} failed)" for r in results))


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the campaign-job benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds the
perfbench binary (a Release build of the library plus the benchmark) in
.bench_build/; later calls only rebuild what changed. Build output goes
to stderr, so the last line of stdout is the benchmark's result line.
--self-test runs every workload at tiny sizes, traced
and untraced, checks that each result line carries exactly the metrics
BENCHMARK.json names with their units, that the detail line discloses
the host and carries each workload's own layer figures with units, and
that an injected count mismatch makes the benchmark fail.
"""

import argparse
import json
import math
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BUILD_DIR = Path(".bench_build")
BINARY = BUILD_DIR / "perfbench" / "perfbench"
WORK_DIR = BUILD_DIR / "work"
RUN_TIMEOUT_S = 170

# Every workload the binary knows. suite-heuristic and exact-count are
# not in BENCHMARK.json (see README.md) but stay runnable and
# self-tested.
WORKLOADS = ("suite-heuristic", "exact-count", "serve-mixed",
             "stream-reanalyze")

# Figures a traced run reports on its detail line beside the result
# line's per-layer metrics (the layers only some workloads exercise).
DETAIL_LAYERS = {
    "suite-heuristic": {"count.specialized_frac": "fraction"},
    "exact-count": {
        "count.exhaustive_ns_per_frame": "ns",
        "count.exhaustive_frames": "count",
        "count.exhaustive_hit_ratio": "fraction",
        "count.exhaustive_share": "fraction",
        "count.fast_ns_per_iter": "ns",
        "count.specialized_frac": "fraction",
    },
    "serve-mixed": {
        "serve.admit_ms": "ms",
        "serve.queue_wait_ms": "ms",
        "serve.exec_ms": "ms",
        "serve.ping_us": "us",
        "serve.hit_ratio": "fraction",
        "serve.journal_writes_per_job": "count",
        "serve.captures": "count",
        "trace.corpus_scan_ms_per_file": "ms",
        "count.exhaustive_ns_per_frame": "ns",
        "count.exhaustive_share": "fraction",
        "supervise.overhead_ms": "ms",
    },
    "stream-reanalyze": {
        "stream.ns_per_iter": "ns",
        "stream.epochs": "count",
        "stream.deferred_pivots": "count",
        "stream.store_mb": "MiB",
        "trace.capture_bytes_per_iter": "B",
        "trace.write_mb_per_s": "MiB/s",
        "trace.reanalyze_ns_per_iter": "ns",
        "trace.corpus_scan_ms_per_file": "ms",
    },
}


def build():
    """Configure (once) and build; False when either step fails."""
    cache = BUILD_DIR / "perfbench" / "CMakeCache.txt"
    steps = []
    if not cache.exists():
        steps.append(["cmake", "-S", str(HERE), "-B",
                      str(BUILD_DIR / "perfbench"),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR / "perfbench"),
                  "--target", "perfbench", "-j", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            print(f"perfbench: build step failed: {' '.join(step)}",
                  file=sys.stderr)
            return False
    return True


def run_binary(args):
    """Run perfbench with args; returns (exit code, stdout text).

    SIGINT/SIGTERM are forwarded so the binary can stop its daemon and
    remove its working directory; the child is always waited for.
    """
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    child = subprocess.Popen([str(BINARY), "--work-dir", str(WORK_DIR)]
                             + args, stdout=subprocess.PIPE, text=True)

    def forward(signum, _frame):
        child.send_signal(signum)

    previous = {s: signal.signal(s, forward)
                for s in (signal.SIGINT, signal.SIGTERM)}
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        out, _ = child.communicate()
        print("perfbench: run timed out", file=sys.stderr)
        return 1, out
    finally:
        for s, handler in previous.items():
            signal.signal(s, handler)
        shutil.rmtree(WORK_DIR / f"run-{child.pid}", ignore_errors=True)
    return child.returncode, out


def benchmark_spec():
    with open(HERE.parent / "BENCHMARK.json") as spec:
        return json.load(spec)


def check_figures(figures, expected, exact):
    """Problems with {name: {value, unit}} against {name: unit}."""
    problems = []
    if exact and sorted(figures) != sorted(expected):
        problems.append(f"metrics {sorted(figures)} != {sorted(expected)}")
    for name, unit in expected.items():
        entry = figures.get(name, {})
        if entry.get("unit") != unit:
            problems.append(f"{name}: unit {entry.get('unit')} != {unit}")
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
    return problems


def check_result(line, expected):
    """Problems with one result line against {metric: unit}."""
    try:
        result = json.loads(line)
    except ValueError:
        return [f"last line is not JSON: {line!r}"]
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if result["correct"] is not True or result["failed"] != 0:
        problems.append("verification failed")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted < 1")
    return problems + check_figures(result["metrics"], expected, True)


def check_detail(lines, workload, trace):
    """Problems with the detail line: host disclosure and the figures
    that only some workloads report."""
    details = [l[len("detail: "):] for l in lines if l.startswith("detail: ")]
    if len(details) != 1:
        return ["no single detail line"]
    detail = json.loads(details[0])
    problems = [f"host lacks {key}" for key in
                ("nproc", "cpu_model", "build_type", "compiler",
                 "perple_native") if key not in detail.get("host", {})]
    if trace:
        problems += check_figures(detail.get("layers", {}),
                                  DETAIL_LAYERS[workload], False)
    elif workload == "serve-mixed":
        problems += check_figures(detail, {"hit_p50_ms": "ms"}, False)
    return problems


def self_test():
    spec = benchmark_spec()
    sets = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, out = run_binary(["--workload", workload, "--seed", "7",
                                    "--seconds", "1", "--trace", str(trace),
                                    "--tiny"])
            lines = out.strip().splitlines()
            problems = [] if code == 0 else [f"exit code {code}"]
            problems += check_result(lines[-1] if lines else "", sets[trace])
            problems += check_detail(lines, workload, trace)
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"self-test {workload} trace={trace}: {status}")
            failures += bool(problems)
        code, out = run_binary(["--workload", workload, "--seed", "7",
                                "--seconds", "1", "--trace", "0", "--tiny",
                                "--inject-mismatch"])
        lines = out.strip().splitlines()
        caught = code != 0 and lines and '"correct":false' in lines[-1]
        print(f"self-test {workload} injected mismatch: "
              f"{'caught' if caught else 'FAIL (not caught)'}")
        failures += not caught
    print(f"self-test: {'PASS' if failures == 0 else 'FAIL'}")
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    args = parser.parse_args()
    if not args.self_test and (
            args.workload not in WORKLOADS or args.seed is None
            or args.seed < 0 or args.seconds is None or args.seconds < 1
            or args.trace is None):
        parser.error("--workload (one of %s), --seed >= 0, --seconds >= 1 "
                     "and --trace are required" % ", ".join(WORKLOADS))

    if not build():
        return 1
    if args.self_test:
        return self_test()

    command = ["--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans-out",
                    str(BUILD_DIR / f"spans-{args.workload}.json")]
    code, out = run_binary(command)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the Doppio repository benchmark.

    python3 perfbench/run.py --workload cli-terasort|cli-lr|plan|all \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. Each call configures and builds
perfbench/ (and the simulator libraries under src/) in Release mode
under $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench;
only the first call compiles everything. Build output goes to stderr,
so the last line of stdout is the benchmark's JSON result. A traced run also
writes its spans as Chrome trace JSON to <build>/spans/. --self-test
builds and runs the benchmark's own tests. See perfbench/README.md.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_quiet(cmd):
    """Run a build step with its output on stderr; exit on failure."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        sys.stderr.write("error: %s failed (exit %d)\n"
                         % (" ".join(cmd), result.returncode))
        sys.exit(1)


def build(target):
    out = build_dir()
    run_quiet(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", out, "-j", jobs, "--target", target])
    return os.path.join(out, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        binary = build("perfbench_tests")
        return subprocess.run([binary]).returncode
    if not args.workload:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")

    binary = build("doppio_perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            spans, "%s-seed%d.json" % (args.workload, args.seed))]
    # On SIGTERM, unwind through the finally below so the benchmark
    # process is stopped and reaped too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Repository benchmark of sva-timing.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root.  Builds the benchmark binary from source
(perfbench/CMakeLists.txt compiles ../src) into .bench_build/perfbench,
then runs the named workload in its own process inside a fresh, empty
scratch directory under .bench_build/runs, so every run starts cold and no
persistent cache from the working directory leaks in.  The last line of
stdout is the result object; see perfbench/README.md for the metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("table2_sweep", "eco_ssta", "daemon_mix")
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_quiet(cmd, cwd, timeout):
    """Run a build step with its output on stderr; raise on failure."""
    proc = subprocess.run(cmd, cwd=cwd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}")


def build(root, target):
    bench_dir = os.path.join(root, "perfbench")
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", bench_dir, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], root, BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", build_dir, "-j", jobs, "--target", target],
              root, BUILD_TIMEOUT_S)
    return os.path.join(build_dir, target)


def git_sha(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def run_child(cmd, cwd, timeout, capture):
    """Run the benchmark binary; kill it (and wait) when it overruns."""
    proc = subprocess.Popen(cmd, cwd=cwd,
                            stdout=subprocess.PIPE if capture else sys.stderr,
                            stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{os.path.basename(cmd[0])} overran {timeout} s")
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the harness tests")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ref_dir = os.path.join(root, "perfbench", "ref")

    try:
        target = "perfbench_tests" if args.self_test else "perfbench"
        binary = build(root, target)
        runs = os.path.join(root, ".bench_build", "runs")
        scratch = os.path.join(
            runs, f"{args.workload or 'self-test'}-{args.seed}-{os.getpid()}")
        shutil.rmtree(scratch, ignore_errors=True)
        os.makedirs(scratch)
        try:
            if args.self_test:
                code, _ = run_child([binary], scratch, RUN_TIMEOUT_S, False)
                return code
            traces = os.path.join(root, ".bench_build", "traces")
            os.makedirs(traces, exist_ok=True)
            cmd = [binary, "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", repr(args.seconds),
                   "--trace", str(args.trace), "--ref", ref_dir,
                   "--git-sha", git_sha(root)]
            if args.trace:
                cmd += ["--trace-out", os.path.join(
                    traces, f"{args.workload}-{args.seed}.json")]
            code, out = run_child(cmd, scratch, RUN_TIMEOUT_S, True)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log(str(e))
        return 1

    lines = out.splitlines()
    if code != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(out if code == 0 else "")
        log(f"perfbench exited {code} without a result")
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

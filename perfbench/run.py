#!/usr/bin/env python3
"""End-to-end benchmark of the CLASSIC library.

Builds the library and the benchmark from the checkout it is run in, runs
one workload in one process and prints, as the last line of stdout, one
JSON object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload query-100k --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Run it from the root of the checkout. The build tree goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); logs and
trace files go to .bench_out/. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("query-100k", "serve-wire")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
# glibc's malloc asks for transparent huge pages for the heap (madvise).
# The 100k KB is a ~900 MiB pointer-chasing working set; on 4 KiB pages the
# same seed's medians swung by up to 70% between processes, on 2 MiB pages
# by about 10%. See README.md, "Noise".
MALLOC_TUNABLE = "glibc.malloc.hugetlb=1"


def fail(message):
    print(f"perfbench: error: {message}", file=sys.stderr)
    sys.exit(2)


def steal_ticks():
    """Steal time of all CPUs so far, in USER_HZ ticks (/proc/stat)."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else -1
    except OSError:
        return -1


def run(cmd, timeout, **kwargs):
    """Runs cmd to its end; on timeout kills it and waits for it."""
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"{cmd[0]} did not finish within {timeout} s")
    return proc.returncode, out


def build(root, target):
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no library sources (src/CMakeLists.txt) in " + root +
             "; run from the root of a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake is not installed")
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        rc, _ = run(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen,
                    BUILD_TIMEOUT_S, stdout=sys.stderr)
        if rc != 0:
            fail("cmake configure failed")
    rc, _ = run(["cmake", "--build", build_dir, "--target", target, "-j",
                 str(os.cpu_count() or 1)], BUILD_TIMEOUT_S, stdout=sys.stderr)
    if rc != 0:
        fail("build failed")
    return build_dir


def context(root, build_dir):
    """Run context, printed with every run (not metrics)."""
    cache = {}
    with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":", 1)[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=30).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.TimeoutExpired):
        version = "unknown"
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30)
        rev = rev.stdout.strip() if rev.returncode == 0 else "not a git checkout"
    except (OSError, subprocess.TimeoutExpired):
        rev = "not a git checkout"
    try:
        with open("/sys/kernel/mm/transparent_hugepage/enabled") as f:
            thp = f.read().strip()
    except OSError:
        thp = "unknown"
    return {
        "nproc": os.cpu_count(),
        "compiler": version,
        "build_type": cache.get("CMAKE_BUILD_TYPE", "?"),
        "CLASSIC_OBS": "ON (-DCLASSIC_OBS=1, the repository default)",
        "git": rev,
        "malloc": f"GLIBC_TUNABLES={bench_env()['GLIBC_TUNABLES']} "
                  f"(transparent_hugepage: {thp})",
    }


def bench_env():
    """The benchmark's environment: ours plus the malloc tunable."""
    env = dict(os.environ)
    tunables = env.get("GLIBC_TUNABLES")
    env["GLIBC_TUNABLES"] = (tunables + ":" if tunables else "") + MALLOC_TUNABLE
    return env


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="feed every correctness check a corrupted input")
    args = parser.parse_args()
    root = os.getcwd()

    if args.selftest:
        build_dir = build(root, "perfbench_selftest")
        rc, _ = run([os.path.join(build_dir, "perfbench_selftest")], RUN_TIMEOUT_S)
        sys.exit(rc)
    if args.workload is None:
        fail("--workload is required (one of " + ", ".join(WORKLOADS) + ")")

    build_dir = build(root, "classic_perfbench")
    for key, value in context(root, build_dir).items():
        print(f"context {key}: {value}")
    steal_before, t0 = steal_ticks(), time.time()
    rc, out = run([os.path.join(build_dir, "classic_perfbench"),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--out", ".bench_out"],
                  RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True, env=bench_env())
    lines = out.rstrip("\n").splitlines()
    result = lines.pop() if lines else ""
    for line in lines:
        print(line)
    print(f"context steal_ticks_during_run: {steal_ticks() - steal_before} "
          f"over {time.time() - t0:.1f} s (all CPUs, USER_HZ)")
    try:
        json.loads(result)
    except ValueError:
        fail(f"the benchmark printed no result (exit code {rc})")
    print(result, flush=True)
    sys.exit(rc)


if __name__ == "__main__":
    main()

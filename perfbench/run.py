#!/usr/bin/env python3
"""Builds the benchmark from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload <rushd-dense|rushd-churn|sim-fair> \
        --seed <n> --seconds <s> --trace <0|1>

The build tree is $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
under the checkout root, and temporary WAL/snapshot files live beside it.
Build output goes to stderr, so the last stdout line is the benchmark's
result object.  Exits non-zero without a result when the scheduler sources
are missing or the build fails.
"""

import fcntl
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def run_to_stderr(command, env=None):
    result = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr, env=env)
    if result.returncode != 0:
        sys.exit(f"perfbench: {' '.join(command)} failed ({result.returncode})")


def configured_source(cache_path):
    with open(cache_path, encoding="utf-8", errors="replace") as cache:
        for line in cache:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return line.split("=", 1)[1].strip()
    return None


def build():
    """Configures (once) and builds rush_perfbench; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no scheduler sources (src/CMakeLists.txt) in this checkout")
    source = os.path.join(ROOT, "perfbench")
    out = build_dir()
    # Compiler temporaries stay inside the build tree, not in /tmp.
    env = dict(os.environ, TMPDIR=os.path.join(out, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        cache = os.path.join(out, "CMakeCache.txt")
        if os.path.isfile(cache) and configured_source(cache) != source:
            shutil.rmtree(os.path.join(out, "CMakeFiles"), ignore_errors=True)
            os.remove(cache)
        if not os.path.isfile(cache):
            run_to_stderr(["cmake", "-S", source, "-B", out, "-DCMAKE_BUILD_TYPE=Release"], env)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        run_to_stderr(["cmake", "--build", out, "-j", jobs], env)
    return os.path.join(out, "rush_perfbench")


def main():
    binary = build()
    workdir = os.path.join(build_dir(), "runs")
    result = subprocess.run([binary, *sys.argv[1:], "--workdir", workdir], cwd=ROOT)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Builds and runs the capplan benchmark from the root of a source checkout.

    python3 capbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds the library and the benchmark into
.bench_build/ (Release); later runs only check that the build is current.
Build output goes to standard error, so the last line of standard output is
the benchmark's JSON result. Exits non-zero, without a result, when the
checkout holds no capplan sources or the build fails.
"""

import os
import shutil
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "capbench")
WORK_DIR = os.path.join(".bench_build", "work")


def fail(message):
    print("capbench: " + message, file=sys.stderr)
    sys.exit(2)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def git_sha():
    # Only a checkout that is itself a git work tree has a sha to report;
    # never look for a repository above it.
    if not os.path.exists(".git") or shutil.which("git") is None:
        return "unknown"
    out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build():
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("no capplan sources (src/CMakeLists.txt) under " + os.getcwd())
    if shutil.which("cmake") is None:
        fail("cmake is not installed")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", "capbench", "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    compile_cmd = ["cmake", "--build", BUILD_DIR, "--target", "capbench",
                   "-j", str(nproc())]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD_DIR, "capbench")


def main():
    binary = build()
    os.makedirs(WORK_DIR, exist_ok=True)
    cmd = [binary] + sys.argv[1:] + ["--work-dir", WORK_DIR,
                                     "--git-sha", git_sha()]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())

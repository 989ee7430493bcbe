#!/usr/bin/env python3
"""Builds the benchmark driver from source, then runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The driver (perfbench/CMakeLists.txt) is built in Release into
.bench_build/ at the root of the checkout this script sits in, against the
library sources in src/. The first call compiles; later calls configure
again and find the build up to date, which takes a second or two. Build
output goes to standard error, so the driver's JSON result stays the last
line of standard output. Exits non-zero without a result when the build
fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")


def build():
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                    "-j", "4"], check=True, stdout=sys.stderr)
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    os.chdir(ROOT)
    sys.stdout.flush()
    # Replace this process, so the driver is the only process left to stop.
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())

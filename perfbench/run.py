#!/usr/bin/env python3
"""Builds the relm benchmark harness from source and runs one workload.

    python3 perfbench/run.py --workload <url_audit|cloze_suite|url_sample> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a relm checkout. The first call configures and builds
a Release tree under .bench_build/perfbench (later calls only rebuild what
changed); build output goes to stderr. The harness prints its result as the
last line of stdout; see perfbench/README.md.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "perfbench")


def main():
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    result = subprocess.run([binary] + sys.argv[1:], cwd=ROOT)
    return result.returncode if result.returncode >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())

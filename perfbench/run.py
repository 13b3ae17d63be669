#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark is an OCaml executable (perfbench/bench.ml) built with dune
into .bench_build; the dune cache is disabled and dune's cache directory
points into .bench_build, so that the build writes only inside the
checkout.  The last line of standard output is the
benchmark's JSON result.  Exits non-zero, printing no result, if the build
fails.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/bench.exe"


def main():
    # Keep dune's cache and state inside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled",
               XDG_CACHE_HOME=os.path.abspath(os.path.join(BUILD_DIR, "xdg-cache")))
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
             "--display", "quiet", TARGET],
            env=env, stdout=sys.stderr)
    except OSError as e:
        print(f"perfbench: cannot run dune: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())

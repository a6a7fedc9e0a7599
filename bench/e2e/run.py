#!/usr/bin/env python3
"""Build the end-to-end benchmark from source, then run one workload.

Usage, from the root of a checkout:

    python3 bench/e2e/run.py --workload W --seed N --seconds S --trace 0|1

All arguments go to bench/e2e/run.exe (see run.ml); its standard output,
whose last line is the JSON result, passes through unchanged. Build
output goes to standard error. Exits non-zero when the build fails or
the run does.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    build = subprocess.run(
        ["dune", "build", "--root", root, "--display", "quiet",
         "--cache", "disabled", "./bench/e2e/run.exe"],
        stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(root, "_build", "default", "bench", "e2e", "run.exe")
    args = sys.argv[1:]
    if "--rev" not in args and os.path.isdir(os.path.join(root, ".git")):
        rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, cwd=root)
        if rev.returncode == 0:
            args += ["--rev", rev.stdout.strip()]
    sys.stdout.flush()
    return subprocess.run([exe] + args).returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds the hotg benchmark driver from this checkout and runs one workload.

    python3 perfbench/run.py --workload ho-validity|dse-explore|serve-mixed \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The driver is built with CMake from
perfbench/CMakeLists.txt, which compiles the engine from src/, into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). Every run
re-runs the incremental build, so the binary always matches the sources.
The driver's stdout is passed through; its last line is the JSON result.
Exits non-zero, printing no result, when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configures (once) and builds the driver; returns its path or None."""
    os.makedirs(bdir, exist_ok=True)
    configure = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    compile_ = ["cmake", "--build", bdir, "--target", "hotg-perfbench",
                "-j", "4"]
    log_path = bdir + ".log"
    with open(log_path, "w") as log:
        for attempt in range(2):
            if attempt:
                # A stale cache (say, from another checkout path): start over.
                shutil.rmtree(bdir)
                os.makedirs(bdir)
            steps = [compile_]
            if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
                steps.insert(0, configure)
            ok = all(subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode == 0
                     for step in steps)
            if ok:
                return os.path.join(bdir, "hotg-perfbench")
    with open(log_path) as log:
        sys.stderr.write(log.read()[-4000:])
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["ho-validity", "dse-explore", "serve-mixed"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    exe = build(build_dir())
    if exe is None:
        sys.stderr.write("run.py: the benchmark driver did not build\n")
        return 1
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ROOT]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: the benchmark driver timed out\n")
        return 1
    out = run.stdout.decode()
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if run.returncode != 0 or not isinstance(result, dict):
        sys.stderr.write(out)
        sys.stderr.write("run.py: the benchmark driver failed (exit %d)\n"
                         % run.returncode)
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

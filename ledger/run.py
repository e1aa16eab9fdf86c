#!/usr/bin/env python3
"""Builds and runs the ledger benchmark (see README.md).

    python3 ledger/run.py --workload serve-cold|serve-hot|offline \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The first run configures and builds
qpp_ledger (and libqpp with it) under .bench_build/ledger; later runs only
check that the build is current. Inputs are generated from the seed in a
process of their own and kept as .bench_build/ledger/inputs-<seed>.bin.
The last line of standard output is the run's JSON result; a failed build
or run exits non-zero without one.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "ledger")
BINARY = os.path.join(BUILD, "qpp_ledger")
WORKLOADS = ("serve-cold", "serve-hot", "offline")


def build():
    """Configures until a build succeeds, then brings qpp_ledger up to date."""
    steps = []
    if not os.path.exists(BINARY):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "qpp_ledger",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            sys.stderr.write("ledger: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def inputs_for(seed):
    """The seed's input file, regenerated whenever the binary is newer."""
    path = os.path.join(BUILD, "inputs-%d.bin" % seed)
    if (os.path.exists(path)
            and os.path.getmtime(path) >= os.path.getmtime(BINARY)):
        return path
    tmp = path + ".tmp"
    done = subprocess.run([BINARY, "gen", "--seed", str(seed), "--out", tmp])
    if done.returncode != 0:
        sys.stderr.write("ledger: input generation failed for seed %d\n" % seed)
        return None
    os.replace(tmp, path)
    return path


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        return 1
    inputs = inputs_for(args.seed)
    if inputs is None:
        return 1
    cmd = [BINARY, "run", "--inputs", inputs, "--workload", args.workload,
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out", os.path.join(
            BUILD, "spans-%s-%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())

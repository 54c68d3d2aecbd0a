#!/usr/bin/env python3
"""Runs one workload of the end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run builds the benchmark and the
library sources it links (CMake, Release) into .bench_build/perfbench; later
runs only check that build. The benchmark's output passes through, and its
last line is the JSON result. Exits non-zero, printing no result, when the
build or the run fails.
"""
import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
WORKLOADS = ("serve_mixed", "serve_updates", "analytics")
RUN_TIMEOUT_S = 175


def commit_id():
    """The git commit, or a digest of the sources when there is no git."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree:" + digest.hexdigest()[:16]


def build():
    """Configures (once) and builds; compiler output goes to stderr."""
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            if ("CMAKE_HOME_DIRECTORY:INTERNAL=" + os.path.join(ROOT, "perfbench")) not in f.read():
                subprocess.run(["cmake", "-E", "rm", "-rf", BUILD], check=True)
    if not os.path.exists(cache):
        subprocess.run(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], stdout=sys.stderr, check=True)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    args = p.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2

    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--workdir", WORK, "--commit", commit_id()]
    try:
        # subprocess.run kills and reaps the child on timeout.
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    sys.stdout.write(out.stdout)
    sys.stdout.flush()
    return out.returncode


if __name__ == "__main__":
    sys.exit(main())

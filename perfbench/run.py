#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload build|chip|serve-eval \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds the benchmark program and the `cfpm`
executable from source into .bench_build/perfbench (first run only; later
runs rebuild nothing unless sources changed), then runs one workload and
passes its output through. The last line of standard output is the JSON
result: {"correct", "attempted", "failed", "metrics"}. Per-run artifacts
(span traces, daemon logs and metrics, saved models) go to .bench_out/.

Exits non-zero without printing a result when the program sources are
missing, the build fails, or the run fails or times out.
"""
import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(".bench_build", "perfbench")
OUT_DIR = ".bench_out"
WORKLOADS = ("build", "chip", "serve-eval")
RUN_TIMEOUT_S = 170


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark and cfpm; returns their paths."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD_DIR, "lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            configure = ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            subprocess.run(configure, check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                        "cfpm", "-j", jobs], check=True, stdout=sys.stderr)
    return (os.path.join(BUILD_DIR, "perfbench"),
            os.path.join(BUILD_DIR, "cfpm", "tools", "cfpm"))


def revision():
    """Git revision when available, plus a digest of the program sources
    (the benchmark may run from a checkout that is not a git repository)."""
    try:
        rev = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, check=True,
                             timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rev = "none"
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(path.encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "git:%s src:%s" % (rev, digest.hexdigest()[:12])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    os.chdir(ROOT)
    if not os.path.exists(os.path.join("src", "CMakeLists.txt")):
        log("program sources (src/) not found next to perfbench/")
        return 2
    try:
        bench, cfpm = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 1

    out = os.path.join(OUT_DIR, "%s-seed%d-trace%d" %
                       (args.workload, args.seed, args.trace))
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    command = [bench, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--cfpm", cfpm, "--out", out, "--rev", revision()]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        log("benchmark exited with %d" % run.returncode)
        return 1
    lines = run.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        log("malformed result line")
        return 1
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

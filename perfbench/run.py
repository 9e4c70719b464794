#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload profile-hot --seed 1 --seconds 10 --trace 0

Builds perfbench/ (and the repository libraries it links) into the build
directory -- $CARGO_TARGET_DIR, default .bench_build -- as RelWithDebInfo,
then runs the perfbench binary from the repository root. The binary's
stdout passes through unchanged; its last line is the result object. Build
output goes to stderr. The exit status is the binary's: 0 when every
correctness gate held, 1 when one failed or the build failed, 2 on a usage
error.

Also: `python3 perfbench/run.py --selftest` builds and runs the seeded-input
tests.
"""

import argparse
import hashlib
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("profile-hot", "fresh-source", "table4")
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def unsigned(text):
    if not re.fullmatch(r"[0-9]+", text) or int(text) >= 2**64:
        raise argparse.ArgumentTypeError(f"not an unsigned integer: {text!r}")
    return int(text)


def seconds(text):
    value = unsigned(text)
    if not 1 <= value <= 60:
        raise argparse.ArgumentTypeError(f"{text} is outside [1, 60]")
    return value


def trace_flag(text):
    if text not in ("0", "1"):
        raise argparse.ArgumentTypeError(f"--trace takes 0 or 1, not {text!r}")
    return int(text)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the seeded-input tests")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=unsigned)
    parser.add_argument("--seconds", type=seconds)
    parser.add_argument("--trace", type=trace_flag)
    args = parser.parse_args(argv)
    run_flags = (args.workload, args.seed, args.seconds, args.trace)
    if args.selftest and any(f is not None for f in run_flags):
        parser.error("--selftest takes no other flag")
    if not args.selftest and any(f is None for f in run_flags):
        parser.error("--workload, --seed, --seconds and --trace are required")
    return args


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; True when it succeeded."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout, check=False)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"run.py: {' '.join(cmd)}: {err}", file=sys.stderr)
        return False
    return done.returncode == 0


def build(target):
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return (run_quiet(["cmake", "-S", HERE, "-B", out,
                       "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S)
            and run_quiet(["cmake", "--build", out, "--target", target,
                           "-j", jobs], BUILD_TIMEOUT_S))


def source_sha256():
    """Digest of every file the benchmark builds from (src/ and perfbench/)."""
    digest = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30,
                              check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_child(cmd):
    """Runs the benchmark binary with stdout passed through; its status."""
    child = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: perfbench timed out", file=sys.stderr)
    except KeyboardInterrupt:
        print("run.py: interrupted", file=sys.stderr)
    child.kill()
    child.wait()
    return 1


def main(argv):
    args = parse_args(argv)
    target = "perfbench_inputs_test" if args.selftest else "perfbench"
    if not build(target):
        print("run.py: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(build_dir(), target)
    if args.selftest:
        return run_child([binary])
    out_dir = os.path.join(os.path.relpath(build_dir(), ROOT), "perfbench-out")
    return run_child([
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out-dir", out_dir,
        "--pinned", os.path.relpath(
            os.path.join(HERE, "pinned", "table4_rows.txt"), ROOT),
        "--git-sha", git_sha(),
        "--source-sha", source_sha256(),
    ])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

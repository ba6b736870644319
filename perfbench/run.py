#!/usr/bin/env python3
"""Builds the repository and the benchmark harness, then runs one workload.

    python3 perfbench/run.py --workload serve_warm --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Builds go to $CARGO_TARGET_DIR if set,
else .bench_build/ (Release; the first run builds, later runs only check
that the build is current).  Build output goes to a log file there; the
harness prints a line of run facts and, as the last line of stdout, the
result object.  See perfbench/README.md.
"""

import argparse
import hashlib
import os
import subprocess
import sys

WORKLOADS = ("serve_warm", "corpus_stream", "cli_files")
BUILD_TYPE = "Release"
# The repository targets the benchmark runs or links.
REPO_TARGETS = ("aisc", "aisd", "ais_server", "ais_workloads")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, log_path, cwd, env):
    with open(log_path, "a") as log:
        log.write("$ " + " ".join(cmd) + "\n")
        log.flush()
        done = subprocess.run(cmd, cwd=cwd, env=env, stdout=log,
                              stderr=subprocess.STDOUT)
    if done.returncode != 0:
        with open(log_path) as log:
            tail = log.readlines()[-40:]
        sys.stderr.write("".join(tail))
        fail("build step failed: " + " ".join(cmd))


def build(root, bench_dir, build_dir):
    repo_build = os.path.join(build_dir, "repo")
    harness_build = os.path.join(build_dir, "perfbench")
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    # Keep the compiler's temporary files inside the build directory.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.exists(os.path.join(repo_build, "CMakeCache.txt")):
        run_logged(["cmake", "-S", root, "-B", repo_build,
                    "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE], log_path, root, env)
    run_logged(["cmake", "--build", repo_build, "-j", jobs, "--target"]
               + list(REPO_TARGETS), log_path, root, env)
    if not os.path.exists(os.path.join(harness_build, "CMakeCache.txt")):
        run_logged(["cmake", "-S", bench_dir, "-B", harness_build,
                    "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE, "-DAIS_ROOT=" + root,
                    "-DAIS_BUILD=" + repo_build], log_path, root, env)
    run_logged(["cmake", "--build", harness_build, "-j", jobs], log_path, root, env)
    return {
        "aisc": os.path.join(repo_build, "tools", "aisc"),
        "aisd": os.path.join(repo_build, "tools", "aisd"),
        "perfbench": os.path.join(harness_build, "perfbench"),
        "exec_probe": os.path.join(harness_build, "exec_probe"),
    }


def fingerprint(paths):
    digest = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as f:
            for block in iter(lambda: f.read(1 << 20), b""):
                digest.update(block)
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        fail("no repository sources next to " + bench_dir)

    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(build_dir, exist_ok=True)
    binaries = build(root, bench_dir, build_dir)

    work_dir = os.path.relpath(
        os.path.join(build_dir, "run",
                     "%s-%d" % (args.workload, os.getpid())), root)
    cmd = [binaries["perfbench"],
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           "--aisc", binaries["aisc"],
           "--aisd", binaries["aisd"],
           "--exec-probe", binaries["exec_probe"],
           "--work-dir", work_dir,
           "--state-dir", os.path.join(build_dir, "state"),
           "--fingerprint", fingerprint(binaries.values()),
           "--build-type", BUILD_TYPE,
           "--cpu", str(max(os.sched_getaffinity(0)))]
    sys.stdout.flush()
    done = subprocess.run(cmd, cwd=root)
    return done.returncode if done.returncode >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""End-to-end benchmark of lrb_serve (see e2ebench/README.md).

Builds the repository's lrb_serve and the lrb_e2e load generator from
source into .bench_build/e2ebench, then runs one workload against a child
lrb_serve and passes lrb_e2e's output through. The last stdout line is one
JSON object with the keys correct, attempted, failed and metrics.

    python3 e2ebench/run.py --workload solve-unique --seed 1 --seconds 10 --trace 0
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
WORKLOADS = ("solve-unique", "solve-repeat-ptas", "session-churn")
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("repository sources not found next to e2ebench/")
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    # Build output goes to stderr so the result stays the last stdout line.
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run([cmake, "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run([cmake, "--build", BUILD, "--target", "lrb_e2e",
                    "lrb_serve", "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)


def commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-one-reply", action="store_true",
                        help="flip one byte of one stored reply before the "
                             "checks; the run must then fail")
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be >= 1")

    try:
        build()
    except subprocess.CalledProcessError as error:
        fail("build failed: %s" % error)
    run_dir = os.path.join(BUILD, "run")
    os.makedirs(run_dir, exist_ok=True)
    command = [os.path.join(BUILD, "lrb_e2e"),
               "--serve", os.path.join(BUILD, "lrb", "tools", "lrb_serve"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--commit", commit()]
    if args.corrupt_one_reply:
        command.append("--corrupt-one-reply")
    # Its own process group, so a timeout takes lrb_serve down with it.
    child = subprocess.Popen(command, cwd=run_dir, stdout=subprocess.PIPE,
                             text=True, start_new_session=True)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(child)
        fail("lrb_e2e did not finish within %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(out)
    sys.stdout.flush()
    return child.returncode


def stop_group(child):
    """SIGKILLs the child's process group and waits until it is gone."""
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    child.wait()
    while True:
        try:
            os.killpg(child.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


if __name__ == "__main__":
    sys.exit(main())

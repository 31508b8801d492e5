#!/usr/bin/env python3
"""End-to-end benchmark entry point for scoded.

Run from the root of a scoded checkout:

    python3 e2ebench/run.py --workload gate_tall --seed 1 --seconds 25 --trace 0

Builds the library, the `scoded` CLI and the `e2e_bench` runner from this
checkout into $CARGO_TARGET_DIR (default .bench_build) on first use, then
runs one workload in a fresh directory under .bench_work/. Progress and the
metric table go to stdout; the last stdout line is the JSON result. With
--trace 1 the Chrome trace is kept as .bench_work/trace-<workload>-seed<N>.json.

Exits non-zero without printing a result when the checkout has no scoded
sources, the build fails, or e2e_bench fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("gate_tall", "tau_numeric", "fd_highcard")
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configures (once) and builds e2e_bench and the CLI; returns their paths."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no scoded sources next to %s; run from a full checkout" % BENCH_DIR, 2)
    log_path = os.path.join(build_dir, "e2ebench-build.log")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "scoded", "e2e_bench", "-j", "4"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as text:
                    sys.stderr.write(text.read()[-4000:])
                fail("build failed (full log: %s)" % log_path)
    return (os.path.join(build_dir, "e2e_bench"),
            os.path.join(build_dir, "scoded", "tools", "scoded"))


def reap_group(pgid):
    """Kills whatever e2e_bench left in its process group and waits for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.time() + 5
    while time.time() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the workload (self-test only; timings are not comparable)")
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    runner, cli = build(build_dir)

    work_root = os.path.join(ROOT, ".bench_work")
    workdir = os.path.join(work_root, "%s-seed%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    trace_out = os.path.join(work_root, "trace-%s-seed%d.json" % (args.workload, args.seed))
    command = [runner, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--cli", cli, "--workdir", workdir, "--scale", str(args.scale),
               "--trace-out", trace_out]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        reap_group(proc.pid)
        proc.communicate()
        shutil.rmtree(workdir, ignore_errors=True)
        fail("e2e_bench exceeded %d s" % RUN_TIMEOUT_S)
    reap_group(proc.pid)
    shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        fail("e2e_bench exited with code %d" % proc.returncode, proc.returncode)
    lines = out.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("e2e_bench printed no result line")


if __name__ == "__main__":
    main()

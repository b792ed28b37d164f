#!/usr/bin/env python3
"""Build and run the repo benchmark for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The script builds perfbench/bench.exe
with dune, then runs it in a fresh process with NAB_JOBS=1 and with every
scratch file (socket directories, campaign stores) under .bench_build/.
The last line of standard output is the benchmark's JSON result. Exit
codes: 0 success, 1 build or run failure, 2 bad usage or a directory that
does not hold the repo's sources, 3 workload skipped (reason printed).
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ["session-bulk", "stream-sat", "socket-fleet", "campaign-cold"]
TIMEOUT_S = 170
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRATCH = ".bench_build"


def fail(code, msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def git_commit():
    """HEAD of the checkout, or "unknown" when ROOT is not itself a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seconds < 1:
        fail(2, "--seconds must be at least 1")

    for needed in ("dune-project", "lib", "BENCH_stream.json"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(2, f"{ROOT} is not a checkout of the repo (no {needed})")
    if shutil.which("dune") is None:
        fail(1, "dune is not on PATH")

    # dune's shared cache lives outside the checkout; keep the build inside it.
    build = subprocess.run(["dune", "build", "--root", ".", "./perfbench/bench.exe"],
                           cwd=ROOT, capture_output=True, text=True,
                           env=dict(os.environ, DUNE_CACHE="disabled"))
    if build.returncode != 0:
        sys.stderr.write(build.stdout + build.stderr)
        fail(1, "build failed")

    tmp = os.path.join(SCRATCH, "tmp")
    os.makedirs(os.path.join(ROOT, tmp), exist_ok=True)
    env = dict(os.environ, NAB_JOBS="1", TMPDIR=tmp)
    cmd = [os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", git_commit()]
    # Own process group: on a timeout the benchmark and any socket node
    # processes it spawned are killed together, then reaped.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(1, f"{args.workload} did not finish within {TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if code != 0:
        fail(code if code in (1, 3) else 1, f"{args.workload} exited with code {code}")


if __name__ == "__main__":
    main()

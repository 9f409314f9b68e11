#!/usr/bin/env python3
"""Builds steno_bench from this source tree and runs one workload.

Run from the root of a checkout:

    python3 stenobench/run.py --workload exec --seed 1 --seconds 10 --trace 0

The build (CMake, Release) goes to .bench_build/ in the working directory;
the first run pays for it, later runs only check that it is up to date.
--trace 1 records spans, writes them to .bench_build/traces/<workload>.json
as a Chrome trace (the latest traced run of each workload) and prints the
per-layer metrics instead of the end-to-end ones.
--json FILE also writes the run's result with a host stamp (what
compare.py reads). The last line of standard output is the result object
printed by the harness.

Everything the run writes stays under .bench_build/: the JIT's temporary
sources and shared objects live in a per-run directory there (TMPDIR),
removed when the run ends. The harness runs in its own process group,
which is killed when the run ends, and this script waits for every
process the run left behind.
"""

import argparse
import ctypes
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE_ROOT = os.path.dirname(HERE)
WORKLOADS = ("exec", "exec_stream")
RUN_TIMEOUT_S = 170
PR_SET_CHILD_SUBREAPER = 36


def become_subreaper():
    """Makes processes orphaned during the run (a compiler whose parent
    was killed) children of this script, so that it can wait for them."""
    try:
        ctypes.CDLL(None).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def build(build_dir):
    """Configures once and builds the harness. Build output goes to
    stderr so the result stays the last stdout line."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j4", "--target",
                    "steno_bench"],
                   stdout=sys.stderr, check=True)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--json", help="also write the result here")
    args = p.parse_args()

    if not os.path.isfile(os.path.join(SOURCE_ROOT, "src", "steno", "Steno.h")):
        print("run.py: no Steno source tree at " + SOURCE_ROOT, file=sys.stderr)
        return 2
    build_dir = os.path.abspath(".bench_build")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print("run.py: build failed: %s" % e, file=sys.stderr)
        return 2

    tmp_root = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
    cmd = [os.path.join(build_dir, "steno_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace", os.path.join(traces, args.workload + ".json")]
    if args.json:
        cmd += ["--json", os.path.abspath(args.json)]
    become_subreaper()
    proc = subprocess.Popen(cmd, env=dict(os.environ, TMPDIR=tmp),
                            start_new_session=True)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: %s overran %d s; killed" % (args.workload,
                                                   RUN_TIMEOUT_S),
              file=sys.stderr)
        rc = 3
    finally:
        # The harness and the compilers the JIT spawned share its process
        # group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        while True:
            try:
                os.waitpid(-1, 0)
            except ChildProcessError:
                break
        shutil.rmtree(tmp, ignore_errors=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())

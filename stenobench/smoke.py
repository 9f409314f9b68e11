#!/usr/bin/env python3
"""Self-test of the steno_bench harness (registered with ctest).

    python3 smoke.py path/to/steno_bench path/to/BENCHMARK.json

Runs every workload scaled down (--smoke, ~2 s measured phase) untraced
and traced, and checks that each run exits 0 with a correct result, that
the metric names it prints are exactly the end-to-end (untraced) or
per-layer (traced) names BENCHMARK.json declares, and that the trace file
is valid Chrome trace JSON. Also checks that the harness refuses to start
when a STENO_* variable is set.
"""

import json
import os
import subprocess
import sys
import tempfile

WORKLOADS = ("exec", "exec_stream")


def run(bench, tmp, args, extra_env=None):
    env = dict((k, v) for k, v in os.environ.items()
               if not k.startswith("STENO_"))
    env["TMPDIR"] = tmp
    env.update(extra_env or {})
    return subprocess.run([bench] + args, env=env, capture_output=True,
                          text=True, timeout=300)


def main():
    bench, spec_path = sys.argv[1], sys.argv[2]
    with open(spec_path) as f:
        spec = json.load(f)
    declared = {
        False: [m["name"] for m in spec["end_to_end"]],
        True: [m["name"] for m in spec["per_layer"]],
    }
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        r = run(bench, tmp, ["--workload", "exec", "--seed", "1", "--smoke"],
                {"STENO_VECTORIZE": "off"})
        if r.returncode != 2 or r.stdout.strip():
            failures.append("harness did not refuse STENO_VECTORIZE "
                            "(exit %d)" % r.returncode)

        for workload in WORKLOADS:
            for traced in (False, True):
                trace = os.path.join(tmp, workload + ".trace.json")
                args = ["--workload", workload, "--seed", "1", "--smoke"]
                if traced:
                    args += ["--trace", trace]
                r = run(bench, tmp, args)
                what = "%s%s" % (workload, " (traced)" if traced else "")
                lines = r.stdout.strip().splitlines()
                if r.returncode != 0 or not lines:
                    failures.append("%s exited %d:\n%s" %
                                    (what, r.returncode, r.stderr))
                    continue
                result = json.loads(lines[-1])
                if not result["correct"] or result["attempted"] < 1:
                    failures.append("%s: incorrect result %s" %
                                    (what, lines[-1][:200]))
                printed = [l.split()[0] for l in lines[:-1]]
                if printed != list(result["metrics"]):
                    failures.append("%s: printed lines and JSON differ" % what)
                want = declared[traced]
                if sorted(printed) != sorted(want):
                    failures.append(
                        "%s: printed but undeclared %s; declared but not "
                        "printed %s" % (what,
                                        sorted(set(printed) - set(want)),
                                        sorted(set(want) - set(printed))))
                if traced:
                    with open(trace) as f:
                        events = json.load(f)["traceEvents"]
                    if not events or any(e["ph"] != "X" for e in events):
                        failures.append("%s: bad trace file" % what)
    for f in failures:
        print("FAIL: " + f)
    print("smoke: %d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

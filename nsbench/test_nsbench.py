#!/usr/bin/env python3
"""The benchmark's own test: a tiny run of every workload, traced and untraced.

    python3 nsbench/test_nsbench.py

Checks that each run is correct, fails nothing, and prints exactly the metrics
BENCHMARK.json names for its mode, each with that metric's unit; that the traced
run writes its spans; and that the oracle catches a deliberately wrong expected
value and a binding removed behind its back (the run must then exit non-zero).
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]


def run(workload, trace, *extra):
    command = RUN + ["--workload", workload, "--seed", "7", "--seconds", "1",
                     "--trace", str(trace), "--tiny", *extra]
    return subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: spec["end_to_end"], 1: spec["per_layer"]}
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            name = f"{workload} --trace {trace}"
            result = run(workload, trace)
            check(result.returncode == 0, f"{name}: exit 0 (got {result.returncode})")
            if result.returncode != 0:
                print(result.stderr[-2000:])
                continue
            report = json.loads(result.stdout.strip().splitlines()[-1])
            check(set(report) == {"correct", "attempted", "failed", "metrics"},
                  f"{name}: result keys")
            check(report["correct"] is True and report["failed"] == 0
                  and report["attempted"] >= 1, f"{name}: correct, nothing failed")
            got = report["metrics"]
            want = {m["name"]: m["unit"] for m in expected[trace]}
            check(set(got) == set(want), f"{name}: metric names match BENCHMARK.json "
                  f"(missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))})")
            check(all(got[m]["unit"] == u for m, u in want.items() if m in got),
                  f"{name}: every metric has its unit")
            if trace == 0:
                check(all(got[m]["value"] > 0 for m in want if m in got),
                      f"{name}: every end-to-end metric is non-zero")
            else:
                spans = os.path.join(ROOT, ".bench_build", "spans", workload + ".jsonl")
                check(os.path.exists(spans) and os.path.getsize(spans) > 0,
                      f"{name}: spans written")

    result = run("enquiry_mix", 0, "--corrupt-oracle")
    check(result.returncode != 0 and "oracle violation" in result.stderr,
          f"corrupt oracle: caught, exit {result.returncode}")

    # A Lookup answered NotFound for a bound name is a lost binding, not a failed
    # request: the first such Lookup must be reported as an oracle violation.
    result = run("enquiry_mix", 0, "--lose-binding")
    check(result.returncode != 0
          and "oracle violation: lookup org/dept0/member0: " in result.stderr,
          f"lost binding: caught as NotFound, exit {result.returncode}")

    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()

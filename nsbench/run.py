#!/usr/bin/env python3
"""Builds and runs the smalldb name-server benchmark (nsbench).

    python3 nsbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds nsbench from the repository's sources into .bench_build/ (brought up to
date on every run), runs one workload in a fresh data directory
under .bench_build/, and relays its report. The last line of standard output is the
result JSON. Build output goes to standard error. Exits non-zero, printing no
result, if the build or the run fails.

A run that nsbench flags as DISTURBED (the hypervisor stole over 2% of the CPUs
in more than nine tenths of its measured seconds) is
measured once more, on the same seed and a fresh data directory, when the time
left allows; the second report stands whatever it says. Both attempts' host
lines are in the output.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "nsbench")
RUN_BUDGET_S = 170  # for every attempt of one run together
DISTURBED = "host: DISTURBED"


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD, "-j", jobs]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("nsbench: build failed: " + " ".join(step))
    # Write back what the build (or anything before) left dirty, so that writeback
    # does not land on the measured fsyncs.
    os.sync()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--tiny", action="store_true", help="scaled-down run for tests")
    parser.add_argument("--corrupt-oracle", action="store_true",
                        help="plant a wrong expected value (the oracle must catch it)")
    parser.add_argument("--lose-binding", action="store_true",
                        help="remove a name the oracle expects (the oracle must catch it)")
    args = parser.parse_args()

    build()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        spans_dir = os.path.join(BUILD, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        # One file per workload, overwritten by its next traced run.
        command += ["--spans-out", os.path.join(spans_dir, args.workload + ".jsonl")]
    if args.tiny:
        command.append("--tiny")
    if args.corrupt_oracle:
        command.append("--corrupt-oracle")
    if args.lose_binding:
        command.append("--lose-binding")

    started = time.monotonic()
    deadline = started + RUN_BUDGET_S
    code, output = run_once(command, 1, RUN_BUDGET_S)
    took = time.monotonic() - started
    if code == 0 and DISTURBED in output and time.monotonic() + 1.25 * took < deadline:
        for line in output.splitlines():
            if "host:" in line:
                print(line)
        print("nsbench: measuring the disturbed run once more", flush=True)
        code, output = run_once(command, 2, deadline - time.monotonic())
    sys.stdout.write(output)
    sys.exit(code)


def run_once(command, attempt, timeout_s):
    """Runs nsbench in a fresh data directory; returns its exit code and output."""
    data_dir = os.path.join(BUILD, "data", f"run-{os.getpid()}-{attempt}")
    try:
        result = subprocess.run(command + ["--data-dir", data_dir], timeout=timeout_s,
                                stdout=subprocess.PIPE, text=True)
        return result.returncode, result.stdout
    except subprocess.TimeoutExpired:
        print(f"nsbench: run exceeded {RUN_BUDGET_S} s", file=sys.stderr)
        return 3, ""
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)


if __name__ == "__main__":
    main()

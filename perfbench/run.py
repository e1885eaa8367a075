#!/usr/bin/env python3
"""Builds the xqjg performance benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The benchmark and the library are
configured in Release into $CARGO_TARGET_DIR (default .bench_build) and
rebuilt incrementally on every call; build output goes to stderr. The
program's own output, whose last line is the JSON result, goes to stdout.
A traced run (--trace 1) also writes its spans to
<build dir>/spans/<workload>-seed<n>.jsonl.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_exec", "adhoc_prepare", "served_mix")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        sys.exit("run.py: the library sources (CMakeLists.txt, src/) are not "
                 "beside perfbench/; run it from a full source checkout")

    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    env = dict(os.environ)
    # Prepare would also run the plan verifier, and be measured with it.
    env.pop("XQJG_VALIDATE_PLANS", None)
    steps = []
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "--target", "xqjg_perfbench", "-j", jobs])
    for step in steps:
        if subprocess.call(step, stdout=sys.stderr, stderr=sys.stderr, env=env) != 0:
            sys.exit("run.py: build step failed: " + " ".join(step))

    spans_dir = os.path.join(build, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    command = [
        os.path.join(build, "xqjg_perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", args.trace,
        "--spans", os.path.join(spans_dir, "%s-seed%d.jsonl" % (args.workload, args.seed)),
    ]
    sys.stdout.flush()
    sys.exit(subprocess.call(command, env=env))


if __name__ == "__main__":
    main()

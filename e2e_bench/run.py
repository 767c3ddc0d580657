#!/usr/bin/env python3
"""Builds and runs the FairKM end-to-end benchmark.

    python3 e2e_bench/run.py --workload adult-batch --seed 7 --seconds 30 --trace 0

Run it from the repository root. The first run configures and builds the
e2e_bench program (Release) under $CARGO_TARGET_DIR (default
.bench_build); later runs only let the build check that it is up to date.
Its report goes to stdout: its metric table, then its full JSON report (every
metric with unit and sample count, and the host context). The last stdout
line is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end_to_end metrics of BENCHMARK.json for --trace 0, its
per_layer metrics for --trace 1 (a layer the workload never calls reads 0).
Exits non-zero, printing no result, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds e2e_bench; returns its path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "e2e_bench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "e2e_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["adult-batch", "tfidf-sweep", "online-window"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs (the smoke test)")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    out_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(os.path.join(out_dir, "e2e_bench"))
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"run.py: build failed: {error}", file=sys.stderr)
        return 1

    work_dir = os.path.join(out_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
    if args.trace:
        trace_dir = os.path.join(out_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.tsv")]
    if args.smoke:
        command.append("--smoke")
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} ran past {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        print(f"run.py: e2e_bench exited with {run.returncode}", file=sys.stderr)
        return 1
    report = json.loads(lines[-1])
    metrics = {}
    for metric in spec["per_layer" if args.trace else "end_to_end"]:
        name, unit = metric["name"], metric["unit"]
        measured = report["metrics"].get(name)
        if measured is None and args.trace:
            measured = {"value": 0, "unit": unit}
        if measured is None or measured["unit"] != unit:
            print(f"run.py: {args.workload} did not report {name} in {unit}",
                  file=sys.stderr)
            return 1
        metrics[name] = {"value": measured["value"], "unit": unit}
    for line in lines:
        print(line)
    print(json.dumps({"correct": report["correct"],
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

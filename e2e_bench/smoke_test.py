#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark: every workload at tiny sizes.

    python3 e2e_bench/smoke_test.py

Run it from the repository root. For each workload it runs run.py with
--smoke, untraced and traced, and asserts that the run passed its checks,
that the result line holds exactly the metrics BENCHMARK.json names with
their units, that e2e_bench's own report gives every metric a unit and a
sample count and carries the host context, and that a traced run's self
times add up to the operation span. It also checks that the benchmark
refuses to run, printing no result, where only BENCHMARK.json and the
benchmark's own files exist.
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# Layer metrics each workload must measure itself (run.py fills the others
# with 0). Together they cover every per_layer metric of BENCHMARK.json.
LAYERS = {
    "adult-batch": [
        "common.csv_read_ms", "common.csv_write_ms", "common.csv_bytes",
        "data.parse_ms", "data.prepare_ms", "core.create_ms", "core.init_ms",
        "core.run_ms", "core.finalize_ms", "core.sweeps", "core.candidates",
        "core.pruned_frac", "metrics.silhouette_ms", "metrics.sse_ms",
        "metrics.fairness_ms", "job_p50_ms", "host.slowdown",
        "trace.overhead_ms", "trace.overhead_frac"],
    "tfidf-sweep": [
        "core.create_ms", "core.init_ms", "core.run_ms", "core.finalize_ms",
        "core.sweeps", "core.candidates", "core.pruned_frac", "metrics.sse_ms",
        "metrics.fairness_ms", "job_p50_ms", "host.slowdown",
        "trace.overhead_ms", "trace.overhead_frac"],
    "online-window": [
        "serve.assign_ms", "serve.points", "serve.batches", "serve.shed",
        "online.create_ms", "online.admit_ms", "online.retire_ms",
        "online.resweep_ms", "online.resweeps", "online.generations",
        "online.resweep_frac", "step_p50_ms", "read_p50_ms", "read_p99_ms",
        "write_p50_ms", "write_p99_ms", "host.slowdown", "trace.overhead_ms",
        "trace.overhead_frac"],
}

failures = []


def expect(ok, what):
    if not ok:
        failures.append(what)
        print(f"FAIL: {what}", file=sys.stderr)


def run(workload, trace, cwd="."):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "2", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=600)


def check(workload, trace, spec):
    proc = run(workload, trace)
    tag = f"{workload} trace={trace}"
    expect(proc.returncode == 0, f"{tag}: exit code {proc.returncode}")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return
    result, report = json.loads(lines[-1]), json.loads(lines[-2])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{tag}: result keys {sorted(result)}")
    expect(result["correct"] and result["failed"] == 0 and
           result["attempted"] >= 1, f"{tag}: checks failed: {result}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    expect(list(result["metrics"]) == [m["name"] for m in wanted],
           f"{tag}: result metrics differ from BENCHMARK.json")
    for m in wanted:
        got = result["metrics"].get(m["name"], {})
        expect(got.get("unit") == m["unit"] and
               isinstance(got.get("value"), (int, float)),
               f"{tag}: {m['name']} = {got}")
    expect(set(report["host"]) ==
           {"nproc", "cpu", "kernel_backend", "build_type"},
           f"{tag}: host context {report.get('host')}")
    for name, m in report["metrics"].items():
        expect(m.get("unit") and m.get("samples", 0) >= 1,
               f"{tag}: {name} lacks a unit or a sample count: {m}")
    if trace:
        for name in LAYERS[workload]:
            expect(name in report["metrics"], f"{tag}: {name} not measured")
        sums = re.findall(r"^\s+sum\s+([\d.]+)%$", proc.stdout, re.M)
        expect(sums and all(abs(float(s) - 100.0) < 0.01 for s in sums),
               f"{tag}: self-time shares add up to {sums}")
    else:
        for m in spec["end_to_end"]:
            if m["name"] != "ok_frac":
                expect(result["metrics"][m["name"]]["value"] > 0,
                       f"{tag}: {m['name']} is not positive")


def check_refuses_without_repo(spec):
    # A directory holding only BENCHMARK.json and the benchmark's own files:
    # there is no program to build, so the run must fail and print no result.
    bare = os.path.abspath(os.path.join(".bench_build", "smoke-bare"))
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(path, os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
    proc = subprocess.run(
        [sys.executable, os.path.join(bare, "e2e_bench", "run.py"),
         "--workload", "tfidf-sweep", "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=bare, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True, timeout=180)
    expect(proc.returncode != 0, "bare directory: run.py exited with 0")
    expect("\"correct\"" not in proc.stdout, "bare directory: printed a result")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    covered = {name for names in LAYERS.values() for name in names}
    expect(covered == {m["name"] for m in spec["per_layer"]},
           "LAYERS does not cover the per_layer metrics of BENCHMARK.json")
    for workload in LAYERS:
        for trace in (0, 1):
            check(workload, trace, spec)
    check_refuses_without_repo(spec)
    print("smoke test:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

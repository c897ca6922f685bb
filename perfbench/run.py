#!/usr/bin/env python3
"""Repository benchmark: builds np_perfbench from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper_noisy --seed 1 --seconds 50 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1` (the metric
lists are in BENCHMARK.json). Build logs and diagnostics go to standard
error. Each run also writes a JSON record under `<build dir>/records/`
for compare.py. The build directory is `$CARGO_TARGET_DIR` (relative
paths are taken from the repository root), `.bench_build` by default.

Exits non-zero without printing a result when the library sources are
missing, the build fails, or the benchmark crashes or overruns.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(out_dir):
    for required in ("src/core/serving.h", "bench/algo_factory.h"):
        if not (ROOT / required).is_file():
            fail(f"missing {required}: run from a full checkout of the repository")
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(out_dir),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(out_dir), "--target", "np_perfbench",
         "-j", "4"],
    ]
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for step in steps:
        try:
            result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                    timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if result.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return out_dir / "np_perfbench"


def expected_digest(workload, seed):
    digests = json.loads((HERE / "digests.json").read_text())
    return digests.get(workload, {}).get(str(seed))


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def write_record(out_dir, args, result):
    records = out_dir / "records"
    records.mkdir(parents=True, exist_ok=True)
    metrics = result["metrics"]
    overhead = metrics.get("trace_overhead", {}).get("value")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "trace_overhead": overhead,
        "metrics": [{"name": name, "unit": m["unit"], "value": m["value"],
                     "workload": args.workload}
                    for name, m in metrics.items()],
    }
    path = records / (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                      f"{time.time_ns()}.json")
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"perfbench: record {path}", file=sys.stderr)


def run_binary(command):
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"np_perfbench overran {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        fail(f"np_perfbench exited with {run.returncode}")
    lines = run.stdout.strip().splitlines()
    if not lines:
        fail("np_perfbench printed no result")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    out_dir = build_dir()
    binary = build(out_dir)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    digest = expected_digest(args.workload, args.seed)
    if digest:
        command += ["--expect-digest", digest]
    result = run_binary(command)

    declared = declared_metrics(args.trace)
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    if emitted != declared:
        fail(f"emitted metrics differ from BENCHMARK.json: "
             f"{sorted(set(emitted.items()) ^ set(declared.items()))}")
    write_record(out_dir, args, result)
    print(json.dumps(result))


if __name__ == "__main__":
    main()

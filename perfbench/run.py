#!/usr/bin/env python3
"""Build and run one perfbench workload; print its result as JSON.

    python3 perfbench/run.py --workload fleet_scale --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The first run configures and builds the
library and the benchmark binary into .bench_build/perfbench (Release);
later runs only rebuild what changed. The binary runs the workload
in a process of its own, so peak RSS and set-up time belong to that
workload alone.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0 and
the per-layer metrics with --trace 1, as listed in BENCHMARK.json.
Per-layer metrics of a layer the workload does not exercise read 0.

Correctness: the binary checks conservation, repeat- and trace-
invariance of the deterministic outputs; this wrapper additionally
compares their fingerprint with the one recorded for the seed in
perfbench/digests.json, when there is one. Any failed check makes the
exit code nonzero. --record stores the fingerprint for the seed instead.
A missing build, a crashed binary or a malformed metric set prints no
result and exits nonzero.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
DIGESTS = os.path.join(HERE, "digests.json")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"[run.py] {message}", file=sys.stderr, flush=True)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "perfbench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(step))
            return False
    return True


def load_json(path, default):
    if not os.path.exists(path):
        return default
    with open(path) as handle:
        return json.load(handle)


def main():
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"), None)
    if spec is None:
        log("BENCHMARK.json not found")
        return 1
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="record this seed's output fingerprint")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not build():
        return 1

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"workload exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"perfbench exited with {proc.returncode}")
        return 1
    raw = json.loads(lines[-1])

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        got = raw["metrics"].get(name, {"value": 0, "unit": unit}
                                 if args.trace else None)
        if (got is None or got["unit"] != unit
                or not math.isfinite(got["value"])
                or (not args.trace and got["value"] == 0)):
            log(f"metric {name}: {got} is not a finite, nonzero {unit}")
            return 1
        metrics[name] = {"value": got["value"], "unit": unit}

    correct = raw["correct"]
    attempted = raw["attempted"]
    failed = raw["failed"]
    digests = load_json(DIGESTS, {})
    recorded = digests.get(args.workload, {})
    seed_key = str(args.seed)
    if args.record:
        recorded[seed_key] = raw["digest"]
        digests[args.workload] = recorded
        with open(DIGESTS, "w") as handle:
            json.dump(digests, handle, indent=2, sort_keys=True)
            handle.write("\n")
    elif seed_key in recorded:
        attempted += 1
        if raw["digest"] != recorded[seed_key]:
            failed += 1
            correct = False
            log(f"output fingerprint {raw['digest']} != recorded "
                f"{recorded[seed_key]} for seed {args.seed}")

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

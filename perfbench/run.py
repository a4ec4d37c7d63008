#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark is built with
`cargo build --release --offline` into `$CARGO_TARGET_DIR` (default
`.bench_build`); spans and temporary stores go to `perfbench/out/`. The
last line of standard output is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`BENCHMARK.json` is the one list of metric names and units: the program
prints names and values, and this script adds each unit and checks that
the names are the ones `BENCHMARK.json` lists for the run's mode
(`end_to_end` with `--trace 0`, `per_layer` with `--trace 1`). A
per-layer metric of a layer the workload never calls is 0.

Exits non-zero, without a result line, when the program's sources are
missing, the build fails, or the run fails or overruns.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = ROOT / "BENCHMARK.json"
WORKLOADS = ["cold_discovery", "disk_reopen", "serve_ingest"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        fail("--seed must be >= 0 and --seconds within 1..120")

    for needed in ("BENCHMARK.json", "Cargo.toml", "src", "crates", "vendor"):
        if not (ROOT / needed).exists():
            fail(f"program source {needed} not found next to the benchmark")

    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", str(HERE / "Cargo.toml")],
            stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as err:
        fail(f"build did not finish: {err}")
    if build.returncode != 0:
        fail(f"build failed with code {build.returncode}")

    exe = target / "release" / "perfbench"
    work = HERE / "out"
    try:
        run = subprocess.run(
            [str(exe), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work-dir", str(work)],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as err:
        fail(f"run did not finish: {err}")
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        fail(f"run failed with code {run.returncode}")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result line has unexpected keys")
    result["metrics"] = with_units(result["metrics"], args.trace)
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


def with_units(values, trace):
    """Orders the emitted metrics as BENCHMARK.json lists them and adds
    their units; fails on a name it does not list or an end-to-end metric
    the program left out."""
    section = json.loads(BENCHMARK.read_text())["per_layer" if trace else "end_to_end"]
    unknown = sorted(set(values) - {m["name"] for m in section})
    if unknown:
        fail(f"metrics not in BENCHMARK.json: {', '.join(unknown)}")
    metrics = {}
    for m in section:
        value = values.get(m["name"])
        if value is None:
            if not trace:
                fail(f"end-to-end metric {m['name']} missing")
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics


if __name__ == "__main__":
    main()

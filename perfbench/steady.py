#!/usr/bin/env python3
"""Steadiness report: run one workload over several seeds, in one or more
sets, and compare the spread of each metric with its bound in
BENCHMARK.json.

    python3 perfbench/steady.py --workload disk_reopen --seeds 1-10 --repeat 2
    python3 perfbench/steady.py --workload serve_ingest --seeds 1-5

Each run goes through `run.py`. A set is one run of every seed, and sets
run one after another. For each set and each metric the report prints
the median, the quartiles (`statistics.quantiles(values, n=4)`) and the
spread `(q3 - q1) / median` against the metric's bound, and names every
metric whose spread breaks its bound. With two or more sets it also
prints, per metric, how far each later set's median moved from the first
set's in the metric's worse direction, and the median over seeds of the
difference between runs of the same seed. Runs of the same seed must
repeat their exact `counts` line; a run whose counts differ from the
first run of its seed is flagged unsteady and left out of the figures, as
is a run with a failed check. Exits 1 if any run was left out, any
spread breaks its bound, or any median moved by more than its bound.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return None
    counts = next((l[len("counts "):] for l in lines if l.startswith("counts ")), "{}")
    return {
        "seed": seed,
        "wall_s": time.monotonic() - started,
        "result": json.loads(lines[-1]),
        "counts": json.loads(counts),
    }


def value(run, name):
    return run["result"]["metrics"][name]["value"]


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    share = (q3 - q1) / med if med else (float("inf") if q3 > q1 else 0.0)
    return q1, med, q3, share


def report_set(index, runs, metrics, broken):
    print(f"\nset {index}: {len(runs)} runs")
    print(f"{'metric':<32}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>8}")
    medians = {}
    for m in metrics:
        q1, med, q3, share = spread([value(run, m["name"]) for run in runs])
        medians[m["name"]] = med
        bound = m.get("bound")
        verdict = ""
        if bound is not None and share > bound:
            verdict = "BREAKS BOUND"
            broken.append(f"{m['name']} spread in set {index}")
        elif bound is not None and share > bound / 3:
            verdict = "over a third of bound"
        print(f"{m['name']:<32}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
              f"{share:>9.4f}{bound if bound is not None else '':>8} {verdict}")
    return medians


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,5,9")
    parser.add_argument("--repeat", type=int, default=1, help="sets of runs")
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--seconds", type=int, help="default: run_seconds")
    parser.add_argument("--save", help="write every run's result to this JSON file")
    args = parser.parse_args()

    bench = json.loads(BENCHMARK.read_text())
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["per_layer" if args.trace else "end_to_end"]
    seeds = parse_seeds(args.seeds)

    sets, dropped, first_counts, saved = [], [], {}, []
    for index in range(1, args.repeat + 1):
        kept = []
        for seed in seeds:
            run = run_once(args.workload, seed, seconds, args.trace)
            if run is None:
                dropped.append((index, seed, "run failed"))
                continue
            run["set"] = index
            saved.append(run)
            r = run["result"]
            print(f"set {index} seed {seed}: {run['wall_s']:.1f} s wall, "
                  f"attempted {r['attempted']}, failed {r['failed']}, counts {run['counts']}",
                  flush=True)
            expected = first_counts.setdefault(seed, run["counts"])
            if run["counts"] != expected:
                dropped.append((index, seed, f"unsteady: counts {run['counts']} != {expected}"))
            elif not r["correct"] or r["failed"]:
                dropped.append((index, seed, f"failed {r['failed']} of {r['attempted']}"))
            else:
                kept.append(run)
        sets.append(kept)

    broken = []
    print(f"\n{args.workload}: {sum(map(len, sets))} runs kept, {len(dropped)} left out")
    for index, seed, why in dropped:
        print(f"  left out set {index} seed {seed}: {why}")
    medians = [report_set(i, runs, metrics, broken)
               for i, runs in enumerate(sets, 1) if len(runs) >= 2]

    if len(medians) >= 2:
        print(f"\n{'metric':<32}{'worse shift of later medians':>30}{'same-seed diff':>16}{'bound':>8}")
        for m in metrics:
            name, bound = m["name"], m.get("bound")
            sign = 1 if m["better"] == "lower" else -1
            first = medians[0][name]
            shifts = [sign * (later[name] - first) / first if first else 0.0
                      for later in medians[1:]]
            by_seed = {}
            for runs in sets:
                for run in runs:
                    by_seed.setdefault(run["seed"], []).append(value(run, name))
            diffs = [(max(v) - min(v)) / statistics.mean(v)
                     for v in by_seed.values() if len(v) >= 2 and statistics.mean(v)]
            same_seed = statistics.median(diffs) if diffs else 0.0
            verdict = ""
            if bound is not None and max(shifts) > bound:
                verdict = "BREAKS BOUND"
                broken.append(f"{name} median shift")
            shown = " ".join(f"{s:+.4f}" for s in shifts)
            print(f"{name:<32}{shown:>30}{same_seed:>16.4f}"
                  f"{bound if bound is not None else '':>8} {verdict}")

    if broken:
        print("breaking their bound: " + ", ".join(broken))
    if args.save:
        pathlib.Path(args.save).write_text(json.dumps(saved, indent=1))
    sys.exit(1 if broken or dropped else 0)


if __name__ == "__main__":
    main()

"""Benchmark record of a change against its parent, as one JSON file.

Runs ``perfbench/run.py`` in two checkouts, the parent's and the change's,
for every workload in ``BENCHMARK.json`` and seeds 1..10, alternating which
side runs first (the parent on odd seeds), with the benchmark's own run
length and tracing off.  Then it makes one traced run of each side per
workload, seed 1, for the per-layer metrics.  Every run's last JSON line
goes into the record as it was printed, next to each side's median and
quartiles of the end-to-end metrics, the pairs the change won, and each
side's ``src/dwlab`` line count:

    python tools/bench_record.py --parent ../parent --change . \\
        --out BENCH_tag.json

Run it on an otherwise idle machine: the two sides share it in turn.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10


def run(checkout, workload, seed, seconds, trace):
    """The JSON result line of one benchmark run in ``checkout``."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "n": len(values)}


def src_lines(checkout):
    return sum(len(p.read_text().splitlines())
               for p in sorted(Path(checkout, "src", "dwlab").glob("*.py")))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="parent checkout")
    p.add_argument("--change", required=True, help="change checkout")
    p.add_argument("--out", required=True, help="record to write")
    args = p.parse_args()
    bench = json.loads(Path(args.change, "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    sides = {"parent": args.parent, "change": args.change}

    record = {"command": bench["command"], "seconds": seconds,
              "seeds": list(range(1, PAIRS + 1)),
              "machine": {"cpus": os.cpu_count(),
                          "machine": platform.machine(),
                          "python": platform.python_version()},
              "src_dwlab_lines": {s: src_lines(c) for s, c in sides.items()},
              "workloads": {}}
    for wl in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in record["seeds"]:
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                res = run(sides[side], wl, seed, seconds, 0)
                runs.append({"seed": seed, "side": side, "result": res})
                print(wl, seed, side, json.dumps(res["metrics"]),
                      file=sys.stderr, flush=True)
        metrics = {}
        for m in bench["end_to_end"]:
            name = m["name"]
            value = {(r["seed"], r["side"]): r["result"]["metrics"][name]
                     ["value"] for r in runs}
            sign = 1.0 if m["better"] == "lower" else -1.0
            wins = sum(sign * (value[s, "parent"] - value[s, "change"]) > 0
                       for s in record["seeds"])
            metrics[name] = {
                "unit": m["unit"], "better": m["better"],
                **{side: summary([value[s, side] for s in record["seeds"]])
                   for side in sides},
                "change_wins": wins}
        traced = {side: run(c, wl, 1, seconds, 1) for side, c in sides.items()}
        record["workloads"][wl] = {
            "run_order": [[r["seed"], r["side"]] for r in runs],
            **{key: {side: sum(r["result"][key] for r in runs
                               if r["side"] == side) for side in sides}
               for key in ("attempted", "failed", "correct")},
            "end_to_end": metrics,
            "traced_seed_1": {side: {k: v["value"] for k, v
                                     in res["metrics"].items()}
                              for side, res in traced.items()},
            "runs": runs}
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()

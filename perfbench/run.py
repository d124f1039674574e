"""dwlab benchmark: one workload, timed end to end through the CLI.

Run from the root of a dwlab checkout:

    python3 perfbench/run.py --workload branch --seed 1 --seconds 15 --trace 0

The workload runs in a fresh worker process (``worker.py``) that drives
``dwlab.cli.main`` in-process.  Set-up (interpreter start, importing
``dwlab.cli`` with NumPy and SciPy, one warm-up call) is timed in that
worker and in ``SETUP_PROBES`` more processes that stop after set-up; the
median is ``setup_s``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

WORKLOADS = ("branch", "freeze", "survey")

#: extra processes that only set up, for the set-up median
SETUP_PROBES = 2

#: the whole run must end within this many seconds
DEADLINE_S = 170.0

#: outputs and traces, under the current directory
OUT_DIR = ".perfbench_out"

HERE = Path(__file__).resolve().parent


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


class WorkerError(RuntimeError):
    pass


def start_worker(args, out, deadline, extra=()):
    """Start a worker; returns (process, seconds until it reported READY)."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out), *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    # kill the worker if it outlives the run's deadline
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    proc.timer = timer
    line = proc.stdout.readline()
    ready_s = time.perf_counter() - t0
    if line.strip() != "READY":
        stop(proc)
        raise WorkerError(f"worker did not set up (exit {proc.returncode})")
    return proc, ready_s


def stop(proc):
    """Wait for a worker to end (killing it past the deadline); returns the
    rest of its standard output."""
    try:
        rest = proc.stdout.read()
        proc.wait()
    finally:
        proc.timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    return rest


def run(args):
    root = Path.cwd()
    if not (root / "src" / "dwlab" / "cli.py").is_file():
        raise WorkerError(f"no dwlab sources under {root / 'src'}; run from "
                          "the root of a dwlab checkout")
    deadline = time.monotonic() + DEADLINE_S
    out_root = root / OUT_DIR
    out_root.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-{os.getpid()}"

    setups = []
    if not args.trace:
        for k in range(SETUP_PROBES):
            proc, ready_s = start_worker(args, out_root / f"{tag}-setup{k}",
                                         deadline, ["--setup-only"])
            stop(proc)
            if proc.returncode != 0:
                raise WorkerError(f"set-up probe exited {proc.returncode}")
            setups.append(ready_s)
    extra = []
    if args.trace:
        extra = ["--trace-file",
                 str(out_root / f"trace-{args.workload}.jsonl.gz")]
    proc, ready_s = start_worker(args, out_root / tag, deadline, extra)
    setups.append(ready_s)
    rest = stop(proc)
    if proc.returncode != 0 or not rest.strip():
        raise WorkerError(f"worker exited {proc.returncode}")
    res = json.loads(rest.strip().splitlines()[-1])

    if args.trace:
        metrics = {name: {"value": v, "unit": u}
                   for name, (v, u) in res["layers"].items()}
    else:
        metrics = {
            "wall_s": {"value": res["wall_s"], "unit": "s"},
            "cpu_s": {"value": res["cpu_s"], "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print(f"workload {args.workload}, seed {args.seed}: {res['rounds']} "
          f"rounds of {res['ops_per_round']} operations, round wall times "
          + ", ".join(f"{w:.3f}" for w in res["round_wall_s"]) + " s")
    print("median operation wall times: " + ", ".join(
        f"{name} {w:.3f}" for name, w in res["op_wall_s"].items()) + " s")
    if setups[1:]:
        print(f"set-up samples: {', '.join(f'{s:.3f}' for s in setups)} s")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    return {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv=None):
    args = parse_args(argv)
    try:
        result = run(args)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One workload in one fresh process.

Imports ``dwlab.cli`` from ``src/`` of the current directory, makes one
warm-up call, and writes ``READY`` on standard output: the parent times
set-up up to that line.  With ``--setup-only`` it stops there.  Otherwise it
runs whole rounds of the workload's operations until their summed wall time
reaches ``--seconds`` (at least ``MIN_ROUNDS`` rounds), checks every output
outside the timed calls, and writes one JSON result line.  ``--trace 1``
wraps dwlab's layers for the timed rounds only and adds per-layer metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

try:
    _LIBC = ctypes.CDLL("libc.so.6")
    _LIBC.malloc_trim.argtypes = [ctypes.c_size_t]
    _LIBC.malloc_trim.restype = ctypes.c_int
except (OSError, AttributeError):
    _LIBC = None

#: rounds every run makes: repeated invocations are compared, and the
#: median of three is robust to one disturbed round
MIN_ROUNDS = 3

#: problems reported per run; the rest are counted
MAX_PROBLEMS = 20


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True,
                   help="scratch directory for this process's outputs")
    p.add_argument("--trace-file", help="where a traced run writes spans")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def fresh_heap():
    """Collect garbage and hand freed heap pages back to the system, so each
    operation starts from a heap like a fresh CLI process's: otherwise
    garbage and fragments of earlier operations set the peak RSS."""
    gc.collect()
    if _LIBC is not None:
        _LIBC.malloc_trim(0)


def verify(op, result, digests):
    """Problems with one operation's outputs.  Data files byte-identical to
    the operation's first round hold the outputs already checked there, so
    only their digests are compared."""
    digest = op.digest(result)
    if digest is not None and op.name in digests:
        if digest == digests[op.name]:
            return []
        return [f"{op.name}: data files differ from round 1",
                *op.check(result)]
    digests[op.name] = digest
    return op.check(result)


def run_rounds(ops, seconds):
    """Run whole rounds of ``ops``; returns the per-round wall and CPU times,
    the attempted and failed counts, the problems found, and each
    operation's wall times."""
    walls, cpus, problems = [], [], []
    digests, op_walls = {}, {}
    attempted = failed = 0
    while len(walls) < MIN_ROUNDS or sum(walls) < seconds:
        wall = cpu = 0.0
        for op in ops:
            attempted += 1
            fresh_heap()
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                result = op.run()
                ok = result == 0 if op.is_cli else True
            except Exception:
                traceback.print_exc()
                ok = False
            op_wall = time.perf_counter() - t0
            wall += op_wall
            cpu += time.process_time() - c0
            op_walls.setdefault(op.name, []).append(op_wall)
            if not ok:
                failed += 1
                print(f"operation {op.name} failed", file=sys.stderr)
                continue
            try:
                found = verify(op, result, digests)
            except Exception as exc:
                traceback.print_exc()
                found = [f"{op.name}: outputs unreadable ({exc})"]
            problems += [f"round {len(walls) + 1}: {p}" for p in found]
        walls.append(wall)
        cpus.append(cpu)
    return walls, cpus, attempted, failed, problems, op_walls


def main(argv=None):
    args = parse_args(argv)
    # the protocol lines go to the real stdout; anything the program prints
    # goes to stderr
    proto, sys.stdout = sys.stdout, sys.stderr
    root = Path.cwd().resolve()
    sys.path.insert(0, str(root / "src"))
    t0 = time.perf_counter()
    import dwlab.cli
    import_s = time.perf_counter() - t0
    if root not in Path(dwlab.cli.__file__).resolve().parents:
        print(f"dwlab was imported from {dwlab.cli.__file__}, outside "
              f"{root}", file=sys.stderr)
        return 1

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        warm_cfg = out / "warmup.json"
        warm_cfg.write_text(json.dumps(
            {"alpha": 0.5, "beta": 0.1, "mu": -1.0, "h": 0.5}))
        if dwlab.cli.main(["classify", "--config", str(warm_cfg),
                           "--out", str(out / "warmup")]) != 0:
            print("warm-up call failed", file=sys.stderr)
            return 1
        proto.write("READY\n")
        proto.flush()
        if args.setup_only:
            return 0
        return measure(args, out, import_s, proto)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def measure(args, out, import_s, proto):
    import tracing
    import workloads

    ops = workloads.PLANS[args.workload](args.seed, out)
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        walls, cpus, attempted, failed, problems, op_walls = run_rounds(
            ops, args.seconds)
    finally:
        if tracer:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for p in problems[:MAX_PROBLEMS]:
        print(f"check failed: {p}", file=sys.stderr)
    if len(problems) > MAX_PROBLEMS:
        print(f"... and {len(problems) - MAX_PROBLEMS} more",
              file=sys.stderr)
    result = {"rounds": len(walls), "ops_per_round": len(ops),
              "attempted": attempted, "failed": failed,
              "correct": not problems,
              "wall_s": statistics.median(walls),
              "cpu_s": statistics.median(cpus),
              "round_wall_s": walls, "peak_rss_mb": peak_rss_mb,
              "op_wall_s": {name: statistics.median(w)
                            for name, w in op_walls.items()}}
    if tracer:
        if wrappers := tracing.wrappers_left():
            print(f"tracing wrappers left behind: {wrappers}",
                  file=sys.stderr)
            return 1
        result["layers"] = tracing.layer_metrics(tracer, len(walls),
                                                 import_s)
        if args.trace_file:
            tracer.write(args.trace_file,
                         {"workload": args.workload, "seed": args.seed,
                          "rounds": len(walls), "wall_s": walls,
                          "pid": os.getpid()})
    proto.write(json.dumps(result) + "\n")
    proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

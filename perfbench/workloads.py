"""The three workloads: their inputs, operations and output checks.

A workload is a list of operations that every round runs in the same order.
Inputs are drawn from the seed once per run, so every round repeats exactly
the same calls.  The order of the operations is fixed: it decides how the
heap is laid out when the large LU factors are allocated, and with it the
peak RSS (185-241 MB on branch over three orders).  CLI operations go in-process through ``dwlab.cli.main``;
the one library operation calls ``dwlab.freezing`` directly.  Operations
look functions up on their module at call time, so a traced run sees the
wrappers ``tracing`` installs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable

import dwlab.cli
import dwlab.freezing
from dwlab.model import MaterialParams

import checks
import oracles

#: the paper's material: (alpha, beta, mu)
ALPHA, BETA, MU = 0.5, 0.1, -1.0
MATERIAL = {"alpha": ALPHA, "beta": BETA, "mu": MU}

#: worker threads of the stability map's pool (the machine's cores in the
#: reference figures).  ``center`` keeps its default of one: two workers make
#: it slower, and the overlap of their LU factorizations makes branch's
#: figures unsteady (peak RSS 224-264 MB over five seeds)
THREADS = 2

#: branch: the paper's continuation fields (h, c_cp target) and the band of
#: |h - h^*| for the center sweep
BRANCHES = ((0.5, 0.5), (10.1, -0.5))
CENTER_DH = (0.14, 0.16)

#: freeze: grid, time step, the run lengths of the two runs, and the band of
#: half-lengths Lx of the line
FREEZE_NODES = 2048
FREEZE_DT = 1e-3
FREEZE_T_CLI = 1.0
FREEZE_T_LIB = 4.0
FREEZE_LX = (96.0, 104.0)
FREEZE_H = 0.5
FREEZE_CCP = 0.5

#: survey: stability-map resolution, number of codim-2 fields, and the
#: criterion-7 fields that are shot
MAP_N = 200
N_FIELDS = 6
SHOOT_FIELDS = (0.3, 0.5, 2.0, 5.0, 8.0, 10.2, 12.0, 20.0, 35.0, 50.0)
SHOOT_TOL = 1e-12


@dataclass
class Op:
    """One timed call.  ``run`` does the work; untimed, ``check`` turns its
    result into a list of problems and ``digest`` into the SHA-256 of each
    data file it wrote (None for a library call)."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], list]
    digest: Callable[[object], dict | None]
    is_cli: bool


def cli_op(name, out, command, cfg, verify, threads=None):
    """A ``dwlab <command>`` run on ``cfg`` writing into ``out/name``."""
    cfg_path = out / f"{name}.json"
    cfg_path.write_text(json.dumps(cfg))
    op_dir = out / name
    argv = [command, "--config", str(cfg_path), "--out", str(op_dir)]
    if threads is not None:
        argv += ["--threads", str(threads)]

    def run():
        return dwlab.cli.main(argv)

    return Op(name, run, lambda _code: verify(op_dir),
              lambda _code: checks.manifest_digests(op_dir), True)


def branch(seed, out):
    """Two c_cp branches at the paper's fields and one h-sweep about h^*."""
    rng = random.Random(seed)
    ops = []
    for h, target in BRANCHES:
        cfg = {**MATERIAL, "h": h, "cont": "c_cp", "target": target}
        ops.append(cli_op(
            f"continue_h{h}", out, "continue", cfg,
            lambda d, h=h, t=target: checks.check_branch(
                checks.read_json(d / "branch.json"), h, t)))
    h_star = oracles.center_field(ALPHA, BETA, MU)
    values = [h_star - rng.uniform(*CENTER_DH),
              h_star + rng.uniform(*CENTER_DH)]
    ops.append(cli_op(
        "center_h", out, "center",
        {**MATERIAL, "sweep": "h", "values": values},
        lambda d: checks.check_center_sweep(
            checks.read_csv(d / "center_sweep.csv"),
            checks.read_json(d / "center.json"), values, ALPHA, BETA, MU)))
    return ops


def freeze(seed, out):
    """A CLI freezing run at c_cp = 0 against the closed-form frame, and a
    library run at c_cp = 0.5 from the c_cp = 0 wall against the paper's
    continuation endpoint."""
    rng = random.Random(seed)
    lx_cli, lx_lib = rng.uniform(*FREEZE_LX), rng.uniform(*FREEZE_LX)
    s0, o0 = oracles.homogeneous_frame(ALPHA, BETA, MU, FREEZE_H)

    def verify_cli(d):
        doc = checks.read_json(d / "freeze.json")
        rows = checks.read_csv(d / "terminal_profile.csv")
        return (checks.check_frame("freeze c_cp=0", doc["asymptotic_s"],
                                   doc["asymptotic_omega"], s0, o0)
                + checks.check_unit_norm("freeze c_cp=0",
                                         [r[4:7] for r in rows]))

    cli = cli_op("freeze_ccp0", out, "freeze",
                 {**MATERIAL, "h": FREEZE_H, "c_cp": 0.0, "T": FREEZE_T_CLI,
                  "dt": FREEZE_DT, "n_nodes": FREEZE_NODES, "Lx": lx_cli},
                 verify_cli)

    mp0 = MaterialParams(alpha=ALPHA, beta=BETA, mu=MU, h=FREEZE_H)
    mp = mp0.replace(c_cp=FREEZE_CCP)

    def run_lib():
        init = dwlab.freezing.initial_wall(mp0, Lx=lx_lib,
                                           n_nodes=FREEZE_NODES)
        return dwlab.freezing.run_selection(mp, init=init, T=FREEZE_T_LIB,
                                            dt=FREEZE_DT)

    def verify_lib(series):
        s, o = series.asymptotic()
        ref = oracles.PAPER_ENDPOINTS[(FREEZE_H, FREEZE_CCP)]
        label = f"freeze c_cp={FREEZE_CCP}"
        return (checks.check_frame(label, s, o, *ref)
                + checks.check_unit_norm(label, series.terminal.m.tolist()))

    ops = [cli, Op(f"freeze_ccp{FREEZE_CCP}", run_lib, verify_lib,
                   lambda _series: None, False)]
    return ops


def survey(seed, out):
    """A fine stability map, classify and melnikov over codim-2 fields off
    the poles h = +/- mu, and shots at the criterion-7 fields."""
    rng = random.Random(seed)
    map_cfg = {**MATERIAL, "h_min": -2.0 - rng.uniform(0.0, 0.5),
               "h_max": 12.0 + rng.uniform(0.0, 0.5), "n_h": MAP_N,
               "ccp_min": -0.95 + rng.uniform(0.0, 0.05),
               "ccp_max": 0.95 - rng.uniform(0.0, 0.05), "n_ccp": MAP_N}
    ops = [cli_op("stability_map", out, "stability-map", map_cfg,
                  lambda d: checks.check_stability_map(
                      checks.read_csv(d / "stability_map.csv"),
                      ALPHA, BETA, MU, MAP_N * MAP_N),
                  threads=THREADS)]

    fields = []
    h_star = oracles.center_field(ALPHA, BETA, MU)
    while len(fields) < N_FIELDS:
        h = rng.uniform(BETA / ALPHA + 0.05, h_star - 0.1)
        if abs(h + MU) > 0.05:
            fields.append((h, rng.uniform(-0.9, 0.9)))
    references = {}

    def reference(h):
        # quadrature is slow; compute it once per field, after the first
        # timed call of the run
        if h not in references:
            s0, _ = oracles.homogeneous_frame(ALPHA, BETA, MU, h)
            references[h] = oracles.melnikov_integrals(ALPHA, MU, s0)
        return references[h]

    for i, (h, c_cp) in enumerate(fields):
        ops.append(cli_op(
            f"classify_{i}", out, "classify",
            {**MATERIAL, "h": h, "c_cp": c_cp},
            lambda d, h=h, c=c_cp: checks.check_classify(
                checks.read_json(d / "classify.json"), ALPHA, BETA, MU, h,
                c)))
        ops.append(cli_op(
            f"melnikov_{i}", out, "melnikov", {**MATERIAL, "h": h},
            lambda d, h=h: checks.check_melnikov(
                checks.read_json(d / "melnikov.json"), h, reference(h))))

    for h in SHOOT_FIELDS:
        ops.append(cli_op(
            f"shoot_h{h}", out, "shoot",
            {**MATERIAL, "h": h, "tol": SHOOT_TOL,
             "epsilon": rng.uniform(5e-7, 2e-6)},
            lambda d, h=h: checks.check_shot(
                checks.read_csv(d / "trajectory.csv"),
                checks.read_json(d / "shoot.json"), h, MU)))
    return ops


PLANS = {"branch": branch, "freeze": freeze, "survey": survey}

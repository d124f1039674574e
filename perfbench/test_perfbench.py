"""Tests of the benchmark itself: every output check rejects a wrong value,
and the tracing wrappers leave nothing behind.

    python3 -m pytest perfbench -q
"""

import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import oracles
import tracing
import worker

ALPHA, BETA, MU = 0.5, 0.1, -1.0
HERE = Path(__file__).resolve().parent


# -- output checks -----------------------------------------------------------

def branch_doc(s, omega, param=0.5, terminated="reached_target"):
    return {"terminated": terminated,
            "points": [{"param": 0.0, "scalars": {"s": 0.12, "omega": 0.44}},
                       {"param": param, "scalars": {"s": s,
                                                    "omega": omega}}]}


def test_branch_endpoint():
    assert checks.check_branch(branch_doc(0.112027, 0.447173), 0.5, 0.5) == []
    assert checks.check_branch(branch_doc(0.112027 + 2e-3, 0.447173),
                               0.5, 0.5)
    assert checks.check_branch(branch_doc(0.112027, 0.447173 - 2e-3),
                               0.5, 0.5)
    assert checks.check_branch(branch_doc(0.112027, 0.447173, param=0.45),
                               0.5, 0.5)
    assert checks.check_branch(branch_doc(0.112027, 0.447173,
                                          terminated="newton_failure"),
                               0.5, 0.5)


def test_center_gap_band():
    h_star = oracles.center_field(ALPHA, BETA, MU)
    a_hh = oracles.gap_a_hh(ALPHA, MU)
    values = [h_star - 0.15, h_star + 0.13]
    doc = {"terminations": {str(v): "reached_target" for v in values}}

    def rows(factor):
        return [(v, factor * a_hh * (v - h_star) ** 2, 0.0) for v in values]

    assert a_hh < 0
    assert checks.check_center_sweep(rows(1.1), doc, values,
                                     ALPHA, BETA, MU) == []
    assert checks.check_center_sweep(rows(1.3), doc, values, ALPHA, BETA, MU)
    assert checks.check_center_sweep(rows(-1.0), doc, values,
                                     ALPHA, BETA, MU)
    assert checks.check_center_sweep(rows(1.0)[:1], doc, values,
                                     ALPHA, BETA, MU)


def map_rows(n=57):
    rows = []
    for i in range(n):
        h = -2.0 + 14.0 * i / (n - 1)
        for j in range(n):
            c = -0.95 + 1.9 * j / (n - 1)
            rows.append([h, c, oracles.stability_region(ALPHA, BETA, MU, h,
                                                        c) or "pole"])
    return rows


def test_stability_map_flipped_region():
    rows = map_rows()
    assert checks.check_stability_map(rows, ALPHA, BETA, MU, len(rows)) == []
    assert {r[2] for r in rows} >= {"bistable", "monostable+", "unstable",
                                    "pole"}
    for k in (0, len(rows) // 2, len(rows) - 1):
        flipped = [list(r) for r in rows]
        flipped[k][2] = ("unstable" if flipped[k][2] != "unstable"
                         else "bistable")
        assert checks.check_stability_map(flipped, ALPHA, BETA, MU,
                                          len(rows))
    assert checks.check_stability_map(rows[1:], ALPHA, BETA, MU, len(rows))


def test_stability_map_pole():
    assert oracles.stability_region(ALPHA, BETA, MU, -MU, 0.3) is None
    rows = [[-MU, 0.3, "pole"], [MU, 0.3, "pole"]]
    assert checks.check_stability_map(rows, ALPHA, BETA, MU, 2) == []
    rows[0][2] = "bistable"
    assert checks.check_stability_map(rows, ALPHA, BETA, MU, 2)


def test_classify_frame_and_region():
    h, c = 3.0, 0.4
    s0, o0 = oracles.homogeneous_frame(ALPHA, BETA, MU, h)
    doc = {"regime": "codim2", "s0": s0, "omega0": o0,
           "stability": {"region": oracles.stability_region(
               ALPHA, BETA, MU, h, c)}}
    assert checks.check_classify(doc, ALPHA, BETA, MU, h, c) == []
    assert checks.check_classify({**doc, "s0": s0 + 1e-9},
                                 ALPHA, BETA, MU, h, c)
    assert checks.check_classify({**doc, "regime": "center"},
                                 ALPHA, BETA, MU, h, c)
    assert checks.check_classify({**doc, "stability": {"region": "x"}},
                                 ALPHA, BETA, MU, h, c)


def test_melnikov_against_quadrature():
    from dwlab.melnikov import melnikov_integrals_closed, splitting_matrix
    from dwlab.model import MaterialParams

    h = 4.0
    s0, _ = oracles.homogeneous_frame(ALPHA, BETA, MU, h)
    ref = oracles.melnikov_integrals(ALPHA, MU, s0)
    ints = melnikov_integrals_closed(ALPHA, MU, s0)
    sm = splitting_matrix(MaterialParams(alpha=ALPHA, beta=BETA, mu=MU, h=h))
    doc = {"matrix": sm.m.tolist(), "kernel": sm.kernel.tolist(),
           "integrals": {"i_c": ints.i_c, "i_s": ints.i_s,
                         "i_cc": ints.i_cc, "i_cs": ints.i_cs}}
    assert checks.check_melnikov(doc, h, ref) == []
    for key in ("i_c", "i_s", "i_cc"):
        bad = {**doc, "integrals": {**doc["integrals"],
                                    key: doc["integrals"][key] + 1e-8}}
        assert checks.check_melnikov(bad, h, ref)
    k = doc["kernel"]
    assert checks.check_melnikov({**doc, "kernel": [k[0], k[2], k[1]]},
                                 h, ref)
    assert checks.check_melnikov({**doc, "kernel": [2 * v for v in k]},
                                 h, ref)


def wall_rows(shift=3.7, n=4001):
    rows = []
    for i in range(n):
        xi = -20.0 + 60.0 * i / (n - 1)
        rows.append([xi, *oracles.explicit_wall(xi - shift, MU)])
    return rows


def test_shot_alignment():
    doc = {"tail": "flat"}
    assert checks.check_shot(wall_rows(), doc, 2.0, MU) == []
    nudged = wall_rows()
    nudged[1500][1] += 5e-6
    assert checks.check_shot(nudged, doc, 2.0, MU)
    stretched = [[1.001 * r[0], *r[1:]] for r in wall_rows()]
    assert checks.check_shot(stretched, doc, 2.0, MU)
    wavy = wall_rows()
    for r in wavy[3 * len(wavy) // 4:]:
        r[3] = 1e-5 * math.sin(r[0])
    assert checks.check_shot(wavy, doc, 2.0, MU)
    assert checks.check_shot(wall_rows(), {"tail": "nonflat"}, 2.0, MU)


def test_frame_and_unit_norm():
    assert checks.check_frame("f", 0.12, 0.44, 0.1205, 0.4395) == []
    assert checks.check_frame("f", 0.12, 0.44, 0.1215, 0.44)
    m = [[0.6, 0.0, 0.8], [0.0, 1.0, 0.0]]
    assert checks.check_unit_norm("f", m) == []
    m[1][1] += 1e-11
    assert checks.check_unit_norm("f", m)


def test_manifest_digests(tmp_path):
    data = b"x,y\n1,2\n"
    (tmp_path / "a.csv").write_bytes(data)
    entry = {"name": "a.csv", "sha256": hashlib.sha256(data).hexdigest(),
             "bytes": len(data)}
    (tmp_path / "manifest.json").write_text(json.dumps({"files": [entry]}))
    assert checks.manifest_digests(tmp_path) == {"a.csv": entry["sha256"]}
    (tmp_path / "a.csv").write_bytes(b"x,y\n1,3\n")
    with pytest.raises(ValueError):
        checks.manifest_digests(tmp_path)


# -- rounds ------------------------------------------------------------------

class FakeOp:
    """Runs through ``results`` and ``digests`` one round at a time (the last
    entry repeats); records how often its outputs were checked."""

    def __init__(self, name, results, digests=(None,), is_cli=True):
        self.name, self.is_cli = name, is_cli
        self.results, self.digests = list(results), list(digests)
        self.rounds = self.checked = 0

    def run(self):
        self.rounds += 1
        res = self.results[min(self.rounds, len(self.results)) - 1]
        if isinstance(res, Exception):
            raise res
        return res

    def check(self, result):
        self.checked += 1
        return []

    def digest(self, result):
        return self.digests[min(self.rounds, len(self.digests)) - 1]


def test_rounds_are_whole_and_failures_counted():
    ops = [FakeOp("ok", [0], [{"a": "1"}]), FakeOp("bad", [3]),
           FakeOp("lib", [RuntimeError("boom")], is_cli=False)]
    walls, cpus, attempted, failed, problems, _ = worker.run_rounds(ops,
                                                                    0.0)
    assert len(walls) == worker.MIN_ROUNDS == len(cpus)
    assert attempted == len(ops) * len(walls)
    assert failed == 2 * len(walls)
    assert problems == []
    # identical data files are checked once, a library result every round
    assert ops[0].checked == 1
    lib = FakeOp("lib", [object()], is_cli=False)
    worker.run_rounds([lib], 0.0)
    assert lib.checked == worker.MIN_ROUNDS


def test_rounds_flag_changed_data_files():
    op = FakeOp("ok", [0], [{"a": "1"}, {"a": "2"}])
    problems = worker.run_rounds([op], 0.0)[4]
    assert problems and "differ" in problems[0]
    assert op.checked == worker.MIN_ROUNDS


# -- tracing -----------------------------------------------------------------

def bindings():
    """Every attribute of dwlab's modules and classes, by identity."""
    snap = {}
    for mod in tracing.dwlab_modules():
        for attr, val in vars(mod).items():
            snap[(mod.__name__, attr)] = id(val)
            if isinstance(val, type) and val.__module__.startswith("dwlab"):
                for cattr, cval in vars(val).items():
                    snap[(mod.__name__, attr, cattr)] = id(cval)
    return snap


def run_cli(tmp_path, command, cfg, *extra):
    import dwlab.cli
    path = tmp_path / f"{command}.json"
    path.write_text(json.dumps(cfg))
    return dwlab.cli.main([command, "--config", str(path), "--out",
                           str(tmp_path / command), *extra])


def test_tracer_removes_every_wrapper(tmp_path):
    import dwlab.cli  # noqa: F401  (loads every dwlab module)

    before = bindings()
    tr = tracing.Tracer()
    tr.install()
    try:
        assert tracing.wrappers_left()
        cfg = {"alpha": ALPHA, "beta": BETA, "mu": MU, "h": 2.0}
        assert run_cli(tmp_path, "melnikov", cfg) == 0
        assert run_cli(tmp_path, "shoot", cfg) == 0
    finally:
        tr.uninstall()
    assert tracing.wrappers_left() == []
    assert bindings() == before
    n = len(tr.name)
    assert len(tr.spans("cli.main")) == 2
    assert tr.spans("melnikov.splitting_matrix")
    assert tr.spans("shooting.solve_ivp")
    # untraced calls record nothing
    assert run_cli(tmp_path, "shoot", cfg) == 0
    assert len(tr.name) == n


def test_tracer_parents_and_self_time(tmp_path):
    cfg = {"alpha": ALPHA, "beta": BETA, "mu": MU, "n_h": 30, "n_ccp": 20}
    tr = tracing.Tracer()
    tr.install()
    try:
        assert run_cli(tmp_path, "stability-map", cfg, "--threads", "2") == 0
    finally:
        tr.uninstall()
    (main,) = tr.spans("cli.main")
    verdicts = tr.spans("classify.stability_verdict")
    assert len(verdicts) == 600
    assert all(tr.parent[i] == main for i in verdicts)
    writes = tr.spans("runio.write_csv") + tr.spans("runio.write_json")
    assert writes and all(tr.parent[i] == main for i in writes)
    duration = tr.end[main] - tr.start[main]
    assert 0.0 < tr.self_time("cli.main") < duration
    metrics = tracing.layer_metrics(tr, 1, 0.5)
    assert metrics["classify.verdicts"] == (600, "count")
    assert metrics["cli.commands"] == (1, "count")
    out = tmp_path / "trace.jsonl.gz"
    tr.write(out, {"workload": "test"})
    import gzip
    with gzip.open(out, "rt") as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 1 + len(tr.name)


def test_tracer_records_failed_calls():
    from dwlab.errors import CurvePole
    from dwlab.model import MaterialParams
    import dwlab.classify

    tr = tracing.Tracer()
    tr.install()
    try:
        with pytest.raises(CurvePole):
            dwlab.classify.stability_verdict(
                MaterialParams(alpha=ALPHA, beta=BETA, mu=MU, h=-MU))
    finally:
        tr.uninstall()
    (i,) = tr.spans("classify.stability_verdict")
    assert tr.extra[i] == {"error": "CurvePole"}


# -- command -----------------------------------------------------------------

def test_refuses_to_run_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "survey",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout

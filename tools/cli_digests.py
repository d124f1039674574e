"""SHA-256 of every data file that a fixed set of dwlab CLI runs writes.

Runs the seven commands in-process on fixed configs, among them a
continuation in h, a ``--seed-profile`` run in each of the codim-2 and
center regimes (the center one takes its free scalar htilde from the
seed's diagnostics alone), a run that exits 3, a
freezing run on the benchmark's 2048-node grid and a short one on a
4500-node grid, whose terminal_profile.csv spans two of write_csv's
blocks of rows (``runio.CSV_BLOCK_ROWS``), a shot at the zero-speed
edge h = beta/alpha, a classification of a left-moving wall
(h < beta/alpha), a melnikov and a continue run that reject that wall, a
center sweep over three unsorted values, a stability map whose node
h = 1 lies on the pole h = -mu, so that its CSV mixes float columns with
"pole" labels, a one-point map, a map with the node c_cp = 0, and
continuations at each of the collocation orders 3, 4 and 5.  Prints
one line per data file: run, exit code, file name, SHA-256.  A run that
writes no data file prints one line with ``-`` for the file name and
digest.  ``manifest.json`` is left out, since it records the wall-clock
time.
Comparing the output of two source trees checks that their files are
byte-identical:

    python tools/cli_digests.py > new.txt
    python tools/cli_digests.py --src ../other/src > old.txt
    diff old.txt new.txt
"""

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

MAT = {"alpha": 0.5, "beta": 0.1, "mu": -1.0}
SMALL = {"L": 20.0, "n_mesh": 60, "collocation_order": 3}
FREEZE = {**MAT, "h": 0.5, "T": 0.2, "n_nodes": 512}

#: (run name, command, config, name of an earlier run whose profile seeds it)
RUNS = [
    ("classify", "classify", {**MAT, "h": 5.0, "c_cp": 0.3}, None),
    ("classify-left", "classify", {**MAT, "h": 0.1}, None),
    ("melnikov", "melnikov", {**MAT, "h": 0.5}, None),
    ("melnikov-left", "melnikov", {**MAT, "h": 0.1}, None),
    ("map", "stability-map", {**MAT, "n_h": 200, "n_ccp": 200}, None),
    ("map-pole", "stability-map", {**MAT, "h_min": 0.0, "h_max": 2.0,
                                   "n_h": 5, "n_ccp": 5}, None),
    ("map-point", "stability-map", {**MAT, "n_h": 1, "n_ccp": 1}, None),
    ("map-ccp0", "stability-map", {**MAT, "h_min": -0.9, "h_max": 1.5,
                                   "n_h": 4, "ccp_min": -0.5,
                                   "ccp_max": 0.5, "n_ccp": 5}, None),
    ("shoot", "shoot", {**MAT, "h": 0.5}, None),
    ("shoot-s0", "shoot", {**MAT, "h": 0.2}, None),
    ("freeze-ccp0", "freeze", FREEZE, None),
    ("freeze-ccp0.5", "freeze", {**FREEZE, "c_cp": 0.5}, None),
    ("freeze-n2048", "freeze", {**MAT, "h": 0.5, "c_cp": 0.5, "T": 0.5,
                                "n_nodes": 2048, "Lx": 100.0}, None),
    ("freeze-n4500", "freeze", {**MAT, "h": 0.5, "T": 0.05, "dt": 5e-4,
                                "n_nodes": 4500, "Lx": 100.0}, None),
    ("cont-ccp", "continue", {**MAT, "h": 0.5, "cont": "c_cp",
                              "target": 0.5}, None),
    ("cont-ccp-h10.1", "continue", {**MAT, "h": 10.1, "cont": "c_cp",
                                    "target": -0.5}, None),
    ("center-h", "center", {**MAT, "sweep": "h", "values": [10.05, 10.35]},
     None),
    ("center-s", "center", {**MAT, "sweep": "s", "values": [4.1, 4.3]}, None),
    ("center-ccp", "center", {**MAT, "sweep": "c_cp",
                              "values": [0.05, -0.05]}, None),
    ("center-h3", "center", {**MAT, "sweep": "h",
                             "values": [10.35, 10.05, 10.2]}, None),
    ("cont-h", "continue", {**MAT, "h": 50.0, "cont": "h", "target": 45.0,
                            "L": 20.0, "n_mesh": 80}, None),
    ("continue-left", "continue", {**MAT, "h": 0.1, "cont": "c_cp",
                                   "target": 0.1}, None),
    ("cont-exit3", "continue", {**MAT, "h": 0.5, "cont": "c_cp",
                                "target": 0.999, "step0": 0.05, **SMALL},
     None),
    ("cont-seeded", "continue", {**MAT, "h": 0.5, "cont": "c_cp",
                                 "target": 0.52}, "cont-ccp"),
    ("cont-center", "continue", {**MAT, "h": 10.2, "cont": "c_cp",
                                 "target": 0.05, **SMALL}, None),
    ("cont-center-seeded", "continue", {**MAT, "h": 10.2, "cont": "s",
                                        "target": 4.05, **SMALL},
     "cont-center"),
    ("cont-order5", "continue", {**MAT, "h": 0.5, "cont": "c_cp",
                                 "target": 0.1, **SMALL,
                                 "collocation_order": 5}, None),
]


def digests(dwlab):
    """Run RUNS through the CLI entry point ``dwlab`` in a temporary
    directory, yielding the output line of each data file."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, command, cfg, seed in RUNS:
            out = Path(tmp, name)
            path = Path(tmp, name + ".json")
            path.write_text(json.dumps(cfg))
            argv = [command, "--config", str(path), "--out", str(out)]
            if seed:
                argv += ["--seed-profile", f"{tmp}/{seed}/profile.json"]
            code = dwlab(argv)
            files = [f for f in sorted(out.glob("*"))
                     if f.name != "manifest.json"]
            for f in files:
                digest = hashlib.sha256(f.read_bytes()).hexdigest()
                yield f"{name} {code} {f.name} {digest}"
            if not files:
                yield f"{name} {code} - -"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", help="source tree to import dwlab from "
                        "(default: src/ of this checkout)",
                        default=str(Path(__file__).parents[1] / "src"))
    sys.path.insert(0, parser.parse_args().src)
    from dwlab.cli import main as dwlab

    for line in digests(dwlab):
        print(line)


if __name__ == "__main__":
    main()

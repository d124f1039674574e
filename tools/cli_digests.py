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

Where they are not, ``--values OTHER_SRC`` says by how much.  It runs RUNS
on this tree in-process and on OTHER_SRC, the old side, in a child process,
and prints each exit code that changed and, for each data file whose bytes
differ, the largest absolute and relative difference of each CSV column or
JSON number path (list indices written ``[*]``) and where it occurs.  It
prints nothing when the two trees' outputs agree:

    python tools/cli_digests.py --values ../other/src
"""

import argparse
import hashlib
import json
import math
import re
import subprocess
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


#: the exit code of each run, next to the run directories of ``run_into``
CODES = "exit_codes.json"

#: a ``--values`` child: import dwlab from argv[1], run RUNS into argv[2]
CHILD = """
import sys
sys.path[:0] = [sys.argv[1], {tools!r}]
import cli_digests
from dwlab.cli import main
cli_digests.run_into(main, sys.argv[2])
"""


def _runs(dwlab, root):
    """Run RUNS through the CLI entry point ``dwlab``, each writing into its
    own directory under ``root``; yields (run name, exit code, data files)
    per run."""
    for name, command, cfg, seed in RUNS:
        out = Path(root, name)
        path = Path(root, name + ".json")
        path.write_text(json.dumps(cfg))
        argv = [command, "--config", str(path), "--out", str(out)]
        if seed:
            argv += ["--seed-profile", f"{root}/{seed}/profile.json"]
        code = dwlab(argv)
        yield name, code, [f for f in sorted(out.glob("*"))
                           if f.name != "manifest.json"]


def digests(dwlab):
    """Run RUNS through the CLI entry point ``dwlab`` in a temporary
    directory, yielding the output line of each data file."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, code, files in _runs(dwlab, tmp):
            for f in files:
                digest = hashlib.sha256(f.read_bytes()).hexdigest()
                yield f"{name} {code} {f.name} {digest}"
            if not files:
                yield f"{name} {code} - -"


def run_into(dwlab, root):
    """Run RUNS through ``dwlab`` with their outputs under ``root``, and
    write their exit codes to ``root/CODES``."""
    codes = {name: code for name, code, _ in _runs(dwlab, root)}
    Path(root, CODES).write_text(json.dumps(codes))


def _value(text):
    """A CSV cell as a float where it spells one, else as text."""
    try:
        return float(text)
    except ValueError:
        return text


def _cells(path: Path) -> dict:
    """The values of a CSV or JSON data file, grouped by CSV column or by
    JSON path with list indices written ``[*]``: {group: {where: value}}."""
    groups = {}
    if path.suffix == ".csv":
        header, *rows = path.read_text().splitlines()
        names = header.split(",")
        for i, row in enumerate(rows, 1):
            for name, cell in zip(names, row.split(",")):
                groups.setdefault(name, {})[f"row {i}"] = _value(cell)
        return groups

    def walk(v, where):
        if isinstance(v, dict):
            for k, item in v.items():
                walk(item, f"{where}.{k}" if where else k)
        elif isinstance(v, list):
            for i, item in enumerate(v):
                walk(item, f"{where}[{i}]")
        else:
            group = re.sub(r"\[\d+\]", "[*]", where)
            groups.setdefault(group, {})[where] = v
    walk(json.loads(path.read_text()), "")
    return groups


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _difference(a, b):
    """(absolute, relative) difference of two numbers; NaN equals NaN."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0, 0.0
    d = abs(a - b)
    if not math.isfinite(d):
        return math.inf, math.inf
    return d, d / max(abs(a), abs(b))


def value_differences(old: Path, new: Path) -> list:
    """Lines saying how the values of the data file ``new`` differ from
    those of ``old``: per group of ``_cells``, the largest absolute and
    relative difference of its numbers and where each occurs, and how many
    other values (text, or present in one file only) differ."""
    a, b = _cells(old), _cells(new)
    lines = []
    for group in dict.fromkeys([*a, *b]):
        va, vb = a.get(group, {}), b.get(group, {})
        worst_abs = worst_rel = (0.0, None)
        others = []
        for where in dict.fromkeys([*va, *vb]):
            x, y = va.get(where), vb.get(where)
            if _number(x) and _number(y):
                d, r = _difference(float(x), float(y))
                worst_abs = max(worst_abs, (d, where), key=lambda t: t[0])
                worst_rel = max(worst_rel, (r, where), key=lambda t: t[0])
            elif x != y or (where in va) != (where in vb):
                others.append(where)
        parts = []
        if worst_abs[1] is not None:
            parts.append(f"abs {worst_abs[0]:.3g} at {worst_abs[1]}, "
                         f"rel {worst_rel[0]:.3g} at {worst_rel[1]}")
        if others:
            parts.append(f"{len(others)} other values differ, first at "
                         f"{others[0]}")
        if parts:
            lines.append(f"  {group}: " + "; ".join(parts))
    return lines or ["  bytes differ, values equal"]


def compare(old: Path, new: Path) -> list:
    """Lines saying what differs between two ``run_into`` directories: each
    exit code that changed, each data file present in one only, and the
    value differences of each data file whose bytes differ."""
    codes_old = json.loads(Path(old, CODES).read_text())
    codes_new = json.loads(Path(new, CODES).read_text())
    lines = []
    for name in dict.fromkeys([*codes_old, *codes_new]):
        if codes_old.get(name) != codes_new.get(name):
            lines.append(f"{name} exit {codes_old.get(name)} -> "
                         f"{codes_new.get(name)}")
        files = sorted({f.name for root in (old, new)
                        for f in Path(root, name).glob("*")
                        if f.name != "manifest.json"})
        for fname in files:
            f_old, f_new = Path(old, name, fname), Path(new, name, fname)
            if not (f_old.exists() and f_new.exists()):
                which = "old" if f_old.exists() else "new"
                lines.append(f"{name} {fname}: only in the {which} tree")
            elif f_old.read_bytes() != f_new.read_bytes():
                lines.append(f"{name} {fname}")
                lines += value_differences(f_old, f_new)
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", help="source tree to import dwlab from "
                        "(default: src/ of this checkout)",
                        default=str(Path(__file__).parents[1] / "src"))
    parser.add_argument("--values", metavar="OTHER_SRC",
                        help="compare the values of the data files with "
                        "those of the source tree OTHER_SRC")
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    from dwlab.cli import main as dwlab

    if args.values is None:
        for line in digests(dwlab):
            print(line)
        return
    with tempfile.TemporaryDirectory() as tmp:
        old, new = Path(tmp, "old"), Path(tmp, "new")
        old.mkdir()
        new.mkdir()
        subprocess.run([sys.executable, "-c",
                        CHILD.format(tools=str(Path(__file__).parent)),
                        args.values, str(old)], check=True)
        run_into(dwlab, new)
        for line in compare(old, new):
            print(line)


if __name__ == "__main__":
    main()

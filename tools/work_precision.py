"""Work and precision of a collocation mesh: the error and the time of the
quantities that the continuation criteria report.

Solves, in-process and on one ``BvpConfig`` (the default of the source tree
unless ``--L`` or ``--n-mesh`` say otherwise):
  * 7b: the c_cp = 0 walls at the ten fields of criterion 7, whose error is
    their sup-norm distance to the explicit wall;
  * 8a, 8b, 8c: the (s, Omega) ends of criterion 8's c_cp branches, whose
    error is max(|ds|, |dOmega|) against the reference;
  * the center gaps htilde at h^* = 10.2 of the s-sweep to 3.7, 3.9, 4.1
    and 4.3, the c_cp-sweep to -0.05, 0.05 and 0.5, and the h-sweep to
    h^* - 0.15 and h^* + 0.15, each continued from its own base wall as
    ``dwlab center`` does (with its default step0), whose error is
    |d htilde| against the reference;
  * the frames (s, Omega) that ``run_selection`` selects at h = 0.5 on the
    2048-node line of half-length 100 with dt = 1e-3, from the c_cp = 0
    wall: at c_cp = 0 over T = 1 and T = 4, whose error is max(|ds|,
    |dOmega|) against the closed form of the homogeneous wall, and at
    c_cp = 0.5 over T = 4, whose error is that against 8a's reference.
    These runs do not depend on the mesh, and ``--write-ref`` skips them.
    The c_cp = 0.5 row measures the transient from the c_cp = 0 start
    (3.80e-4, eleven times the c_cp = 0, T = 4 error), not the scheme's
    discretization error, so it cannot judge a change to the scheme.

Prints one line per quantity: its name, value, error and wall time in
seconds.  The reference values are in ``work_precision_ref.json`` next to
this script, made by the script itself on the uniform mesh of width 0.0625
on L = 50:

    python tools/work_precision.py --L 50 --n-mesh 1600 --write-ref

A longer domain is not a better reference: past L = 50 the h = 10.1,
c_cp -> 0.5 end drifts (s by 3.4e-8 at L = 80, width 0.25).  Comparing
two source trees at their defaults:

    python tools/work_precision.py --src ../parent/src
    python tools/work_precision.py
"""

import argparse
import json
import sys
import time
from pathlib import Path

REF = Path(__file__).with_name("work_precision_ref.json")

MAT = dict(alpha=0.5, beta=0.1, mu=-1.0)
#: criterion 7's fields, and criterion 8's branches: name -> (h, c_cp target)
FIELDS_7 = (0.3, 0.5, 2.0, 5.0, 8.0, 10.2, 12.0, 20.0, 35.0, 50.0)
BRANCHES = {"8a": (0.5, 0.5), "8b": (10.1, -0.5), "8c": (10.1, 0.5)}
#: center gaps: (sweep, value), the h values as offsets from h^*
GAPS = (("s", 3.7), ("s", 3.9), ("s", 4.1), ("s", 4.3), ("c_cp", -0.05),
        ("c_cp", 0.05), ("c_cp", 0.5), ("h", -0.15), ("h", 0.15))
#: freezing runs at h = 0.5: name -> (c_cp, T); c_cp = 0.5 ends branch 8a
FREEZE_RUNS = {"freeze 0 T=1": (0.0, 1.0), "freeze 0 T=4": (0.0, 4.0),
               "freeze 0.5 T=4": (0.5, 4.0)}


def sup_norm_7b(cfg):
    """Largest sup-norm distance of the c_cp = 0 collocation walls at the
    criterion-7 fields to the explicit wall."""
    import numpy as np
    from dwlab import MaterialParams, build_bvp, homogeneous_profile
    from dwlab.continuation import solve_regime
    worst = 0.0
    for h in FIELDS_7:
        bvp = build_bvp(MaterialParams(h=h, **MAT), cfg)
        u, _ = solve_regime(bvp)
        worst = max(worst, float(np.max(np.abs(
            u - homogeneous_profile(bvp.mesh, MAT["mu"])))))
    return worst


def endpoint(h, target, cfg):
    """[s, Omega] at the end of the c_cp branch from the c_cp = 0 wall."""
    from dwlab import MaterialParams, build_bvp, continue_branch
    from dwlab.continuation import solve_regime
    bvp = build_bvp(MaterialParams(h=h, **MAT), cfg)
    u, sc = solve_regime(bvp)
    br = continue_branch(bvp, u, sc, "c_cp", target)
    if br.terminated != "reached_target":
        return [float("nan")] * 2
    return [br.end.scalars["s"], br.end.scalars["omega"]]


def center_gap(sweep, value, cfg):
    """htilde at the end of the center sweep's continuation to ``value``
    (for the h-sweep, h^* + ``value``)."""
    from dwlab import MaterialParams, build_bvp, continue_branch, thresholds
    from dwlab.continuation import solve_regime
    _, h_star = thresholds(MAT["alpha"], MAT["beta"], MAT["mu"])
    bvp = build_bvp(MaterialParams(h=h_star, **MAT), cfg)
    u, sc = solve_regime(bvp)
    target = h_star + value if sweep == "h" else value
    br = continue_branch(bvp, u, sc, sweep, target)
    if br.terminated != "reached_target":
        return float("nan")
    return br.end.scalars["htilde"]


def freeze_frame(c_cp, T):
    """[s, Omega] that ``run_selection`` selects at h = 0.5 and ``c_cp``
    over time T, from the c_cp = 0 wall on the 2048-node line of
    half-length 100, dt = 1e-3."""
    from dwlab import MaterialParams, initial_wall, run_selection
    mp0 = MaterialParams(h=0.5, **MAT)
    init = initial_wall(mp0, Lx=100.0, n_nodes=2048)
    series = run_selection(mp0.replace(c_cp=c_cp), init=init, T=T, dt=1e-3)
    return list(series.asymptotic())


def freeze_target(c_cp, ref):
    """The frame a freezing run at h = 0.5 should select: the closed form
    of the homogeneous wall at c_cp = 0, else 8a's reference endpoint."""
    from dwlab import MaterialParams, homogeneous_speed_frequency
    if c_cp == 0.0:
        wf = homogeneous_speed_frequency(MaterialParams(h=0.5, **MAT))
        return [wf.s, wf.omega]
    return ref["8a"]


def gap_name(sweep, value):
    return f"gap h*{value:+g}" if sweep == "h" else f"gap {sweep}={value:g}"


#: name -> function of the BvpConfig giving the quantity's value
QUANTITIES = {
    "7b": sup_norm_7b,
    **{name: (lambda cfg, h=h, t=t: endpoint(h, t, cfg))
       for name, (h, t) in BRANCHES.items()},
    **{gap_name(sweep, v): (lambda cfg, sweep=sweep, v=v:
                            center_gap(sweep, v, cfg))
       for sweep, v in GAPS},
}


def error(name, value, ref):
    """The error of a quantity's value: 7b's own distance to the explicit
    wall, else the largest absolute difference to ``ref[name]``."""
    if name == "7b":
        return value
    pairs = zip(value, ref[name]) if isinstance(value, list) else [
        (value, ref[name])]
    return max(abs(a - b) for a, b in pairs)


def report(name, quantity, ref):
    """Evaluate ``quantity()``, print its line with its error against
    ``ref`` (``-`` without one) and its wall time, and return its value."""
    t0 = time.perf_counter()
    value = quantity()
    seconds = time.perf_counter() - t0
    shown = (", ".join(f"{v:.12g}" for v in value)
             if isinstance(value, list) else f"{value:.12g}")
    err = "-" if ref is None else f"{error(name, value, ref):.2e}"
    print(f"{name:14s} {shown:38s} {err:>9s} {seconds:7.3f}")
    return value


def read_reference():
    return json.loads(REF.read_text())


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", help="source tree to import dwlab from "
                        "(default: src/ of this checkout)",
                        default=str(Path(__file__).parents[1] / "src"))
    parser.add_argument("--L", type=float, help="half-length of the domain")
    parser.add_argument("--n-mesh", type=int, help="number of intervals")
    parser.add_argument("--write-ref", action="store_true",
                        help=f"write the values to {REF.name}")
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    from dwlab import BvpConfig
    given = {k: v for k, v in (("L", args.L), ("n_mesh", args.n_mesh))
             if v is not None}
    cfg = BvpConfig(**given)
    ref = None if args.write_ref else read_reference()["values"]
    print(f"L {cfg.L:g}, n_mesh {cfg.n_mesh}, order "
          f"{cfg.collocation_order}, width {2 * cfg.L / cfg.n_mesh:g}")
    values = {}
    for name, quantity in QUANTITIES.items():
        values[name] = report(name, lambda: quantity(cfg), ref)
    for name, (c_cp, T) in ({} if ref is None else FREEZE_RUNS).items():
        report(name, lambda: freeze_frame(c_cp, T),
               {name: freeze_target(c_cp, ref)})
    if args.write_ref:
        argv = " ".join(["python tools/work_precision.py", *sys.argv[1:]])
        REF.write_text(json.dumps(
            {"command": argv, "config": {"L": cfg.L, "n_mesh": cfg.n_mesh,
                                         "collocation_order":
                                             cfg.collocation_order},
             "values": values}, indent=1) + "\n")


if __name__ == "__main__":
    main()

"""A branch atlas: how a fixed grid of c_cp continuations ends.

The grid takes alpha in {0.3, 0.5, 1.2}, beta in {0, 0.1, 0.4} and mu in
{-0.5, -1, -2}, and puts h at 0.1, 0.5 and 0.9 of the way from beta/alpha
to h^*, rounded to 6 decimals.  Each of these 81 walls is solved at
c_cp = 0 on the default mesh, and continued in c_cp toward -0.5 and
toward +0.5: 162 branches.

Prints one line per branch on stdout: the material, h and the target, how
the branch ended (``terminated``), its end c_cp, s and Omega, its number
of points, the rejected steps and LU factorizations summed over its points,
the largest ``far_state_distance`` along it, and 4AC - B^2 of the theta = 0
and the theta = pi chart at its end.  Each branch's wall time (the first
of a wall's two includes solving the wall) goes to stderr, so that the
stdout of two source trees can be diffed:

    python tools/branch_atlas.py --src ../parent/src > old.txt
    python tools/branch_atlas.py > new.txt
    diff old.txt new.txt

``branch_atlas_ref.txt`` next to this script is the output of

    python tools/branch_atlas.py > tools/branch_atlas_ref.txt

The whole grid takes 20-40 s on a 2-core machine.
"""

import argparse
import itertools
import sys
import time
from pathlib import Path

REF = Path(__file__).with_name("branch_atlas_ref.txt")

ALPHAS = (0.3, 0.5, 1.2)
BETAS = (0.0, 0.1, 0.4)
MUS = (-0.5, -1.0, -2.0)
#: where h lies on the way from beta/alpha to h^*
FRACTIONS = (0.1, 0.5, 0.9)
TARGETS = (-0.5, 0.5)

HEADER = ("# alpha beta mu h target terminated c_cp s omega points "
          "rejected factorizations far disc0 discpi")


def field(alpha, beta, mu, frac):
    """h at ``frac`` of the way from beta/alpha to h^*, to 6 decimals."""
    from dwlab import thresholds
    _, h_star = thresholds(alpha, beta, mu)
    return round(beta / alpha + frac * (h_star - beta / alpha), 6)


def grid():
    """The (alpha, beta, mu, h) of every wall, in the order printed."""
    for alpha, beta, mu, frac in itertools.product(ALPHAS, BETAS, MUS,
                                                   FRACTIONS):
        yield alpha, beta, mu, field(alpha, beta, mu, frac)


def branch_line(bvp, u, sc, target):
    """The line of the branch from the solved wall (``u``, ``sc``) of
    ``bvp`` to c_cp = ``target``."""
    from dwlab import PI, ZERO, chart_coefficients, continue_branch
    br = continue_branch(bvp, u, sc, "c_cp", target)
    diags = [pt.diagnostics for pt in br.points]
    prof = br.end.profile
    discs = []
    for chart in (ZERO, PI):
        co = chart_coefficients(chart, prof.mp, prof.wf)
        discs.append(repr(4.0 * co.A * co.C - co.B * co.B))
    far = max(max(d["far_state_distance"].values()) for d in diags)
    return " ".join([
        br.terminated, repr(br.end.param), repr(br.end.scalars["s"]),
        repr(br.end.scalars["omega"]), str(len(br.points)),
        str(sum(d.get("rejected_steps", 0) for d in diags)),
        str(sum(d.get("factorizations", 0) for d in diags)),
        repr(far), *discs])


def wall_lines(alpha, beta, mu, h):
    """(line, seconds) of the branch from the c_cp = 0 wall at
    (alpha, beta, mu, h) to each target; the first one's time includes
    solving the wall."""
    from dwlab import MaterialParams, build_bvp, solve_regime
    t0 = time.perf_counter()
    bvp = build_bvp(MaterialParams(alpha=alpha, beta=beta, mu=mu, h=h))
    u, sc = solve_regime(bvp)
    out = []
    for target in TARGETS:
        line = (f"{alpha!r} {beta!r} {mu!r} {h!r} {target!r} "
                + branch_line(bvp, u, sc, target))
        t1 = time.perf_counter()
        out.append((line, t1 - t0))
        t0 = t1
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", help="source tree to import dwlab from "
                        "(default: src/ of this checkout)",
                        default=str(Path(__file__).parents[1] / "src"))
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    print(HEADER, flush=True)
    total = time.perf_counter()
    for wall in grid():
        for line, seconds in wall_lines(*wall):
            print(line, flush=True)
            print(f"{seconds:.2f} s  {' '.join(line.split()[:6])}",
                  file=sys.stderr)
    print(f"total {time.perf_counter() - total:.1f} s", file=sys.stderr)


if __name__ == "__main__":
    main()

"""Command-line front end.

Subcommands: classify, melnikov, center, shoot, continue, freeze,
stability-map.  Each reads a JSON config (--config), writes deterministic
data files plus a manifest into --out, and exits 0 on success, 2 on config
errors, 3 on solver failures.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .charts import PI, ZERO, chart_equilibria, homogeneous_speed_frequency
from .classify import (classify_regime, eigenvalues_homogeneous,
                       reflect_parameters, stability_verdict, thresholds)
from .continuation import (BvpConfig, build_bvp, continue_branch,
                           newton_solve, solve_regime)
from .energy import htilde_quadratic
from .errors import ConfigError, CurvePole, DwlabError
from .freezing import initial_wall, run_selection
from .melnikov import (determinant_identity_check, melnikov_integrals_closed,
                       splitting_matrix)
from .model import MaterialParams, WaveFrame, local_wavenumber
from .runio import (branch_to_dict, manifest_entry, profile_from_dict,
                    profile_rows, profile_to_dict, write_csv, write_json)
from .shooting import shoot_to_pi_chart

__all__ = ["main"]

#: allowed configuration keys per command
_SCHEMAS = {
    "classify": {"alpha", "beta", "mu", "h", "c_cp"},
    "stability-map": {"alpha", "beta", "mu", "h_min", "h_max", "n_h",
                      "ccp_min", "ccp_max", "n_ccp"},
    "melnikov": {"alpha", "beta", "mu", "h"},
    "center": {"alpha", "beta", "mu", "sweep", "values", "L", "n_mesh",
               "collocation_order", "step0"},
    "shoot": {"alpha", "beta", "mu", "h", "c_cp", "s", "omega", "epsilon",
              "tol"},
    "continue": {"alpha", "beta", "mu", "h", "c_cp", "cont", "target",
                 "step0", "L", "n_mesh", "collocation_order"},
    "freeze": {"alpha", "beta", "mu", "h", "c_cp", "T", "dt", "n_nodes",
               "Lx"},
}

_REQUIRED = {
    "classify": {"alpha", "beta", "mu", "h"},
    "stability-map": {"alpha", "beta", "mu"},
    "melnikov": {"alpha", "beta", "mu", "h"},
    "center": {"alpha", "beta", "mu", "sweep", "values"},
    "shoot": {"alpha", "beta", "mu", "h"},
    "continue": {"alpha", "beta", "mu", "h", "cont", "target"},
    "freeze": {"alpha", "beta", "mu", "h"},
}


def _load_config(command: str, path) -> dict:
    if path is None:
        raise ConfigError("--config is required")
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config is not valid JSON (line {exc.lineno}): {exc.msg}"
        ) from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    allowed = _SCHEMAS[command]
    unknown = sorted(set(cfg) - allowed)
    if unknown:
        raise ConfigError(
            f"unknown config key(s) for {command}: {', '.join(unknown)}; "
            f"allowed: {', '.join(sorted(allowed))}")
    missing = sorted(_REQUIRED[command] - set(cfg))
    if missing:
        raise ConfigError(f"missing config key(s): {', '.join(missing)}")
    return cfg


def _material(cfg) -> MaterialParams:
    try:
        return MaterialParams(alpha=float(cfg["alpha"]),
                              beta=float(cfg["beta"]), mu=float(cfg["mu"]),
                              h=float(cfg.get("h", 0.0)),
                              c_cp=float(cfg.get("c_cp", 0.0)))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid material parameters: {exc}") from exc


def _wall_material(cfg) -> MaterialParams:
    """Material of a command that computes walls, which exist only on an
    easy axis (mu < 0)."""
    mp = _material(cfg)
    if not mp.mu < 0:
        raise ConfigError(f"walls require mu < 0, got mu = {mp.mu}")
    return mp


def _bvp_config(cfg) -> BvpConfig:
    kw = {}
    if "L" in cfg:
        kw["L"] = float(cfg["L"])
    if "n_mesh" in cfg:
        kw["n_mesh"] = int(cfg["n_mesh"])
    if "collocation_order" in cfg:
        kw["collocation_order"] = int(cfg["collocation_order"])
    try:
        return BvpConfig(**kw)
    except ValueError as exc:
        raise ConfigError(f"invalid solver config: {exc}") from exc


def _cplx(z):
    z = complex(z)
    return {"re": z.real, "im": z.imag}


# ---------------------------------------------------------------------------
# Commands: each takes (cfg, out) and returns a list of (filename, bytes)
# entries; continue also takes an optional seed profile
# ---------------------------------------------------------------------------

def cmd_classify(cfg, out: Path):
    mp = _wall_material(cfg)
    ref = reflect_parameters(mp.replace(c_cp=0.0))
    regime = classify_regime(ref.mp, reflected=ref.reflected)
    eigs = eigenvalues_homogeneous(mp.alpha, mp.beta, mp.mu,
                                   ref.mp.h if not ref.reflected
                                   else 2 * mp.beta / mp.alpha - mp.h)
    try:
        verdict = stability_verdict(mp)
        stability = {"plus_e3": verdict.plus_e3,
                     "minus_e3": verdict.minus_e3, "region": verdict.region}
    except CurvePole:
        # as stability-map labels it
        stability = {"plus_e3": None, "minus_e3": None, "region": "pole"}
    h_lo, h_hi = thresholds(mp.alpha, mp.beta, mp.mu)
    doc = {
        "regime": regime.kind,
        "s0": regime.s0,
        "omega0": regime.omega0,
        "h_star_low": h_lo,
        "h_star_high": h_hi,
        "reflected": ref.reflected,
        "eigenvalues": {
            "zero_chart": [_cplx(eigs[0]), _cplx(eigs[1]), _cplx(eigs[2])],
            "pi_chart": [_cplx(eigs[3]), _cplx(eigs[4]), _cplx(eigs[5])],
        },
        "stability": stability,
    }
    return [("classify.json", write_json(out / "classify.json", doc))]


def cmd_stability_map(cfg, out: Path):
    h_min = float(cfg.get("h_min", -2.0))
    h_max = float(cfg.get("h_max", 12.0))
    c_min = float(cfg.get("ccp_min", -0.95))
    c_max = float(cfg.get("ccp_max", 0.95))
    n_h, n_c = int(cfg.get("n_h", 57)), int(cfg.get("n_ccp", 39))
    if n_h < 1 or n_c < 1:
        raise ConfigError("n_h and n_ccp must be at least 1")
    # both corners are valid materials exactly when every grid point is
    _material({**cfg, "h": h_min, "c_cp": c_min})
    mp0 = _material({**cfg, "h": h_max, "c_cp": c_max})
    # rows ascend in (h, c_cp), also when a bound pair is given high to low
    rows = []
    for h in np.sort(np.linspace(h_min, h_max, n_h)):
        for c in np.sort(np.linspace(c_min, c_max, n_c)):
            try:
                region = stability_verdict(
                    mp0.replace(h=float(h), c_cp=float(c))).region
            except DwlabError:
                region = "pole"
            rows.append((float(h), float(c), region))
    return [("stability_map.csv", write_csv(
        out / "stability_map.csv", ["h", "c_cp", "region"], rows))]


def cmd_melnikov(cfg, out: Path):
    mp = _wall_material({**cfg, "c_cp": 0.0})
    sm = splitting_matrix(mp)
    regime = classify_regime(mp)
    r = math.sqrt(-mp.mu)
    ints = melnikov_integrals_closed(mp.alpha, mp.mu, regime.s0)
    # the identity is stated for s0 > 0 only; null at the zero-speed edge
    identity = None
    if regime.s0 > 0.0:
        lhs, rhs = determinant_identity_check(mp.alpha, mp.mu, regime.s0)
        identity = {"lhs": lhs, "rhs": rhs}
    doc = {
        "matrix": sm.m,
        "kernel": sm.kernel,
        "kernel_per_unit_ccp": sm.kernel_per_unit_ccp,
        "integrals": {"i_c": ints.i_c, "i_s": ints.i_s,
                      "i_cc": ints.i_cc, "i_cs": ints.i_cs},
        "s0": regime.s0,
        "omega0": regime.omega0,
        "sqrt_minus_mu": r,
        "determinant_identity": identity,
    }
    return [("melnikov.json", write_json(out / "melnikov.json", doc))]


def _center_point(mp, sweep, value, cfgb, step0):
    regime = classify_regime(mp)
    wf = WaveFrame(s=regime.s0, omega=regime.omega0)
    qf = htilde_quadratic(mp.alpha, mp.beta, mp.mu)
    if sweep == "c_cp":
        pred = 0.0
    elif sweep == "s":
        pred = qf.value(value - regime.s0, 0.0)
    else:
        pred = qf.value(0.0, value - mp.h)
    bvp = build_bvp(regime, mp, wf, cfgb)
    u, sc = solve_regime(bvp)
    br = continue_branch(bvp, u, sc, sweep, value, step0=step0)
    return (value, float(br.end.scalars.get("htilde", 0.0)), pred,
            br.terminated)


def cmd_center(cfg, out: Path):
    sweep = cfg["sweep"]
    if sweep not in ("c_cp", "s", "h"):
        raise ConfigError("sweep must be one of c_cp, s, h")
    values = [float(v) for v in cfg["values"]]
    if not values:
        raise ConfigError("values must be non-empty")
    mp0 = _wall_material(cfg)
    alpha, beta, mu = mp0.alpha, mp0.beta, mp0.mu
    _, h_star = thresholds(alpha, beta, mu)
    mp = mp0.replace(h=h_star)
    cfgb = _bvp_config(cfg)
    step0 = float(cfg.get("step0", 0.01))
    results = sorted((_center_point(mp, sweep, v, cfgb, step0)
                      for v in values), key=lambda r: r[0])
    rows = [(v, meas, pred) for v, meas, pred, _ in results]
    files = [("center_sweep.csv", write_csv(
        out / "center_sweep.csv",
        ["parameter", "measured", "quadratic_prediction"], rows))]
    qf = htilde_quadratic(alpha, beta, mu)
    doc = {"sweep": sweep, "h_center": h_star,
           "quadratic": {"a_ss": qf.a_ss, "a_sh": qf.a_sh, "a_hh": qf.a_hh},
           "terminations": {str(v): term for v, _, _, term in results}}
    files.append(("center.json", write_json(out / "center.json", doc)))
    return files


def cmd_shoot(cfg, out: Path):
    mp = _wall_material(cfg)
    if "s" in cfg and "omega" in cfg:
        wf = WaveFrame(s=float(cfg["s"]), omega=float(cfg["omega"]))
    elif "s" in cfg or "omega" in cfg:
        raise ConfigError("provide both s and omega, or neither")
    else:
        wf = homogeneous_speed_frequency(mp.replace(c_cp=0.0))
    eps = float(cfg.get("epsilon", 1e-6))
    tol = float(cfg.get("tol", 1e-10))
    traj, verdict = shoot_to_pi_chart(mp, wf, epsilon=eps, tol=tol)
    xs = np.linspace(traj.xs[0], traj.xs[-1], 4001)
    states = traj.at(xs)
    rows = profile_rows(xs, states)
    files = [("trajectory.csv", write_csv(
        out / "trajectory.csv",
        ["xi", "theta", "p", "q", "m1", "m2", "m3"], rows))]
    doc = {"tail": verdict.kind,
           "q_limit_estimate": verdict.q_limit_estimate,
           "oscillation_amplitude": verdict.oscillation_amplitude,
           "s": wf.s, "omega": wf.omega, "epsilon": eps,
           "xi_span": [float(traj.xs[0]), float(traj.xs[-1])]}
    files.append(("shoot.json", write_json(out / "shoot.json", doc)))
    return files


def cmd_continue(cfg, out: Path, seed_profile=None):
    mp = _wall_material(cfg)
    cont = cfg["cont"]
    if cont not in ("c_cp", "s", "omega", "h"):
        raise ConfigError("cont must be one of c_cp, s, omega, h")
    target = float(cfg["target"])
    cfgb = _bvp_config(cfg)
    seed = None
    if seed_profile is not None:
        try:
            with open(seed_profile) as fh:
                seed = profile_from_dict(json.load(fh))
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read seed profile: {exc}") from exc
        mp = seed.mp
    regime = classify_regime(mp.replace(c_cp=0.0))
    wf = (WaveFrame(s=regime.s0, omega=regime.omega0) if seed is None
          else seed.wf)
    bvp = build_bvp(regime, mp, wf, cfgb)
    if bvp.frees_or_slaves(cont):
        raise ConfigError(f"the {regime.kind} regime already determines "
                          f"{cont}; it cannot be continued")
    if seed is None:
        u, sc = solve_regime(bvp)
    else:
        scalars = (seed.diagnostics.get("free_scalars")
                   or {n: bvp.base[n] for n in bvp.free_scalars})
        scalars = {n: float(scalars[n]) for n in bvp.free_scalars}
        bvp.set_reference(seed.states, scalars)
        u, sc = newton_solve(bvp, seed.states, scalars)
    br = continue_branch(bvp, u, sc, cont, target,
                         step0=float(cfg.get("step0", 0.01)))
    files = [("branch.json", write_json(out / "branch.json",
                                        branch_to_dict(br)))]
    prof = br.end.profile
    files.append(("profile.json", write_json(out / "profile.json",
                                             profile_to_dict(prof))))
    files.append(("profile.csv", write_csv(
        out / "profile.csv", ["xi", "theta", "p", "q", "m1", "m2", "m3"],
        profile_rows(prof.mesh, prof.states))))
    if br.terminated != "reached_target":
        raise DwlabError(
            f"continuation terminated with {br.terminated} "
            f"at {cont} = {br.end.param}")
    return files


def cmd_freeze(cfg, out: Path):
    mp = _wall_material(cfg)
    init = initial_wall(mp, Lx=float(cfg.get("Lx", 100.0)),
                        n_nodes=int(cfg.get("n_nodes", 2048)))
    series = run_selection(mp, init=init, T=float(cfg.get("T", 20.0)),
                           dt=float(cfg.get("dt", 1e-3)))
    rows = list(zip(series.times, series.s, series.omega))
    files = [("freeze.csv", write_csv(out / "freeze.csv",
                                      ["t", "s", "omega"], rows))]
    s_a, o_a = series.asymptotic()
    term = series.terminal
    m = term.m
    mx = np.gradient(m, term.dx, axis=0)
    den = 1.0 - m[:, 2] ** 2
    qs = [local_wavenumber(m[i], mx[i]) if den[i] > 1e-10 else 0.0
          for i in range(len(m))]
    rows_p = np.column_stack([term.grid, np.arccos(np.clip(m[:, 2], -1, 1)),
                              np.zeros(len(m)), qs, m[:, 0], m[:, 1],
                              m[:, 2]])
    files.append(("terminal_profile.csv", write_csv(
        out / "terminal_profile.csv",
        ["xi", "theta", "p", "q", "m1", "m2", "m3"], rows_p)))
    doc = {"asymptotic_s": s_a, "asymptotic_omega": o_a,
           "T": float(cfg.get("T", 20.0)), "dt": float(cfg.get("dt", 1e-3)),
           "n_nodes": int(cfg.get("n_nodes", 2048)),
           "final_norm_deviation": term.norm_deviation}
    files.append(("freeze.json", write_json(out / "freeze.json", doc)))
    return files


_COMMANDS = {
    "classify": cmd_classify,
    "stability-map": cmd_stability_map,
    "melnikov": cmd_melnikov,
    "center": cmd_center,
    "shoot": cmd_shoot,
    "continue": cmd_continue,
    "freeze": cmd_freeze,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dwlab",
        description="Domain-wall laboratory: classification, splitting, "
                    "shooting, continuation and freezing runs.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="path to the JSON run config")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--threads", type=int, default=1,
                        help="ignored: every command runs serially; kept so "
                             "that existing invocations still parse")
    parser.add_argument("--seed-profile",
                        help="profile JSON seeding the continue command "
                             "(continue only)")
    args = parser.parse_args(argv)

    out = Path(args.out)
    t0 = time.monotonic()
    try:
        if args.seed_profile is not None and args.command != "continue":
            raise ConfigError("--seed-profile applies to continue only")
        cfg = _load_config(args.command, args.config)
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "continue":
            files = cmd_continue(cfg, out, seed_profile=args.seed_profile)
        else:
            files = _COMMANDS[args.command](cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DwlabError as exc:
        print(f"solver failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3

    import scipy

    manifest = {
        "command": args.command,
        "config": cfg,
        "versions": {"dwlab": __version__,
                     "numpy": np.__version__,
                     "scipy": scipy.__version__,
                     "python": sys.version.split()[0]},
        "wall_clock_seconds": time.monotonic() - t0,
        "files": [manifest_entry(name, data) for name, data in files],
    }
    write_json(out / "manifest.json", manifest)
    return 0


if __name__ == "__main__":
    sys.exit(main())

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
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .charts import homogeneous_speed_frequency
from .classify import (classify_regime, eigenvalues_homogeneous,
                       reflect_parameters, stability_verdict, thresholds)
from .continuation import (BvpConfig, build_bvp, check_step0,
                           continue_branch, newton_solve, solve_regime)
from .energy import htilde_quadratic
from .errors import ConfigError, CurvePole, DwlabError
from .freezing import (check_schedule, grid_spacing, initial_wall,
                       run_selection)
from .melnikov import (determinant_identity_check, melnikov_integrals_closed,
                       splitting_matrix)
from .model import MaterialParams, WaveFrame, local_wavenumber
from .runio import (branch_to_dict, manifest_entry, profile_from_dict,
                    profile_rows, profile_to_dict, write_csv, write_json)
from .shooting import (DEFAULT_EPSILON, DEFAULT_TOL, EPSILON_MAX, TOL_MAX,
                       TOL_MIN, shoot_to_pi_chart)

__all__ = ["main"]

#: the default of a key that must be given, and the value kinds; a tuple of
#: strings is a choice among them
REQUIRED = object()
NUMBER, INTEGER = "a finite number", "an integral finite number"
NUMBERS = "a non-empty list of finite numbers"


def _material(cfg, wall=True) -> MaterialParams:
    """The material of a typed config, at h = c_cp = 0 where the command has
    no such key.  Walls exist only on an easy axis (mu < 0)."""
    mp = MaterialParams(**{k: cfg.get(k, 0.0)
                           for k in ("alpha", "beta", "mu", "h", "c_cp")})
    if wall and not mp.mu < 0:
        raise ValueError(f"walls require mu < 0, got mu = {mp.mu}")
    return mp


def _bvp(cfg) -> BvpConfig:
    return BvpConfig(L=cfg["L"], n_mesh=cfg["n_mesh"],
                     collocation_order=cfg["collocation_order"])


def _swept(cfg):
    # every value swept or continued to gives a valid material
    for value in cfg.get("values", [cfg.get("target")]):
        _material({**cfg, cfg.get("sweep", cfg.get("cont")): value})


def _map_grid(cfg):
    # both corners are valid materials exactly when every grid point is
    for end in ("min", "max"):
        _material({**cfg, "h": cfg["h_" + end], "c_cp": cfg["ccp_" + end]},
                  wall=False)
    if not (cfg["n_h"] >= 1 and cfg["n_ccp"] >= 1
            and math.isfinite(cfg["h_max"] - cfg["h_min"])):
        raise ValueError("n_h and n_ccp must be at least 1, and "
                         "h_max - h_min finite")


def _shot(cfg):
    if (cfg["s"] is None) != (cfg["omega"] is None):
        raise ValueError("provide both s and omega, or neither")
    if not 0 < cfg["epsilon"] <= EPSILON_MAX:
        raise ValueError(f"epsilon must lie in (0, {EPSILON_MAX}]")
    if not TOL_MIN <= cfg["tol"] <= TOL_MAX:
        raise ValueError(f"tol must lie in [{TOL_MIN}, {TOL_MAX}]")


def _schedule(cfg):
    check_schedule(cfg["dt"], grid_spacing(cfg["Lx"], cfg["n_nodes"]),
                   cfg["alpha"], cfg["T"])


def _keys(kind, bound, **defaults):
    return {key: (kind, default, bound) for key, default in defaults.items()}


#: the material fragment: alpha, beta and mu, which _WALL extends by h, c_cp
_MATERIAL = dict(alpha=REQUIRED, beta=REQUIRED, mu=REQUIRED)
_WALL = _keys(NUMBER, _material, **_MATERIAL, h=REQUIRED, c_cp=0.0)
_CONTINUATION = {
    **_keys(NUMBER, _bvp, L=BvpConfig.L),
    **_keys(INTEGER, _bvp, n_mesh=BvpConfig.n_mesh,
            collocation_order=BvpConfig.collocation_order),
    "step0": (NUMBER, 0.01, lambda cfg: check_step0(cfg["step0"]))}

#: per command: key -> (kind, default or REQUIRED, bound).  A bound takes the
#: typed config and raises ValueError; one that several keys share runs once.
_TABLES = {
    "classify": _WALL,
    "stability-map": {
        **_keys(NUMBER, _map_grid, **_MATERIAL, h_min=-2.0, h_max=12.0,
                ccp_min=-0.95, ccp_max=0.95),
        **_keys(INTEGER, _map_grid, n_h=57, n_ccp=39)},
    "melnikov": _keys(NUMBER, _material, **_MATERIAL, h=REQUIRED),
    "center": {
        **_keys(NUMBER, _material, **_MATERIAL),
        "sweep": (("c_cp", "s", "h"), REQUIRED, None),
        "values": (NUMBERS, REQUIRED, _swept), **_CONTINUATION},
    "shoot": {
        **_WALL, **_keys(NUMBER, _shot, s=None, omega=None,
                         epsilon=DEFAULT_EPSILON, tol=DEFAULT_TOL)},
    "continue": {
        **_WALL, "cont": (("c_cp", "s", "omega", "h"), REQUIRED, None),
        "target": (NUMBER, REQUIRED, _swept), **_CONTINUATION},
    "freeze": {
        **_WALL, **_keys(NUMBER, _schedule, T=20.0, dt=1e-3, Lx=100.0),
        **_keys(INTEGER, _schedule, n_nodes=2048)},
}


def _typed(key, kind, value):
    if kind == NUMBERS and isinstance(value, list) and value:
        return [_typed(key, NUMBER, v) for v in value]
    if isinstance(kind, tuple) and value in kind:
        return value
    # bool is not a number here, and a huge int does not fit a float
    if type(value) in (int, float) and abs(value) <= sys.float_info.max:
        if kind == NUMBER:
            return float(value)
        if kind == INTEGER and value == int(value):
            return int(value)
    expected = kind if isinstance(kind, str) else "one of " + ", ".join(kind)
    raise ConfigError(f"{key} must be {expected}, got {json.dumps(value)}")


def _load_config(command: str, path):
    """The config object as read, and its typed form with the defaults
    filled in.  Raises ConfigError for an unreadable config, or for a key
    that is unknown, missing, of the wrong kind or out of its bound."""
    if path is None:
        raise ConfigError("--config is required")
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    table = _TABLES[command]
    unknown = sorted(set(raw) - set(table))
    if unknown:
        raise ConfigError(
            f"unknown config key(s) for {command}: {', '.join(unknown)}; "
            f"allowed: {', '.join(sorted(table))}")
    missing = sorted(k for k, (_, default, _) in table.items()
                     if default is REQUIRED and k not in raw)
    if missing:
        raise ConfigError(f"missing config key(s): {', '.join(missing)}")
    cfg = {k: _typed(k, kind, raw[k]) if k in raw else default
           for k, (kind, default, _) in table.items()}
    for bound in dict.fromkeys(b for _, _, b in table.values() if b):
        try:
            bound(cfg)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    return raw, cfg


#: columns of a profile or trajectory CSV
_PROFILE = ["xi", "theta", "p", "q", "m1", "m2", "m3"]


def _write(out: Path, name: str, *content):
    """Write a JSON document or CSV (header, rows) into ``out``; returns the
    (filename, bytes) entry."""
    write = write_json if name.endswith(".json") else write_csv
    return name, write(out / name, *content)


# ---------------------------------------------------------------------------
# Commands: each takes (cfg, out) and returns a list of (filename, bytes)
# entries; continue also takes an optional seed profile
# ---------------------------------------------------------------------------

def cmd_classify(cfg, out: Path):
    mp = _material(cfg)
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
    doc = {"regime": regime.kind, "s0": regime.s0, "omega0": regime.omega0,
           "h_star_low": h_lo, "h_star_high": h_hi,
           "reflected": ref.reflected,
           "eigenvalues": {"zero_chart": [complex(e) for e in eigs[:3]],
                           "pi_chart": [complex(e) for e in eigs[3:]]},
           "stability": stability}
    return [_write(out, "classify.json", doc)]


def cmd_stability_map(cfg, out: Path):
    mp0 = _material(cfg, wall=False)
    # rows ascend in (h, c_cp), also when a bound pair is given high to low
    rows = []
    for h in np.sort(np.linspace(cfg["h_min"], cfg["h_max"], cfg["n_h"])):
        for c in np.sort(np.linspace(cfg["ccp_min"], cfg["ccp_max"],
                                     cfg["n_ccp"])):
            try:
                region = stability_verdict(
                    mp0.replace(h=float(h), c_cp=float(c))).region
            except DwlabError:
                region = "pole"
            rows.append((float(h), float(c), region))
    return [_write(out, "stability_map.csv", ["h", "c_cp", "region"], rows)]


def cmd_melnikov(cfg, out: Path):
    mp = _material(cfg)
    sm = splitting_matrix(mp)
    regime = classify_regime(mp)
    ints = melnikov_integrals_closed(mp.alpha, mp.mu, regime.s0)
    # the identity is stated for s0 > 0 only; null at the zero-speed edge
    identity = None
    if regime.s0 > 0.0:
        lhs, rhs = determinant_identity_check(mp.alpha, mp.mu, regime.s0)
        identity = {"lhs": lhs, "rhs": rhs}
    doc = {"matrix": sm.m, "kernel": sm.kernel,
           "kernel_per_unit_ccp": sm.kernel_per_unit_ccp,
           "integrals": {"i_c": ints.i_c, "i_s": ints.i_s,
                         "i_cc": ints.i_cc, "i_cs": ints.i_cs},
           "s0": regime.s0, "omega0": regime.omega0,
           "sqrt_minus_mu": math.sqrt(-mp.mu),
           "determinant_identity": identity}
    return [_write(out, "melnikov.json", doc)]


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
    alpha, beta, mu = cfg["alpha"], cfg["beta"], cfg["mu"]
    _, h_star = thresholds(alpha, beta, mu)
    mp = _material(cfg).replace(h=h_star)
    results = sorted((_center_point(mp, sweep, v, _bvp(cfg), cfg["step0"])
                      for v in cfg["values"]), key=lambda r: r[0])
    rows = [(v, meas, pred) for v, meas, pred, _ in results]
    qf = htilde_quadratic(alpha, beta, mu)
    doc = {"sweep": sweep, "h_center": h_star,
           "quadratic": {"a_ss": qf.a_ss, "a_sh": qf.a_sh, "a_hh": qf.a_hh},
           "terminations": {str(v): term for v, _, _, term in results}}
    return [_write(out, "center_sweep.csv",
                   ["parameter", "measured", "quadratic_prediction"], rows),
            _write(out, "center.json", doc)]


def cmd_shoot(cfg, out: Path):
    mp = _material(cfg)
    wf = (homogeneous_speed_frequency(mp.replace(c_cp=0.0))
          if cfg["s"] is None else WaveFrame(s=cfg["s"], omega=cfg["omega"]))
    traj, verdict = shoot_to_pi_chart(mp, wf, epsilon=cfg["epsilon"],
                                      tol=cfg["tol"])
    xs = np.linspace(traj.xs[0], traj.xs[-1], 4001)
    doc = {"tail": verdict.kind,
           "q_limit_estimate": verdict.q_limit_estimate,
           "oscillation_amplitude": verdict.oscillation_amplitude,
           "s": wf.s, "omega": wf.omega, "epsilon": cfg["epsilon"],
           "xi_span": [float(traj.xs[0]), float(traj.xs[-1])]}
    return [_write(out, "trajectory.csv", _PROFILE,
                   profile_rows(xs, traj.at(xs))),
            _write(out, "shoot.json", doc)]


def _solve_seed(bvp, seed):
    """Newton-solve from a seed profile on the run's mesh, starting from its
    free-scalar values (the regime's base values when it records none)."""
    if (seed.states.shape != (bvp.n_nodes, 3)
            or not np.array_equal(seed.mesh, bvp.mesh)):
        raise ConfigError(
            f"seed profile mesh ({seed.mesh.size} nodes) differs from the "
            f"run's ({bvp.n_nodes} nodes: L {bvp.cfg.L}, n_mesh "
            f"{bvp.N}, collocation_order {bvp.m})")
    scalars = (seed.diagnostics.get("free_scalars")
               or {n: bvp.base[n] for n in bvp.free_scalars})
    missing = [n for n in bvp.free_scalars if n not in scalars]
    if missing:
        raise ConfigError(f"seed profile lacks the {bvp.mode} regime's free "
                          f"scalar(s) {', '.join(missing)}")
    scalars = {n: float(scalars[n]) for n in bvp.free_scalars}
    bvp.set_reference(seed.states, scalars)
    return newton_solve(bvp, seed.states, scalars)


def cmd_continue(cfg, out: Path, seed_profile=None):
    mp = _material(cfg)
    cont = cfg["cont"]
    seed = None
    if seed_profile is not None:
        # the seed's material replaces the config's, under the same bound
        try:
            with open(seed_profile) as fh:
                seed = profile_from_dict(json.load(fh))
            mp = _material(asdict(seed.mp))
        except (OSError, ValueError) as exc:
            raise ConfigError(f"bad seed profile: {exc}") from exc
    regime = classify_regime(mp.replace(c_cp=0.0))
    wf = (WaveFrame(s=regime.s0, omega=regime.omega0) if seed is None
          else seed.wf)
    bvp = build_bvp(regime, mp, wf, _bvp(cfg))
    if bvp.frees_or_slaves(cont):
        raise ConfigError(f"the {regime.kind} regime already determines "
                          f"{cont}; it cannot be continued")
    u, sc = solve_regime(bvp) if seed is None else _solve_seed(bvp, seed)
    br = continue_branch(bvp, u, sc, cont, cfg["target"], step0=cfg["step0"])
    prof = br.end.profile
    files = [_write(out, "branch.json", branch_to_dict(br)),
             _write(out, "profile.json", profile_to_dict(prof)),
             _write(out, "profile.csv", _PROFILE,
                    profile_rows(prof.mesh, prof.states))]
    if br.terminated != "reached_target":
        raise DwlabError(
            f"continuation terminated with {br.terminated} "
            f"at {cont} = {br.end.param}")
    return files


def cmd_freeze(cfg, out: Path):
    mp = _material(cfg)
    init = initial_wall(mp, Lx=cfg["Lx"], n_nodes=cfg["n_nodes"])
    series = run_selection(mp, init=init, T=cfg["T"], dt=cfg["dt"])
    rows = list(zip(series.times, series.s, series.omega))
    s_a, o_a = series.asymptotic()
    term = series.terminal
    m = term.m
    mx = np.gradient(m, term.dx, axis=0)
    qs = [local_wavenumber(m[i], mx[i]) if 1.0 - m[i, 2] ** 2 > 1e-10
          else 0.0 for i in range(len(m))]
    rows_p = np.column_stack([term.grid, np.arccos(np.clip(m[:, 2], -1, 1)),
                              np.zeros(len(m)), qs, *m.T])
    doc = {"asymptotic_s": s_a, "asymptotic_omega": o_a, "T": cfg["T"],
           "dt": cfg["dt"], "n_nodes": cfg["n_nodes"],
           "final_norm_deviation": term.norm_deviation}
    return [_write(out, "freeze.csv", ["t", "s", "omega"], rows),
            _write(out, "terminal_profile.csv", _PROFILE, rows_p),
            _write(out, "freeze.json", doc)]


_COMMANDS = {name: globals()["cmd_" + name.replace("-", "_")]
             for name in _TABLES}


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
        raw, cfg = _load_config(args.command, args.config)
        out.mkdir(parents=True, exist_ok=True)
        seed = {} if args.seed_profile is None else {
            "seed_profile": args.seed_profile}
        files = _COMMANDS[args.command](cfg, out, **seed)
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
        "config": raw,
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

"""Output checks.

Each check takes outputs as the program wrote them (parsed JSON documents or
CSV rows) and returns a list of problems, empty when the outputs are right.
Expected values come from ``oracles`` or from properties the method must
have, never from a stored copy of an earlier output.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

from oracles import (PAPER_ENDPOINTS, center_field, explicit_wall, gap_a_hh,
                     homogeneous_frame, stability_region)

#: relative band of the measured energy gap about a_hh dh^2
GAP_BAND = 0.20
#: sup-distance of a shot orbit to the explicit wall
WALL_TOL = 1e-6
#: nodewise | |m| - 1 | of a terminal freezing profile
NORM_TOL = 1e-12
#: closed-form integrals against the quadrature reference
INTEGRAL_TOL = 1e-10
#: published endpoint tolerances per (h, c_cp target)
ENDPOINT_TOL = {(0.5, 0.5): 1e-3, (10.1, -0.5): 1e-2}
#: distance of a branch's last c_cp from its target
PARAM_TOL = 1e-4
#: freezing (s, Omega) against their references
FRAME_TOL = 1e-3


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_csv(path):
    """Rows of a CSV file after its header; numeric cells become floats."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    out = []
    for row in rows[1:]:
        vals = []
        for cell in row:
            try:
                vals.append(float(cell))
            except ValueError:
                vals.append(cell)
        out.append(vals)
    return out


def manifest_digests(out_dir):
    """{file name: sha256} of the data files listed in ``manifest.json``.

    Raises ``ValueError`` when a listed digest or size does not match the
    file on disk."""
    out_dir = Path(out_dir)
    digests = {}
    for entry in read_json(out_dir / "manifest.json")["files"]:
        data = (out_dir / entry["name"]).read_bytes()
        if hashlib.sha256(data).hexdigest() != entry["sha256"] \
                or len(data) != entry["bytes"]:
            raise ValueError(f"manifest entry {entry['name']} does not "
                             "match the file on disk")
        digests[entry["name"]] = entry["sha256"]
    return digests


def _close(a, b, tol):
    return abs(a - b) <= tol


def check_branch(doc, h, target):
    """A c_cp branch from the explicit wall at field h reached ``target``
    and ends at the published (s, Omega)."""
    problems = []
    if doc.get("terminated") != "reached_target":
        problems.append(f"branch h={h}: terminated {doc.get('terminated')!r}")
    end = doc["points"][-1]
    # the last corrector may carry c_cp a little past the target (8.5e-6 on
    # the h = 10.1 branch); within PARAM_TOL the endpoint still compares
    # with the published one, since s and Omega move by less than 1e-5 there
    if not _close(end["param"], target, PARAM_TOL):
        problems.append(f"branch h={h}: ends at c_cp={end['param']}, "
                        f"not {target}")
    s_ref, o_ref = PAPER_ENDPOINTS[(h, target)]
    tol = ENDPOINT_TOL[(h, target)]
    s, o = end["scalars"]["s"], end["scalars"]["omega"]
    if not (_close(s, s_ref, tol) and _close(o, o_ref, tol)):
        problems.append(f"branch h={h}: endpoint ({s}, {o}) misses "
                        f"({s_ref}, {o_ref}) by more than {tol}")
    return problems


def check_center_sweep(rows, doc, values, alpha, beta, mu):
    """Each field of an h-sweep about h^* reached its value and has a
    negative energy gap within GAP_BAND of a_hh dh^2."""
    problems = []
    h_star = center_field(alpha, beta, mu)
    a_hh = gap_a_hh(alpha, mu)
    if sorted(r[0] for r in rows) != sorted(values):
        problems.append(f"center: swept {[r[0] for r in rows]}, "
                        f"asked for {values}")
    for term in doc["terminations"].values():
        if term != "reached_target":
            problems.append(f"center: a sweep point terminated {term!r}")
    for h, measured, _ in rows:
        pred = a_hh * (h - h_star) ** 2
        if not (measured < 0.0
                and abs(measured - pred) <= GAP_BAND * abs(pred)):
            problems.append(f"center h={h}: gap {measured} vs "
                            f"a_hh dh^2 = {pred}")
    return problems


def check_frame(label, s, omega, s_ref, omega_ref, tol=FRAME_TOL):
    if _close(s, s_ref, tol) and _close(omega, omega_ref, tol):
        return []
    return [f"{label}: (s, Omega) = ({s}, {omega}) misses "
            f"({s_ref}, {omega_ref}) by more than {tol}"]


def check_unit_norm(label, m_rows):
    """Every node (m1, m2, m3) has unit norm within NORM_TOL."""
    worst = max(abs(math.sqrt(m1 * m1 + m2 * m2 + m3 * m3) - 1.0)
                for m1, m2, m3 in m_rows)
    if worst <= NORM_TOL:
        return []
    return [f"{label}: nodewise | |m| - 1 | reaches {worst:.3e}"]


def check_stability_map(rows, alpha, beta, mu, n_expected):
    """Every (h, c_cp, region) row agrees with Gamma+/- (``pole`` on
    h = +/- mu)."""
    problems = []
    if len(rows) != n_expected:
        problems.append(f"map: {len(rows)} rows, expected {n_expected}")
    bad = 0
    for h, c, region in rows:
        want = stability_region(alpha, beta, mu, h, c) or "pole"
        if region != want:
            bad += 1
            if bad <= 3:
                problems.append(f"map ({h}, {c}): {region!r}, "
                                f"Gamma+/- give {want!r}")
    if bad > 3:
        problems.append(f"map: {bad} regions disagree with Gamma+/-")
    return problems


def check_classify(doc, alpha, beta, mu, h, c_cp):
    problems = []
    s0, o0 = homogeneous_frame(alpha, beta, mu, h)
    if doc["regime"] != "codim2":
        problems.append(f"classify h={h}: regime {doc['regime']!r}")
    if not (_close(doc["s0"], s0, 1e-12 * max(1.0, abs(s0)))
            and _close(doc["omega0"], o0, 1e-12 * max(1.0, abs(o0)))):
        problems.append(f"classify h={h}: (s0, Omega0) = "
                        f"({doc['s0']}, {doc['omega0']}) vs ({s0}, {o0})")
    want = stability_region(alpha, beta, mu, h, c_cp) or "pole"
    if doc["stability"]["region"] != want:
        problems.append(f"classify h={h}, c_cp={c_cp}: region "
                        f"{doc['stability']['region']!r}, Gamma+/- give "
                        f"{want!r}")
    return problems


def check_melnikov(doc, h, reference):
    """M k = 0 for a unit kernel k, and (I_C, I_S, I_CC) agree with the
    quadrature ``reference``.  I_CS is not compared: its primary
    convention is a known sign defect of the published closed form."""
    problems = []
    m, k = doc["matrix"], doc["kernel"]
    scale = max(abs(v) for row in m for v in row)
    resid = max(abs(sum(row[j] * k[j] for j in range(3))) for row in m)
    if abs(math.sqrt(sum(v * v for v in k)) - 1.0) > 1e-12:
        problems.append(f"melnikov h={h}: kernel is not a unit vector")
    if resid > 1e-12 * scale:
        problems.append(f"melnikov h={h}: |M k| = {resid:.3e}")
    ints = doc["integrals"]
    for key, ref in zip(("i_c", "i_s", "i_cc"), reference):
        if not _close(ints[key], ref, INTEGRAL_TOL):
            problems.append(f"melnikov h={h}: {key} = {ints[key]} vs "
                            f"quadrature {ref}")
    return problems


def wall_distance(rows, mu):
    """Sup-distance of sampled (xi, theta, p, q, ...) rows to the explicit
    wall, translated so both pass theta = pi/2 at the same xi."""
    r = math.sqrt(-mu)
    mid = min(rows, key=lambda row: abs(row[1] - math.pi / 2))
    xi_star = mid[0] - math.log(math.tan(mid[1] / 2.0)) / r
    worst = 0.0
    for xi, theta, p, q, *_ in rows:
        t_ref, p_ref, q_ref = explicit_wall(xi - xi_star, mu)
        worst = max(worst, abs(theta - t_ref), abs(p - p_ref),
                    abs(q - q_ref))
    return worst


def check_shot(rows, doc, h, mu):
    """The shot orbit is the explicit wall within WALL_TOL and its q-tail
    is flat."""
    problems = []
    dist = wall_distance(rows, mu)
    if not dist <= WALL_TOL:
        problems.append(f"shoot h={h}: {dist:.3e} from the explicit wall")
    tail = rows[3 * len(rows) // 4:]
    if doc["tail"] != "flat" or max(abs(row[3]) for row in tail) > WALL_TOL:
        problems.append(f"shoot h={h}: tail is not flat "
                        f"({doc['tail']!r})")
    return problems

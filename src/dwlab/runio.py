"""Deterministic serialization: JSON/CSV writers, profile schema, manifests.

All floating-point output uses 17 significant digits (full round-trip
precision) and LF newlines, so identical inputs produce byte-identical
files.  Profiles serialize to a JSON schema that reconstructs the exact
discrete solution; emitted file sets are described by a manifest with
SHA-256 content hashes.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from .continuation import Profile
from .model import MaterialParams, WaveFrame

__all__ = [
    "fmt",
    "dumps_json",
    "write_json",
    "write_csv",
    "profile_to_dict",
    "profile_from_dict",
    "branch_to_dict",
    "profile_rows",
    "sha256_bytes",
    "manifest_entry",
]


def fmt(x) -> str:
    """Fixed float formatting: 17 significant digits."""
    if isinstance(x, float) or isinstance(x, np.floating):
        if math.isnan(x):
            return "NaN"
        if math.isinf(x):
            return "Infinity" if x > 0 else "-Infinity"
        return format(float(x), ".17g")
    return str(x)


def _emit(obj, indent: int, out: list) -> None:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        items = list(obj.items())
        for i, (k, v) in enumerate(items):
            out.append(f'{pad}  {json.dumps(str(k))}: ')
            _emit(v, indent + 1, out)
            out.append(",\n" if i < len(items) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        out.append("[\n")
        for i, v in enumerate(seq):
            out.append(pad + "  ")
            _emit(v, indent + 1, out)
            out.append(",\n" if i < len(seq) - 1 else "\n")
        out.append(pad + "]")
    elif isinstance(obj, bool) or obj is None:
        out.append(json.dumps(obj))
    elif isinstance(obj, (float, np.floating)):
        out.append(fmt(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, complex):
        _emit({"re": obj.real, "im": obj.imag}, indent, out)
    else:
        out.append(json.dumps(str(obj)))


def dumps_json(obj) -> str:
    """Deterministic JSON text (insertion-ordered dicts, 17-digit floats,
    LF newlines)."""
    out: list = []
    _emit(obj, 0, out)
    out.append("\n")
    return "".join(out)


def write_json(path, obj) -> bytes:
    data = dumps_json(obj).encode()
    with open(path, "wb") as fh:
        fh.write(data)
    return data


def write_csv(path, header, rows) -> bytes:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    data = ("\n".join(lines) + "\n").encode()
    with open(path, "wb") as fh:
        fh.write(data)
    return data


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def manifest_entry(name: str, data: bytes) -> dict:
    return {"name": name, "sha256": sha256_bytes(data), "bytes": len(data)}


# ---------------------------------------------------------------------------
# Profile schema
# ---------------------------------------------------------------------------

def profile_to_dict(profile: Profile) -> dict:
    """JSON-schema form of a computed profile (exact round trip)."""
    diag = {}
    for k, v in (profile.diagnostics or {}).items():
        if isinstance(v, (int, float, str, bool)) or v is None:
            diag[k] = v
        elif isinstance(v, dict):
            diag[k] = {kk: float(vv) for kk, vv in v.items()
                       if isinstance(vv, (int, float))}
    return {
        "schema": "profile/1",
        "regime": profile.regime,
        "material": {"alpha": profile.mp.alpha, "beta": profile.mp.beta,
                     "mu": profile.mp.mu, "h": profile.mp.h,
                     "c_cp": profile.mp.c_cp},
        "frame": {"s": profile.wf.s, "omega": profile.wf.omega},
        "mesh": profile.mesh,
        "states": profile.states,
        "diagnostics": diag,
    }


def profile_from_dict(doc: dict) -> Profile:
    """Inverse of ``profile_to_dict``.  Raises ``ValueError`` for a document
    that is not a profile or lacks one of its fields."""
    if not isinstance(doc, dict) or doc.get("schema") != "profile/1":
        raise ValueError("not a profile document (schema != profile/1)")
    try:
        mat = doc["material"]
        mp = MaterialParams(alpha=mat["alpha"], beta=mat["beta"],
                            mu=mat["mu"], h=mat["h"], c_cp=mat["c_cp"])
        wf = WaveFrame(s=doc["frame"]["s"], omega=doc["frame"]["omega"])
        return Profile(mesh=np.asarray(doc["mesh"], dtype=float),
                       states=np.asarray(doc["states"], dtype=float),
                       mp=mp, wf=wf, regime=doc["regime"],
                       diagnostics=dict(doc.get("diagnostics") or {}))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed profile document "
                         f"({type(exc).__name__}: {exc})") from exc


def branch_to_dict(branch) -> dict:
    pts = []
    for pt in branch.points:
        digest = None
        if pt.profile is not None:
            digest = sha256_bytes(dumps_json(
                profile_to_dict(pt.profile)).encode())
        diag = {k: v for k, v in pt.diagnostics.items()
                if isinstance(v, (int, float, str, bool)) or v is None}
        pts.append({"param": pt.param, "scalars": pt.scalars,
                    "profile_sha256": digest, "diagnostics": diag})
    return {"schema": "branch/1", "cont_name": branch.cont_name,
            "terminated": branch.terminated, "points": pts}


def profile_rows(mesh, states):
    """CSV rows (xi, theta, p, q, m1, m2, m3); the azimuth is recovered by
    integrating the local wavenumber (zero at the left end)."""
    mesh = np.asarray(mesh, dtype=float)
    states = np.asarray(states, dtype=float)
    theta, p, q = states[:, 0], states[:, 1], states[:, 2]
    phi = np.concatenate([[0.0], np.cumsum(
        0.5 * (q[1:] + q[:-1]) * np.diff(mesh))])
    st = np.sin(theta)
    m1, m2, m3 = np.cos(phi) * st, np.sin(phi) * st, np.cos(theta)
    return np.column_stack([mesh, theta, p, q, m1, m2, m3])

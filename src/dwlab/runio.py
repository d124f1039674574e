"""Deterministic serialization: JSON/CSV writers, profile schema, manifests.

All floating-point output uses 17 significant digits (full round-trip
precision) and LF newlines, so identical inputs produce byte-identical
files.  ``fmt`` defines how one value is spelled.  Numbers are spelled in
``%`` template passes: a JSON array, or a CSV column of one block of rows,
whose items are all finite floats enters the template as ``%.17g``, which
spells a float exactly as ``fmt`` does.  A 2-D float64 array of finite
values (say, a profile's states) is one template of such rows, spelled as a
list of its 1-D rows would be.  A CSV column whose cells in a block are all
strings (say, numbers the caller spelled once with ``fmt``) enters as
``%s`` as it is.  Every other column or array is spelled by ``fmt``, cell
by cell.  Since each rule spells a cell as ``fmt`` does, a CSV column may
take different rules in different blocks without changing a byte.  A JSON
document is spelled in one pass; a CSV is spelled ``CSV_BLOCK_ROWS`` rows
at a time into one buffer, so writing it needs the output plus one block.
Profiles serialize to a JSON schema that reconstructs the exact discrete
solution; emitted file sets are described by a manifest with SHA-256
content hashes.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict
from itertools import chain, islice

import numpy as np

from .continuation import Profile
from .model import MaterialParams, WaveFrame, sphere_rows

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


def _finite_floats(seq) -> bool:
    """Whether every item of ``seq`` is a finite float (``np.float64``
    included), which ``%.17g`` spells as ``fmt`` does."""
    return (all(issubclass(t, float) for t in set(map(type, seq)))
            and all(map(math.isfinite, seq)))


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
    elif (isinstance(obj, np.ndarray) and obj.ndim == 2 and obj.size
          and obj.dtype == np.float64 and np.isfinite(obj).all()):
        # a matrix of finite floats: each row as the branch below spells a
        # 1-D array one level deeper, all in one template
        inner = "\n" + pad + "    "
        row = ("[" + inner + ("," + inner).join(["%.17g"] * obj.shape[1])
               + "\n" + pad + "  ]")
        text = ("[\n" + pad + "  " + (",\n" + pad + "  ").join(
            [row] * len(obj)) + "\n" + pad + "]")
        out.append(text % tuple(obj.ravel().tolist()))
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        if _finite_floats(seq):
            sep = ",\n" + pad + "  "
            out.append("[" + sep[1:] + sep.join(["%.17g"] * len(seq))
                       % tuple(seq) + "\n" + pad + "]")
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


#: rows spelled per template pass of ``write_csv``
CSV_BLOCK_ROWS = 4096


def _csv_blocks(rows):
    """(row count, columns) of each block of ``CSV_BLOCK_ROWS`` rows; raises
    ``ValueError`` for rows of unequal length."""
    if isinstance(rows, np.ndarray):
        for i in range(0, len(rows), CSV_BLOCK_ROWS):
            block = rows[i:i + CSV_BLOCK_ROWS]
            yield len(block), block.T.tolist()
        return
    rows, width = iter(rows), None
    while block := list(islice(rows, CSV_BLOCK_ROWS)):
        columns = list(zip(*block, strict=True))
        if width is None:
            width = len(columns)
        elif len(columns) != width:
            raise ValueError("CSV rows of unequal length")
        yield len(block), columns


def write_csv(path, header, rows) -> bytearray:
    """Write ``header`` and ``rows`` (a 2-D array, or an iterable of equally
    long rows) as CSV; returns the buffer of the bytes written.

    The rows are spelled ``CSV_BLOCK_ROWS`` at a time, each block in one
    row template appended to the buffer, so the call needs the output plus
    one block; the file is written once, and not at all if a row is
    ragged.  In a block, a column of finite floats enters the template as
    ``%.17g`` and a column of strings as ``%s``, neither with a ``fmt``
    call per cell; any other column is spelled by ``fmt`` cell by cell."""
    buf = bytearray((",".join(header) + "\n").encode())
    for n_rows, columns in _csv_blocks(rows):
        specs, args = [], []
        for col in columns:
            if _finite_floats(col):
                specs.append("%.17g")
            else:
                specs.append("%s")
                if not all(issubclass(t, str) for t in set(map(type, col))):
                    col = [fmt(v) for v in col]
            args.append(col)
        template = (",".join(specs) + "\n") * n_rows
        buf += (template % tuple(chain.from_iterable(zip(*args)))).encode()
    with open(path, "wb") as fh:
        fh.write(buf)
    return buf


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def manifest_entry(name: str, data: bytes) -> dict:
    return {"name": name, "sha256": sha256_bytes(data), "bytes": len(data)}


# ---------------------------------------------------------------------------
# Profile schema
# ---------------------------------------------------------------------------

def profile_to_dict(profile: Profile) -> dict:
    """JSON-schema form of a computed profile (exact round trip)."""
    return {
        "schema": "profile/1",
        "regime": profile.regime,
        "material": asdict(profile.mp),
        "frame": asdict(profile.wf),
        "mesh": profile.mesh,
        "states": profile.states,
        "diagnostics": profile.diagnostics,
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


def branch_to_dict(branch, profile_sha256: str) -> dict:
    """JSON form of a branch.  Only its end point carries a profile, whose
    serialized digest the caller passes in: the SHA-256 of the
    ``dumps_json`` bytes of ``profile_to_dict(branch.end.profile)``."""
    pts = [{"param": pt.param, "scalars": pt.scalars,
            "profile_sha256": (None if pt.profile is None
                               else profile_sha256),
            "diagnostics": pt.diagnostics} for pt in branch.points]
    return {"schema": "branch/1", "cont_name": branch.cont_name,
            "terminated": branch.terminated, "points": pts}


def profile_rows(mesh, states):
    """CSV rows (xi, theta, p, q, m1, m2, m3): m is the ``sphere_rows``
    blow-down, at the azimuth that integrates q from zero at the left end."""
    mesh = np.asarray(mesh, dtype=float)
    states = np.asarray(states, dtype=float)
    theta, p, q = states[:, 0], states[:, 1], states[:, 2]
    phi = np.concatenate([[0.0], np.cumsum(
        0.5 * (q[1:] + q[:-1]) * np.diff(mesh))])
    return np.column_stack([mesh, theta, p, q, *sphere_rows(theta, phi)])

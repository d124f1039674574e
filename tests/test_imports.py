"""Every imported name is read: an import that nothing uses claims a
dependency the module does not have.  And every name that a library module
exports in ``__all__`` is bound there, so ``from module import *`` works.
And every line of the library modules, the tests and the tools fits in
79 columns.

Scans the library modules (not ``__init__.py``, whose imports are the
package's re-exports), the tests and the tools.  ``from __future__``
imports are compiler switches, not names, and are skipped.

And SciPy's solver packages load only with the commands that solve: none
with ``import dwlab.cli`` or the closed-form commands, ``scipy.linalg``
alone with ``freeze``, the sparse modules but not ``scipy.integrate`` with
``continue``."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unread_imports(path: Path) -> list:
    """Names bound by the imports of the module at ``path`` that no
    expression in it reads, in order of appearance."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0]
                         for a in node.names]
        elif (isinstance(node, ast.ImportFrom)
              and node.module != "__future__"):
            imported += [a.asname or a.name for a in node.names
                         if a.name != "*"]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in dict.fromkeys(imported) if name not in read]


def test_every_import_is_read():
    files = ([p for p in sorted((ROOT / "src" / "dwlab").glob("*.py"))
              if p.name != "__init__.py"]
             + sorted((ROOT / "tests").glob("*.py"))
             + sorted((ROOT / "tools").glob("*.py")))
    assert len(files) > 20
    unread = {str(p.relative_to(ROOT)): names for p in files
              if (names := unread_imports(p))}
    assert unread == {}


def test_every_exported_name_is_bound():
    modules = [p.stem for p in sorted((ROOT / "src" / "dwlab").glob("*.py"))
               if p.name != "__init__.py"]
    unbound = {}
    for stem in modules:
        module = importlib.import_module(f"dwlab.{stem}")
        names = [n for n in getattr(module, "__all__", ())
                 if not hasattr(module, n)]
        if names:
            unbound[stem] = names
    assert len(modules) > 10
    assert unbound == {}


def test_every_line_fits_79_columns():
    files = (sorted((ROOT / "src" / "dwlab").glob("*.py"))
             + sorted((ROOT / "tests").glob("*.py"))
             + sorted((ROOT / "tools").glob("*.py")))
    assert len(files) > 30
    long = [f"{p.relative_to(ROOT)}:{n}" for p in files
            for n, line in enumerate(p.read_text().splitlines(), 1)
            if len(line) > 79]
    assert long == []


#: SciPy's packages that dwlab's solvers use, directly or through others
SCIPY_PARTS = ("scipy.sparse", "scipy.linalg", "scipy.integrate",
               "scipy.optimize", "scipy.special")

#: run in a fresh interpreter: import dwlab.cli, run each (command, config)
#: of argv[2] in-process with its output under argv[1], and print which
#: SCIPY_PARTS are loaded after the import and after each run
PROBE = """
import json, sys
from pathlib import Path
import dwlab.cli
parts, runs = json.loads(sys.argv[2])
out = Path(sys.argv[1])
loaded = {"import": [p for p in parts if p in sys.modules]}
for command, cfg in runs:
    (out / "config.json").write_text(json.dumps(cfg))
    code = dwlab.cli.main([command, "--config", str(out / "config.json"),
                           "--out", str(out / command)])
    assert code == 0, (command, code)
    loaded[command] = [p for p in parts if p in sys.modules]
print(json.dumps(loaded))
"""

MAT = {"alpha": 0.5, "beta": 0.1, "mu": -1.0}


def scipy_parts_loaded(tmp_path, runs):
    """The ``SCIPY_PARTS`` that a fresh interpreter holds after
    ``import dwlab.cli`` (key "import") and after each run (keyed by its
    command)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(tmp_path),
         json.dumps([SCIPY_PARTS, runs])],
        env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_closed_form_commands_load_no_scipy_solver(tmp_path):
    loaded = scipy_parts_loaded(tmp_path, [
        ("classify", {**MAT, "h": 5.0, "c_cp": 0.3}),
        ("melnikov", {**MAT, "h": 0.5}),
        ("stability-map", {**MAT, "n_h": 20, "n_ccp": 20}),
    ])
    assert loaded == {"import": [], "classify": [], "melnikov": [],
                      "stability-map": []}


def test_freeze_loads_linalg_only(tmp_path):
    loaded = scipy_parts_loaded(tmp_path, [
        ("freeze", {**MAT, "h": 0.5, "T": 0.05, "dt": 1e-3,
                    "n_nodes": 256, "Lx": 20.0}),
    ])
    assert loaded["import"] == []
    assert "scipy.linalg" in loaded["freeze"]
    assert "scipy.sparse" not in loaded["freeze"]
    assert "scipy.integrate" not in loaded["freeze"]


def test_continue_loads_no_integrator(tmp_path):
    loaded = scipy_parts_loaded(tmp_path, [
        ("continue", {**MAT, "h": 0.5, "cont": "c_cp", "target": 0.1,
                      "L": 20.0, "n_mesh": 60, "collocation_order": 3}),
    ])
    assert loaded["import"] == []
    assert "scipy.sparse" in loaded["continue"]
    assert "scipy.integrate" not in loaded["continue"]

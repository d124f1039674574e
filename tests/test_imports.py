"""Every imported name is read: an import that nothing uses claims a
dependency the module does not have.  And every name that a library module
exports in ``__all__`` is bound there, so ``from module import *`` works.

Scans the library modules (not ``__init__.py``, whose imports are the
package's re-exports), the tests and the tools.  ``from __future__``
imports are compiler switches, not names, and are skipped."""

import ast
import importlib
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

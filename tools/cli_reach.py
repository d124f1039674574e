"""List the dwlab library functions that no CLI run reaches.

Runs every run of ``tools/cli_digests.py`` in-process under a
``sys.setprofile`` hook, installed before dwlab is imported, and prints each
function or method defined in ``src/dwlab`` (lambdas and comprehensions
aside) whose code was never entered, in source order, then their count:

    python tools/cli_reach.py
"""

import sys
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "tools"), str(ROOT / "src")]

import cli_digests  # noqa: E402


def functions(path: Path) -> list:
    """Code objects of the functions defined in the module at ``path``,
    nested ones included, in source order."""
    stack = [compile(path.read_text(), str(path), "exec")]
    found = []
    while stack:
        consts = [c for c in stack.pop().co_consts
                  if isinstance(c, CodeType)]
        stack += consts
        found += [c for c in consts if not c.co_name.startswith("<")]
    return sorted(found, key=lambda c: c.co_firstlineno)


def main():
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename,
                         frame.f_code.co_firstlineno))

    sys.setprofile(hook)
    try:
        from dwlab.cli import main as dwlab
        for _ in cli_digests.digests(dwlab):
            pass
    finally:
        sys.setprofile(None)

    unreached = [
        f"{path.stem}.{getattr(code, 'co_qualname', code.co_name)}"
        for path in sorted((ROOT / "src" / "dwlab").glob("*.py"))
        for code in functions(path)
        if (str(path), code.co_firstlineno) not in entered]
    print("\n".join(unreached))
    print(f"{len(unreached)} functions reached by no run")


if __name__ == "__main__":
    main()

"""Run Tier-1 and pass only if its reds are exactly the four deliberate ones.

Runs the test suite of this checkout with its ``src/`` first on the path,
and writes no cache into the tree: no ``.pytest_cache``, ``.benchmarks`` or
``__pycache__``, and the Hypothesis database goes to a temporary directory.
Prints every ``[criterion ...]`` line in sorted order on stdout, so the
output of two trees can be diffed, and the verdict on stderr:

    python tools/tier1_gate.py > new.txt

Exits 0 only if the failing tests are exactly criteria 4c, 5b, 9c and 11e
and no test or module errors; otherwise 1.
"""

import os
import re
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: the acceptance tests that pin defects in the published values
DELIBERATE_REDS = {
    "tests.test_acceptance::test_criterion_04c_quadrature_grid_primary_"
    "convention",
    "tests.test_acceptance::test_criterion_05b_second_splitting_evaluation",
    "tests.test_acceptance::test_criterion_09c_energy_gap_speed_sweep",
    "tests.test_acceptance::test_criterion_11e_determinant_identity_as_"
    "printed",
}

CRITERION = re.compile(r"^\[criterion [^]]*\] (PASS|FAIL)")


def main():
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")]
                                  if p]
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPATH=os.pathsep.join(path),
                   HYPOTHESIS_STORAGE_DIRECTORY=str(Path(tmp, "hypothesis")))
        junit = Path(tmp, "junit.xml")
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q",
             "--continue-on-collection-errors", "-p", "no:cacheprovider",
             "-p", "no:benchmark", f"--junitxml={junit}"],
            cwd=ROOT, env=env, capture_output=True, text=True)
        failed, errors = set(), set()
        if junit.exists():
            for case in ET.parse(junit).iter("testcase"):
                name = f"{case.get('classname')}::{case.get('name')}"
                if case.find("failure") is not None:
                    failed.add(name)
                if case.find("error") is not None:
                    errors.add(name)
    for line in sorted({line for line in run.stdout.splitlines()
                        if CRITERION.match(line)}):
        print(line)
    # pytest exits 1 when tests fail, and above 1 when it could not run them
    ok = failed == DELIBERATE_REDS and not errors and run.returncode in (0, 1)
    for name in sorted(failed - DELIBERATE_REDS):
        print(f"unexpected failure: {name}", file=sys.stderr)
    for name in sorted(DELIBERATE_REDS - failed):
        print(f"deliberate red did not fail: {name}", file=sys.stderr)
    for name in sorted(errors):
        print(f"error: {name}", file=sys.stderr)
    print(run.stdout.splitlines()[-1] if run.stdout else run.stderr,
          file=sys.stderr)
    print("tier-1 gate:", "PASS" if ok else "FAIL", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

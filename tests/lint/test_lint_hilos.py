#!/usr/bin/env python3
"""Self-test of scripts/lint_hilos.py check 9 on a fixture tree.

tests/lint/fixture/ is a miniature repository: a src/ header declaring
one function a program under bench/ calls, one only a test calls, and
one only a test calls that carries a `// lint: reference` marker. The
checker must exit 1 and report exactly the test-only, unmarked
function, so a change to its declaration or usage scan cannot turn the
check off unnoticed.

Run: python3 tests/lint/test_lint_hilos.py (exit 0 = pass).
"""

import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
LINT = HERE.parent.parent / "scripts" / "lint_hilos.py"


def main():
    run = subprocess.run(
        [sys.executable, str(LINT), "--root", str(HERE / "fixture")],
        capture_output=True, text=True)
    out = run.stdout
    failures = []
    if run.returncode != 1:
        failures.append(f"exit code {run.returncode}, expected 1")
    if "lint_hilos: 1 violation(s)" not in out:
        failures.append("expected exactly one violation")
    if "src/widget/widget.h:16: 'widgetPerimeter'" not in out:
        failures.append("the test-only widgetPerimeter was not reported")
    for kept in ("'widgetArea'", "'widgetAreaByAddition'"):
        if kept in out:
            failures.append(f"{kept} was reported but must pass")
    if failures:
        print("lint self-test FAILED: " + "; ".join(failures))
        print(out + run.stderr)
        return 1
    print("lint self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

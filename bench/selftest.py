"""Self-test of the benchmark's output checks.

Usage (from the repository root): python3 bench/selftest.py

Uses the stored reference values: each recorded output must pass against
itself, and every reference value shifted by twice its tolerance must be
flagged, while a shift of half its tolerance must not.  Changed verdicts,
the counterexample stages and the exact fields must be flagged too.  Exits 0
when every check behaves, 1 otherwise.
"""

from __future__ import annotations

import copy
import sys
import tempfile
from pathlib import Path

from workloads import (EXACT_KEYS, ODD_AVERAGE_TOL, REFERENCE_SEED, WORKLOADS, build,
                       check_expected, check_reference, load_reference, tolerances)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> int:
    reference = load_reference()
    failures = []
    cases = 0

    def expect(flagged, problems, what):
        nonlocal cases
        cases += 1
        if bool(problems) != flagged:
            failures.append(f"{what}: expected {'a problem' if flagged else 'none'}, "
                            f"got {problems}")

    for name in WORKLOADS:
        with tempfile.TemporaryDirectory() as tmp:
            requests = build(name, REFERENCE_SEED, Path(tmp))
        for j, entry in enumerate(reference[name]["requests"]):
            kind, values = entry["kind"], entry["values"]
            where = f"{name}[{j}] {kind}"
            expect(False, check_reference(kind, values, values), f"{where} against itself")
            for key, tol in tolerances(kind, values, values):
                for i in range(len(values[key])):
                    for factor, flagged in ((2.0, True), (0.5, False)):
                        bad = copy.deepcopy(values)
                        bad[key][i] += factor * tol(i)
                        expect(flagged, check_reference(kind, values, bad),
                               f"{where} {key}[{i}] shifted by {factor} x tolerance")
            for key in EXACT_KEYS.get(kind, ()):
                bad = copy.deepcopy(values)
                if isinstance(bad[key], dict):
                    bad[key] = {k: not v for k, v in bad[key].items()}
                else:
                    bad[key] += 1
                expect(True, check_reference(kind, values, bad), f"{where} {key} changed")
            req = requests[j]
            expect(False, check_expected(req, values), f"{where} expected facts")
            for key, want in req.expected.items():
                bad = copy.deepcopy(values)
                if key == "odd_average_vanishes":
                    bad["sphere_averaged"][1] += 2 * ODD_AVERAGE_TOL
                elif key == "verdict":
                    bad[key] = "violated"
                else:
                    bad[key] = -want if key == "sign" else want + 1
                expect(True, check_expected(req, bad), f"{where} {key} changed")

    for line in failures:
        print("FAIL " + line)
    print(f"{cases - len(failures)}/{cases} self-test cases behave")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

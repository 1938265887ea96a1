"""Record bench/reference.json: the checked output values of every workload at
the reference seed.

Usage (from the repository root): python3 bench/make_reference.py

Run it only on code whose verdicts are trusted (the acceptance suite passes);
each later benchmark run compares its outputs with these values, each within
its own tolerance (see workloads.check_reference).
"""

from __future__ import annotations

import json
import sys
import time

from run import OUT, spawn
from workloads import REFERENCE_FILE, REFERENCE_SEED, WORKLOADS


def main() -> int:
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    reference = {}
    for name in WORKLOADS:
        res = spawn(name, REFERENCE_SEED, 0, 1.0, time.monotonic() + 600)
        res = res["reps"][0] if "reps" in res else res
        if "error" in res:
            sys.stderr.write(f"{name}: {res['error']}\n")
            return 1
        bad = [p for r in res["requests"] for p in r["problems"]]
        if bad:
            sys.stderr.write(f"{name}: outputs fail their checks: {bad}\n")
            return 1
        reference[name] = {
            "seed": REFERENCE_SEED,
            "requests": [{"kind": r["kind"], "argv": r["argv"], "values": r["values"]}
                         for r in res["requests"]],
        }
        print(f"{name}: {len(res['requests'])} requests recorded")
    REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

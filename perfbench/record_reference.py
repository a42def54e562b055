"""Write reference.json: the digest of every op's canonical output for a few
seeds, and the verify report without its timings.

    python3 perfbench/record_reference.py

Run it only on a commit whose outputs are known to be right; the benchmark
fails every op whose output differs from what this recorded.
"""

from __future__ import annotations

import json
import sys

import run
import workloads as wl

SEEDS = (0, 1, 2)


def main() -> int:
    bb = run.import_library()
    reference: dict = {}
    for workload in ("queries", "enumerate"):
        reference[workload] = {}
        for seed in SEEDS:
            ops = wl.build_ops(bb, workload, seed)
            _, results, errors = run.run_pass(bb, ops)
            problems = [wl.cross_check(bb, op, r) for op, r in zip(ops, results) if r is not None]
            if errors or any(problems):
                sys.exit(f"{workload} seed {seed}: errors {errors}, cross-check {[p for p in problems if p]}")
            reference[workload][str(seed)] = run.pass_digests(ops, results, errors)
    _, _, code, out, _ = run.verify_child()
    report = json.loads(out)
    if code != 0 or not report["passed"]:
        sys.exit(f"verify exited {code}")
    reference["verify"] = wl.strip_elapsed(report)
    run.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

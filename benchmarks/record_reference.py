"""Record reference.json: the digest of every command the workloads issue at
the reference seed, from the fknlab sources in this checkout.

    python3 benchmarks/record_reference.py

Re-record only when a change to fknlab is meant to change its output.
"""

from __future__ import annotations

import json

from run import REFERENCE, REFERENCE_SEED, ROOT, import_fknlab, run_pass, work_dir
from workloads import WORKLOAD_NAMES, build


def main() -> None:
    cli = import_fknlab()
    recorded = {}
    for name in WORKLOAD_NAMES:
        workload = build(name, REFERENCE_SEED)
        commands = workload.setup + workload.pool
        with work_dir("reference-"):
            outcomes = run_pass(cli, commands)
        problems = [p for outcome in outcomes for p in outcome["problems"]]
        if problems:
            raise SystemExit(f"{name}: output check failed: {problems[:5]}")
        recorded[name] = {c.key: o["digest"] for c, o in zip(commands, outcomes)}
    REFERENCE.write_text(json.dumps({"seed": REFERENCE_SEED, "workloads": recorded}, indent=1) + "\n")
    print(f"wrote {REFERENCE.relative_to(ROOT)}")


if __name__ == "__main__":
    main()

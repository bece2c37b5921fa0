"""Rewrite ``recorded.json`` from block 0 of the default seed of every workload.

Usage, from the root of a checkout: ``python3 spdebench/record.py``.  Run it
only when a change is meant to alter the outputs; ``run.py`` then compares
every default-seed run against what this stored.
"""

import json
import os
import sys

import envcontrol

if __name__ == "__main__":
    if not envcontrol.control():
        sys.exit("spdesim sources not found under ./src")
    from run import RECORDED
    from workloads import DEFAULT_SEED, WORKLOADS

    os.makedirs(envcontrol.WORKDIR, exist_ok=True)
    recorded = {}
    for name, cls in sorted(WORKLOADS.items()):
        workload = cls(envcontrol.WORKDIR)
        workload.setup()
        warm = workload.block(0, DEFAULT_SEED, workload.warm_size)
        if warm.problems or warm.output is None:
            sys.exit(f"{name}: block 0 failed its checks: {warm.problems}")
        recorded[name] = workload.record(warm)
    with open(RECORDED, "w") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {sorted(recorded)} in {RECORDED}")

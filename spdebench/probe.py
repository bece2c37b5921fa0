"""Set-up probe: import and build one workload, print ``ready`` and exit.

``run.py`` starts this in a fresh interpreter and times it from the spawn
to the ``ready`` line, so interpreter start, imports of numpy, scipy and
spdesim, config, space, marks, triple and lazy caches are all counted.
Usage: ``python3 spdebench/probe.py <workload> <workdir>``.
"""

import sys

import envcontrol

if __name__ == "__main__":
    if not envcontrol.control():
        sys.exit("spdesim sources not found under ./src")
    import workloads

    workloads.WORKLOADS[sys.argv[1]](sys.argv[2]).setup()
    print("ready", flush=True)

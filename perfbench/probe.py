"""Time one set-up of a workload in a fresh interpreter.

Imports gtsingular from the checkout's ``src`` and builds the workload's
inputs (for the spec workloads this runs admissibility and singular-pair
detection), then prints the elapsed seconds.  ``run.py`` starts several of
these and reports their median as ``setup_s``.

    python3 perfbench/probe.py <workload> <seed>
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(1, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402  (needs the path set above)


def main(name, seed):
    t0 = time.perf_counter()
    import gtsingular.verify  # noqa: F401  (the whole package, as a user loads it)

    workloads.build(name, seed)
    print(time.perf_counter() - t0)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))

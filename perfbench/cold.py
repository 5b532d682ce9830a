"""Set-up probe: import degctrl and complete one op with cold caches.

Runs in a fresh process (started by run.py several times per run) and
prints the seconds from just before ``import degctrl`` to the end of the
op, then the median time of the host-speed reference kernel right after.
Usage: python3 perfbench/cold.py <workload> <seed>
"""

import os
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main(workload, seed):
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="cold-", dir=os.path.join(HERE, "out"))
    try:
        t0 = time.perf_counter()
        import workloads  # imports numpy and degctrl
        w = workloads.make_workload(workload, workdir)
        w.op(w.inputs(seed)(0))
        elapsed = time.perf_counter() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    import hostspeed
    kernel = statistics.median(hostspeed.time_kernel() for _ in range(3))
    print(repr(elapsed), repr(kernel))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))

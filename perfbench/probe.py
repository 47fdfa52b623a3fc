"""Set-up probe: a fresh interpreter imports spinpath, runs one warm-up
operation of a workload and prints the monotonic clock when done.

    python3 perfbench/probe.py <workload> <seed> <workdir>

The caller reads the clock before launching it, so the difference is the
set-up time a user of that workload waits for.
"""

import sys
import time
from pathlib import Path


def main(argv) -> int:
    name, seed, workdir = argv
    import workloads

    workloads.WORKLOADS[name](int(seed), Path(workdir)).warmup()
    print(repr(time.monotonic()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

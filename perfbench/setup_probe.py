"""Set-up probe: import the package, build one workload's config and write its inputs.

Run by run.py in a fresh interpreter so that every repeat pays the whole
set-up cost. Prints the seconds from the start of this script to ready.

    python3 perfbench/setup_probe.py <workload> <seed> <work-dir>
"""
from __future__ import annotations

import sys
import time
from pathlib import Path

START = time.perf_counter()

HERE = Path(__file__).resolve().parent


def main(argv: list[str]) -> int:
    workload, seed, work = argv
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    workloads.WORKLOADS[workload].prepare(int(seed), work, True)
    print(time.perf_counter() - START)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

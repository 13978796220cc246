"""One set-up of a workload in a fresh interpreter, timed by the caller.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED SECONDS WORKDIR

Imports qmht and qmht.cli, builds the workload's inputs from the seed into
WORKDIR and runs its warm-up: what every CLI invocation and every benchmark
run pays before the first job.
"""

import os
import sys


def main(argv) -> int:
    workload, seed, seconds, workdir = argv
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path[:0] = [os.path.join(root, "src"), root]
    import qmht  # noqa: F401
    import qmht.cli  # noqa: F401

    from perfbench import workloads

    workloads.build(workload, int(seed), float(seconds), workdir).warm_up()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

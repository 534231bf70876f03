"""One set-up of a benchmark run, in a fresh interpreter.

Imports `reebforge.cli` from the checkout's `src` and writes the workload's
generated inputs to a JSON file.  run.py times this script as `setup_s`.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED OUT_JSON
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import reebforge.cli  # noqa: E402,F401  (the import is what is timed)

import workloads  # noqa: E402


def main(argv) -> int:
    workload, seed, out = argv[1], int(argv[2]), argv[3]
    with open(out, "w") as fh:
        json.dump(workloads.generate(workload, seed), fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

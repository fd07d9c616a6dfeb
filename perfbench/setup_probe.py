"""Time one cold set-up of a workload and print the seconds.

    python3 perfbench/setup_probe.py search_mix

Set-up is importing vsep and building the workload's graphs, references
and solver configuration.  ``run.py`` starts this script in a fresh
interpreter for every sample, so each one pays the imports again.
"""

import importlib
import sys
import time
from pathlib import Path


def main() -> None:
    start = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    workloads = importlib.import_module("workloads")
    workloads.WORKLOADS[sys.argv[1]]()
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main()

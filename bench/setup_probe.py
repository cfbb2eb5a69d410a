"""Set-up time of one workload in a fresh process.

Usage: ``python3 bench/setup_probe.py WORKLOAD INPUTS_JSON`` with ``src`` on
``PYTHONPATH``.  Times importing pmplab (``pmplab.cli`` for the CLI
workload) and building the workload's scenarios or parsing its scenario
files, and prints the seconds on the last line.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402


def main():
    workload, inputs_path = sys.argv[1], sys.argv[2]
    with open(inputs_path) as fh:
        inputs = json.load(fh)
    import pmplab  # noqa: F401

    if workload == "cli_tables":
        import pmplab.cli  # noqa: F401
    workloads.build(workload, inputs)
    print(time.perf_counter() - T0)


if __name__ == "__main__":
    main()

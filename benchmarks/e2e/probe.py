"""Core-speed probe: how fast one CPU runs a fixed Python loop, over time.

    python3 probe.py CPU OUTPUT

loadgen.py starts it pinned to the CPU the server is pinned to.  Every
PERIOD seconds it runs the loop LAPS times and appends one line to OUTPUT:
``<time.perf_counter()> <fastest lap in microseconds>``, until it is
terminated.  The fastest of a few laps leaves out a lap the server's threads
interrupted, so a sample says how fast the core itself ran at that moment.
It imports nothing from the program under test, and it takes about 0.6 % of
the core.  README.md ("Core speed") says why and how the timings use it.
"""

import os
import sys
import time

PERIOD = 0.05
LAPS = 5
VALUES = [index * 0.37 for index in range(2000)]


def lap() -> float:
    began = time.perf_counter()
    total = 0.0
    for value in VALUES:
        total += value * value
    return time.perf_counter() - began


def main() -> None:
    cpu, output = int(sys.argv[1]), sys.argv[2]
    os.sched_setaffinity(0, {cpu})
    with open(output, "w", buffering=1) as out:
        while True:
            time.sleep(PERIOD)
            fastest = min(lap() for _ in range(LAPS))
            out.write(f"{time.perf_counter()!r} {fastest * 1e6!r}\n")


if __name__ == "__main__":
    main()

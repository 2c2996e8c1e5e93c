"""A fixed pure-Python job whose time tracks the host's current speed.

    python3 perfbench/calibrate.py      # prints the job's time in seconds

The machine the benchmark was built on changes speed by itself, by up to a
factor of two over some minutes, and every workload slows with it.  The
runner times this job in a fresh interpreter before every sample and after
the last one, and rescales each sample's times by the mean of the two
calibrations that bracket it (see ``run.py``).  The job imports nothing
from latcount, so a change to the program cannot move it.  It mixes the
two kinds of work latcount does: an integer loop, and building, hashing
and sorting many small tuples and sets.
"""

import random
import time


def _integer_loop(n: int = 2_000_000) -> int:
    x = 0
    for i in range(n):
        x = (x * 31 + i) & 0xFFFF
    return x


def _small_objects() -> int:
    rng = random.Random(0)
    data = [tuple(rng.randrange(50) for _ in range(6)) for _ in range(30000)]
    counts: dict[tuple, int] = {}
    for t in data:
        counts[t] = counts.get(t, 0) + 1
    ordered = sorted(data)
    sets = {frozenset(t) for t in data}
    permuted = {tuple(t[i] for i in (3, 1, 4, 0, 5, 2)) for t in data}
    return len(counts) + len(ordered) + len(sets) + len(permuted)


def main() -> None:
    start = time.perf_counter()
    _integer_loop()
    _small_objects()
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main()

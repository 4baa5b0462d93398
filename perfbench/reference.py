"""The speed reference that job and set-up times are scaled by.

On a shared host the machine's speed moves between levels for seconds to
minutes (README.md, "Noise").  A fixed pure-Python loop that uses no polarkit
code is timed before every job and after every set-up; its time moves with
the machine, so each measured time is reported at the speed at which the loop
takes REFERENCE_S.
"""

import statistics
from time import perf_counter

# About the loop's time on the machine that defined the benchmark at the
# faster of its two speed levels (9-10 ms; the slower level gives 14-15 ms).
REFERENCE_S = 0.010


def reference():
    """Seconds taken by one run of the reference loop."""
    t0 = perf_counter()
    table, s = {}, 0
    for i in range(60_000):
        s = (s * 31 + i) % 1_000_003
        table[i & 1023] = s
    return perf_counter() - t0


def scaled(times, refs, half=3):
    """Each time times REFERENCE_S over the median of the 2*half + 1
    reference times measured nearest to it; both lists in run order."""
    return [t * REFERENCE_S / statistics.median(refs[max(0, i - half):i + half + 1])
            for i, t in enumerate(times)]

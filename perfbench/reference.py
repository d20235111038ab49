"""A fixed reference loop that tracks how fast the machine runs at the moment.

The machine this benchmark was sized on, a 2-vCPU virtual machine on a
shared Xeon host, changes speed by 10-20% within seconds, and slow spells
last long enough to move whole runs. The reference loop is pure-Python
integer work of the kinds eqlat does (a row scan with exact interval tests,
then a sum-of-squares search with a function call per candidate) and never
calls eqlat, so no change to eqlat can move it. A run samples it between
items; each item's wall time is divided by the median reference time sampled
within LOCAL_S of the item and multiplied by REF_S. The result is the item's
time at the machine's typical speed, in "ref" seconds; REF_S is the loop's
typical time on that machine. There, over 3 minutes of deep_count items, the
mean item time in 15 s windows had an interquartile spread of 17% raw and
1.5% rescaled.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

REF_S = 7.0e-4
EVERY_S = 0.05  # sample the loop once per this much item time
LOCAL_S = 0.1


def _square_root(n: int) -> int | None:
    r = math.isqrt(n)
    return r if r * r == n else None


def reference_loop() -> int:
    total = 0
    # a row scan with exact interval tests, like the oracle's
    a_o, a_i, b_o, b_i, bound = 37, -11, 5, 23, 40000
    for o in range(40):
        ka, kb = o * a_o, o * b_o
        for i in range(-20, 20):
            lam, mu = ka + i * a_i, kb + i * b_i
            if lam >= 0 and mu >= 0 and lam + mu <= bound:
                total += 1
    # a search for sums of squares with a call per candidate, like
    # enumerate_triples and find_rs
    target = 3 * 301 * 301
    for a in range(1, 6):
        b = a
        while a * a + 2 * b * b <= target:
            c = _square_root(target - a * a - b * b)
            if c is not None and c >= b and math.gcd(a, b, c) == 1:
                total += 1
            b += 1
    return total


class SpeedProbe:
    def __init__(self) -> None:
        self.stamps: list[float] = []
        self.times: list[float] = []

    def sample(self, after_item_s: float = 0.0) -> None:
        """Time the reference loop once, plus once per EVERY_S of the last item."""
        for _ in range(1 + int(after_item_s / EVERY_S)):
            start = time.perf_counter()
            reference_loop()
            self.stamps.append(start)
            self.times.append(time.perf_counter() - start)

    def median_s(self) -> float:
        return statistics.median(self.times)

    def rescale(self, start: float, elapsed: float) -> float:
        """Wall time of an item that began at `start`, in ref seconds."""
        lo = bisect.bisect_left(self.stamps, start - LOCAL_S)
        hi = bisect.bisect_right(self.stamps, start + elapsed + LOCAL_S)
        return elapsed * REF_S / statistics.median(self.times[lo:hi])

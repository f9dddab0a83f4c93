"""Host speed: a fixed piece of pure-Python work timed all through a run.

On a shared VM the same work runs at speeds up to 2x apart, in spells from
milliseconds to minutes, and a whole 30 s run can fall in a slow spell: five
30 s small-corpus runs of identical work, one after another, gave raw wall
times of 7.6-11.5 s (quartile spread 0.29). The probe below slows with the
host. It runs between item turns and every TICK_S inside them, and each
turn's mean run time, less the probes inside it, is divided by the mean probe
time over the turn. Five small-corpus runs of identical work then spread 0.02
in wall time and 0.05 in median item time; the studies workload, whose items
take seconds, spread 0.05 and 0.02 in a spell where the host ran at half its
speed (2-core Xeon VM, Python 3.11). Probes only between turns left studies
at 0.18 and 0.12.

So the benchmark reports its timings in reference seconds: a time scaled by
PROBE_REF_S over the probe times around it. The probe calls no eicp code, so
a change to the program moves the scaled figures as it moves the raw ones.
The raw figures are printed beside them.
"""

from __future__ import annotations

import signal
import statistics
import time

# Seconds the probe takes at the reference speed: about its time on an idle
# core of the 2-core Xeon VM the baseline was recorded on.
PROBE_REF_S = 0.002

# Seconds between probes inside a run; a probe takes about 1% of that.
TICK_S = 0.2


def probe_work() -> int:
    """Dict, tuple, hash and sort work of the kind eicp's search does."""
    counts: dict[int, int] = {}
    acc = 0
    for i in range(6000):
        t = (i * 7919) % 1009
        counts[t] = counts.get(t, 0) + 1
        acc ^= hash((t, i & 15))
    return acc + len(sorted(counts.items()))


def probe() -> float:
    """Seconds probe_work takes now."""
    t0 = time.perf_counter()
    probe_work()
    return time.perf_counter() - t0


def to_reference(seconds: float, probe_times: list[float]) -> float:
    """`seconds` measured while the probe took `probe_times`, in reference seconds."""
    return seconds * PROBE_REF_S / statistics.fmean(probe_times)


class Probes:
    """The probe times of one timed run: taken on request between item turns,
    and every TICK_S from a timer signal while the run is on, so that an item
    of several seconds is sampled inside too. `spent` is the total time of
    the probes, so that a run can leave out the probes that fell inside it."""

    def __init__(self):
        self.times: list[float] = []
        self.spent = 0.0
        self._busy = False
        self._handler = None

    def take(self) -> None:
        if self._busy:
            return
        self._busy = True
        t = probe()
        self.times.append(t)
        self.spent += t
        self._busy = False

    def __enter__(self) -> "Probes":
        self._handler = signal.signal(signal.SIGALRM, lambda _sig, _frame: self.take())
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)

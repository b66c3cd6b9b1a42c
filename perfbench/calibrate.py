"""How fast the host runs while a timed process runs.

The benchmark's host gives it two vCPUs of a machine shared with other
tenants.  A vCPU runs 30-60% slower whenever the work sharing its physical
core is busy.  That flips many times a second, and the share of slow time
drifts over minutes, so a run that falls in a busy stretch reads slow
whatever the program does.

``HostClock.measure`` pins this process, and so the processes it starts,
to one vCPU.  While the timed work runs, a thread of this process wakes
every ``INTERVAL_S`` and times a fixed unit of interpreter work on that
vCPU, counting only its own CPU time.  No change to ibltlab can touch the
unit.  The work's wall time scaled by ``REFERENCE_UNIT_S`` over the mean
unit time reads as its wall time on a vCPU that runs the unit in
``REFERENCE_UNIT_S``: a busy stretch slows the work and the unit alike and
cancels out, while a change to ibltlab moves only the work.  The units
take about 1% of the vCPU from the timed process.
"""

import os
import threading
import time

# CPU seconds of one unit on a quiet vCPU of the machine these figures were
# tuned on (2 vCPUs of an Intel Xeon at 2.1 GHz, CPython 3.11).  Only the
# scale of the reference-speed metrics depends on it.
REFERENCE_UNIT_S = 0.0005

# Seconds between units while timed work runs.
INTERVAL_S = 0.05

_KEYS = [(i * 2654435761) & 0xFFFFF for i in range(2_000)]


def unit() -> float:
    """CPU seconds of this thread for one fixed unit of dict, sort and integer work."""
    start = time.thread_time()
    counts = {}
    acc = 0
    for i, x in enumerate(_KEYS):
        counts[x] = counts.get(x, 0) + i
        acc ^= x * x
    acc += sorted(_KEYS)[len(_KEYS) // 2]
    if acc < 0:  # never true; keeps the work from looking dead
        raise AssertionError
    return time.thread_time() - start


class HostClock:
    """Pins this process to one vCPU and samples its speed during timed work."""

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.cpu = self.cpus[-1]
        # Mean unit time of each measured piece of work.
        self.samples: list[float] = []
        os.sched_setaffinity(0, {self.cpu})

    def measure(self, work):
        """(``work()``, reference seconds per wall second while it ran)."""
        times = []
        stop = threading.Event()

        def sample():
            while not stop.wait(INTERVAL_S):
                times.append(unit())

        sampler = threading.Thread(target=sample, daemon=True)
        sampler.start()
        try:
            result = work()
        finally:
            stop.set()
            sampler.join()
        if not times:  # the work ended within one interval
            times.append(unit())
        per_unit = sum(times) / len(times)
        self.samples.append(per_unit)
        return result, REFERENCE_UNIT_S / per_unit

    def release(self):
        """Give this process back every vCPU it had."""
        os.sched_setaffinity(0, set(self.cpus))

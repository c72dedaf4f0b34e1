"""A clock that reads durations at the machine's full speed.

Neighbouring tenants slow a shared machine by up to 1.8x for seconds at a
time, and interpreter loops, small numpy operations and einsum slow
together. A timer signal therefore interrupts the benchmark every
INTERVAL_S seconds and times a fixed probe of about a millisecond of that
mix. The virtual clock stops while a probe runs and, between two probes,
advances ``nominal / p`` seconds per second, where ``p`` is the mean time of
the two probes: a duration on it reads as it would at the speed where the
probe takes ``nominal`` seconds, NOMINAL_S unless a test says otherwise.
The probe runs no fsos code, so no change to the program moves it.
"""

import bisect
import signal
import statistics
import time

import numpy as np

NOMINAL_S = 0.0006  # the probe's time on the reference machine at full speed
INTERVAL_S = 0.02
_RNG = np.random.default_rng(0)
_X, _W = _RNG.normal(size=(50, 32)), _RNG.normal(size=(32, 64))
_K, _IMG = _RNG.normal(size=(32, 32)), _RNG.normal(size=(2, 32, 8, 8))


def probe():
    """Fixed work on a few kilobytes, so that the program's own cache
    footprint does not move it: an interpreter loop, small matrix products
    and one einsum."""
    acc = 0
    for i in range(4000):
        acc += i * i
    for _ in range(25):
        np.maximum(_X @ _W, 0.0).sum(axis=0)
    np.einsum("oc,nchw->nohw", _K, _IMG)
    return acc


def probe_seconds():
    """Median time of eleven probes taken back to back."""
    times = []
    for _ in range(11):
        start = time.perf_counter()
        probe()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class SpeedClock:
    """Maps perf_counter readings to full-speed time.

    Knot k records a probe: it started at ``starts[k]``, ended at
    ``ends[k]``, took ``probes[k]`` seconds, and the virtual clock read
    ``virtual[k]`` throughout it. Readings are converted with ``to_virtual``
    once a later probe has closed the segment they fall in; ``sample`` takes
    such a probe on demand.
    """

    def __init__(self, nominal=NOMINAL_S, clock=time.perf_counter):
        self.nominal = nominal
        self.clock = clock
        self.starts, self.ends, self.probes, self.virtual = [], [], [], []
        self._previous = None
        self._busy = False

    def _record(self, *_):
        if self._busy:  # a signal that lands inside a probe is dropped
            return
        self._busy = True
        try:
            self._probe()
        finally:
            self._busy = False

    def _probe(self):
        start = self.clock()
        probe()
        end = self.clock()
        took = end - start
        if self.starts:
            rate = self.nominal / ((self.probes[-1] + took) / 2)
            v = self.virtual[-1] + (start - self.ends[-1]) * rate
        else:
            v = start
        self.starts.append(start)
        self.ends.append(end)
        self.probes.append(took)
        self.virtual.append(v)

    def sample(self):
        """Take a probe now, with the timer signal held back meanwhile."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            self._record()
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
        return self.probes[-1]

    def start(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self._record)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def to_virtual(self, t):
        """Full-speed reading of perf_counter time ``t``; ``t`` must not be
        later than the end of the last probe."""
        k = bisect.bisect_right(self.starts, t) - 1
        if k < 0:
            raise ValueError("reading precedes the first probe")
        if t <= self.ends[k]:
            return self.virtual[k]
        if k + 1 == len(self.starts):
            raise ValueError("reading is not closed by a later probe yet")
        rate = (self.virtual[k + 1] - self.virtual[k]) / (self.starts[k + 1] - self.ends[k])
        return self.virtual[k] + (t - self.ends[k]) * rate

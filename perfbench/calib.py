"""A CPU-speed probe, so times taken minutes apart on a shared machine compare.

On a shared 2-vCPU machine the speed of the whole machine drifts by up to
2x over tens of seconds, process CPU time as much as wall time.
`kernel()` is a fixed piece of pure-Python work of the kind linkage_lab
does (sparse products keyed by exponent tuples, over `Fraction` and over
integers mod p), written here so no change to the program moves it.
A `Probe` times it in bursts and, while a pass runs, once every
INTERVAL_S from a SIGALRM handler.  A time the benchmark reports is the
measured time, less the probe's own time within it, multiplied by the
mean of REF_S over the kernel times within PAD_S of the timed interval:
seconds at the machine speed at which the kernel takes REF_S.  The speed
changes within a second, so the mean is over speeds (1 / kernel time),
which samples at even intervals weigh by the time spent at each.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

REF_S = 0.002  # kernel seconds at the reference speed
INTERVAL_S = 0.05
BURST = 8  # kernel runs in a burst
PAD_S = 0.25

_P = {(i % 4, i * 7 % 5, i * 3 % 4): Fraction(i + 1, i % 5 + 1)
      for i in range(24)}
_Q = {(i % 3, i * 5 % 4, i * 11 % 3): (i * 7919 + 3) % 32003
      for i in range(40)}


def kernel() -> int:
    acc: dict = {}
    for ea, ca in _P.items():
        for eb, cb in _P.items():
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            acc[e] = acc.get(e, 0) + ca * cb
    mod: dict = {}
    for ea, ca in _Q.items():
        for eb, cb in _Q.items():
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            mod[e] = (mod.get(e, 0) + ca * cb) % 32003
    return len(acc) + len(mod)


class Probe:
    def __init__(self):
        self.samples: list = []  # (perf_counter at the end, kernel seconds)
        self.spent = 0.0  # seconds spent in the probe so far
        self._busy = False

    def burst(self, n: int = BURST) -> None:
        if self._busy:  # the alarm went off during a burst
            return
        self._busy = True
        t_in = time.perf_counter()
        # a collection of the program's heap must not land in a sample
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(n):
                t0 = time.perf_counter()
                kernel()
                t1 = time.perf_counter()
                self.samples.append((t1, t1 - t0))
        finally:
            if enabled:
                gc.enable()
            self.spent += time.perf_counter() - t_in
            self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, lambda signum, frame: self.burst(1))
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple:
        return time.perf_counter(), self.spent

    def interval(self, start: tuple) -> tuple:
        """(start, end, seconds less the probe's time) since mark `start`."""
        t0, spent0 = start
        t1 = time.perf_counter()
        return t0, t1, t1 - t0 - (self.spent - spent0)

    def seconds(self, interval: tuple, pad: float = PAD_S) -> float:
        """An interval's seconds at the reference speed.  Call it once the
        probe has samples from after the interval's end."""
        t0, t1, raw = interval
        speeds = [REF_S / s for t, s in self.samples
                  if t0 - pad <= t <= t1 + pad]
        return raw * statistics.fmean(speeds)

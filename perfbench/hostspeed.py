"""Host speed: a fixed reference computation timed throughout every run.

The benchmark runs on a few cores of a shared host.  On a 2-vCPU VM the
same pure-Python work takes about 40 ms at one moment and about 60 ms
the next, on both vCPUs, with no stolen time showing in ``/proc/stat``
(so CPU time slows exactly as wall time does), and the share of time
spent slow drifts over minutes as other tenants come and go: runs of the
same code a few minutes apart were seen to differ by a factor of 1.7.
Every query class, the interpreter start-up and the server slow
together, so such runs differ by the host rather than by the program.

While a run measures, it therefore times short slices of reference work
(:func:`reference_slice`: an LSODA solve with a Python right-hand side,
vector arithmetic and dictionary work, the same mix of interpreter,
numpy and compiled-solver time as the checker) and scales each measured
time to a host on which one slice takes :data:`REFERENCE_S`, using the
slices timed nearest to it (:meth:`HostSpeed.scaled`).  The reference
work uses no code of the program, so no change to the program moves it.

- Slices are spread evenly over the measured work, one per
  :data:`SPACING_S`: the host's state changes within seconds, so slices
  taken in a burst sample one state.
- Each query or request is scaled by the slices around it, not by one
  factor for the whole run: a latency percentile picks queries, and the
  queries it picks ran in whichever state the host was in at the time.
  On ``paper-cold`` this took the run-to-run spread of the median and
  90th-percentile latency from about 0.11 to about 0.05.
- An in-process loop times its slices itself, between two queries and
  outside their timing (:meth:`HostSpeed.after`), on the thread and
  core that run the queries.  A slice timed by a thread that had been
  sleeping runs measurably slower than one timed right after busy work.
  For the server workload, whose measured work runs in another process,
  a thread of the load generator times them (:meth:`HostSpeed.sampling`).
- A slice is timed in its thread's CPU time, which excludes waiting for
  the interpreter lock while another thread holds it.
- Slices are summarized by a trimmed mean, not a median: slice times
  cluster around a fast and a slow value, and a median jumps from one to
  the other when the slow share crosses one half, while a mean follows
  the share as the measured work does.
"""

from __future__ import annotations

import bisect
import contextlib
import threading
import time

import numpy as np

#: CPU seconds one :func:`reference_slice` takes on the reference host
#: (about the trimmed mean on a busy 2-vCPU VM; 4-6 ms were seen).
REFERENCE_S = 0.005
#: Seconds of measured work (or, for :meth:`HostSpeed.sampling`, of wall
#: time) per slice.
SPACING_S = 0.3
#: Slices on each side of a measured time that scale it.
LOCAL_SLICES = 5
#: Share of the slices dropped at each end before averaging.
TRIM = 0.1

_V = np.linspace(0.0, 1.0, 1001)


def _rhs(t, y):
    s, i, r = y
    return [-2.0 * s * i + 0.1 * r, 2.0 * s * i - 0.5 * i, 0.5 * i - 0.1 * r]


def reference_slice() -> float:
    """CPU seconds this thread spends on one fixed slice of reference work."""
    from scipy.integrate import solve_ivp

    start = time.thread_time()
    solve_ivp(_rhs, (0.0, 30.0), [0.8, 0.15, 0.05], method="LSODA",
              rtol=1e-9, atol=1e-11)
    v = _V
    for _ in range(100):
        v = np.sqrt(v * v + 1.0) - v.mean()
    counts: dict = {}
    for i in range(10000):
        key = ("x", i % 211)
        counts[key] = counts.get(key, 0) + i
    return time.thread_time() - start


def _factor(slices) -> float:
    """:data:`REFERENCE_S` over the trimmed mean of ``slices``."""
    ordered = sorted(slices)
    cut = int(TRIM * len(ordered))
    kept = ordered[cut:len(ordered) - cut]
    return REFERENCE_S * len(kept) / sum(kept)


class HostSpeed:
    """Reference slices timed over one run.

    A factor is :data:`REFERENCE_S` over a trimmed mean slice: about 0.7
    on a host running 40 % slower than the reference host.  Measured
    times are multiplied by it (rates divide by the scaled times).
    """

    def __init__(self):
        reference_slice()  # imports and first-call set-up, not kept
        #: ``time.perf_counter()`` at the end of each slice, ascending.
        self.times: list = []
        #: CPU seconds of each slice.
        self.slices: list = []
        self._owed = 0.0

    def _time_one(self) -> None:
        duration = reference_slice()
        self.times.append(time.perf_counter())
        self.slices.append(duration)

    def after(self, measured_s: float) -> None:
        """Call between two measured operations with the seconds the last
        one took; times one slice once :data:`SPACING_S` of measured work
        has passed since the last slice."""
        self._owed += measured_s
        if self._owed >= SPACING_S:
            self._owed = 0.0
            self._time_one()

    @contextlib.contextmanager
    def sampling(self):
        """Time one slice every :data:`SPACING_S` on a background thread
        while in the ``with`` block."""
        stop = threading.Event()

        def run():
            while not stop.wait(SPACING_S):
                self._time_one()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        try:
            yield self
        finally:
            stop.set()
            thread.join()

    @property
    def factor(self) -> float:
        """The factor of the whole run."""
        if not self.slices:  # a run shorter than one spacing
            self._time_one()
        return _factor(self.slices)

    def scaled(self, at: float, seconds: float) -> float:
        """``seconds`` of work that started at ``at`` (``perf_counter``),
        scaled by the :data:`LOCAL_SLICES` slices on each side of it."""
        if not self.slices:
            self._time_one()
        i = bisect.bisect_left(self.times, at)
        return seconds * _factor(
            self.slices[max(0, i - LOCAL_SLICES):i + LOCAL_SLICES])

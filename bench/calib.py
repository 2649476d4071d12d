"""Host-speed calibration: fixed reference work timed all through a run.

The cores of a shared host change speed by up to 1.8x within a minute, and
process CPU time rises with wall time while they do, so the same instructions
simply take longer.  The benchmark therefore times a fixed slice of pure-Python
mpmath arithmetic (`ref_slice`) all through each timed region and reports its
times in reference seconds: what the measured interval would have taken on a
host on which the slice takes exactly REF_SLICE_S.  Each stretch of time
between two slices counts as

    reference seconds = measured seconds x REF_SLICE_S / (local slice time)

where the local slice time is the median of the SMOOTH slices around it, and
an interval's reference time is the sum over the stretches it covers; so a
slow moment of the host weighs on the operations that ran in it.  The measured
(raw) seconds are printed and recorded beside them.

Inside a workload process the slice runs from a SIGALRM handler every
INTERVAL_S of wall time, between two bytecodes of whatever eistau is doing;
`clock()` is `perf_counter()` minus the time spent in the handler, so the
workload's own timings exclude the slices.  The slice uses a private mpmath
context (eistau's precision settings cannot reach it) and runs with the cyclic
garbage collector paused, so a collection that eistau's allocations make due is
paid by eistau, not by the slice.

Set-up (process start, file reads and imports) does not follow the slice, so
it is calibrated against a reference start instead: a fresh interpreter that
imports a fixed set of standard-library modules (`reference_start`), run
right before and right after each set-up probe.  A probe's set-up time in
reference seconds is its measured time x REF_START_S / (the mean of those two
reference starts).
"""

from __future__ import annotations

import gc
import signal
import subprocess
import sys
import time
from bisect import bisect_right
from statistics import median
from time import perf_counter

from mpmath.ctx_mp import MPContext

REF_SLICE_S = 1e-3  # nominal slice time that defines one reference second
INTERVAL_S = 0.025  # wall time between two slices inside a timed region
EDGE_SLICES = 5  # slices timed right before and right after a timed region
SLICE_STEPS = 32  # 1.0-1.7 ms on a shared 2-vCPU x86 host, python mpmath backend
SMOOTH = 21  # slices in the running median that gives the local slice time
REF_START_S = 0.2  # nominal time of the reference start that defines a reference second
REF_START = ("import asyncio, unittest, http.server, email.mime.multipart, xml.etree.ElementTree, "
             "decimal, fractions, json, argparse, logging, csv, tarfile, zipfile, inspect, "
             "dataclasses, typing, time; print(time.monotonic())")

_ctx = MPContext()
_ctx.dps = 30
_Z0 = _ctx.mpc("0.3", "0.7")
_ONE = _ctx.mpf(1)


def ref_slice() -> float:
    """Run the fixed reference slice once; return its duration in seconds."""
    was_enabled = gc.isenabled()
    gc.disable()
    t0 = perf_counter()
    s, z, seen = _ctx.mpc(0), _Z0, {}
    for j in range(SLICE_STEPS):
        s += (z * z + _ONE) / (z + j)
        seen[j % 7] = (j, s)
        z = _ctx.mpc(z.imag, z.real)
    t1 = perf_counter()
    if was_enabled:
        gc.enable()
    return t1 - t0


def reference_start(env: dict, timeout: float) -> float:
    """Seconds from starting the reference interpreter to the end of its imports."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", REF_START], stdout=subprocess.PIPE, text=True,
                          env=env, timeout=timeout, check=True)
    return float(proc.stdout) - t0


class Calibrator:
    """Times the reference slice every INTERVAL_S while started; see the module doc."""

    def __init__(self):
        self.slices: list[tuple[float, float]] = []  # (clock() at the slice, its duration)
        self.spent = 0.0  # wall time spent inside the handler
        self._old = None

    def _handler(self, signum, frame):
        t0 = perf_counter()
        self.slices.append((t0 - self.spent, ref_slice()))
        self.spent += perf_counter() - t0

    def _edge(self) -> None:
        for _ in range(EDGE_SLICES):
            self.slices.append((self.clock(), ref_slice()))

    def clock(self) -> float:
        """perf_counter() without the time the reference slices took."""
        while True:
            spent = self.spent
            t = perf_counter()
            if spent == self.spent:
                return t - spent

    def start(self) -> None:
        self._edge()
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._edge()

    def to_reference(self):
        """A function that turns a clock() interval (t0, t1) into reference seconds."""
        times = [t for t, _ in self.slices]
        durations = [d for _, d in self.slices]
        h = SMOOTH // 2
        speed = [REF_SLICE_S / median(durations[max(0, i - h):i + h + 1])
                 for i in range(len(durations))]
        # reference time elapsed at each slice; speed[i] holds until the next slice
        elapsed = [0.0]
        for i in range(1, len(times)):
            elapsed.append(elapsed[-1] + (times[i] - times[i - 1]) * speed[i - 1])

        def at(t: float) -> float:
            i = max(bisect_right(times, t) - 1, 0)
            return elapsed[i] + (t - times[i]) * speed[i]

        return lambda t0, t1: at(t1) - at(t0)

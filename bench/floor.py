"""Raw-numpy floor: the weak forward-backward-forward iteration as a plain loop.

It repeats the library's arithmetic for ``solve_weak`` with the kernel
K = Id - gamma B, B x = M x + b, a box set part and no perturbation policy,
and nothing else: no validation, no trace records, no schedules.  Its time
per iteration is the floor the library's overhead is measured against.

The same loop on a fixed problem is the benchmark's speed reference: on a
shared two-core machine the speed of the core changes by up to 2x within a
second, and the reference, which runs the same kind of Python and
small-array numpy code as the library but none of the library, tracks it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

FLOOR_TOL = 1e-10
# The loop and the library call are each timed this many times, alternately.
FLOOR_REPEATS = 3


def weak_fbf(M, b, lo, hi, x0, gamma, lam, tol_residual, tol_step, max_iter, iterates=None):
    """Run the loop from x0; returns (final x, iterations).  Appends each x_n to ``iterates``."""
    x = np.array(x0, dtype=float)
    n = 0
    for n in range(max_iter):
        if iterates is not None:
            iterates.append(x)
        w = x - gamma * (M @ x + b)
        y = np.clip(w, lo, hi)
        y_star = (w - (y - gamma * (M @ y + b))) / gamma
        theta = float(np.dot(y - x, y_star))
        sigma = float(np.dot(y_star, y_star))
        x_next = x + (lam * theta / sigma) * y_star if theta < 0 else x
        if np.sqrt(sigma) <= tol_residual and np.linalg.norm(x - y) <= tol_step:
            return x_next, n + 1
        x = x_next
    return x, n + 1


def check(inputs, result):
    """Largest distance between the loop's iterates and the library trace's.

    Returns inf when the iteration counts differ.
    """
    iterates = []
    _, iters = weak_fbf(*inputs, iterates=iterates)
    if iters != len(result.trace):
        return float("inf")
    return max(float(np.linalg.norm(x - rec.x)) for x, rec in zip(iterates, result.trace))


def timed_pair(inputs, library_call):
    """Median times of the loop and of the library call, run alternately so drift cancels."""
    loop, library = [], []
    for _ in range(FLOOR_REPEATS):
        t0 = time.perf_counter()
        library_call()
        t1 = time.perf_counter()
        weak_fbf(*inputs)
        t2 = time.perf_counter()
        library.append(t1 - t0)
        loop.append(t2 - t1)
    return statistics.median(loop), statistics.median(library)


_rng = np.random.default_rng(0)
_G = _rng.normal(size=(8, 8))
# Fixed d = 8 problem and 100 iterations (tolerances it never meets).
REFERENCE_PROBLEM = (_G @ _G.T / 8 + 0.3 * np.eye(8), _rng.normal(size=8), -np.ones(8), np.ones(8),
                     np.full(8, 2.0), 0.05, 1.0, 1e-300, 1e-300, 100)
# A reference timing is the median of this many back-to-back runs of the
# loop, so that one preemption of the process cannot move a speed factor.
# (The fastest of them tracks time-sliced contention worse.)
REFERENCE_SAMPLES = 3
# Reference timing on an uncontended core of the reference machine
# (2-vCPU VM, Python 3.11, numpy 2.4).  Changing it rescales every
# reference-speed time the benchmark reports.
REFERENCE_SECONDS = 0.0015
# Seconds between reference timings taken from the interval timer.  A core's
# speed changes within a second, and a solve_strong call takes about one.
PROBE_INTERVAL = 0.1


def reference_seconds():
    times = []
    for _ in range(REFERENCE_SAMPLES):
        t0 = time.perf_counter()
        weak_fbf(*REFERENCE_PROBLEM)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Speed:
    """Converts intervals of ``time.perf_counter()`` to reference speed.

    Inside ``with speed:`` the reference loop is timed on entry, at every
    ``probe()`` call and, from an interval timer, every PROBE_INTERVAL
    seconds, also in the middle of a solver call (a Python signal handler
    runs between the interpreter's instructions and touches no library
    state).  ``measure(a, b)`` splits an interval at the probes inside it,
    leaves out the probes' own time, and scales each piece by
    REFERENCE_SECONDS over the mean of the two reference timings around it.
    Take a probe after an interval ends and before measuring it.
    """

    def __init__(self):
        self.probes = []      # (start, end, reference seconds), in time order
        self.factors = []
        self._previous = None

    def __enter__(self):
        self.probe()
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL, PROBE_INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _on_timer(self, signum, frame):
        self.probe()

    def probe(self):
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            t0 = time.perf_counter()
            ref = reference_seconds()
            self.probes.append((t0, time.perf_counter(), ref))
            self.factors.append(REFERENCE_SECONDS / ref)
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def measure(self, a, b):
        """(seconds at reference speed, seconds as measured) of [a, b], probes left out."""
        probes = self.probes
        if not probes or probes[0][0] > a or probes[-1][1] < b:
            raise ValueError("the interval is not covered by probes on both sides")
        scaled = raw = 0.0
        i = len(probes) - 1
        while i > 1 and probes[i - 1][0] > a:
            i -= 1
        # The gaps between probes i - 1 and i, i and i + 1, ... may overlap [a, b].
        for (_, end, ref_before), (start, _, ref_after) in zip(probes[i - 1:], probes[i:]):
            lo, hi = max(a, end), min(b, start)
            if hi > lo:
                raw += hi - lo
                scaled += (hi - lo) * 2.0 * REFERENCE_SECONDS / (ref_before + ref_after)
            if start >= b:
                break
        return scaled, raw

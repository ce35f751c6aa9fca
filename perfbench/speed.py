"""Speed probe: rescales measured times by how fast the core ran meanwhile.

The benchmark's cores are shared with other tenants' work, and the same
code runs up to 1.9 times slower in spells of seconds to minutes.  CPU time
slows down with wall time, so neither removes this.  The probe measures the
core's speed while the program runs: every PERIOD_S a SIGALRM handler runs a
fixed pure-Python loop twice and times the second, warm run.  A span of
program time is then rescaled to what it would have been on a core that
runs the loop in REF_PROBE_S:

    scaled = (wall - probe time) * mean(REF_PROBE_S / loop time)

The mean of the inverse loop times is the mean speed over evenly spaced
samples, so a sample that the OS happened to interrupt weighs next to
nothing.  The probe imports nothing beyond the standard library, so it can
run while ``import swarmfl`` is being timed.
"""
from __future__ import annotations

import signal
import time

PERIOD_S = 0.02
PROBE_LOOPS = 1500
MIN_SAMPLES = 5
# Typical warm loop time on the reference machine (README.md); it scales
# every rescaled time by the same factor and cancels in any comparison.
REF_PROBE_S = 150e-6


def _loop():
    s = 0
    for i in range(PROBE_LOOPS):
        s += i * i % 7
    return s


class SpeedProbe:
    def __init__(self):
        self.samples = []  # warm loop times, s
        self.spent_s = 0.0  # wall time taken by the handler itself
        self._previous = None

    def _on_alarm(self, signum, frame):
        self.sample()

    def sample(self):
        t0 = time.perf_counter()
        _loop()
        t1 = time.perf_counter()
        _loop()
        t2 = time.perf_counter()
        self.samples.append(t2 - t1)
        self.spent_s += t2 - t0

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def mark(self):
        """Start of a span: (perf_counter, samples so far, probe time so far)."""
        return time.perf_counter(), len(self.samples), self.spent_s

    def scaled(self, mark):
        """Program time since ``mark``, rescaled to the reference speed.

        A span too short to hold a sample takes the speed of a few samples
        taken right after it.
        """
        t0, n0, spent0 = mark
        program_s = time.perf_counter() - t0 - (self.spent_s - spent0)
        if len(self.samples) == n0:
            for _ in range(MIN_SAMPLES):
                self.sample()
        window = self.samples[n0:]
        return program_s * sum(REF_PROBE_S / s for s in window) / len(window)

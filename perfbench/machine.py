"""A probe of the machine's own speed, for scaling the benchmark's timings.

On a shared machine the speed of one CPU drifts by about ±20% over tens of
seconds, whatever runs on it. Within one process, a fixed pure-Python loop
slows down in step with coinfloor's code. So a run times the probe all
through its timed phase, and every timing it reports is scaled to the
speed at which the probe takes NOMINAL_PROBE_S. The probe imports nothing
from coinfloor, so a change to the program cannot move it. Raw timings are
printed beside the scaled ones.
"""

from __future__ import annotations

import signal
from time import perf_counter

# The probe's median time on the machine the benchmark was tuned on
# (2-core VM, CPython 3.11.7); scaled timings read as if on that machine.
NOMINAL_PROBE_S = 0.00175
# Time between two probes inside a timed phase.
PROBE_EVERY_S = 0.1


def probe_s() -> float:
    """Seconds a fixed loop of small-integer arithmetic takes now."""
    t0 = perf_counter()
    x = 0
    for i in range(20_000):
        x += i * i % 7
    return perf_counter() - t0


def slowdown(probes: list[float]) -> float:
    """How much slower than nominal the machine ran while `probes` were taken
    (their median over NOMINAL_PROBE_S)."""
    ordered = sorted(probes)
    mid = len(ordered) // 2
    median = ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2
    return median / NOMINAL_PROBE_S


class Prober:
    """Times the probe every PROBE_EVERY_S of wall time from a SIGALRM handler,
    so that samples fall inside long operations as well as between them.
    `spent` is the time the probes took, for the caller to take out of its
    timings."""

    def __init__(self) -> None:
        self.probes: list[float] = []
        self.spent = 0.0

    def _on_alarm(self, signum, frame) -> None:
        t = probe_s()
        self.probes.append(t)
        self.spent += t

    def __enter__(self) -> "Prober":
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

"""How fast the host runs interpreter work during a phase, from a fixed loop.

On a shared virtual machine the CPU time of the same Python code changes
with the host's load.  On a 2-vCPU host a fixed loop ran at two speeds about
1.8x apart, switching many times a second (fast spells of 15-100 ms), and
the share of fast time changed from run to run and over minutes, moving
every timing of the package with it.  The benchmark therefore times a fixed
reference loop at regular moments between operations and scales the CPU
time of a phase to the reference speed: CPU seconds d measured while the
loop took r seconds on average are reported as d * REFERENCE_S / r.  One
factor per phase, from the mean of all its samples, tracks the share of
fast time; a factor per operation would ride on single samples, which land
in a fast or a slow spell.  The loop is the benchmark's own code and never
calls the package, so a change to the package moves the scaled figures as
it moves the raw ones.
"""

from __future__ import annotations

import statistics
import time

from spans import CLOCK

# CPU time of one burst of the reference loop at the host's usual speed
# (2-vCPU x86-64 VM, CPython 3); scaled durations are in seconds at that speed.
REFERENCE_S = 0.0035
SAMPLE_EVERY_S = 0.05  # wall seconds between samples in a timed phase
EDGE_BURSTS = 8  # bursts at the start and the end of a phase


def burst() -> float:
    """CPU seconds of one pass of the reference loop: small tuples built,
    hashed into a set and a dict, and sorted by a key function, the kind of
    allocation-heavy interpreter work the package's searches and censuses do.
    It follows the package's timings across the host's speeds more closely
    than a loop of arithmetic on a few live objects."""
    start = CLOCK()
    items = [(i, i * 7 % 13, (i * 31) & 7) for i in range(2500)]
    seen = set(items)
    table = {}
    for a, b, c in items:
        table[(b, c)] = table.get((b, c), 0) + a
    sorted(seen, key=lambda t: (t[2], t[1]))
    return CLOCK() - start


class HostSpeed:
    """Reference bursts taken during one phase."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.last = float("-inf")

    def sample(self, bursts: int = 1) -> None:
        self.samples += [burst() for _ in range(bursts)]
        self.last = time.perf_counter()

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.last >= SAMPLE_EVERY_S:
            self.sample()

    def scale(self) -> float:
        """Factor that turns CPU seconds of the phase into reference seconds."""
        return REFERENCE_S / statistics.fmean(self.samples)

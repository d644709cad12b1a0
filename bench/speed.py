"""Host-speed probe: how fast this interpreter runs right now, relative to a
fixed reference, measured inside the process being timed.

The benchmark host is a few cores of a shared machine whose speed drifts by
tens of percent over minutes (other tenants' load), and a wall-clock time
follows that drift.  To make runs taken at different times comparable, a
repetition is timed as usual while a SIGALRM handler, every PROBE_EVERY_S of
wall time, runs one of a few fixed pure-Python loops shaped like tiedbox's
own hot paths (integer arithmetic, scattered dict lookups, Laurent-style
dict products, tuple slicing and comparison as in rewriting) and times it.
The mean over the probes of reference time / probe time is the repetition's
speed factor: 1.0 at the reference speed, below 1.0 when the host is
slower.  A time multiplied by the factor is the time the same work would
take at the reference speed.

The probes run in the main thread between bytecodes, so they see the same
core, caches and contention as the program; their own time is subtracted
before scaling.  They take about 2 % of the wall time.
"""

import signal
import time

PROBE_EVERY_S = 0.05
# Probes per kind in a burst: set-up lasts about 0.1 s, too short for the
# timer, so its speed is probed by a burst right after it.
BURST_ROUNDS = 5


def _int_loop(_):
    acc = 0
    for i in range(10_000):
        acc = (acc * 31 + i) % 1_000_003


def _dict_loop(table):
    acc = 0
    for i in range(5_000):
        acc += table[(i * 40_503) & 4_095]


def _poly_loop(_):
    a = {e: e + 1 for e in range(-12, 12)}
    for _ in range(12):
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in a.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2


def _tuple_loop(_):
    word = tuple(range(40)) * 3
    n = 0
    for k in range(1, 60):
        for j in range(0, 60, 3):
            if word[j:j + k] == word[-k:]:
                n += 1


# (loop, its time in seconds at the reference speed).  The reference is a
# typical time of each loop on a 2-core Intel Xeon VM under CPython 3.  It only
# fixes the scale; it must never change, or values taken before and after the
# change stop being comparable.
PROBES = [(_int_loop, 1.0e-3), (_dict_loop, 0.55e-3), (_poly_loop, 1.25e-3),
          (_tuple_loop, 0.55e-3)]


class SpeedProbe:
    """Context manager that probes the host speed while its block runs."""

    def __init__(self):
        self.table = {i: (i * 7919) % 65_521 for i in range(1 << 12)}
        self.ratios = []
        self.probe_s = 0.0

    def _probe(self, *_):
        loop, reference = PROBES[len(self.ratios) % len(PROBES)]
        start = time.perf_counter()
        loop(self.table)
        took = time.perf_counter() - start
        self.probe_s += took
        self.ratios.append(reference / took)

    def burst(self):
        """Probe at once, outside any block; returns the speed factor."""
        self.ratios, self.probe_s = [], 0.0
        for _ in range(BURST_ROUNDS * len(PROBES)):
            self._probe()
        return self.factor()

    def factor(self):
        """Mean speed relative to the reference over the latest probes."""
        return sum(self.ratios) / len(self.ratios)

    def __enter__(self):
        self.ratios, self.probe_s = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *_):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.ratios:
            self._probe()

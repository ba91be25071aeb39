"""Timings in reference-speed seconds, measured with an in-process speed probe.

On a shared host the CPU speed one process gets swings by up to a factor of
two within seconds, so raw wall times of identical work spread far more than
any regression worth catching.  A ``SpeedProbe`` samples that speed inside
the timed region: a timer signal every ``PERIOD_S`` runs a fixed chunk of
pure-Python work and records the CPU time the chunk took.  The region's time
is then reported as

    (wall time - wall time spent in probe chunks) * NOMINAL_CHUNK_S / median chunk CPU time

i.e. the seconds the same work would take on a CPU that runs the chunk in
``NOMINAL_CHUNK_S``.  The chunk looks up pseudo-random entries of a nested
five-level tuple table and hashes frozensets into a dict, the same kind of
interpreter work as tgw's table code, so it slows down with it; with its
warm-up run it costs about 5 % of the region, which the subtraction removes.  A chunk holds the
garbage collector off and keeps no object alive, so it does not scan tgw's
heap and tgw's heap does not slow it; the median of the chunk times keeps
one slow chunk from moving the scale.
Chunks are timed in CPU time so that a chunk that happens to be descheduled
does not skew the speed estimate.  A chunk also runs just before and just
after the region, so even a region shorter than ``PERIOD_S`` has two samples.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

PERIOD_S = 0.05
NOMINAL_CHUNK_S = 0.001
_N = 12
_TABLE = tuple(tuple(tuple(tuple(tuple((a * 3 + b * 5 + c * 7 + x + y) % _N
                                       for c in range(_N)) for y in range(2))
                             for b in range(_N)) for x in range(2)) for a in range(_N))


# Frozensets the chunk looks up; built once, so a chunk keeps nothing alive.
_KEYS = {frozenset((a, v, c)): v for a in range(_N) for v in range(_N) for c in range(_N)}


def _chunk() -> None:
    """Fixed work: table lookups, frozenset hashing and dict lookups.

    Every object the chunk makes is freed before the next is made, and the
    collector is off while it runs, so a chunk neither starts a collection
    that scans tgw's heap nor leaves garbage that makes tgw start one.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        table, keys = _TABLE, _KEYS
        total = 0
        k = 1
        for _ in range(1300):
            k = (k * 1103515245 + 12345) & 0xFFFFFF
            a, b, c = k % _N, (k >> 4) % _N, (k >> 8) % _N
            v = table[a][k & 1][b][(k >> 1) & 1][c]
            total += keys.get(frozenset((a, v, c)), 0)
    finally:
        if enabled:
            gc.enable()


def timed_chunk() -> tuple[float, float]:
    """Run a chunk to warm the caches, then time a second one.

    Returns the wall seconds of both and the CPU seconds of the second, so the
    speed estimate does not depend on how much of the cache tgw had taken.
    """
    wall = time.perf_counter()
    _chunk()
    cpu = time.process_time()
    _chunk()
    return time.perf_counter() - wall, time.process_time() - cpu


class SpeedProbe:
    """Context manager timing its body in wall and reference-speed seconds.

    Uses SIGALRM and ITIMER_REAL for the duration of the body; the previous
    handler is restored on exit.
    """

    def __init__(self) -> None:
        self.chunk_cpu_s: list[float] = []
        self.in_region_s = 0.0
        self.wall_s = 0.0

    def _tick(self, signum, frame) -> None:
        wall, cpu = timed_chunk()
        self.chunk_cpu_s.append(cpu)
        self.in_region_s += wall

    def __enter__(self) -> "SpeedProbe":
        self.chunk_cpu_s.append(timed_chunk()[1])
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.wall_s = time.perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        self.chunk_cpu_s.append(timed_chunk()[1])

    @property
    def seconds(self) -> float:
        """The body's time in reference-speed seconds."""
        return ((self.wall_s - self.in_region_s) * NOMINAL_CHUNK_S
                / statistics.median(self.chunk_cpu_s))

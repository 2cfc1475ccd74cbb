"""The machine's speed, read from a fixed calibration kernel.

On a shared machine the speed of allocation-heavy Python code drifts, as
other tenants load the same cores and caches.  On the 2-core x86 machine
the benchmark was tuned on, the kernel below took either about 5.5 or
about 10 ms, switching between the two within a second and more often on
one core than the other, and the same csp-lab request took from 180 to
320 ms within three minutes.  Pinning to the core where the kernel ran
faster did not steady it.  Averaged over a deck, the kernel's time tracked
the requests' time to within a few per cent.  So the benchmark runs the
kernel after every request and scales each deck's timings by REFERENCE_S
over the kernel's mean time in that deck, and each set-up time by the
kernel's time in the same worker just after it: a timing then reads as it
would at one fixed speed.

The kernel is independent of csplab, so a change to the program cannot
move it.  It holds about 100 kB at a time, so it sets no peak RSS, and it
runs with the cyclic garbage collector off, so its time does not grow
with the heap the program keeps.
"""
from __future__ import annotations

import gc
from time import perf_counter

# About the kernel's time on that machine when no other tenant loaded its
# core, so scaled figures read close to the wall times seen then.
REFERENCE_S = 0.0055


def kernel() -> None:
    """Tuple building, dict inserts and a keyed sort: the kind of work
    csplab does when it enumerates and labels objects."""
    for _ in range(3):
        index = {}
        for i in range(2000):
            t = tuple(range(i % 7, i % 7 + 6))
            index[t, i] = [x * 2 for x in t]
        sorted(index, key=lambda key: key[1] % 977)


def calibrate() -> float:
    """Seconds the kernel takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        kernel()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()

"""A fixed reference kernel that gauges how fast the machine runs right now.

On a shared host the same code runs up to ~50% slower for seconds to minutes
at a time, whenever other tenants load the cores, caches and memory we share.
The kernel below never changes, so its wall time tracks only that machine
speed.  Timed right before and right after a piece of fedrank work, it gives
the piece's wall time in reference seconds:

    reference seconds = wall / slowdown,  slowdown = kernel wall / nominal

where nominal is the kernel's wall time on an idle reference core.  A change
to fedrank moves the wall time only.  The kernel is made of parts, each the
kind of work some workload spends its time on; a workload's gauge runs the
parts that match it.
"""

from __future__ import annotations

import time

import numpy as np

# Each part's wall time when run alone, warm, on an idle core of a 2.1 GHz
# Xeon (2 vCPUs, numpy 2.4 with OpenBLAS at one thread).  Between pieces of
# fedrank work the kernel finds colder caches and reads slower, so reference
# seconds are a fixed scale, not wall-clock seconds.
PART_S = {
    "python": 0.0032,       # dict stores and integer arithmetic in a loop
    "bigint": 0.0013,       # big-integer shifts, as the rank codec does
    "small_numpy": 0.0027,  # a thousand numpy calls on tiny matrices, as SGD on
                            # small layers or batches of 8 makes
    "argsort": 0.0041,      # a stable argsort of 40k scores, as mask_layer does
    "fresh_pages": 0.025,   # a 48 MiB difference array in new pages, as krum's
}


class Gauge:
    """Runs the kernel's ``parts`` between pieces of work and times them.

    ``timed(fn)`` runs the kernel before ``fn`` only on the first call and
    after it every time, so each kernel run serves the pieces on both sides
    of it and the gauge costs one kernel run per piece.  The kernel's arrays
    are made here, not at import, so memory measured before the first gauge
    is fedrank's alone.
    """

    def __init__(self, parts: tuple[str, ...]):
        self.parts = parts
        self.nominal_s = sum(PART_S[p] for p in parts)
        rng = np.random.default_rng(20211008)
        self._scores = rng.random(40_000)
        self._act, self._w1 = rng.random((8, 20)), rng.random((20, 40))
        # Their broadcast difference is 48 MiB, past glibc's largest mmap
        # threshold, so every run faults in fresh pages.
        if "fresh_pages" in parts:
            self._left = rng.random((4, 1, 3 << 17))
            self._right = rng.random((1, 4, 3 << 17))
        self._last = None

    def _python(self) -> float:
        acc, table = 0, {}
        for i in range(30_000):
            table[i & 127] = acc
            acc += (i * 7) % 13
        return acc

    def _bigint(self) -> float:
        big = 0
        for i in range(2_000):
            big = (big << 17) | i
        return big.bit_length()

    def _small_numpy(self) -> float:
        return sum(int(np.maximum(self._act @ self._w1, 0.0).argmax()) for _ in range(1_000))

    def _argsort(self) -> float:
        return int(np.argsort(self._scores, kind="stable")[0])

    def _fresh_pages(self) -> float:
        diff = self._left - self._right
        np.square(diff, out=diff)
        return float(diff.sum())

    def kernel(self) -> float:
        """The fixed work; returns a checksum so none of it can be skipped."""
        return sum(getattr(self, "_" + part)() for part in self.parts)

    def _slowdown(self) -> float:
        start = time.perf_counter()
        self.kernel()
        return (time.perf_counter() - start) / self.nominal_s

    def timed(self, fn, *args):
        """(fn's result, fn's wall, the machine's slowdown around it): the
        mean of the kernel's slowdowns just before and just after."""
        before = self._slowdown() if self._last is None else self._last
        start = time.perf_counter()
        out = fn(*args)
        wall = time.perf_counter() - start
        self._last = self._slowdown()
        return out, wall, (before + self._last) / 2

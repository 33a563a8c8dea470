"""Host-speed calibration: scales wall times to a nominal host speed.

On a shared host the same code runs up to two fifths slower for minutes at
a time, and process CPU time slows down with it (the slowdown is contention
for the core and its caches, not lost scheduling). A fixed reference job,
run between the benchmark's operations, slows down alongside them: small
numpy row operations (the shape of the GF(2) rank kernel's work) and
Python set, dict and hashing work (the shape of the rank cache and the
document code). A sample taken between two reference runs is scaled by

    REFERENCE_S / mean(reference time before, reference time after)

so it reads as it would on a host that runs the reference job in
REFERENCE_S. The reference job is fixed code of the benchmark's own, so a
change to the package moves the scaled times and never the reference.
"""

from __future__ import annotations

import hashlib
import random
import time

import numpy as np

# About the reference job's median time on the host the bounds were set on
# (Intel Xeon, 2 vCPUs, numpy 2.4); its exact value only sets the scale.
REFERENCE_S = 0.1
GAP_S = 0.5  # measured time between two reference runs, at least

_MATRICES = list(np.random.default_rng(1).integers(0, 2**63, size=(40, 60, 4), dtype=np.uint64))
_BLOB = bytes(range(256)) * 4000


def reference_job() -> None:
    for matrix in _MATRICES * 3:  # row-reduce 16 bit columns of each
        rows, rank = matrix.copy(), 0
        for bit in range(0, 256, 16):
            word, shift = divmod(bit, 64)
            column = (rows[:, word] >> np.uint64(shift)) & np.uint64(1)
            nonzero = np.flatnonzero(column[rank:])
            if nonzero.size:
                pivot = rank + nonzero[0]
                rows[[rank, pivot]] = rows[[pivot, rank]]
                mask = column.astype(bool)
                mask[rank] = False
                rows[mask] ^= rows[rank]
                rank += 1
    counts, rng = {}, random.Random(3)
    for _ in range(12_000):
        key = frozenset(rng.sample(range(30), 4))
        counts[key] = counts.get(key, 0) + 1
    hashlib.sha256(_BLOB).digest()


class Calibrated:
    """Collects wall-time samples and files each one, scaled, into its list
    once the reference job has run after it."""

    def __init__(self):
        self.references: list[float] = []
        self._pending: list[tuple[list, float]] = []
        self._since = 0.0
        self.calibrate()

    def calibrate(self) -> None:
        start = time.perf_counter()
        reference_job()
        elapsed = time.perf_counter() - start
        before = self.references[-1] if self.references else elapsed
        self.references.append(elapsed)
        scale = REFERENCE_S / ((before + elapsed) / 2)
        for samples, seconds in self._pending:
            samples.append(seconds * scale)
        self._pending.clear()
        self._since = 0.0

    def add(self, samples: list, seconds: float) -> None:
        """File seconds into samples, scaled after the next reference run;
        that run comes once GAP_S of samples has gathered."""
        self._pending.append((samples, seconds))
        self._since += seconds
        if self._since >= GAP_S:
            self.calibrate()

    def flush(self) -> None:
        if self._pending:
            self.calibrate()

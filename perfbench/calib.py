"""A clock that runs at the speed of a reference machine.

The benchmark runs on a shared machine whose speed drifts: for minutes at a
time every instruction can take a third longer or shorter, so two 30-s runs
of the same code can differ by that much. ``RefClock`` times a fixed
pure-Python kernel (``kernel()``, which never calls aqldb) at the workload's
safe points, no more often than every ``EVERY_S`` seconds of workload time,
and lets the clock advance at the rate ``KERNEL_REF_S / kernel time`` until
the next sample, with the median of the last three samples as the kernel
time. A time read from it is the time the same work would take on
a machine where the kernel takes ``KERNEL_REF_S``; the kernel's own time is
left out. The program does not see the kernel, so a faster program reads
faster by the same factor, and a slower machine does not read slower.

With ``enabled=False`` the clock is ``time.perf_counter`` and no kernel runs;
the traced run and the size sweep use it so.
"""

from __future__ import annotations

import gc
import time

# The kernel's time on the machine the baseline was recorded on; reported
# times are scaled to it.
KERNEL_REF_S = 0.0019
EVERY_S = 0.05

_TABLE = {f"k{i}": (i, f"value-{i}", i % 7) for i in range(3000)}


def kernel() -> int:
    """Dict copies and row scans, the mix the engine spends its time on.
    It allocates only the copies, so the garbage collector, which would
    scan the program's heap, has no reason to run."""
    n = 0
    for _ in range(5):
        copy = dict(_TABLE)
        for key, row in copy.items():
            if row[2] == 3 and key in _TABLE:
                n += len(row[1])
            elif row[0] & 1:
                n += 1
    return n


class RefClock:
    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.base = 0.0  # reference seconds up to mark
        self.mark = time.perf_counter()
        self.scale = 1.0
        self.samples: list[float] = []  # kernel times, s
        self.kernel_s = 0.0

    def __call__(self) -> float:
        now = time.perf_counter()
        if not self.enabled:
            return now
        return self.base + (now - self.mark) * self.scale

    def calibrate(self, runs: int = 1) -> None:
        """Time the kernel (the median of ``runs`` runs) and set the rate
        for the time up to the next sample. Call only where no workload
        timing is open, or where the open ones read this clock."""
        if not self.enabled:
            return
        start = time.perf_counter()
        self.base += (start - self.mark) * self.scale
        was_enabled = gc.isenabled()
        gc.disable()
        times = []
        for _ in range(runs):
            t0 = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t0)
        if was_enabled:
            gc.enable()
        self.samples.append(sorted(times)[len(times) // 2])
        # The median of the last three samples: one sample is noisy enough
        # to move the tail of the op times, three still follow the drift.
        recent = sorted(self.samples[-3:])
        self.scale = KERNEL_REF_S / recent[len(recent) // 2]
        self.mark = time.perf_counter()
        self.kernel_s += self.mark - start

    def tick(self) -> None:
        """A safe point: calibrate if EVERY_S of workload time has gone by
        since the last sample."""
        if self.enabled and time.perf_counter() - self.mark >= EVERY_S:
            self.calibrate()

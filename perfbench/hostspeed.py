"""How fast the host runs this process, sampled while the timed calls run.

On a shared virtual machine the speed of the guest's CPU changes with the
load of other tenants: the same weather_dense solve took from 1.75 s to
3.0 s within a few minutes. Wall time equals the process's CPU time and the guest
reports no steal, so nothing inside the machine shows the slowdown except
the slowdown itself.

HostSpeed times a small fixed kernel that does not touch procure (a Python
loop and numpy element-wise work on a 20,000-element array, the two kinds
of work the program does) from a SIGALRM handler every PERIOD_S seconds,
so the samples fall inside the calls being timed. run.py scales each
call's wall time by PROBE_REFERENCE_S over the mean kernel time sampled
during that call: the result is the call's time at the host speed the
reference machine had. A change to procure moves it in full, while a
slowdown of the whole host cancels out. Over 39 solve calls of each
gated workload, the log of the wall time and the log of the kernel time
sampled during it correlated at 0.94 (grid_fine) and 0.98
(weather_dense), and scaling cut the calls' quartile spread from 0.135
to 0.046 and from 0.245 to 0.055 of their median.

The kernel also runs slower after the program has filled the caches: a
sample inside a call took 1.19-1.51 times as long as the kernel in a loop
on its own, depending on the workload. So a change to procure's cache
footprint moves the adjusted time by part of that factor as well.
Timing only a second, warm run of the kernel brought the factor to
1.05-1.08, but then the samples followed the host less closely (grid_fine
solve_s spread 0.21 over ten runs against 0.12 unadjusted), so the cold
run is what is timed.

The handler runs between the program's bytecodes and takes about 1% of
the time it samples; system calls it interrupts are retried (PEP 475).
"""
from __future__ import annotations

import signal
from contextlib import contextmanager
from time import perf_counter

# About the kernel's time in the quietest stretches seen on the machine
# the benchmark was written on (2-vCPU Xeon virtual machine, Python 3.11,
# numpy 2.4, OpenBLAS 1 thread). Only the scale of the adjusted times
# depends on it; it is fixed so that runs compare across commits.
PROBE_REFERENCE_S = 0.0004
PERIOD_S = 0.05


class HostSpeed:
    def __init__(self) -> None:
        # Imported here, after run.py has fixed the OpenBLAS thread count.
        import numpy as np

        self._np = np
        self._x = np.linspace(0.0, 3.0, 20_000)
        self.samples: list[tuple[float, float]] = []  # (when, kernel seconds)

    def kernel(self) -> float:
        """Seconds the fixed kernel takes now."""
        start = perf_counter()
        acc = 0.0
        for i in range(2_000):
            acc += (i % 7) * 0.5
        float(self._np.cumsum(self._np.exp(-self._x) * self._x)[-1])
        return perf_counter() - start

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append((perf_counter(), self.kernel()))

    @contextmanager
    def sampling(self):
        """Sample the kernel every PERIOD_S seconds inside the block."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, start: float, end: float) -> float:
        """PROBE_REFERENCE_S over the mean kernel time sampled between start
        and end; the kernel is run now when no sample fell in between."""
        times = [k for when, k in self.samples if start <= when <= end]
        if not times:
            times = [self.kernel() for _ in range(5)]
        return PROBE_REFERENCE_S / (sum(times) / len(times))

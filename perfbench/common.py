"""Helpers shared by the workloads: outcomes, percentiles, peak memory."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Outcome:
    """What one workload run reports.

    ``metrics`` maps metric names to values; ``details`` is printed as the
    human-readable record before the result line.  ``attempted``/``failed``
    count MD steps or serving requests.
    """

    correct: bool
    attempted: int
    failed: int
    metrics: dict
    details: dict = field(default_factory=dict)


def vm_hwm_mb(pid="self") -> float:
    """Peak resident set (``VmHWM``) of a process, in MB (1e6 bytes)."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def per(value: float, n: int) -> float:
    return value / n if n else 0.0


class HostSpeed:
    """A fixed reference workload, timed in between the program's
    operations, that tracks how fast this host runs right now.

    On a shared host the CPU the benchmark gets runs faster or slower by
    tens of percent over minutes, as other tenants come and go; every
    wall-clock metric moves with it.  The reference mixes the kinds of work
    an MD step does (BLAS GEMM, elementwise ``tanh`` over a matmul output,
    a fancy-index gather and interpreted Python), on fixed inputs that do
    not depend on the seed or on the package measured.  ``factor()`` is
    ``REFERENCE_S`` over the run's median pass time, so a time multiplied
    by it reads as it would on a host that runs one pass in
    ``REFERENCE_S`` (a 2-core cloud VM, Python 3.12, NumPy with OpenBLAS
    on one thread).
    """

    REFERENCE_S = 0.004

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.random((192, 192))
        self._x = rng.random((6000, 32))
        self._w = rng.random((32, 64))
        self._idx = rng.integers(0, 6000, 12000)
        # Outputs are preallocated: a pass allocates no large buffer, so
        # its time does not depend on the allocator's state in the process.
        self._c = np.empty_like(self._a)
        self._y = np.empty((6000, 64))
        self._g = np.empty((12000, 32))
        self.samples: list[float] = []

    def _pass(self) -> None:
        for _ in range(6):
            np.matmul(self._a, self._a, out=self._c)
        np.matmul(self._x, self._w, out=self._y)
        np.tanh(self._y, out=self._y)
        np.take(self._x, self._idx, axis=0, out=self._g)
        self._g.sum(axis=0)
        s = 0
        for i in range(16000):
            s += i * i

    def sample(self, passes: int = 1) -> None:
        """Time ``passes`` passes after an untimed one, which brings the
        reference's inputs back into cache: the timed passes then do not
        depend on how much of the cache the program's work just used."""
        self._pass()
        for _ in range(passes):
            t0 = time.perf_counter()
            self._pass()
            self.samples.append(time.perf_counter() - t0)

    def factor(self) -> float:
        if not self.samples:
            raise RuntimeError("no reference passes were timed")
        return self.REFERENCE_S / float(np.median(self.samples))

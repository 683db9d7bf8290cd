"""Machine-speed normalisation of the benchmark's times.

On a shared 2-core virtual machine the speed of the same Python code
drifts by up to 30 % over a few minutes (and by +-25 % from second to
second), far more than the differences a benchmark has to resolve.  So a
job samples the speed as it runs: before an op, once at least EVERY_S have
passed since the last sample, it times a fixed slice of Fraction
arithmetic.  Every time the job reports is then scaled by

    NOMINAL_SLICE_S / (mean slice time during the job),

which gives seconds at the machine's nominal speed: the speed at which the
slice takes NOMINAL_SLICE_S (its median on an idle 2-core x86-64 VM with
Python 3.11).  The slices are not part of any op time.

The cli workload is scaled by a reference of its own kind instead (see
`RefProbe`): its ops are cold interpreters, whose start-up cost (process
creation, page faults, reading and unmarshalling .pyc files) drifts with
the host differently from warm Fraction arithmetic.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

NOMINAL_SLICE_S = 0.0075
EVERY_S = 0.5


def slice_s() -> float:
    """Time one fixed slice of Fraction arithmetic (about 7.5 ms)."""
    t = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 1001):
        acc += Fraction(i % 17 + 1, i % 13 + 2) * (i % 5)
    return time.perf_counter() - t


class SpeedProbe:
    """Speed samples of one job, taken between its ops."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= EVERY_S:
            self.samples.append(slice_s())
            self._last = time.perf_counter()

    def total_s(self) -> float:
        return sum(self.samples)


def factor(samples: list[float]) -> float:
    """Scale from measured seconds to seconds at nominal speed."""
    return NOMINAL_SLICE_S * len(samples) / sum(samples)


# -- cold-start reference (cli workload) ----------------------------------------

REF_SCRIPT = Path(__file__).resolve().with_name("ref_start.py")
# Median time of one REF_SCRIPT run on an idle 2-core x86-64 VM with Python 3.11.
NOMINAL_REF_S = 0.27


class RefProbe:
    """Cold-start speed samples of one job: before each op, one run of
    REF_SCRIPT (a fresh interpreter importing a fixed set of standard-library
    modules), timed like an op."""

    def __init__(self, cwd: Path, env: dict):
        self.cwd = cwd
        self.env = env
        self.samples: list[float] = []

    def sample(self) -> None:
        t = time.perf_counter()
        subprocess.run([sys.executable, str(REF_SCRIPT)], cwd=self.cwd, env=self.env,
                       check=True, capture_output=True, timeout=60)
        self.samples.append(time.perf_counter() - t)

    def total_s(self) -> float:
        return sum(self.samples)

    def factor(self) -> float:
        """Scale from measured seconds to seconds at nominal speed; the
        median keeps one slow start from moving the whole job."""
        return NOMINAL_REF_S / statistics.median(self.samples)

"""Host-speed reference for the timed metrics.

On shared hosts a single-threaded process that keeps its CPU still runs at
a speed that changes by tens of percent from one second to the next (on a
2-vCPU host, the same 4000-frame episode repeated for 100 s had an
interquartile range of half its median). Raw times of identical runs then
differ by more than any useful regression bound. So a fixed reference
kernel, which does not use ``edgerecon``, is timed right before and after
every timed episode and report, and each measured time is rescaled to a host
on which the kernel takes ``REFERENCE_S`` (on that host this cut the range to
6%). Both commits of a comparison use the same kernel and constant, so the
rescaled times compare code, not host load.

The kernel is a small frame loop with the simulator's instruction mix:
interpreted control flow, frozen dataclasses, tuple and string keys,
Counter updates and single-element numpy calls. Set-up probes, which measure
a fresh process, are rescaled by a fresh interpreter importing the package's
dependencies instead (``startup_sample``).
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

# Kernel time on the reference host; reported times are scaled to it.
REFERENCE_S = 0.010
# Time a fresh interpreter takes to import numpy and yaml on the reference host.
STARTUP_REFERENCE_S = 0.100
_STARTUP_PROBE = ("import json, time\n"
                  "start = time.perf_counter()\n"
                  "import numpy, yaml\n"
                  "print(json.dumps(time.perf_counter() - start))\n")
# Short, so that the samples sit close in time to what they rescale.
_FRAMES = 500
_ACTIONS = 26


@dataclass(frozen=True)
class _Record:
    frame: int
    mask: tuple
    quality: float
    reward: float


def kernel(frames: int = _FRAMES) -> int:
    rng = np.random.default_rng(0)
    q = np.zeros(_ACTIONS)
    histogram: Counter[str] = Counter()
    table = {tuple((v >> i) & 1 for i in range(5)): float(v) for v in range(32)}
    available = (1, 1, 0, 1, 1)
    records = []
    for frame in range(frames):
        idx = int(np.argmax(q)) if rng.random() > 0.1 else int(rng.integers(_ACTIONS))
        mask = tuple((idx >> i) & 1 for i in range(5))
        effective = tuple(b & a for b, a in zip(mask, available))
        quality = max(0.0, table[effective] * 20 + float(rng.normal(0.0, 30.0)))
        reward = (0.5 * min(1.0, quality / 400)
                  + 0.5 * max(0.0, 1 - (0.4 + 0.12 * sum(effective))))
        q[idx] += 0.9 * (reward + 0.1 * float(q.max()) - q[idx])
        histogram["".join(str(b) for b in mask)] += 1
        records.append(_Record(frame, mask, quality, reward))
    return len(records)


def sample() -> float:
    """Seconds one kernel run takes on the host right now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def startup_sample(cwd) -> float:
    """Seconds a fresh interpreter takes to import the package's dependencies.

    Set-up in a fresh process is dominated by loading code, which the frame
    loop kernel does not track; this reference does, so each set-up probe is
    rescaled by the startup sample taken right after it.
    """
    proc = subprocess.run([sys.executable, "-c", _STARTUP_PROBE], cwd=cwd, capture_output=True,
                          text=True, timeout=60, check=True)
    return json.loads(proc.stdout)


class Clock:
    """Rescales a sequence of host times by the kernel samples taken between them.

    The host's speed changes within a second, so each time is scaled by the
    mean of the two samples taken right before and right after it.
    """

    def __init__(self):
        self.samples = [sample()]
        self.raw: list[float] = []

    def add(self, seconds: float) -> None:
        """Records a time measured since the previous sample, then takes a sample."""
        self.raw.append(seconds)
        self.samples.append(sample())

    def scaled(self) -> list[float]:
        return [seconds * 2 * REFERENCE_S / (self.samples[i] + self.samples[i + 1])
                for i, seconds in enumerate(self.raw)]

    def speed(self) -> float:
        """Median host speed over the run, relative to the reference host."""
        return REFERENCE_S / float(np.median(self.samples))

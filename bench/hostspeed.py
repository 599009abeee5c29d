"""Scale timings to a reference host speed with a probe run between chunks.

The development host is a 2-vCPU virtual machine whose processor, for
seconds and sometimes minutes at a time, runs interpreter-bound code 1.3
to 2 times slower, and memory-bound numpy code less so (a neighbour on
the same physical core, as far as can be told from inside: no steal time
is accounted and the guest is otherwise idle).  A median over passes
removes a slow stretch shorter than half a run, but not a slow minute.

So the benchmark times its work in chunks — one sweep cell, or about
``CHUNK_S`` of served ops — and runs a probe, a fixed piece of work,
between consecutive chunks.  A chunk's wall is scaled by the probe's
reference time over the mean of the probes on either side of it, which
is what the chunk would have taken on a host that runs the probe in its
reference time.  The probe is the benchmark's own code, so a change to
the program moves the scaled timings as it moves the raw ones; only the
host's speed is divided out.

Each workload names the probe whose slowdown follows its own:
``interpreter`` for the service and the dispatch-bound stress sweep,
``memory`` for the memory-bound ``sweep-large``, which the interpreter
probe over-corrected by up to 25 % (bench/README.md, "Host speed").
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, List

import numpy as np

__all__ = ["CHUNK_S", "PROBES", "HostSpeed"]

#: Served ops are timed in chunks of at least this much wall.
CHUNK_S = 0.2


def _interpreter_probe() -> Callable[[], int]:
    """Set builds, membership tests and dict stores over 4096 ids.

    The kind of work of the service's answer path and of the per-replica
    dispatch of the stress sweep.
    """
    live = list(range(4096))

    def run() -> int:
        total = 0
        for _ in range(40):
            members = set(live)
            table = {}
            for v in live:
                if v in members:
                    table[v] = v & 7
            total += len(table)
        return total

    return run


def _memory_probe() -> Callable[[], int]:
    """A CSR-style gather and segment sum over a 4 MiB int32 plane.

    The shape of one hear of ``sweep-large``: 16 replicas of 2^16
    vertices, rows gathered in random order.
    """
    rng = np.random.default_rng(0)
    plane = rng.integers(0, 2, (1 << 16, 16)).astype(np.int32)
    order = rng.integers(0, 1 << 16, 1 << 16)
    starts = np.arange(0, 1 << 16, 8)

    def run() -> int:
        sums = np.add.reduceat(plane[order], starts, axis=0)
        return int(np.count_nonzero(sums))

    return run


#: ``name -> (probe factory, reference seconds)``.  A reference is the
#: probe's time on the development host outside slow stretches.
PROBES = {
    "interpreter": (_interpreter_probe, 0.0125),
    "memory": (_memory_probe, 0.0125),
}


class HostSpeed:
    """Probes the host between chunks and gives each chunk its scale."""

    def __init__(self, probe: str) -> None:
        factory, self.reference = PROBES[probe]
        self._probe = factory()
        self._last = self._timed_probe()
        #: Every probe time, for reporting.
        self.probes: List[float] = [self._last]

    def _timed_probe(self) -> float:
        start = time.perf_counter()
        self._probe()
        return time.perf_counter() - start

    def factor(self) -> float:
        """Scale for the chunk that just ended; probes once.

        Call it right after the chunk and start timing the next chunk
        after it returns, so the probe is in no chunk's wall.
        """
        before, self._last = self._last, self._timed_probe()
        self.probes.append(self._last)
        return 2.0 * self.reference / (before + self._last)

    def slowdown(self) -> float:
        """Median probe time over the reference: 1 on an undisturbed host."""
        return statistics.median(self.probes) / self.reference

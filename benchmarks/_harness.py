"""Shared plumbing for the experiment benchmarks.

Every experiment module (``bench_*.py``) has two entry styles:

* ``bench_*`` functions — collected by ``pytest benchmarks/
  --benchmark-only`` via pytest-benchmark.  They time a representative
  core operation at *smoke scale* and attach the reproduced shape
  numbers to ``benchmark.extra_info`` so the run is self-describing.
* ``main()`` — the *full* sweep that regenerates the tables recorded in
  EXPERIMENTS.md; run directly (``python benchmarks/bench_theorem21.py``).

Scale is controlled here so smoke runs stay in CI-friendly territory.
"""

from __future__ import annotations

import os
import sys
import zlib
from typing import Sequence

import numpy as np

# Make `python benchmarks/bench_x.py` work without installing tweaks.
sys.path.insert(0, os.path.dirname(__file__))

#: Smoke scale (pytest) vs. full scale (main()).
SMOKE_SIZES = [32, 64, 128]
SMOKE_REPS = 5
FULL_SIZES = [16, 32, 64, 128, 256, 512, 1024, 2048, 4096]
FULL_REPS = 20

#: Graph families used by the scaling experiments (names understood by
#: repro.graphs.generators.by_name).
SCALING_FAMILIES = ["er", "regular", "cycle", "star"]


def sizes_and_reps(full: bool):
    """(problem sizes, repetitions) for the requested scale."""
    if full:
        return FULL_SIZES, FULL_REPS
    return SMOKE_SIZES, SMOKE_REPS


#: Where machine-readable benchmark artifacts land (committed alongside
#: the human-readable ``results/*.txt`` transcripts).
RESULTS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "results"
)


def allocation_audit_summary():
    """Measured steady-state bytes/round per engine combo.

    Runs :func:`repro.devtools.hotpath.audit.run_allocation_audit` (the
    runtime twin of the RPR8xx hot-path rules) and returns its
    JSON-ready summary: per-combo net retained bytes/round, the
    documented thresholds, and an overall ``ok`` verdict.  Takes well
    under a second, so every benchmark artifact can afford to carry it.
    """
    from repro.devtools.hotpath.audit import allocation_summary

    return allocation_summary()


def save_bench_rows(
    name: str, rows, parameters=None, profile=None, audit_allocations=True
) -> str:
    """Persist ``rows`` as ``results/BENCH_<name>.json``.

    Uses the versioned :mod:`repro.analysis.persistence` envelope so the
    artifact records the library version and creation parameters and can
    be read back with ``load_rows``.  ``profile`` (a
    :meth:`repro.obs.PhaseProfiler.snapshot` dict) is embedded under
    ``parameters["profile"]`` so benchmark artifacts carry their own
    timing breakdown.  Unless ``audit_allocations`` is disabled, the
    steady-state allocation audit summary (bytes/round per engine
    combo plus its pass/fail verdict) is embedded under
    ``parameters["allocation"]``, so every artifact records the
    allocation health of the engines that produced it.  Returns the
    written path.
    """
    from repro.analysis.persistence import save_rows

    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"BENCH_{name}.json")
    params = dict(parameters or {})
    if profile is not None:
        params["profile"] = profile
    if audit_allocations and "allocation" not in params:
        params["allocation"] = allocation_audit_summary()
    save_rows(rows, path, experiment=name, parameters=params)
    return path


def seed_for(*parts) -> int:
    """A stable 31-bit seed derived from experiment coordinates.

    CRC-32 of the coordinates' ``repr`` — unlike ``hash``, which Python
    randomizes per process for strings, it is the same in every run, so
    a benchmark measures the same graphs every time.
    """
    return zlib.crc32(repr(parts).encode("utf-8")) % (2**31 - 1)


def print_header(experiment_id: str, claim: str) -> None:
    bar = "=" * 72
    print(bar)
    print(f"{experiment_id}: {claim}")
    print(bar)


def whp_spread(samples: Sequence[float]) -> float:
    """max/mean ratio — the concentration check behind 'w.h.p.'.

    For an O(log n)-w.h.p. bound the worst seed should sit within a
    small constant factor of the mean; heavy tails would show up here.
    """
    mean = float(np.mean(samples))
    return float(np.max(samples)) / mean if mean > 0 else 0.0

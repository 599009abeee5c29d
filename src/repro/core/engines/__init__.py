"""Execution engines: array programs behind one beeping-model semantics.

* :mod:`~repro.core.engines.batched` — :class:`BatchedEngine`, the one
  engine state: R replicas as an (R, n) int32 level block with
  bit-identical per-replica trajectories, stepped by one round kernel.
* :mod:`~repro.core.engines.base` — :class:`EngineBase`, the solo
  ``(n,)`` facade over a one-row block (with the resumable
  :meth:`~EngineBase.until_stable` loop), the per-row stress state, and
  :class:`VectorizedResult`.
* :mod:`~repro.core.engines.single` / :mod:`~repro.core.engines.two_channel`
  — Algorithms 1 and 2 as solo algorithm tags and their drivers.
* :mod:`~repro.core.engines.constant_state` — the two-state baseline.
* :mod:`~repro.core.engines.registry` — the named backends used by
  ``compute_mis`` and the CLI ``--engine`` flags.
"""

from .base import EngineBase, SeedLike, VectorizedResult
from .batched import BatchedEngine, BatchedResult, simulate_batched
from .constant_state import ConstantStateEngine, simulate_constant_state
from .registry import EngineBackend, available_engines, get_engine
from .single import SingleChannelEngine, simulate_single
from .two_channel import TwoChannelEngine, simulate_two_channel

__all__ = [
    # base
    "EngineBase",
    "SeedLike",
    "VectorizedResult",
    # solo engines
    "SingleChannelEngine",
    "TwoChannelEngine",
    "ConstantStateEngine",
    "simulate_single",
    "simulate_two_channel",
    "simulate_constant_state",
    # batched
    "BatchedEngine",
    "BatchedResult",
    "simulate_batched",
    # registry
    "EngineBackend",
    "get_engine",
    "available_engines",
]

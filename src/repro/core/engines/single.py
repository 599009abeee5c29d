"""Array implementation of Algorithm 1 (single channel).

The engine is an algorithm tag on the solo facade
(:class:`~repro.core.engines.base.EngineBase`); the round itself is
:class:`~repro.core.kernels.RoundKernel`'s Algorithm-1 body.
"""

from .base import EngineBase

__all__ = ["SingleChannelEngine", "simulate_single"]


class SingleChannelEngine(EngineBase):
    """Algorithm 1: levels in ``[-ℓmax, ℓmax]``, floor ``-ℓmax`` marks MIS candidates."""

    algorithm = "single"


#: Run Algorithm 1 to stabilization (:meth:`EngineBase.simulate`).
simulate_single = SingleChannelEngine.simulate

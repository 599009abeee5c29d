"""Array implementation of Algorithm 2 (two channels).

The engine is an algorithm tag on the solo facade
(:class:`~repro.core.engines.base.EngineBase`); the round itself is
:class:`~repro.core.kernels.RoundKernel`'s Algorithm-2 body.
"""

from .base import EngineBase

__all__ = ["TwoChannelEngine", "simulate_two_channel"]


class TwoChannelEngine(EngineBase):
    """Algorithm 2: levels in ``[0, ℓmax]``."""

    algorithm = "two_channel"


#: Run Algorithm 2 to stabilization (:meth:`EngineBase.simulate`).
simulate_two_channel = TwoChannelEngine.simulate

"""Array implementation of Algorithm 1 (single channel)."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np
import numpy.typing as npt

from ...graphs.graph import Graph
from ..knowledge import EllMaxPolicy
from .base import MAX_EXPONENT, EngineBase, SeedLike, VectorizedResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...beeping.channels import ChannelLike
    from ...beeping.schedulers import SchedulerLike
    from ...obs.collectors import RunCollector

__all__ = ["SingleChannelEngine", "simulate_single"]


class SingleChannelEngine(EngineBase):
    """Array implementation of Algorithm 1 on a fixed graph + policy.

    Levels live in ``[-ℓmax, ℓmax]``; the level floor ``-ℓmax`` marks the
    MIS candidates.
    """

    uses_negative_levels = True

    def beep_probabilities(self) -> npt.NDArray[np.float64]:
        """The Figure-1 activation applied elementwise to the levels.

        The clipped exponent lands in the reused ``_pfloat`` scratch (a
        cast-on-store, value-identical to the historical ``.astype``);
        only the returned probability vector is freshly allocated.
        """
        exponent = self._pfloat
        np.clip(self.levels, 0, MAX_EXPONENT, out=exponent)
        np.negative(exponent, out=exponent)
        p = np.power(2.0, exponent)
        p[self.levels <= 0] = 1.0
        p[self.levels >= self.ell_max] = 0.0
        return p

    def step(self) -> npt.NDArray[np.bool_]:
        """One round; returns the *emitted* beep vector (bool array).

        Under a non-synchronous scheduler, delayed vertices emit their
        stale carrier beep and skip the level update; a non-perfect
        channel perturbs the heard mask after the hear-matvec.  With the
        default perfect channel + synchronous scheduler this is the
        historical step, operation for operation.
        """
        draws = self._draws
        self.rng.random(out=draws)
        beeps = draws < self.beep_probabilities()
        active = None
        if not self._ideal:
            stress = self._stress
            stress.begin_round()
            active = stress.active_mask(self.round_index)
            if active is not None:
                beeps = stress.transmit(0, beeps, active)
        heard = self.kernel.hear(beeps)
        if not self._ideal:
            heard = self._stress.apply_channel(heard)
        up = np.minimum(self.levels + 1, self.ell_max)
        reset = -self.ell_max
        down = np.maximum(self.levels - 1, 1)
        new_levels = np.where(heard, up, np.where(beeps, reset, down))
        if active is not None:
            new_levels = np.where(active, new_levels, self.levels)
        self.levels = new_levels
        self.round_index += 1
        return beeps


def simulate_single(
    graph: Graph,
    policy: EllMaxPolicy,
    seed: SeedLike = None,
    max_rounds: int = 100_000,
    initial_levels: Optional[npt.ArrayLike] = None,
    arbitrary_start: bool = False,
    check_every: int = 1,
    record_series: bool = False,
    collector: Optional["RunCollector"] = None,
    channel: "ChannelLike" = None,
    scheduler: "SchedulerLike" = None,
) -> VectorizedResult:
    """Run Algorithm 1 to stabilization on the vectorized engine.

    ``arbitrary_start=True`` draws a uniformly random initial
    configuration (the self-stabilization setting); otherwise the run
    starts from the fresh level-1 configuration, unless
    ``initial_levels`` overrides it.  ``collector`` attaches a
    zero-perturbation :class:`repro.obs.RunCollector`.  ``channel`` /
    ``scheduler`` select
    the stress models of :mod:`repro.beeping.channels` /
    :mod:`repro.beeping.schedulers`; the defaults reproduce the
    historical trajectories byte for byte.
    """
    engine = SingleChannelEngine(
        graph,
        policy,
        seed,
        channel=channel,
        scheduler=scheduler,
    )
    if initial_levels is not None:
        engine.set_levels(initial_levels)
    elif arbitrary_start:
        engine.randomize_levels()
    return engine.until_stable(
        max_rounds,
        check_every=check_every,
        record_series=record_series,
        collector=collector,
    )

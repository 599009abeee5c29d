"""Shared pieces of the array engines, and the solo ``(n,)`` facade.

The reference engine (:class:`repro.beeping.network.BeepingNetwork`)
defines the semantics; the engines in this package re-implement the
algorithms as array programs.  The one engine state is
:class:`~repro.core.engines.batched.BatchedEngine`; this module holds
its per-row :class:`StressState`, the :class:`VectorizedResult` of a
run, and :class:`EngineBase`, the solo surface over a one-row block
whose subclasses are algorithm tags.

Bit-identical equivalence contract
----------------------------------
All engines draw exactly ``n`` uniforms per round via a single
``rng.random`` fill, in node order, and a vertex beeps iff ``u < p(ℓ)``
with the same double-precision ``p`` as the reference engine.  Hence,
for the same seed and initial levels, trajectories are *identical*
across engines — asserted by ``tests/test_engine_equivalence.py``,
``tests/test_batched_engine.py`` and ``tests/test_engine_identity.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Optional, Tuple, Union,
)

import numpy as np
import numpy.typing as npt

from ...devtools.seeding import SeedLike, derive_seed_sequence, resolve_rng, rng_from_sequence
from ...graphs.graph import Graph
from ..kernels import GraphStructure, HearKernel
from ..kernels.round import MAX_EXPONENT, active_of
from ..knowledge import EllMaxPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...beeping.channels import BoundChannel, ChannelLike, ChannelModel
    from ...beeping.schedulers import BoundScheduler, Scheduler, SchedulerLike
    from ...obs.collectors import RunCollector
    from .batched import BatchedEngine

__all__ = [
    "SeedLike",
    "VectorizedResult",
    "EngineBase",
    "StressState",
    "bind_stress_models",
    "MAX_EXPONENT",
]

#: One engine step returns either the beep mask (single channel) or a
#: ``(channel1, channel2)`` pair of masks (two channels).
StepOutput = Union[
    npt.NDArray[np.bool_],
    Tuple[npt.NDArray[np.bool_], npt.NDArray[np.bool_]],
]


class StressState:
    """Bound channel + scheduler state for one trajectory.

    One instance per level-block row (per replica), holding the bound
    models, their derived random streams, and the stale-beep carrier
    arrays behind the scheduler semantics (see ``docs/robustness.md``).
    The round kernel calls its methods once per row and round.  ``ideal`` is True iff the channel is perfect
    *and* the scheduler synchronous — engines then hand the kernel no
    stress state at all: zero extra draws and zero perturbation (the
    byte-identity contract of the defaults).
    """

    __slots__ = (
        "channel_model",
        "scheduler_model",
        "channel",
        "scheduler",
        "channel_rng",
        "scheduler_rng",
        "ideal",
        "_carriers",
        "_n",
    )

    def __init__(
        self,
        n: int,
        channel_model: "ChannelModel",
        scheduler_model: "Scheduler",
        channel_rng: Optional[np.random.Generator],
        scheduler_rng: Optional[np.random.Generator],
    ):
        self.channel_model = channel_model
        self.scheduler_model = scheduler_model
        self.channel: "BoundChannel" = channel_model.bind()
        self.scheduler: "BoundScheduler" = scheduler_model.bind(n)
        self.channel_rng = channel_rng
        self.scheduler_rng = scheduler_rng
        self.ideal = channel_model.trivial and scheduler_model.trivial
        self._carriers: Dict[int, npt.NDArray[np.bool_]] = {}
        self._n = n

    def begin_round(self) -> None:
        """Reset the channel's per-round counters (once per round)."""
        self.channel.start_round()

    def active_mask(self, round_index: int) -> Optional[npt.NDArray[np.bool_]]:
        """This round's firing mask (``None`` = synchronous, all fire)."""
        return self.scheduler.active_mask(round_index, self.scheduler_rng)

    def transmit(
        self,
        key: int,
        beeps: npt.NDArray[np.bool_],
        active: npt.NDArray[np.bool_],
    ) -> npt.NDArray[np.bool_]:
        """Gate fresh beeps by activity against the stale carrier, in place.

        Delayed vertices keep transmitting the beep of the last round
        they fired (silence before their first firing); ``key``
        distinguishes the two channels of Algorithm 2.  ``beeps`` must
        be a freshly computed mask — it is mutated and becomes the new
        carrier.
        """
        carrier = self._carriers.get(key)
        if carrier is None:
            carrier = np.zeros(beeps.shape, dtype=bool)
            self._carriers[key] = carrier
        np.copyto(beeps, carrier, where=~active)
        np.copyto(carrier, beeps)
        return beeps

    def apply_channel(
        self, heard: npt.NDArray[np.bool_]
    ) -> npt.NDArray[np.bool_]:
        """Perturb a hear mask in place through the bound channel."""
        return self.channel.apply(heard, self.channel_rng)

    def rebind(self, n: int) -> None:
        """Adjust to a topology rebind.

        At fixed ``n`` everything carries over (clock lags, carriers,
        channel counters).  When the vertex-id space changes, the
        scheduler's clock state is re-bound at the new size and the
        carriers reset to silence; the channel (and its lifetime
        counters) persists — it holds no per-vertex state.
        """
        if self.ideal or n == self._n:
            return
        self._n = n
        self.scheduler = self.scheduler_model.bind(n)
        self._carriers = {}


def bind_stress_models(
    n: int,
    channel: "ChannelLike",
    scheduler: "SchedulerLike",
    rng: np.random.Generator,
) -> StressState:
    """Resolve channel/scheduler specs and derive their random streams.

    Seed-tree layout (documented in ``docs/robustness.md``): when either
    model needs randomness, ONE 63-bit ``integers`` draw from the
    engine's main stream (via
    :func:`repro.devtools.seeding.derive_seed_sequence`) seeds a root
    whose two spawned children feed the channel (child 0) and scheduler
    (child 1) streams.  With the default perfect channel and
    synchronous scheduler *nothing* is drawn and the main stream is
    untouched — the byte-identity guarantee of the defaults.

    The per-call derivation is what keeps every replica's streams
    independent of its block: the engine calls this once per row with
    that row's generator, so a row draws the same values alone or
    among others.
    """
    from ...beeping.channels import resolve_channel
    from ...beeping.schedulers import resolve_scheduler

    channel_model = resolve_channel(channel)
    scheduler_model = resolve_scheduler(scheduler)
    channel_rng: Optional[np.random.Generator] = None
    scheduler_rng: Optional[np.random.Generator] = None
    if channel_model.needs_rng or scheduler_model.needs_rng:
        root = derive_seed_sequence(rng)
        chan_seq, sched_seq = root.spawn(2)
        if channel_model.needs_rng:
            channel_rng = rng_from_sequence(chan_seq)
        if scheduler_model.needs_rng:
            scheduler_rng = rng_from_sequence(sched_seq)
    return StressState(
        n, channel_model, scheduler_model, channel_rng, scheduler_rng
    )


@dataclass
class VectorizedResult:
    """Outcome of a vectorized stabilization run.

    ``rounds`` counts rounds executed before the first legal
    configuration (start-of-round convention, as in the paper's ``S_t``).
    When ``check_every > 1`` the loop only *observes* legality at that
    cadence, so ``rounds`` is then the first multiple of ``check_every``
    at which the configuration was seen legal — an overestimate of the
    true stabilization round by at most ``check_every − 1``.
    """

    stabilized: bool
    rounds: int
    mis: FrozenSet[int]
    final_levels: npt.NDArray[np.int64]

    def __bool__(self) -> bool:
        return self.stabilized


class EngineBase:
    """A solo engine: an ``(n,)``-shaped facade over a one-row block.

    The state is a one-row :class:`~repro.core.engines.batched.BatchedEngine`
    on the caller's generator (:attr:`rng`).  The facade keeps the solo
    surface: :attr:`levels` is an int64 ``(n,)`` vector callers may read
    and assign (fault injectors do), loaded into the block row before
    every round, query and run, and ``step()`` returns ``(n,)`` masks.
    Subclasses name the :attr:`algorithm`.
    """

    #: ``"single"`` (Algorithm 1, levels in ``[-ℓmax, ℓmax]``),
    #: ``"two_channel"`` (Algorithm 2, levels in ``[0, ℓmax]``) or
    #: ``"constant_state"`` (the two-state baseline, 1 = IN, 0 = OUT).
    algorithm: str

    def __init__(
        self,
        graph: Graph,
        policy: Optional[EllMaxPolicy],
        seed: SeedLike = None,
        channel: "ChannelLike" = None,
        scheduler: "SchedulerLike" = None,
    ):
        from .batched import BatchedEngine  # that module imports this one

        self.rng = resolve_rng(seed)
        self._block = BatchedEngine(
            graph, policy, rngs=[self.rng], algorithm=self.algorithm,
            channel=channel, scheduler=scheduler,
        )
        #: The bound channel (perturbation counters live here).
        self.channel: "BoundChannel" = self._block.channels[0]
        self.levels: npt.NDArray[np.int64] = np.ones(self.n, dtype=np.int64)

    @classmethod
    def simulate(
        cls,
        graph: Graph,
        policy: EllMaxPolicy,
        seed: SeedLike = None,
        max_rounds: int = 100_000,
        initial_levels: Optional[npt.ArrayLike] = None,
        arbitrary_start: bool = False,
        check_every: int = 1,
        collector: Optional["RunCollector"] = None,
        channel: "ChannelLike" = None,
        scheduler: "SchedulerLike" = None,
    ) -> VectorizedResult:
        """Run this algorithm to stabilization on a fresh engine.

        ``arbitrary_start=True`` draws a uniformly random initial
        configuration (the self-stabilization setting); otherwise the
        run starts from the fresh level-1 configuration, unless
        ``initial_levels`` overrides it.  ``collector`` attaches a
        zero-perturbation :class:`repro.obs.RunCollector`.  ``channel``
        / ``scheduler`` select the stress models of
        :mod:`repro.beeping.channels` / :mod:`repro.beeping.schedulers`;
        the defaults reproduce the historical trajectories byte for byte.
        """
        engine = cls(graph, policy, seed, channel=channel, scheduler=scheduler)
        if initial_levels is not None:
            engine.set_levels(initial_levels)
        elif arbitrary_start:
            engine.randomize_levels()
        return engine.until_stable(max_rounds, check_every, collector)

    # The block's shared state, read through.
    @property
    def n(self) -> int:
        return self._block.n

    @property
    def graph(self) -> Optional[Graph]:
        return self._block.graph

    @property
    def structure(self) -> GraphStructure:
        return self._block.structure

    @property
    def adjacency(self) -> object:
        return self._block.adjacency

    @property
    def kernel(self) -> HearKernel:
        return self._block.kernel

    @property
    def ell_max(self) -> npt.NDArray[np.int64]:
        return self._block.ell_max

    @property
    def round_index(self) -> int:
        return self._block.round_index

    @property
    def channels(self) -> "List[BoundChannel]":
        return self._block.channels

    def _floor_vector(self) -> npt.NDArray[np.int64]:
        """Per-vertex lowest admissible level (cached; treat as read-only)."""
        return self._block._floor_vector()

    def _sync(self) -> "BatchedEngine":
        """The block, its row loaded from :attr:`levels`."""
        np.copyto(self._block.levels[0], self.levels)
        return self._block

    # ------------------------------------------------------------------
    def set_levels(self, levels: npt.ArrayLike) -> None:
        """Install a level vector (values are validated, not clamped)."""
        levels = np.asarray(levels, dtype=np.int64)
        if levels.shape != (self.n,):
            raise ValueError(f"levels must have shape ({self.n},)")
        self._block.set_levels(levels.reshape(1, self.n))
        self.levels = levels.copy()

    def randomize_levels(self) -> None:
        """Uniform arbitrary configuration (full RAM corruption)."""
        self._block.randomize_levels()
        self.levels = self._block.levels[0].astype(np.int64)

    def rebind(
        self,
        structure: GraphStructure,
        policy: Optional[EllMaxPolicy] = None,
    ) -> None:
        """Swap in a new structure, carrying the levels (see :meth:`BatchedEngine.rebind`)."""
        if policy is None and structure.n == self.n:
            # Levels carry verbatim (every served mutation): no row round trip.
            self._block.rebind(structure)
            return
        self._sync().rebind(structure, policy)
        self.levels = self._block.levels[0].astype(np.int64)

    def step(self) -> StepOutput:
        """One round; fresh copies of the emitted beeps (see :meth:`BatchedEngine.step`)."""
        block = self._sync()
        emitted = block.step()
        np.copyto(self.levels, block.levels[0])
        if isinstance(emitted, tuple):
            return emitted[0].reshape(self.n), emitted[1].reshape(self.n)
        return emitted.reshape(self.n)

    def until_stable(
        self,
        max_rounds: int,
        check_every: int = 1,
        collector: Optional["RunCollector"] = None,
    ) -> VectorizedResult:
        """Step from the *current* levels until the configuration is legal.

        The block's fused run with :meth:`BatchedEngine.run`'s legality
        cadence, so ``rounds`` is exact with ``check_every=1`` and may
        overshoot by up to ``check_every − 1`` otherwise.  It never
        resets state: after a :meth:`rebind` (or any external level
        perturbation) it continues the same engine, which is what lets
        a service carry levels across topology events.  ``collector``
        (a :class:`repro.obs.RunCollector`) is fed inside the kernel
        and never perturbs the trajectory.
        """
        if check_every < 1:
            raise ValueError("check_every must be >= 1")
        block = self._sync()
        if collector is not None:
            collector.view.adopt_engine(block)
        outcome = block._run_fused(max_rounds, check_every, collector)[0]
        if collector is not None:
            collector.finalize(outcome.stabilized, outcome.rounds)
        final = outcome.final_levels.astype(np.int64)
        self.levels = final.copy()
        return VectorizedResult(outcome.stabilized, outcome.rounds, outcome.mis, final)

    # Stability structure (paper Section 3) of the level vector.
    def mis_mask(self) -> npt.NDArray[np.bool_]:
        """Boolean mask of ``I_t``."""
        return self._sync().mis_mask().reshape(self.n)

    def stable_mask(self) -> npt.NDArray[np.bool_]:
        """Boolean mask of ``S_t = I_t ∪ N(I_t)``."""
        return self._sync().stable_mask().reshape(self.n)

    def is_legal(self) -> bool:
        """Legal iff S_t covers all vertices and the rest sit at ℓmax (two-state: IN is an MIS)."""
        return bool(self._sync().legal_mask()[0])

    def settled(self, vertices: Iterable[int]) -> bool:
        """True iff no vertex of ``vertices`` is active (:func:`~repro.core.kernels.round.active_of`).

        Reads only ``vertices``' levels and CSR rows, so it costs
        ``Σ deg(vertices)``, not ``n``.  Over every vertex it equals
        :meth:`is_legal`; over a subset it certifies legality when
        every other vertex is known settled — e.g. the dirty rows of a
        delta applied to a legal configuration, since a vertex's status
        reads only its own level, its neighbours' levels and its row.
        """
        csr = self.structure.csr
        block = self._block
        return not active_of(
            vertices,
            memoryview(self.levels),
            memoryview(block._floor),
            memoryview(block.ell_max),
            memoryview(csr.indptr),
            memoryview(csr.indices),
        )

    def mis_vertices(self) -> FrozenSet[int]:
        return self._sync().mis_vertices(0)

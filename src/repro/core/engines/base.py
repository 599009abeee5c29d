"""Shared machinery for every array-program execution engine.

The reference engine (:class:`repro.beeping.network.BeepingNetwork`)
defines the semantics; the engines in this package re-implement the
algorithms as numpy/scipy array programs for benchmark-scale runs.

:class:`EngineBase` centralizes what every level engine shares: the
structure and hear kernel, the stress models, the ``I_t`` / ``S_t``
masks, the legality predicate, level-vector validation, and the round
itself — :meth:`EngineBase.step` and the run loop both delegate to the
engine's :class:`~repro.core.kernels.RoundKernel`, whose round bodies
are the only round arithmetic.  Subclasses only pick the level range
(``uses_negative_levels``), which also selects the algorithm.

Bit-identical equivalence contract
----------------------------------
All engines draw exactly ``n`` uniforms per round via a single
``rng.random(n)`` call, in node order, and a vertex beeps iff
``u < p(ℓ)`` with the same double-precision ``p`` as the reference
engine.  Hence, for the same seed and initial levels, trajectories are
*identical* across engines — asserted by
``tests/test_engine_equivalence.py`` and ``tests/test_batched_engine.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Tuple, Union

import numpy as np
import numpy.typing as npt

from ...devtools.seeding import SeedLike, derive_seed_sequence, resolve_rng, rng_from_sequence
from ...graphs.graph import Graph
from ..kernels import (
    GraphStructure,
    HearKernel,
    PerRoundDraws,
    RoundKernel,
    structure_for,
)
from ..kernels.round import MAX_EXPONENT, pruned_legality, structure_pass
from ..knowledge import EllMaxPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...beeping.channels import BoundChannel, ChannelLike, ChannelModel
    from ...beeping.schedulers import BoundScheduler, Scheduler, SchedulerLike
    from ...obs.collectors import RunCollector

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

    One instance per solo engine (per replica in the batched engine),
    holding the bound models, their derived random streams, and the
    stale-beep carrier arrays behind the scheduler semantics (see
    ``docs/robustness.md``).  The round kernel calls its methods once
    per row and round.  ``ideal`` is True iff the channel is perfect
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

    The per-call derivation is what keeps solo and batched runs
    bit-identical under stress: the batched engine calls this once per
    replica with that replica's generator, mirroring the solo stream
    position exactly.
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
    """Common state, predicates and round for the level-based array engines.

    Subclasses declare :attr:`uses_negative_levels`: the level floor is
    then ``-ℓmax`` (Algorithm 1) or ``0`` (Algorithm 2), and the round
    kernel runs that algorithm.
    """

    #: True: floor ``-ℓmax``, Algorithm 1; False: floor 0, Algorithm 2.
    uses_negative_levels: bool

    def __init__(
        self,
        graph: Graph,
        policy: EllMaxPolicy,
        seed: SeedLike = None,
        channel: "ChannelLike" = None,
        scheduler: "SchedulerLike" = None,
    ):
        if policy.num_vertices != graph.num_vertices:
            raise ValueError("policy size does not match graph size")
        self.graph = graph
        self.n = graph.num_vertices
        # All derived adjacency forms come from the shared, content-keyed
        # structure cache; ``adjacency`` stays as the public alias every
        # existing consumer (collectors, tests) reads.  Shared structures
        # are read-only by contract.
        self.structure = structure_for(graph)
        self.adjacency = self.structure.csr
        self.kernel = HearKernel(self.structure)
        self.ell_max: npt.NDArray[np.int64] = np.asarray(
            policy.ell_max, dtype=np.int64
        )
        self.rng = resolve_rng(seed)
        # Channel/scheduler stress models (docs/robustness.md).  With
        # the defaults this binds the perfect channel + synchronous
        # scheduler, draws nothing, and the kernel gets no stress rows —
        # the byte-identity contract of the defaults.
        self._stress = bind_stress_models(self.n, channel, scheduler, self.rng)
        self.channel: "BoundChannel" = self._stress.channel
        self.channel_model: "ChannelModel" = self._stress.channel_model
        self.scheduler_model: "Scheduler" = self._stress.scheduler_model
        self._stress_rows: Optional[List[StressState]] = (
            None if self._stress.ideal else [self._stress]
        )
        self.levels: npt.NDArray[np.int64] = np.ones(self.n, dtype=np.int64)
        self.round_index = 0
        self._floor: npt.NDArray[np.int64] = (
            -self.ell_max
            if self.uses_negative_levels
            else np.zeros_like(self.ell_max)
        )
        # The uniform-draw buffer of :meth:`step`, bound once here and
        # refilled in place every round (the hot-path allocation
        # contract, docs/performance.md).
        self._draws: npt.NDArray[np.float64] = np.empty(
            (1, self.n), dtype=np.float64
        )
        self._levels32: npt.NDArray[np.int32] = np.empty(
            (1, self.n), dtype=np.int32
        )
        # The round kernel (docs/performance.md, "Fused round kernel")
        # runs every round; it is built on the first one and
        # re-targeted by :meth:`rebind`.
        self._fused: Optional[RoundKernel] = None

    # ------------------------------------------------------------------
    # Level management
    # ------------------------------------------------------------------
    def _floor_vector(self) -> npt.NDArray[np.int64]:
        """Per-vertex lowest admissible level (cached; treat as read-only)."""
        return self._floor

    def set_levels(self, levels: npt.ArrayLike) -> None:
        """Install a level vector (values are validated, not clamped)."""
        levels = np.asarray(levels, dtype=np.int64)
        if levels.shape != (self.n,):
            raise ValueError(f"levels must have shape ({self.n},)")
        floor = self._floor_vector()
        if np.any(levels < floor) or np.any(levels > self.ell_max):
            low = "-ℓmax" if self.uses_negative_levels else "0"
            raise ValueError(f"levels outside [{low}, ℓmax]")
        self.levels = levels.copy()

    def randomize_levels(self) -> None:
        """Uniform arbitrary configuration (full RAM corruption)."""
        floor = self._floor_vector()
        span = self.ell_max - floor + 1
        self.levels = (
            self.rng.integers(0, span, size=self.n).astype(np.int64) + floor
        )

    # ------------------------------------------------------------------
    # Topology rebinding (the long-lived-service path)
    # ------------------------------------------------------------------
    def rebind(
        self,
        structure: GraphStructure,
        policy: Optional[EllMaxPolicy] = None,
    ) -> None:
        """Swap in a new (patched) structure, carrying levels across.

        This is the resumable half of the serving loop: after a topology
        delta, the service patches the derived structure via
        :func:`repro.core.kernels.update_structure`, rebinds the engine,
        and calls :meth:`until_stable` — the engine re-stabilizes *from
        its current levels* instead of restarting, which is exactly the
        self-stabilization property the paper proves.

        ``policy`` is required when the vertex-id space grew (every
        per-vertex array changes size); otherwise the committed policy is
        kept.  Carried levels are preserved verbatim — self-stabilization
        makes any configuration a valid starting point — and vertices new
        to the id space start at level 1, the engines' canonical start.
        """
        if policy is not None:
            if policy.num_vertices != structure.n:
                raise ValueError("policy size does not match structure size")
            self.ell_max = np.asarray(policy.ell_max, dtype=np.int64)
        elif structure.n != self.n:
            raise ValueError(
                "rebind across a vertex-id-space change requires a policy"
            )
        old_n, old_levels = self.n, self.levels
        self.structure = structure
        self.graph = structure.graph
        self.n = structure.n
        self.adjacency = structure.csr
        self.kernel = HearKernel(structure)
        if self._fused is not None:
            self._fused.rebind(self.kernel, self.ell_max)
        self._floor = (
            -self.ell_max
            if self.uses_negative_levels
            else np.zeros_like(self.ell_max)
        )
        if self.n != old_n:
            levels = np.ones(self.n, dtype=np.int64)
            levels[:old_n] = old_levels
            self.levels = levels
            self._draws = np.empty((1, self.n), dtype=np.float64)
            self._levels32 = np.empty((1, self.n), dtype=np.int32)
        # Stress models follow the id space: scheduler clocks/carriers
        # re-bind on growth, the channel (counters included) carries over.
        self._stress.rebind(self.n)
        # A shrunk ℓmax could strand carried levels outside the band;
        # the uniform committed policies of the service never do, but
        # clamp defensively so ``step`` sees admissible state.
        np.clip(self.levels, self._floor, self.ell_max, out=self.levels)

    # ------------------------------------------------------------------
    # One synchronous round
    # ------------------------------------------------------------------
    def _kernel(self) -> RoundKernel:
        """The engine's round kernel, built on first use."""
        if self._fused is None:
            self._fused = RoundKernel(
                self.kernel,
                algorithm="single" if self.uses_negative_levels else "two_channel",
                ell_max=self.ell_max,
            )
        return self._fused

    def step(self) -> StepOutput:
        """One round; returns fresh copies of the *emitted* beeps.

        Algorithm 1 returns the beep vector, Algorithm 2 the ``(beep1,
        beep2)`` pair.  Under a non-synchronous scheduler delayed
        vertices emit their stale carriers and keep their levels, and a
        non-perfect channel perturbs heard1, then heard2.
        """
        levels = self._levels32
        np.copyto(levels[0], self.levels)
        self.rng.random(out=self._draws)
        emitted = self._kernel().step(
            levels, self._draws, self._stress_rows, self.round_index
        )
        np.copyto(self.levels, levels[0])
        self.round_index += 1
        if self.uses_negative_levels:
            return emitted[0].copy()
        return emitted[0].copy(), emitted[1].copy()

    # ------------------------------------------------------------------
    # Resumable run-until-legal (the other half of the serving protocol)
    # ------------------------------------------------------------------
    def until_stable(
        self,
        max_rounds: int,
        check_every: int = 1,
        collector: Optional["RunCollector"] = None,
    ) -> VectorizedResult:
        """Step from the *current* levels until the configuration is legal.

        ``rounds`` convention: legality is *observed* before stepping, at
        rounds ``0, check_every, 2·check_every, …`` — plus once more when
        the budget runs out.  With ``check_every=1`` (the default
        everywhere) the returned ``rounds`` is the exact number of rounds
        executed by *this call*; with a coarser cadence it may overshoot
        by up to ``check_every − 1`` rounds, trading accuracy for two
        fewer sparse matvecs per skipped round.

        The run is the fused :class:`~repro.core.kernels.RoundKernel`
        loop, stress models included; the result is the same as a
        hand-driven :meth:`step` loop's, byte for byte.

        ``collector`` (a :class:`repro.obs.RunCollector`) is fed inside
        the kernel from the structure pass the legality check uses, and
        gets the emitted beeps after each step.  It reads but never
        mutates state or draws, so the trajectory is unchanged.

        Unlike the historical one-shot drivers this never resets state:
        calling it again after a :meth:`rebind` (or any external level
        perturbation) continues the same engine, which is what lets a
        service carry levels across topology events.
        """
        if check_every < 1:
            raise ValueError("check_every must be >= 1")
        return self._run_fused(max_rounds, check_every, collector)

    def _run_fused(  # repro: cold
        self, max_rounds: int, check_every: int, collector: Optional["RunCollector"]
    ) -> VectorizedResult:
        """Delegate the run loop to the fused round kernel.

        Cold by annotation: this body runs once per *run* (the per-round
        loop lives in the kernel, which the analyzer roots separately),
        so its int64↔int32 boundary casts and the kernel's construction
        on the first run are one-time work.

        The kernel consumes uniforms through the engine's own generator
        via :class:`repro.core.kernels.PerRoundDraws`, and the stress
        models through their own streams, so every stream position
        after the run matches the step loop exactly (fault-recovery
        resumes mid-stream) and outcomes are byte-identical.
        """
        if collector is not None:
            collector.view.adopt_engine(self)
        levels32 = self.levels.astype(np.int32).reshape(1, self.n)
        draws = PerRoundDraws([self.rng], self.n)
        outcomes, executed = self._kernel().run_block(
            levels32, draws, max_rounds, check_every,
            self._stress_rows, self.round_index, collector,
        )
        draws.finish()
        self.round_index += executed
        outcome = outcomes[0]
        if collector is not None:
            collector.finalize(outcome.stabilized, outcome.rounds)
        final = outcome.final_levels.astype(np.int64)
        self.levels = final.copy()
        return VectorizedResult(
            stabilized=outcome.stabilized,
            rounds=outcome.rounds,
            mis=outcome.mis,
            final_levels=final,
        )

    # ------------------------------------------------------------------
    # Stability structure (paper Section 3), shared by both algorithms:
    # the kernels' one structure pass on the ``(1, n)`` level row.
    # ------------------------------------------------------------------
    def _structure(self) -> Tuple[npt.NDArray[np.bool_], ...]:
        return structure_pass(
            self.kernel, self.levels.reshape(1, self.n), self._floor, self.ell_max
        )

    def mis_mask(self) -> npt.NDArray[np.bool_]:
        """Boolean mask of ``I_t`` (paper Section 3)."""
        in_mis, _, _ = self._structure()
        return in_mis.reshape(self.n)

    def stable_mask(self) -> npt.NDArray[np.bool_]:
        """Boolean mask of ``S_t = I_t ∪ N(I_t)``."""
        in_mis, dominated, _ = self._structure()
        np.logical_or(in_mis, dominated, out=in_mis)
        return in_mis.reshape(self.n)

    def is_legal(self) -> bool:
        """Legal iff S_t covers all vertices and the rest sit at ℓmax.

        Pruned: a level strictly inside (floor, ℓmax) skips the hears.
        """
        legal, _, _ = pruned_legality(
            self.kernel, self.levels.reshape(1, self.n), self._floor, self.ell_max
        )
        return bool(legal[0])

    def mis_vertices(self) -> FrozenSet[int]:
        return frozenset(int(v) for v in np.nonzero(self.mis_mask())[0])

